"""Gating cost is linear in flows: one route lookup per flow.

The call count pins the complexity without timing noise; the timing check
is the coarse scaling bound on top of it.
"""

from __future__ import annotations

import random
import time
from decimal import Decimal

from helpers import make_bundle, make_route

from evrc.core_model import CaseBundle, Landing, Motive, ValueFlow
from evrc.pipeline import run_case


def _bundle(n_flows: int, seed: int = 0) -> CaseBundle:
    """A valid bundle of `n_flows` flows, about 70% of them routed."""
    rng = random.Random(seed)
    flows, routes = [], []
    for i in range(n_flows):
        flows.append(ValueFlow(
            id=f"f{i}", amount=Decimal(rng.randint(0, 10**6)).scaleb(-2),
            currency="USD", period_label="P1", motive=rng.choice(list(Motive)),
            landing=rng.choice(list(Landing)), landing_note="generated"))
        if rng.random() < 0.7:
            routes.append(make_route(rng, flow_id=f"f{i}", route_id=f"r{i}"))
    return make_bundle(rng, max_flows=0)._replace(flows=tuple(flows),
                   routes=tuple(routes))


def test_run_case_looks_up_each_flows_route_once(monkeypatch):
    bundle = _bundle(8000)
    calls = []
    lookup = CaseBundle.route_for_flow

    def counting(self, flow_id):
        calls.append(flow_id)
        return lookup(self, flow_id)

    monkeypatch.setattr(CaseBundle, "route_for_flow", counting)
    run_case(bundle)
    assert len(calls) == len(bundle.flows) == 8000


def _best_seconds_per_flow(n_flows: int) -> float:
    bundle = _bundle(n_flows)
    best = float("inf")
    for _ in range(3):
        fresh = bundle._replace()  # a new instance builds its own route index
        start = time.perf_counter()
        run_case(fresh)
        best = min(best, time.perf_counter() - start)
    return best / n_flows


def test_time_per_flow_at_8k_is_within_3x_of_1k():
    small, large = _best_seconds_per_flow(1000), _best_seconds_per_flow(8000)
    assert large <= 3 * small, (
        f"{large * 1e6:.1f} us/flow at 8k flows against {small * 1e6:.1f} at 1k")
