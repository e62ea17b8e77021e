"""The builders that read and code a case run with the cyclic garbage
collector paused (`core_model.without_cycle_collection`), and leave it as
they found it. The pause is safe because the engine makes no reference
cycles: reference counting frees everything it builds, so with the collector
off, a `gc.collect()` after reading, coding and rendering finds nothing."""

from __future__ import annotations

import gc
import random
import sys
from pathlib import Path

import pytest
from helpers import make_bundle

import evrc
from evrc import cli, core_model, ingest, pipeline
from evrc.core_model import BLOCK_ROW, bundle_to_dict, without_cycle_collection
from evrc.errors import GateOrderingError, InputError, ParseError

ROOT = Path(__file__).resolve().parent.parent
CASES = ROOT / "cases"
BLOCKS = CASES / "bitcoin" / "rows" / "blocks.csv"

sys.path.insert(0, str(ROOT / "tools"))
import same_bytes  # noqa: E402  (tools/same_bytes.py)


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector, enabled or disabled as the test's caller left it; its
    state before the test is restored after it."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


def _spy(monkeypatch, owner, name: str, seen: list) -> None:
    """Record whether the collector is enabled each time `owner.name` is called."""
    inner = getattr(owner, name)

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return inner(*args, **kwargs)
    monkeypatch.setattr(owner, name, spy)


# builder -> (a call of it, and the owner and name of a function it calls
# after every builder it nests has returned)
BUILDERS = {
    "load_case": (lambda: ingest.load_case(CASES / "bitcoin"), ingest, "parse_bundle"),
    "run_case": (lambda: pipeline.run_case(ingest.load_case(CASES / "bitcoin").bundle),
                 pipeline, "render_report"),
    "read_rows": (lambda: core_model.read_rows(
        BLOCK_ROW, ingest.read_csv_rows(BLOCKS, BLOCK_ROW), "block_rows"),
        core_model, "check_rules"),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_a_builder_runs_with_the_collector_paused_and_leaves_it_as_found(
        name, collector, monkeypatch):
    build, owner, callee = BUILDERS[name]
    seen: list[bool] = []
    _spy(monkeypatch, owner, callee, seen)
    assert build() is not None
    assert seen and not any(seen)
    assert gc.isenabled() is collector


def _unvalidated_case():
    return core_model.parse_bundle(bundle_to_dict(ingest.load_case(CASES / "usdc").bundle))[0]


FAILING = {
    "load_case of no directory": (lambda tmp: ingest.load_case(tmp / "absent"), ParseError),
    "run_case of an unvalidated bundle": (lambda tmp: pipeline.run_case(_unvalidated_case()),
                                          GateOrderingError),
    "read_rows of a bad row": (lambda tmp: core_model.read_rows(
        BLOCK_ROW, [{"height": "1", "fees": "-1", "subsidy": "0"}], "block_rows"), InputError),
}


@pytest.mark.parametrize("name", FAILING)
def test_a_builder_that_raises_leaves_the_collector_as_found(name, collector, tmp_path):
    build, error = FAILING[name]
    with pytest.raises(error):
        build(tmp_path)
    assert gc.isenabled() is collector


def test_nested_builders_leave_a_paused_collector_paused(collector):
    @without_cycle_collection
    def outer():
        inner = ingest.load_case(CASES / "bitcoin")
        return gc.isenabled(), pipeline.run_case(inner.bundle), gc.isenabled()

    before, result, after = outer()
    assert (before, after) == (False, False)
    assert result.report.to_json()
    assert gc.isenabled() is collector


@pytest.fixture
def no_collector():
    before = gc.isenabled()
    gc.disable()
    yield
    if before:
        gc.enable()


def _garbage_of(work) -> int:
    """The objects `gc.collect()` finds unreachable once `work()` has run
    with the collector off, and its result has been dropped."""
    gc.collect()
    work()
    return gc.collect()


def _code_dir(case_dir: Path) -> None:
    result = ingest.load_case(case_dir)
    if result.ok:
        report = pipeline.run_case(result.bundle).report
        report.to_json(), report.to_text()


@pytest.mark.parametrize("name", sorted(p.name for p in CASES.iterdir() if p.is_dir()))
def test_coding_a_shipped_case_makes_no_reference_cycles(name, no_collector):
    assert _garbage_of(lambda: _code_dir(CASES / name)) == 0


def test_coding_random_bundles_makes_no_reference_cycles(no_collector):
    rng = random.Random(5)
    for i in range(30):
        data = bundle_to_dict(make_bundle(rng, max_flows=rng.choice([5, 30])))
        if i % 2:
            data = same_bytes.with_odd_ids(data, rng)
        # `code_dict` reads, validates and codes the bundle's combined-dict form.
        assert _garbage_of(lambda: same_bytes.code_dict(evrc, data)) == 0, i


def test_the_cli_on_mutated_cases_makes_no_reference_cycles(no_collector, tmp_path):
    # `cli.main` builds its parser once per process, and that build leaves
    # cycles of argparse's own; it is made here, before any run is counted.
    cli.build_parser()
    rng = random.Random(5)
    exits = {}
    for i in range(24):
        case = same_bytes.mutated_case(i, rng, tmp_path)
        for argv in same_bytes.case_argvs(case):
            def run(argv=argv):
                exits.setdefault(argv[0], set()).add(same_bytes.run_cli(evrc, argv)[0])
            assert _garbage_of(run) == 0, (i, argv)
    # Each command also fails on some mutations: its violations and errors
    # (and for `fetch`, exit 3 for an altered snapshot) make no cycles either.
    assert sorted(exits) == ["code", "feeshare", "fetch", "validate"]
    assert all(codes - {0} for codes in exits.values()) and 3 in exits["fetch"], exits
