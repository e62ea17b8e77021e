"""Cost is linear in flows and in block rows, counted in interpreted opcodes.

Each layer's opcodes are counted at n, 2n and 4n items. In
`(c(4n) - c(2n)) / (c(2n) - c(n))` a fixed cost cancels: a linear layer reads
about 2, and a quadratic step pushes the ratio toward 4. Counts do not move
with the host's speed, as times do. They see only work done in Python: a
quadratic step inside one C call, such as `x in some_list`, is one opcode.
"""

from __future__ import annotations

import sys
from pathlib import Path

from evrc.coverage import btc_fee_share
from evrc.ingest import load_case
from evrc.pipeline import run_case

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402  (perfbench/corpus.py, found through sys.path)

# On 3.10-3.13 these sizes read at most 2.19 for reading, 1.90 for coding,
# 1.97 for rendering and 2.02 for the fee share; coding read 2.95-3.00 with
# a step in `compute_rav` that rescans the accepted flow ids for each flow.
MAX_RATIO = 2.5
FLOWS = (200, 400, 800)
ROWS = (2000, 4000, 8000)


def _opcodes(fn, *args) -> int:
    """The opcodes the interpreter runs in the frames `fn(*args)` enters."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        # Set at every event: set only at "call", 3.13.0 sends some frames
        # no opcode events.
        frame.f_trace_opcodes = True
        count += event == "opcode"
        return trace

    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return count


def _ratio(counts: list[int]) -> float:
    small, mid, large = counts
    return (large - mid) / (mid - small)


def _render(report) -> None:
    report.to_json()
    report.to_text()


def _code(case: Path) -> None:
    _render(run_case(load_case(case).bundle).report)


def test_reading_coding_and_rendering_are_linear_in_flows(tmp_path):
    cases = []
    for n in FLOWS:
        corpus.write_case(corpus.synthetic_bundle(3, n, 0), tmp_path / str(n))
        cases.append(tmp_path / str(n))
    # A first traced pass, whose counts are dropped: they hold the set-up of
    # first calls, such as a gate outcome shape met for the first time, and
    # on 3.12.1 a process's first tracing sends no opcode events.
    for case in cases:
        _opcodes(_code, case)

    counts = {"load_case": [], "run_case": [], "render": []}
    for case in cases:
        counts["load_case"].append(_opcodes(load_case, case))
        bundle = load_case(case).bundle
        counts["run_case"].append(_opcodes(run_case, bundle))
        counts["render"].append(_opcodes(_render, run_case(bundle).report))
    ratios = {layer: _ratio(c) for layer, c in counts.items()}
    assert all(r <= MAX_RATIO for r in ratios.values()), (ratios, counts)


def test_fee_share_is_linear_in_rows():
    rows = [corpus.block_bundle(3, n).block_rows for n in ROWS]
    _opcodes(btc_fee_share, rows[0], corpus.FEESHARE_WINDOW)  # dropped, as above
    counts = [_opcodes(btc_fee_share, r, corpus.FEESHARE_WINDOW) for r in rows]
    assert _ratio(counts) <= MAX_RATIO, counts
