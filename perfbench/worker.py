"""In-process coding loop for the synthetic_flows and block_rows workloads.

run.py starts it as a child process, so that its peak resident memory is
that of the coding alone:

    python3 perfbench/worker.py MANIFEST SECONDS TRACE

It loads every case of the manifest once and prints "ready", then reads
"go" or "quit" from stdin. After "go" it codes one untimed warm-up cycle,
runs the closed loop and prints its samples as one JSON line. After each
cycle it prints "cycle ELAPSED" and waits for a line on stdin, so that the
parent can set up again while the worker is idle. One op is
`load_case` -> `run_case` -> `to_json` + `to_text`.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter_ns

from check import check_report
from loop import closed_loop
from tracer import Tracer, add_counts, dump_spans, layer_times, merge

from evrc import ingest, pipeline


def main(manifest_path: str, seconds: str, trace: str) -> int:
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    cases = manifest["cases"]
    for case in cases:
        loaded = ingest.load_case(case["path"])
        if not loaded.ok:
            print(f"{case['path']}: {len(loaded.violations)} violations, "
                  f"first: {loaded.violations[:1]}", file=sys.stderr)
            return 1
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    tracer = Tracer()
    layers: dict[str, dict] = {}
    counts: dict[str, dict] = {}
    last_spans: list[list] = []

    def run_op(case: dict, traced: bool, op_id: int) -> tuple[int, str | None]:
        nonlocal last_spans
        gc.collect()
        if traced:
            tracer.op_id = op_id
            tracer.install()
        error = None
        start = perf_counter_ns()
        try:
            loaded = ingest.load_case(case["path"])
            if loaded.ok:
                report = pipeline.run_case(loaded.bundle).report
                report_json, report_text = report.to_json(), report.to_text()
            else:
                error = f"{len(loaded.violations)} violations"
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        ns = perf_counter_ns() - start
        if traced:
            tracer.uninstall()
            last_spans, op_counts = tracer.take()
            merge(layers.setdefault(case["group"], {}), layer_times(last_spans))
            add_counts(counts.setdefault(case["group"], {}), op_counts)
        if error is None:
            error = check_report(report_json, report_text, case["expected"])
        return ns, error

    for case in cases:
        _, error = run_op(case, False, -1)
        if error is not None:
            print(f"warm-up {case['group']}: {error}", file=sys.stderr)
            return 1

    def wait_for_parent(elapsed: float) -> None:
        print(f"cycle {elapsed}", flush=True)
        sys.stdin.readline()

    samples = closed_loop(cases, float(seconds), run_op, trace == "1",
                          after_cycle=wait_for_parent)
    if trace == "1":
        dump_spans(last_spans, Path(manifest["spans_out"]))
    print(json.dumps({
        "samples": samples, "layers": layers, "counts": counts,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
