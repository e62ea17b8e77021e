"""The evrc benchmark. From the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (README.md says why each was chosen):
  shipped_cli      `evrc code --cases` child processes over copies of the
                   eight shipped cases
  synthetic_flows  in-process load_case -> run_case -> to_json + to_text over
                   a seeded corpus of 250 to 4000 flows per case
  block_rows       the same calls over bitcoin-shaped cases of 10k to 40k
                   block rows

Every op's output is checked. The run prints each metric by name with its
unit, then one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, from spans recorded around the engine's public functions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from check import check_reports_dir
from loop import SetupSchedule, above_p90, closed_loop, p50_p90
from tracer import add_counts, dump_spans, layer_times, merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS_OUT = ROOT / ".perfbench_out"
# Set-ups per untraced run, spread over its measured time; setup_s is their
# median. A shipped set-up takes about 0.3 s, so it is repeated more often.
SETUPS = 5
SHIPPED_SETUPS = 9
CLI_MAIN = "import sys; from evrc.cli import main; sys.exit(main())"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("items_per_s", "1/s"),
    ("per_item_growth", "ratio"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("cli.import_ms", "ms"),
    ("ingest.load_case.ms", "ms"),
    ("ingest.bytes_read", "bytes"),
    ("core_model.parse_bundle.ms", "ms"),
    ("core_model.validate_bundle.ms", "ms"),
    ("core_model.validate_bundle.calls", "count"),
    ("core_model.route_for_flow.ms", "ms"),
    ("core_model.route_for_flow.calls", "count"),
    ("numerator.net_external_value.ms", "ms"),
    ("admissibility.assign_band.ms", "ms"),
    ("admissibility.assign_band.calls", "count"),
    ("admissibility.admit_flow.ms", "ms"),
    ("admissibility.admit_flow.calls", "count"),
    ("admissibility.classify_breakpoints.ms", "ms"),
    ("coverage.coverage_for_bundle.ms", "ms"),
    ("coverage.btc_fee_share.ms", "ms"),
    ("coverage.btc_fee_share.windows", "count"),
    ("claims.gate_all_claims.ms", "ms"),
    ("claims.render_report.ms", "ms"),
    ("claims.to_json.ms", "ms"),
    ("claims.to_text.ms", "ms"),
    ("claims.report_bytes", "bytes"),
    ("pipeline.run_case.ms", "ms"),
    ("pipeline.run_case.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


class RunError(Exception):
    """Set-up failed its check, or the coding process did not finish."""


def _start_worker(manifest: Path, args) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(manifest), str(args.seconds),
         str(args.trace)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=ENV, text=True)
    if proc.stdout.readline().strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RunError("the worker did not load the generated cases")
    return proc


def run_in_process(args, work: Path, generate) -> dict:
    """Set up (generate, write, start the worker, which loads every case
    once) and let that worker run the loop. Untraced, set up again between
    its cycles while it waits, SETUPS times in all."""

    def set_up(rep: int) -> tuple[float, subprocess.Popen, list[dict]]:
        start = time.perf_counter()
        cases = generate(work / f"setup-{rep}", args.seed)
        manifest = work / f"manifest-{rep}.json"
        manifest.write_text(json.dumps({
            "cases": cases,
            "spans_out": str(SPANS_OUT / f"{args.workload}-spans.jsonl"),
        }), encoding="utf-8")
        proc = _start_worker(manifest, args)
        return time.perf_counter() - start, proc, cases

    def set_up_again(rep: int) -> float:
        took, spare, _ = set_up(rep)
        spare.communicate("quit\n")
        shutil.rmtree(work / f"setup-{rep}")
        return took

    took, proc, cases = set_up(0)
    setups = SetupSchedule(1 if args.trace else SETUPS, args.seconds, set_up_again, took)
    watchdog = threading.Timer(4 * args.seconds + 60, proc.kill)
    watchdog.start()
    out = ""
    try:
        proc.stdin.write("go\n")
        proc.stdin.flush()
        for line in iter(proc.stdout.readline, ""):
            if line.startswith("cycle "):
                setups.after_cycle(float(line.split()[1]))
                proc.stdin.write("continue\n")
                proc.stdin.flush()
            else:
                out = line
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RunError(f"the worker exited with {proc.returncode}")
    result = json.loads(out)
    result["setups"] = setups.finish()
    result["cycle_len"] = len(cases)
    return result


def _cli_op(batch: dict, traced: bool, op_id: int, digests: dict, result: dict):
    batch_dir = Path(batch["path"])
    out = batch_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = ["code", "--cases", str(batch_dir / "in" / "*"), "--out", str(out),
            "--format", "json"]
    spans_file = batch_dir / "spans.json"
    prefix = ([sys.executable, str(HERE / "cli_child.py"), str(spans_file), str(op_id)]
              if traced else [sys.executable, "-c", CLI_MAIN])
    start = time.perf_counter_ns()
    try:
        proc = subprocess.run(prefix + argv, env=ENV, capture_output=True, text=True,
                              timeout=60)
    except subprocess.TimeoutExpired:
        return time.perf_counter_ns() - start, "timed out after 60 s"
    ns = time.perf_counter_ns() - start
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return ns, f"exit {proc.returncode}: {tail[0]}"
    if traced:
        recorded = json.loads(spans_file.read_text(encoding="utf-8"))
        result["last_spans"] = recorded["spans"]
        merge(result["layers"].setdefault(batch["group"], {}),
              layer_times(recorded["spans"]))
        add_counts(result["counts"].setdefault(batch["group"], {}), recorded["counts"])
    return ns, check_reports_dir(out, batch["reports"], digests)


def run_shipped(args, work: Path) -> dict:
    """Set up (copy the shipped cases, code the first batch once and check
    it), then run the loop over `evrc` child processes. Untraced, set up
    again between cycles, SHIPPED_SETUPS times in all."""
    import corpus

    digests = json.loads(corpus.SHIPPED_DIGESTS.read_text(encoding="utf-8"))
    result: dict = {"layers": {}, "counts": {}, "last_spans": []}

    def set_up(rep: int) -> tuple[float, list[dict]]:
        start = time.perf_counter()
        batches = {b["group"]: b for b in corpus.copy_shipped(work / f"setup-{rep}")}
        cycle = [batches[f"copies-{n}"] for n in corpus.SHIPPED_COPIES]
        _, error = _cli_op(cycle[0], False, -1, digests, result)
        if error is not None:
            raise RunError(f"warm-up batch: {error}")
        return time.perf_counter() - start, cycle

    def set_up_again(rep: int) -> float:
        took, _ = set_up(rep)
        shutil.rmtree(work / f"setup-{rep}")
        return took

    def run_op(batch, traced, op_id):
        return _cli_op(batch, traced, op_id, digests, result)

    took, cycle = set_up(0)
    setups = SetupSchedule(1 if args.trace else SHIPPED_SETUPS, args.seconds,
                           set_up_again, took)
    result["samples"] = closed_loop(cycle, args.seconds, run_op, bool(args.trace),
                                    after_cycle=setups.after_cycle)
    result["setups"] = setups.finish()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["cycle_len"] = len(cycle)
    if args.trace:
        dump_spans(result["last_spans"], SPANS_OUT / f"{args.workload}-spans.jsonl")
    return result


def end_to_end(result: dict) -> dict[str, float]:
    samples = [s for s in result["samples"] if not s[4]]
    times = [s[2] / 1e6 for s in samples]
    p50, p90 = p50_p90(times)
    growth = []
    for k in range(0, len(samples), result["cycle_len"]):
        cycle = samples[k:k + result["cycle_len"]]
        sizes = [s[1] for s in cycle]
        per_item = [statistics.mean(s[2] / s[1] for s in cycle if s[1] == size)
                    for size in (max(sizes), min(sizes))]
        growth.append(per_item[0] / per_item[1])
    done = sum(s[1] for s in samples if s[3] is None)
    return {
        "setup_s": statistics.median(result["setups"]),
        "op_ms.p50": p50,
        "op_ms.p90": p90,
        "items_per_s": done / (sum(s[2] for s in samples) / 1e9),
        "per_item_growth": statistics.median(growth),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def _time_process(argv: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=ENV, check=True)
    return (time.perf_counter() - start) * 1e3


def import_ms(reps: int = 9) -> float:
    """Fresh-interpreter `import evrc.cli` minus a bare interpreter start."""
    bare, full = [], []
    for _ in range(reps):
        bare.append(_time_process([sys.executable, "-c", "pass"]))
        full.append(_time_process([sys.executable, "-c", "import evrc.cli"]))
    return statistics.median(full) - statistics.median(bare)


def per_layer(result: dict) -> dict[str, float]:
    layers: dict[str, list[int]] = {}
    for group_layers in result["layers"].values():
        merge(layers, group_layers)
    counts: dict[str, int] = {}
    for group_counts in result["counts"].values():
        add_counts(counts, group_counts)
    traced = [s for s in result["samples"] if s[4]]
    untraced_ns = sum(s[2] for s in result["samples"] if not s[4])
    ops = len(traced)
    metrics = {"cli.import_ms": import_ms(),
               "trace.overhead_ratio": sum(s[2] for s in traced) / untraced_ns}
    for name, _ in PER_LAYER:
        if name in metrics:
            continue
        span, _, kind = name.rpartition(".")
        row = layers.get(span, [0, 0, 0])
        if kind == "calls":
            metrics[name] = row[2] / ops
        elif kind == "self_ms" or (kind == "ms" and span != "pipeline.run_case"):
            metrics[name] = row[0] / 1e6 / ops
        elif kind == "ms":  # pipeline.run_case.ms is inclusive of its children
            metrics[name] = row[1] / 1e6 / ops
        else:
            metrics[name] = counts.get(name, 0) / ops
    return metrics


def _print_groups(result: dict) -> None:
    """Per size group: run_case time per op, route_for_flow's share of it,
    and the three largest self times."""
    traced = [s for s in result["samples"] if s[4]]
    items = {s[0]: s[1] for s in traced}
    for group in sorted(result["layers"], key=items.__getitem__):
        layers = result["layers"][group]
        ops = sum(1 for s in traced if s[0] == group)
        run_case = layers.get("pipeline.run_case", [0, 0, 0])[1] / 1e6 / ops
        route = layers.get("core_model.route_for_flow", [0, 0, 0])[0] / 1e6 / ops
        top = sorted(layers.items(), key=lambda kv: -kv[1][0])[:3]
        print(f"  {group}: run_case {run_case:.2f} ms/op, "
              f"route_for_flow {route / run_case:.0%} of it; largest self times: "
              + ", ".join(f"{name} {row[0] / 1e6 / ops:.2f} ms" for name, row in top))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["shipped_cli", "synthetic_flows", "block_rows"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "evrc" / "__init__.py").is_file() or not (ROOT / "cases").is_dir():
        print(f"error: no evrc source tree and shipped cases under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import corpus

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.workload == "shipped_cli":
            result = run_shipped(args, work)
        else:
            generate = (corpus.generate_synthetic if args.workload == "synthetic_flows"
                        else corpus.generate_blocks)
            result = run_in_process(args, work, generate)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    samples = result["samples"]
    failures = [s for s in samples if s[3] is not None]
    times = [s[2] / 1e6 for s in samples if not s[4]]
    above = above_p90(times)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{len(samples)} ops, {len(times)} untraced samples, {above} above p90")
    for group, items, _, error, _ in failures[:5]:
        print(f"  FAILED {group} ({items} items): {error}")
    print(f"  {'failed_ratio':<40} {len(failures) / len(samples):.4f} ratio")
    if args.trace:
        metrics = per_layer(result)
        units = dict(PER_LAYER)
        _print_groups(result)
        if args.workload == "shipped_cli":
            p50 = p50_p90(times)[0]
            print(f"  cli.import_ms is {metrics['cli.import_ms'] / p50:.0%} of this "
                  f"run's untraced op_ms.p50 ({p50:.2f} ms)")
    else:
        metrics = end_to_end(result)
        units = dict(END_TO_END)
        if above < 10:
            print(f"  warning: only {above} samples above p90")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.4f} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in (PER_LAYER if args.trace else END_TO_END)},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
