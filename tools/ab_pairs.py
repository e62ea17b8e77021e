"""Time two source trees of the engine against each other, in pairs.

    python tools/ab_pairs.py SRC_A SRC_B [--workload W] [--seed N] [--pairs N]
                             [--sizes N ...]

SRC_A and SRC_B are source roots, each holding an `evrc` package (for
example `src` of two checkouts). The workloads are the benchmark's, their
cases those of `perfbench/corpus.py`:

- `synthetic_flows` (the default): seeded cases of 250 to 4000 flows;
- `block_rows`: seeded bitcoin-shaped cases of 10k to 40k block rows, read
  from a row CSV;
- `shipped_cli`: batches of 1, 2 or 4 copies of the shipped cases.

`--sizes` gives flows, rows or copies. For the first two, each package is
copied into a temporary directory under its own name, `evrc_a` and `evrc_b`,
and both are imported into this one process (the package imports are
relative, so the copies work side by side); one op is the benchmark's:
`load_case`, `run_case`, then `to_json` and `to_text`. For `shipped_cli`,
one op is a child process, `evrc code --cases <batch>/in/* --out <dir>
--format json`, which inherits this process's environment with its side's
source root put first on `PYTHONPATH`; so its bytecode state
(`PYTHONDONTWRITEBYTECODE`, any `__pycache__` in the trees) is the one the
benchmark sees, and start-up and imports are timed with it.

For each size, each pair runs one op with A and one with B, the order
alternating from pair to pair, so that both sides of a pair see the host at
about the same speed. The script prints, per size, each side's median op
time, the median of the per-pair time ratios B/A between their lower and
upper quartiles, and how many pairs B won; and whether A and B wrote the
same report bytes. The `all` line gives the same three ratios over every
pair. A move smaller than the spread between the quartiles is not resolved
by one run; repeat it on other seeds.
"""

from __future__ import annotations

import argparse
import gc
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402  (perfbench/corpus.py, found through sys.path)
from same_bytes import load_package  # noqa: E402  (tools/same_bytes.py, beside this one)

MAIN = "import sys; from evrc.cli import main; sys.exit(main())"


def quartiles(ratios: list[float]) -> str:
    """The lower quartile, median and upper quartile of `ratios`, as columns."""
    cuts = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    return " ".join(f"{cut:>6.3f}" for cut in cuts)


class Side:
    """One tree under test: its source root, its package imported here, and
    the directory its `evrc code --cases` child writes to."""

    def __init__(self, src: Path, name: str, work: Path):
        self.src = src
        self.package = load_package(src, name, work)
        self.out = work / f"out-{name}"


def code_case(side: Side, case_dir: Path) -> tuple[int, tuple]:
    """(ns, JSON and text report) of one in-process op on `case_dir`."""
    gc.collect()
    start = perf_counter_ns()
    report = side.package.pipeline.run_case(side.package.ingest.load_case(case_dir).bundle).report
    written = report.to_json(), report.to_text()
    return perf_counter_ns() - start, written


def code_cases(side: Side, batch: Path) -> tuple[int, dict]:
    """(ns, report bytes by file name) of one `evrc code --cases` process."""
    shutil.rmtree(side.out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(side.src), os.environ.get("PYTHONPATH")) if p))
    start = perf_counter_ns()
    subprocess.run([sys.executable, "-c", MAIN, "code", "--cases", str(batch / "in" / "*"),
                    "--out", str(side.out), "--format", "json"],
                   env=env, capture_output=True, check=True)
    ns = perf_counter_ns() - start
    return ns, {p.name: p.read_bytes() for p in sorted(side.out.iterdir())}


def _written_case(make_bundle):
    def write(seed: int, n: int, group: int, work: Path) -> Path:
        case_dir = work / f"case-{n:06d}"
        corpus.write_case(make_bundle(seed, n, group), case_dir)
        return case_dir
    return write


def _shipped_batch(seed: int, n: int, group: int, work: Path) -> Path:
    if not (work / "shipped").exists():
        corpus.copy_shipped(work / "shipped")
    return work / "shipped" / f"copies-{n}"


# workload -> (what a size counts, default sizes, what one size's op reads,
#              given (seed, size, group, work dir), op)
WORKLOADS = {
    "synthetic_flows": ("flows", corpus.SYNTHETIC_SIZES,
                        _written_case(corpus.synthetic_bundle), code_case),
    "block_rows": ("rows", tuple(dict.fromkeys(corpus.BLOCK_ROWS)),
                   _written_case(lambda seed, n, group: corpus.block_bundle(seed, n)),
                   code_case),
    "shipped_cli": ("copies", tuple(sorted(set(corpus.SHIPPED_COPIES))), _shipped_batch,
                    code_cases),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="synthetic_flows")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=25)
    parser.add_argument("--sizes", type=int, nargs="+")
    args = parser.parse_args(argv)
    unit, default_sizes, make_input, op = WORKLOADS[args.workload]
    sizes = args.sizes or default_sizes
    if args.workload == "shipped_cli" and not set(sizes) <= set(default_sizes):
        parser.error(f"shipped_cli sizes are copies per batch: {default_sizes}")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        sys.path.insert(0, str(work))
        a = Side(args.src_a.resolve(), "evrc_a", work)
        b = Side(args.src_b.resolve(), "evrc_b", work)
        print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs per size; "
              f"ratio = B/A, below 1 means B is faster")
        print(f"{unit:>6} {'A ms':>8} {'B ms':>8} {'q1':>6} {'ratio':>6} {'q3':>6} "
              f"{'B won':>6}  same bytes")
        ratios = []
        for group, n in enumerate(sizes):
            target = make_input(args.seed, n, group, work)
            _, written_a = op(a, target)  # warm-up
            _, written_b = op(b, target)
            times_a, times_b = [], []
            for pair in range(args.pairs):
                sides = ((a, times_a), (b, times_b))
                for side, times in sides if pair % 2 == 0 else sides[::-1]:
                    times.append(op(side, target)[0])
            pair_ratios = [tb / ta for ta, tb in zip(times_a, times_b)]
            ratios += pair_ratios
            won = sum(tb < ta for ta, tb in zip(times_a, times_b))
            print(f"{n:>6} {statistics.median(times_a) / 1e6:>8.2f} "
                  f"{statistics.median(times_b) / 1e6:>8.2f} "
                  f"{quartiles(pair_ratios)} {won:>3}/{args.pairs:<3} "
                  f"{'yes' if written_a == written_b else 'NO'}")
        print(f"{'all':>6} {'':>8} {'':>8} {quartiles(ratios)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
