"""Time two source trees of the engine against each other, in pairs.

    python tools/ab_pairs.py SRC_A SRC_B [--seed N] [--pairs N] [--sizes N ...]

SRC_A and SRC_B are source roots, each holding an `evrc` package (for
example `src` of two checkouts). Each package is copied into a temporary
directory under its own name, `evrc_a` and `evrc_b`, and both are imported
into this one process; the package imports are relative, so the copies work
side by side. The cases are the seeded `synthetic_flows` cases of
`perfbench/corpus.py`.

For each size, each pair codes the case once with A and once with B, the
order alternating from pair to pair, so that both sides of a pair see the
host at about the same speed. One op is the benchmark's: `load_case`,
`run_case`, then `to_json` and `to_text`. The script prints, per size, each
side's median op time, the median of the per-pair time ratios B/A, and how
many pairs B won; and whether A and B wrote the same report bytes.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402  (perfbench/corpus.py, found through sys.path)


def load_package(src: Path, name: str, into: Path):
    """Import a copy of `src/evrc` as the package `name`."""
    shutil.copytree(src / "evrc", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def code_case(package, case_dir: str) -> tuple[int, str, str]:
    """(ns, JSON report, text report) of one op on `case_dir`."""
    gc.collect()
    start = perf_counter_ns()
    report = package.pipeline.run_case(package.ingest.load_case(case_dir).bundle).report
    report_json, report_text = report.to_json(), report.to_text()
    return perf_counter_ns() - start, report_json, report_text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=25)
    parser.add_argument("--sizes", type=int, nargs="+", default=list(corpus.SYNTHETIC_SIZES))
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        sys.path.insert(0, str(work))
        a = load_package(args.src_a.resolve(), "evrc_a", work)
        b = load_package(args.src_b.resolve(), "evrc_b", work)
        print(f"seed {args.seed}, {args.pairs} pairs per size; ratio = B/A, "
              f"below 1 means B is faster")
        print(f"{'flows':>6} {'A ms':>8} {'B ms':>8} {'ratio':>6} {'B won':>6}  same bytes")
        ratios = []
        for group, n in enumerate(args.sizes):
            case_dir = str(work / f"flows-{n:05d}")
            corpus.write_case(corpus.synthetic_bundle(args.seed, n, group), Path(case_dir))
            _, json_a, text_a = code_case(a, case_dir)  # warm-up
            _, json_b, text_b = code_case(b, case_dir)
            times_a, times_b = [], []
            for pair in range(args.pairs):
                sides = ((a, times_a), (b, times_b))
                for package, times in sides if pair % 2 == 0 else sides[::-1]:
                    times.append(code_case(package, case_dir)[0])
            pair_ratios = [tb / ta for ta, tb in zip(times_a, times_b)]
            ratios += pair_ratios
            won = sum(tb < ta for ta, tb in zip(times_a, times_b))
            same = json_a == json_b and text_a == text_b
            print(f"{n:>6} {statistics.median(times_a) / 1e6:>8.2f} "
                  f"{statistics.median(times_b) / 1e6:>8.2f} "
                  f"{statistics.median(pair_ratios):>6.3f} {won:>3}/{args.pairs:<3} "
                  f"{'yes' if same else 'NO'}")
        print(f"{'all':>6} {'':>8} {'':>8} {statistics.median(ratios):>6.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
