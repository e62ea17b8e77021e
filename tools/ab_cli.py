"""Time `evrc code --cases` processes of two source trees against each other, in pairs.

    python tools/ab_cli.py SRC_A SRC_B [--pairs N]

SRC_A and SRC_B are source roots, each holding an `evrc` package (for
example `src` of two checkouts). The shipped cases are copied once into a
temporary directory, and each side codes that copy in a child process,
`evrc code --cases <copy>/* --out <dir> --format json`, as the benchmark's
`shipped_cli` workload does. A child inherits this process's environment
with its side's source root put first on `PYTHONPATH`, so its bytecode
state (`PYTHONDONTWRITEBYTECODE`, any `__pycache__` in the trees) is the
one the benchmark sees. `ab_pairs.py` times ops inside one process; this
times whole processes, start-up and imports included.

Each pair runs A once and B once, the order alternating from pair to pair,
so that both sides of a pair see the host at about the same speed. The
script prints each side's median and quartiles of the process time, the
median of the per-pair time ratios B/A, how many pairs B won, and whether
A and B wrote the same report bytes.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
MAIN = "import sys; from evrc.cli import main; sys.exit(main())"


def code_cases(src: Path, cases: Path, out: Path) -> int:
    """ns of one `evrc code --cases` process of the package under `src`."""
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    start = perf_counter_ns()
    subprocess.run([sys.executable, "-c", MAIN, "code", "--cases", str(cases / "*"),
                    "--out", str(out), "--format", "json"],
                   env=env, capture_output=True, check=True)
    return perf_counter_ns() - start


def reports(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "cases", work / "cases")
        sides = {"A": (args.src_a.resolve(), work / "out-a", []),
                 "B": (args.src_b.resolve(), work / "out-b", [])}
        for side in sides.values():  # warm-up: the file cache, not the bytecode
            code_cases(side[0], work / "cases", side[1])
        for pair in range(args.pairs):
            for name in ("AB" if pair % 2 == 0 else "BA"):
                src, out, times = sides[name]
                times.append(code_cases(src, work / "cases", out))
        (_, out_a, times_a), (_, out_b, times_b) = sides.values()
        print(f"{args.pairs} pairs of `evrc code --cases` over {len(reports(out_a))} "
              f"shipped cases; ratio = B/A, below 1 means B is faster")
        for name, times in (("A", times_a), ("B", times_b)):
            q1, median, q3 = statistics.quantiles(times, n=4)
            print(f"{name}: median {median / 1e6:.1f} ms, quartiles "
                  f"{q1 / 1e6:.1f}-{q3 / 1e6:.1f} ms")
        ratios = [tb / ta for ta, tb in zip(times_a, times_b)]
        won = sum(tb < ta for ta, tb in zip(times_a, times_b))
        same = reports(out_a) == reports(out_b)
        print(f"ratio {statistics.median(ratios):.3f}, B won {won}/{args.pairs}, "
              f"same report bytes: {'yes' if same else 'NO'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
