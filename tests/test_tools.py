"""The repository's command-line tools, run as their users run them."""

from __future__ import annotations

import csv
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import same_bytes  # noqa: E402  (tools/same_bytes.py)

# `-S`: the tools run without site-packages, so without pytest or hypothesis.
SAME_BYTES = [sys.executable, "-S", str(ROOT / "tools" / "same_bytes.py")]
AB_PAIRS = [sys.executable, "-S", str(ROOT / "tools" / "ab_pairs.py")]
# One small synthetic case, a few bundles, and a mutation of each shipped case: a smoke run.
SMALL = ["--seeds", "1", "--sizes", "250", "--bundles", "4", "--mutations", "8"]


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def test_same_bytes_finds_one_tree_the_same_as_itself():
    done = _run([*SAME_BYTES, str(ROOT / "src"), str(ROOT / "src"), *SMALL])
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith("0 differing case(s)\n")
    (line,) = [line for line in done.stdout.splitlines() if line.startswith("mutations: ")]
    counts = dict(run.split() for run in line[line.index("(") + 1:-1].split(", "))
    # Every command runs: the eight mutations visit each shipped case once.
    assert list(counts) == ["validate", "code", "feeshare", "fetch"]
    assert all(int(n) > 0 for n in counts.values()), line
    total = sum(map(int, counts.values()))
    assert line.startswith(f"mutations: {total} of {total} the same ("), line


def test_same_bytes_names_each_case_whose_bytes_differ(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "evrc", changed / "evrc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = changed / "evrc" / "admissibility.py"
    text = module.read_text(encoding="utf-8")
    assert "satisfies all admissibility gates" in text
    module.write_text(text.replace("satisfies all admissibility gates",
                                   "satisfies every admissibility gate"), encoding="utf-8")
    done = _run([*SAME_BYTES, str(ROOT / "src"), str(changed), *SMALL])
    assert done.returncode == 1, done.stdout + done.stderr
    # The shipped cases with an accepted flow write its narrative.
    assert [line for line in done.stdout.splitlines() if "DIFFERS shipped" in line] == [
        f"DIFFERS shipped: {name}" for name in ("aave", "bitcoin", "ethereum", "usdc",
                                                "youtube")]


def _contents(case: Path) -> dict:
    """Each file below `case` by its relative path: a JSON file as sorted JSON
    text (so `1` and `true` differ), a row CSV as its rows."""
    contents = {}
    for path in sorted(p for p in case.rglob("*") if p.is_file()):
        if path.suffix == ".json":
            value = json.dumps(json.loads(path.read_text(encoding="utf-8")), sort_keys=True)
        else:
            with path.open(newline="", encoding="utf-8") as fh:
                value = list(csv.reader(fh))
        contents[path.relative_to(case).as_posix()] = value
    return contents


def test_every_mutation_changes_the_case(tmp_path):
    shipped = {p.name: _contents(p) for p in same_bytes.CASES.iterdir() if p.is_dir()}
    rng = random.Random(41)
    for i in range(80):
        case = same_bytes.mutated_case(i, rng, tmp_path)
        assert _contents(case) != shipped[case.name], i


@pytest.mark.parametrize("workload,size", [("synthetic_flows", "250"), ("block_rows", "10000"),
                                           ("shipped_cli", "1")])
def test_ab_pairs_times_one_tree_against_itself(workload, size):
    src = str(ROOT / "src")
    done = _run([*AB_PAIRS, src, src, "--workload", workload, "--sizes", size, "--pairs", "1"])
    assert done.returncode == 0, done.stdout + done.stderr
    (line,) = [line for line in done.stdout.splitlines() if line.split()[0] == size]
    assert line.endswith(" yes")
    # The median ratio between its quartiles, over every pair.
    (all_line,) = [line.split() for line in done.stdout.splitlines() if line.split()[0] == "all"]
    ratios = [float(ratio) for ratio in all_line[1:]]
    assert len(ratios) == 3 and ratios == sorted(ratios)
