"""The same bytes under every supported Python installed beside this one.

A child process codes the shipped cases and makes `tools/same_bytes.py`'s
CLI runs (`case_argvs`: `validate`, `code`, `feeshare` and replay `fetch`)
on seeded mutations of them (`mutated_case`), printing one digest per item.
The child's output under each other interpreter on PATH must equal its
output under this one. An interpreter that is not installed,
or does not start, is skipped with the reason.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTATIONS = 50

CHILD = f"""
import hashlib, random, sys
from pathlib import Path
sys.path.insert(0, {str(ROOT / "tools")!r})
import same_bytes
import evrc.cli

def digest(what):
    return hashlib.sha256(repr(what).encode("utf-8")).hexdigest()

for case in sorted(p for p in same_bytes.CASES.iterdir() if p.is_dir()):
    print(case.name, digest(same_bytes.code_dir(evrc, case)))
rng = random.Random(11)
for i in range({MUTATIONS}):
    case = same_bytes.mutated_case(i, rng, Path("mutated"))
    for argv in same_bytes.case_argvs(case):
        print(i, case.name, argv[0], digest(same_bytes.run_cli(evrc, argv)))
"""


def _digests(python: str, cwd: Path) -> str:
    """The child's output under `python`, run in `cwd` so that the mutated
    cases' paths, which messages name, read alike in every run."""
    cwd.mkdir()
    done = subprocess.run([python, "-S", "-c", CHILD], cwd=cwd, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def own_digests(tmp_path_factory) -> str:
    return _digests(sys.executable, tmp_path_factory.mktemp("parity") / "own")


@pytest.mark.parametrize("name", ["python3.10", "python3.11", "python3.12", "python3.13"])
def test_another_interpreter_writes_the_same_bytes(name, own_digests, tmp_path):
    python = shutil.which(name)
    if python is None:
        pytest.skip(f"{name} is not on PATH")
    try:
        probe = subprocess.run([python, "-S", "-c", "import sys; print(sys.executable)"],
                               capture_output=True, text=True, timeout=30)
    except OSError as exc:
        pytest.skip(f"{python} does not start: {exc}")
    if probe.returncode != 0:
        reason = probe.stderr.strip().splitlines()[:1]
        pytest.skip(f"{python} does not start: {''.join(reason)}")
    if os.path.realpath(probe.stdout.strip()) == os.path.realpath(sys.executable):
        pytest.skip(f"{python} is the interpreter running the tests")
    # validate and code of each mutation, then feeshare and fetch of each of
    # the 7 mutations of bitcoin and fetch of each of the 7 of aave.
    assert len(own_digests.splitlines()) == 8 + 2 * MUTATIONS + 2 * 7 + 7
    assert _digests(python, tmp_path / name) == own_digests
