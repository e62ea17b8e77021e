"""Golden report bytes: the shipped cases must code to exactly these files.

The goldens under `tests/golden/` were written by
`evrc code cases/<case> --out tests/golden/<case>.report.<ext> --format json|text`.
They pin the engine's behavioural contract, so a refactor that changes any
report byte fails here. The JSON goldens are also the files whose sha256 the
benchmark records in `perfbench/shipped_digests.json`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from helpers import CASE_NAMES

from evrc.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
FORMATS = {"json": "json", "text": "txt"}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("case", sorted(CASE_NAMES))
def test_report_bytes_match_golden(case, fmt, case_dir, tmp_path, capsys):
    out = tmp_path / f"{case}.report.{FORMATS[fmt]}"
    code = main(["code", str(case_dir(case)), "--out", str(out),
                 "--format", fmt, "--quiet"])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == (GOLDEN_DIR / out.name).read_bytes()


def test_json_goldens_match_shipped_digests():
    digests = json.loads(
        (REPO_ROOT / "perfbench" / "shipped_digests.json").read_text(encoding="utf-8"))
    assert sorted(digests) == sorted(CASE_NAMES)
    for case, digest in digests.items():
        golden = (GOLDEN_DIR / f"{case}.report.json").read_bytes()
        assert hashlib.sha256(golden).hexdigest() == digest, case
