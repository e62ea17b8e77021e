"""Output checks: each returns None when the output is right, else the reason."""

from __future__ import annotations

import hashlib
import json
from decimal import Decimal
from pathlib import Path

DECISION_LETTER = {"accepted": "a", "rejected": "r", "source_blocked": "s"}


def check_report(report_json: str, report_text: str, expected: dict) -> str | None:
    """Compare one coded report with the values the generator derived."""
    doc = json.loads(report_json)
    outcomes = doc["gate_outcomes"]
    if [o["flow_id"] for o in outcomes] != expected["flow_ids"]:
        return "gate outcomes do not list the case's flows in order"
    decisions = "".join(DECISION_LETTER.get(o["decision"], "?") for o in outcomes)
    if decisions != expected["decisions"]:
        i = next(i for i, (a, b) in enumerate(zip(decisions, expected["decisions"]))
                 if a != b)
        return (f"flow {outcomes[i]['flow_id']}: decision {outcomes[i]['decision']!r}, "
                f"expected {expected['decisions'][i]!r}")
    coverage = doc["coverage"]
    for key in ("rav_weighted", "rav_unweighted"):
        if Decimal(coverage[key]["value"]) != Decimal(expected[key]):
            return f"{key} {coverage[key]['value']}, expected {expected[key]}"
    line = (f"RAV weighted: {coverage['rav_weighted']['value']}  "
            f"unweighted: {coverage['rav_unweighted']['value']}\n")
    if line not in report_text:
        return "text report does not carry the RAV line"
    if "fee_share" in expected:
        return _check_fee_share(doc["row_analytics"].get("btc_fee_share"),
                                expected["fee_share"])
    return None


def _check_fee_share(got: dict | None, expected: dict) -> str | None:
    if got is None:
        return "report has no btc_fee_share section"
    if got["windows_skipped"] != expected["skipped"]:
        return "skipped window starts differ"
    if got["windows_evaluated"] + len(got["windows_skipped"]) != expected["windows"]:
        return f"{got['windows_evaluated']} windows evaluated, expected " \
               f"{expected['windows'] - len(expected['skipped'])}"
    # Reports render decimals to 28 significant digits; the expected share
    # is exact to 50.
    want = Decimal(expected["max_share"])
    if got["max_share"] is None or \
            abs(Decimal(got["max_share"]["value"]) - want) > want.scaleb(-26):
        return "max fee share differs"
    if got["max_window_start"] != expected["max_window_start"]:
        return "max fee share window start differs"
    return None


def check_reports_dir(out_dir: Path, reports: dict[str, str],
                      digests: dict[str, str]) -> str | None:
    """Every expected report file exists, and nothing else, and each file's
    sha256 equals the recorded digest of the shipped case it was coded from."""
    found = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    if found != sorted(reports):
        return f"{len(found)} report files, expected {len(reports)}"
    for name, case in reports.items():
        if hashlib.sha256((out_dir / name).read_bytes()).hexdigest() != digests[case]:
            return f"{name}: report bytes differ from the recorded digest for {case}"
    return None
