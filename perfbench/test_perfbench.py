"""Tests of the benchmark itself: `python -m pytest perfbench -q`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
from check import check_report  # noqa: E402
from evrc import ingest, pipeline  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("generate", [corpus.generate_synthetic, corpus.generate_blocks])
def test_generator_is_deterministic_and_valid(tmp_path, generate):
    first = generate(tmp_path / "a", 7)
    generate(tmp_path / "b", 7)
    generate(tmp_path / "c", 8)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    for case in first:
        loaded = ingest.load_case(case["path"])
        assert loaded.ok, loaded.violations[:3]


def test_synthetic_corpus_covers_every_category():
    bundles = [corpus.synthetic_bundle(3, n, g)
               for g, n in enumerate(corpus.SYNTHETIC_SIZES)]
    flows = [f for b in bundles for f in b.flows]
    routes = [r for b in bundles for r in b.routes]
    assert {f.motive for f in flows} == set(corpus.Motive)
    assert {f.landing for f in flows} == set(corpus.Landing)
    assert {r.route_kind for r in routes} == set(corpus.RouteKind)
    assert {r.checks.enforceability for r in routes} == set(corpus.TriState)
    assert {r.source_gap for r in routes} == {True, False}
    assert {b.denominators[0].status for b in bundles} == set(corpus.DenominatorStatus)
    for b in bundles:
        assert len(b.routes) == round(len(b.flows) * corpus.ROUTED_SHARE)
    decisions = "".join(corpus.expected_gating(b)["decisions"] for b in bundles)
    assert set(decisions) == {"a", "r", "s"}


def _coded(tmp_path, bundle):
    case_dir = tmp_path / bundle.case_id
    corpus.write_case(bundle, case_dir)
    report = pipeline.run_case(ingest.load_case(case_dir).bundle).report
    expected = corpus.expected_gating(bundle)
    if bundle.block_rows:
        expected["fee_share"] = corpus.expected_fee_share(bundle.block_rows,
                                                          bundle.feeshare_window)
    return report.document, report.to_text(), expected


def test_check_accepts_a_correct_report_and_rejects_corruption(tmp_path):
    doc, text, expected = _coded(tmp_path, corpus.synthetic_bundle(5, 250, 0))
    assert check_report(json.dumps(doc), text, expected) is None

    flipped = json.loads(json.dumps(doc))
    outcome = next(o for o in flipped["gate_outcomes"] if o["decision"] == "accepted")
    outcome["decision"] = "rejected"
    assert "decision" in check_report(json.dumps(flipped), text, expected)

    changed = json.loads(json.dumps(doc))
    rav = changed["coverage"]["rav_weighted"]
    last = rav["value"][-1]
    rav["value"] = rav["value"][:-1] + ("1" if last != "1" else "2")
    assert "rav_weighted" in check_report(json.dumps(changed), text, expected)


def test_check_rejects_a_wrong_fee_share(tmp_path):
    doc, text, expected = _coded(tmp_path, corpus.block_bundle(5, 2_000))
    assert check_report(json.dumps(doc), text, expected) is None
    assert expected["fee_share"]["skipped"]

    fee_share = doc["row_analytics"]["btc_fee_share"]
    fee_share["max_share"]["value"] = fee_share["max_share"]["value"][:-3] + "999"
    assert "max fee share" in check_report(json.dumps(doc), text, expected)
    fee_share["windows_skipped"] = fee_share["windows_skipped"][1:]
    assert "skipped" in check_report(json.dumps(doc), text, expected)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_traced_synthetic_run_ranks_route_for_flow_first():
    proc = _run("--workload", "synthetic_flows", "--seed", "2", "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [name for name, _ in run.PER_LAYER]
    self_times = {k: v for k, v in metrics.items()
                  if k.endswith(".ms") and k != "pipeline.run_case.ms"}
    assert max(self_times, key=self_times.get) == "core_model.route_for_flow.ms"


def test_benchmark_json_names_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "shipped_cli", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
