"""CLI exit codes, trace ordering, and byte-stable outputs."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from helpers import CASE_NAMES, all_records
from hypothesis import given, settings
from hypothesis import strategies as st

from evrc.cli import main
from evrc.ingest import load_case


def _python_S(code: str) -> str:
    """The stdout of `code` run by `python -S` on this checkout's package.
    `-S` skips the site hooks, whose imports are the interpreter set-up's."""
    import evrc

    src = str(Path(evrc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


# Run before the code under test: counts the readers built per field table.
_COUNT_READER_BUILDS = """
from collections import Counter
from evrc import core_model
built = Counter()
build = core_model._build_reader
def counting(record):
    built[id(record)] += 1
    return build(record)
core_model._build_reader = counting
"""


def test_cli_import_leaves_out_the_modules_only_some_commands_need():
    # Every `evrc` process pays for what `import evrc.cli` loads, so it loads
    # no module that only some commands use, and builds no table's reader.
    out = _python_S(_COUNT_READER_BUILDS + "import sys, evrc.cli\n"
                    "print(' '.join(sorted(m for m in ('dataclasses', 'inspect', 'hashlib', "
                    "'http.client') if m in sys.modules)), sum(built.values()))")
    assert out.split() == ["0"]


def test_validate_builds_the_reader_of_each_table_it_reads_once(case_dir):
    out = _python_S(_COUNT_READER_BUILDS + "from evrc.cli import main\n"
                    f"code = main(['validate', {str(case_dir('bitcoin'))!r}])\n"
                    "print(code, len(built), max(built.values()))")
    # bitcoin reads every table but SNAPSHOT, whose reader fetch replay builds.
    assert out.split()[-3:] == ["0", str(len(all_records()) - 1), "1"]


def _aave_without_alpha(tmp_path, case_dir) -> Path:
    """A copy of the aave case, whose flows include mixed-motive ones, with
    no `numerator`."""
    shutil.copytree(case_dir("aave"), tmp_path / "aave")
    case_file = tmp_path / "aave" / "case.json"
    doc = json.loads(case_file.read_text())
    del doc["numerator"]
    case_file.write_text(json.dumps(doc))
    return tmp_path / "aave"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_case_exits_zero(self, case_dir, capsys):
        code, out, _ = run(["validate", str(case_dir("steem"))], capsys)
        assert code == 0
        assert "ok" in out

    def test_dangling_reference_exits_one_with_violation(self, tmp_path, case_dir,
                                                         capsys):
        shutil.copytree(case_dir("bitcoin"), tmp_path / "bitcoin")
        routes_file = tmp_path / "bitcoin" / "routes.json"
        doc = json.loads(routes_file.read_text())
        doc["routes"][0]["flow_id"] = "f-missing"
        routes_file.write_text(json.dumps(doc))
        code, out, _ = run(["validate", str(tmp_path / "bitcoin")], capsys)
        assert code == 1
        assert "f-missing" in out

    def test_missing_alpha_with_mixed_flows_exits_two(self, tmp_path, case_dir,
                                                      capsys):
        code, out, _ = run(["validate", str(_aave_without_alpha(tmp_path, case_dir))],
                           capsys)
        assert code == 2
        assert "alpha" in out

    def test_missing_alpha_is_decided_by_validation_for_code_too(self, tmp_path,
                                                                 case_dir, capsys):
        case = _aave_without_alpha(tmp_path, case_dir)
        code, out, err = run(["code", str(case), "--out", str(tmp_path / "r.json")], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: mixed-motive flows are present but no disclosed "
                       "alpha was configured\n")
        assert not (tmp_path / "r.json").exists()

    def test_json_format(self, case_dir, capsys):
        code, out, _ = run(["validate", str(case_dir("xrp")), "--format", "json"],
                           capsys)
        assert code == 0
        assert json.loads(out)["ok"] is True


class TestCode:
    def test_xrp_report_carries_b3(self, case_dir, tmp_path, capsys):
        out_file = tmp_path / "xrp.json"
        code, _, _ = run(["code", str(case_dir("xrp")), "--out", str(out_file),
                          "--format", "json", "--quiet"], capsys)
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert [b["code"] for b in doc["breakpoints"]] == ["B3"]

    def test_bitcoin_json_allows_mechanism_claim(self, case_dir, capsys):
        code, out, _ = run(["code", str(case_dir("bitcoin")), "--format", "json",
                            "--quiet"], capsys)
        assert code == 0
        doc = json.loads(out)
        mech = next(c for c in doc["claims"]
                    if c["template"] == "MECHANISM_ROUTE_EXISTS")
        assert mech["allowed"] is True

    def test_corrupt_bundle_exits_one_and_writes_nothing(self, tmp_path, case_dir,
                                                         capsys):
        shutil.copytree(case_dir("steem"), tmp_path / "steem")
        routes_file = tmp_path / "steem" / "routes.json"
        doc = json.loads(routes_file.read_text())
        doc["routes"] = [{
            "id": "r-bad", "flow_id": "nope", "recipient_id": "w-authors",
            "route_kind": "protocol_enforced",
            "checks": {"enforceability": "yes", "beneficiary_specificity": "yes",
                       "revocability": "no", "auditability": "yes"},
        }]
        routes_file.write_text(json.dumps(doc))
        out_file = tmp_path / "report.json"
        code, _, err = run(["code", str(tmp_path / "steem"), "--out",
                            str(out_file)], capsys)
        assert code == 1
        assert not out_file.exists()
        assert "nope" in err

    def test_trace_lists_admissibility_before_coverage(self, case_dir, capsys):
        code, _, err = run(["code", str(case_dir("bitcoin")), "--format", "json",
                            "--out", "/dev/null"], capsys)
        assert code == 0
        lines = err.splitlines()
        admissibility_at = next(i for i, l in enumerate(lines)
                                if l.startswith("6. route admissibility"))
        coverage_at = next(i for i, l in enumerate(lines)
                           if l.startswith("7. reward denominator"))
        assert admissibility_at < coverage_at
        assert sum(1 for l in lines if l[:2] in
                   ("1.", "2.", "3.", "4.", "5.", "6.", "7.", "8.")) == 8

    def test_cases_glob_runs_all(self, cases_root, tmp_path, capsys):
        code, _, _ = run(["code", "--cases", str(cases_root / "*"), "--out",
                          str(tmp_path), "--format", "json", "--quiet"], capsys)
        assert code == 0
        written = sorted(p.name for p in tmp_path.glob("*.report.json"))
        assert written == sorted(f"{n}.report.json" for n in CASE_NAMES)

    def test_double_run_is_byte_identical(self, case_dir, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            code, _, _ = run(["code", str(case_dir("ethereum")), "--out",
                              str(out), "--format", "json", "--quiet"], capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_batch_stderr_is_deterministic_and_grouped_per_case(self, cases_root,
                                                                tmp_path, capsys):
        # Each case's trace lines come out together, cases in sorted order,
        # and two runs over separate copies of the cases match byte for byte.
        expected = ""
        for name in sorted(CASE_NAMES):
            code, _, err = run(["code", str(cases_root / name), "--format", "json"],
                               capsys)
            assert code == 0
            expected += err
        batch_errs = []
        for copy in ("a", "b"):
            shutil.copytree(cases_root, tmp_path / copy)
            code, _, err = run(["code", "--cases", str(tmp_path / copy / "*"),
                                "--format", "json"], capsys)
            assert code == 0
            batch_errs.append(err)
        assert batch_errs[0] == batch_errs[1] == expected

    def test_bad_block_height_in_case_rows_exits_one(self, tmp_path, case_dir,
                                                     capsys):
        shutil.copytree(case_dir("bitcoin"), tmp_path / "bitcoin")
        csv_path = tmp_path / "bitcoin" / "rows" / "blocks.csv"
        lines = csv_path.read_text().splitlines(keepends=True)
        lines[1] = "abc,1,99\n"
        csv_path.write_text("".join(lines))
        code, _, err = run(["code", str(tmp_path / "bitcoin")], capsys)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'abc'" in err

    def test_block_fee_beyond_the_exponent_bound_exits_one(self, tmp_path, case_dir,
                                                          capsys):
        shutil.copytree(case_dir("bitcoin"), tmp_path / "bitcoin")
        csv_path = tmp_path / "bitcoin" / "rows" / "blocks.csv"
        lines = csv_path.read_text().splitlines(keepends=True)
        lines[2] = lines[2].replace(",1,", ",1E+999999999,")
        csv_path.write_text("".join(lines))
        code, _, err = run(["code", str(tmp_path / "bitcoin")], capsys)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "out of range" in err

    @pytest.mark.parametrize("window,expected", [(-5, 1), (0, 0), (288, 0), (289, 1)])
    def test_feeshare_window_beyond_the_block_rows_is_a_violation(
            self, window, expected, tmp_path, case_dir, capsys):
        # bitcoin holds 288 block rows; a window of 0 takes the default.
        case = tmp_path / "bitcoin"
        shutil.copytree(case_dir("bitcoin"), case)
        doc = json.loads((case / "case.json").read_text())
        doc["feeshare_window"] = window
        (case / "case.json").write_text(json.dumps(doc))
        violation = (f"{case}: case.feeshare_window: must be in [1, 288], "
                     "the number of block rows\n")
        assert run(["validate", str(case)], capsys) == (
            expected, violation if expected else f"{case}: ok\n", "")
        code, out, err = run(["code", str(case), "--format", "json"], capsys)
        if expected:
            assert (code, out, err) == (1, "", violation)
        else:
            assert code == 0 and out

    def test_text_format_renders(self, case_dir, capsys):
        code, out, _ = run(["code", str(case_dir("steem")), "--quiet"], capsys)
        assert code == 0
        assert "breakpoints: B2, B4" in out
        assert "RCR: blocked" in out

    def test_validates_each_case_once(self, case_dir, capsys, monkeypatch):
        import evrc.ingest
        import evrc.pipeline

        calls = []
        for module in (evrc.ingest, evrc.pipeline):
            def counted(bundle, *args, _validate=module.validate_bundle):
                calls.append(bundle)
                return _validate(bundle, *args)
            monkeypatch.setattr(module, "validate_bundle", counted)
        code, _, _ = run(["code", str(case_dir("bitcoin")), "--quiet"], capsys)
        assert code == 0
        assert len(calls) == 1

    def test_unusable_out_exits_two(self, case_dir, tmp_path, capsys):
        # The report's directory would have to be a file that exists.
        (tmp_path / "file").write_text("")
        code, _, err = run(["code", str(case_dir("bitcoin")),
                            "--out", str(tmp_path / "file" / "report.json")], capsys)
        assert code == 2
        assert [line for line in err.splitlines() if line.startswith("error: ")] == \
            [err.splitlines()[-1]]
        assert err.splitlines()[-1].startswith("error: cannot write ")
        assert "Traceback" not in err

    def test_batch_into_an_existing_file_exits_two(self, cases_root, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code, _, err = run(["code", "--cases", str(cases_root / "*"),
                            "--out", str(tmp_path / "file")], capsys)
        assert code == 2
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == len(CASE_NAMES)
        assert "Traceback" not in err

    def test_failed_write_keeps_the_old_report(self, case_dir, tmp_path, capsys,
                                              monkeypatch):
        out = tmp_path / "report.txt"
        code, _, _ = run(["code", str(case_dir("bitcoin")), "--out", str(out)], capsys)
        assert code == 0
        before = out.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr("os.replace", fail)
        code, _, err = run(["code", str(case_dir("bitcoin")), "--format", "json",
                            "--out", str(out)], capsys)
        assert code == 2
        assert "disk full" in err
        assert out.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [out]

    def test_out_that_is_no_regular_file_is_written_in_place(self, case_dir, tmp_path,
                                                             capsys, monkeypatch):
        # A symlink or a device is written through, never renamed over; the
        # recording `os.replace` and the symlink coming first keep the device
        # safe if that ever breaks.
        replaced = []
        monkeypatch.setattr("os.replace", lambda src, dst: replaced.append(dst))
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_text("old")
        link.symlink_to(target)
        code, _, _ = run(["code", str(case_dir("bitcoin")), "--out", str(link)], capsys)
        assert code == 0
        assert replaced == []
        assert link.is_symlink() and target.read_text().startswith("case: bitcoin")
        assert sorted(tmp_path.iterdir()) == [link, target]
        code, _, _ = run(["code", str(case_dir("bitcoin")), "--out", "/dev/null"], capsys)
        assert code == 0
        assert replaced == []

    def test_report_gets_the_mode_of_a_plain_write(self, case_dir, tmp_path, capsys):
        plain, new, kept = tmp_path / "plain", tmp_path / "new.txt", tmp_path / "kept.txt"
        plain.write_text("")
        kept.write_text("")
        kept.chmod(0o640)
        for out in (new, kept):
            code, _, _ = run(["code", str(case_dir("bitcoin")), "--out", str(out)], capsys)
            assert code == 0
        assert new.stat().st_mode == plain.stat().st_mode
        assert kept.stat().st_mode & 0o777 == 0o640

    def test_stray_exception_exits_four(self, case_dir, capsys, monkeypatch):
        def broken(bundle):
            raise RuntimeError("boom")
        monkeypatch.setattr("evrc.cli.run_case", broken)
        code, _, err = run(["code", str(case_dir("bitcoin"))], capsys)
        assert code == 4
        assert err == "error: internal: RuntimeError: boom\n"


class TestFeeshare:
    def test_shipped_csv_max_window(self, cases_root, capsys):
        csv_path = cases_root / "bitcoin" / "rows" / "blocks.csv"
        code, out, _ = run(["feeshare", str(csv_path), "--window", "144",
                            "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["max_share"] == "0.74"
        assert doc["max_window_start"] == 840000

    def test_window_larger_than_rows_exits_one(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("height,fees,subsidy\n1,1,1\n")
        code, _, err = run(["feeshare", str(csv_path), "--window", "5"], capsys)
        assert code == 1
        assert "exceeds" in err

    def test_single_row_window_one(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("height,fees,subsidy\n1,25,75\n")
        code, out, _ = run(["feeshare", str(csv_path), "--window", "1"], capsys)
        assert code == 0
        assert "0.25" in out

    def test_non_integer_height_exits_one(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("height,fees,subsidy\nabc,1,2\n")
        code, _, err = run(["feeshare", str(csv_path), "--window", "1"], capsys)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'abc'" in err

    def test_gap_exits_one(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("height,fees,subsidy\n1,1,1\n3,1,1\n")
        code, _, err = run(["feeshare", str(csv_path), "--window", "1"], capsys)
        assert code == 1
        assert "gap" in err


NEGATIVE_ROWS = [  # (case, row CSV, column set to -50 in every row)
    ("bitcoin", "rows/blocks.csv", "fees"),
    ("ethereum", "rows/eth_rewards.csv", "penalties_slashing"),
]


@pytest.mark.parametrize("name,rel,column", NEGATIVE_ROWS, ids=[r[0] for r in NEGATIVE_ROWS])
def test_negative_row_value_exits_one(name, rel, column, tmp_path, case_dir, capsys):
    case = tmp_path / name
    shutil.copytree(case_dir(name), case)
    with (case / rel).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    with (case / rel).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows({**row, column: "-50"} for row in rows)

    commands = [["validate", str(case)], ["code", str(case)]]
    if name == "bitcoin":
        commands.append(["feeshare", str(case / rel)])
    for argv in commands:
        code, _, err = run(argv, capsys)
        assert code == 1, argv
        assert err == f"error: {column} must be >= 0, got '-50'\n", argv


NON_FINITE = ["NaN", "sNaN", "Infinity", "-Infinity"]


@pytest.mark.parametrize("raw", NON_FINITE)
@pytest.mark.parametrize("file_name,field_path", [
    ("flows.json", "flows[0].amount"),
    ("denominators.json", "denominators[0].value"),
])
def test_non_finite_decimal_is_a_violation(raw, file_name, field_path, tmp_path,
                                           case_dir, capsys):
    shutil.copytree(case_dir("bitcoin"), tmp_path / "bitcoin")
    path = tmp_path / "bitcoin" / file_name
    doc = json.loads(path.read_text())
    record_key, _, field = field_path.partition("[0].")
    doc[record_key][0][field] = raw
    path.write_text(json.dumps(doc))

    violations = load_case(tmp_path / "bitcoin").violations
    assert any(v.path == field_path and "finite" in v.message for v in violations)
    for command in ("validate", "code"):
        code, _, err = run([command, str(tmp_path / "bitcoin")], capsys)
        assert code == 1, command
        assert "Traceback" not in err


@pytest.mark.parametrize("raw", ["1E+999999999", "-1E-999999999"])
@pytest.mark.parametrize("file_name,field_path", [
    ("flows.json", "flows[0].amount"),
    ("denominators.json", "denominators[0].value"),
])
def test_decimal_beyond_the_exponent_bound_is_a_violation(raw, file_name, field_path,
                                                          tmp_path, case_dir, capsys):
    # Once overflowed the decimal context in the numerator, RCR or report.
    shutil.copytree(case_dir("bitcoin"), tmp_path / "bitcoin")
    path = tmp_path / "bitcoin" / file_name
    doc = json.loads(path.read_text())
    record_key, _, field = field_path.partition("[0].")
    doc[record_key][0][field] = raw
    path.write_text(json.dumps(doc))

    violations = load_case(tmp_path / "bitcoin").violations
    assert any(v.path == field_path and "out of range" in v.message for v in violations)
    for command in ("validate", "code"):
        code, _, err = run([command, str(tmp_path / "bitcoin")], capsys)
        assert code == 1, command
        assert "Traceback" not in err


@pytest.mark.parametrize("raw", ["1_000", " 5", "5\n", "\u0665", "\uff15"], ids=ascii)
def test_coerced_number_text_is_a_violation_or_exits_one(raw, tmp_path, case_dir, capsys):
    case = tmp_path / "bitcoin"
    shutil.copytree(case_dir("bitcoin"), case)
    path = case / "flows.json"
    doc = json.loads(path.read_text())
    doc["flows"][0]["amount"] = raw
    path.write_text(json.dumps(doc))
    assert [v.path for v in load_case(case).violations
            if "plain decimal" in v.message] == ["flows[0].amount"]

    shutil.copy(case_dir("bitcoin") / "flows.json", path)
    rows = case / "rows" / "blocks.csv"
    for column in ("height", "fees"):
        with (case_dir("bitcoin") / "rows" / "blocks.csv").open(newline="") as fh:
            table = list(csv.reader(fh))
        table[1][table[0].index(column)] = raw
        with rows.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(table)
        for command in ("validate", "code"):
            code, _, err = run([command, str(case)], capsys)
            assert code == 1, (column, command)
            assert err.startswith("error: ") and "Traceback" not in err


MALFORMED = [
    ("case.json", ["recipient", "is_specified"], "false", "case.recipient.is_specified"),
    ("routes.json", ["routes", 0, "sourc_gap"], False, "routes[0].sourc_gap"),
    ("flows.json", ["flows", 0], 5, "flows[0]"),
    ("case.json", ["periods"], 5, "case.periods"),
    ("case.json", ["feeshare_window"], "abc", "case.feeshare_window"),
    ("flows.json", ["flows", 0, "deductions"], [1], "flows[0].deductions"),
    ("case.json", ["row_files"], "x", "case.row_files"),
    ("flows.json", ["flows"], 5, "flows"),
]


@pytest.mark.parametrize("file_name,keys,value,field_path", MALFORMED,
                         ids=[m[3] for m in MALFORMED])
def test_malformed_field_is_a_violation(file_name, keys, value, field_path, tmp_path,
                                        case_dir, capsys):
    shutil.copytree(case_dir("bitcoin"), tmp_path / "bitcoin")
    path = tmp_path / "bitcoin" / file_name
    doc = json.loads(path.read_text())
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    path.write_text(json.dumps(doc))

    violations = load_case(tmp_path / "bitcoin").violations
    assert any(v.path == field_path for v in violations), violations
    for command in ("validate", "code"):
        code, _, err = run([command, str(tmp_path / "bitcoin")], capsys)
        assert code == 1, command
        assert "Traceback" not in err


WRAPPER_FAULTS = [  # (file, its wrapper object given the records, path, message)
    ("flows.json", lambda records: {"flow": records}, "flows.json.flow", "unknown field"),
    ("flows.json", lambda records: {"flow": records}, "flows.json.flows",
     "required field missing"),
    ("denominators.json", lambda records: {"denominators": records, "note": ""},
     "denominators.json.note", "unknown field"),
]


@pytest.mark.parametrize("file_name,wrap,field_path,message", WRAPPER_FAULTS,
                         ids=[f"{w[2]}-{w[3]}" for w in WRAPPER_FAULTS])
def test_list_file_wrapper_is_checked(file_name, wrap, field_path, message,
                                      tmp_path, case_dir, capsys):
    shutil.copytree(case_dir("bitcoin"), tmp_path / "bitcoin")
    path = tmp_path / "bitcoin" / file_name
    doc = json.loads(path.read_text())
    records = doc[file_name.removesuffix(".json")]
    path.write_text(json.dumps({"schema_version": doc["schema_version"],
                                **wrap(records)}))

    violations = load_case(tmp_path / "bitcoin").violations
    assert any(v.path == field_path and message in v.message for v in violations), \
        violations
    for command in ("validate", "code"):
        code, _, err = run([command, str(tmp_path / "bitcoin")], capsys)
        assert code == 1, command
        assert "Traceback" not in err


def test_row_file_path_with_nul_exits_one(tmp_path, case_dir, capsys):
    shutil.copytree(case_dir("bitcoin"), tmp_path / "bitcoin")
    case_file = tmp_path / "bitcoin" / "case.json"
    doc = json.loads(case_file.read_text())
    doc["row_files"][0]["path"] = "rows/\u0000.csv"
    case_file.write_text(json.dumps(doc))
    code, _, err = run(["code", str(tmp_path / "bitcoin")], capsys)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


SURROGATES = [  # (file, the edit, the violation's path)
    ("case.json", lambda doc: doc.update(case_id="x\ud800"), "case.case_id"),
    ("flows.json", lambda doc: doc["flows"][0].update({"payer_note\udc00": "y"}),
     "flows[0].payer_note\\udc00"),
    # The text "\\ud83d\ude00": an escaped backslash, "ud83d", a lone low escape.
    ("case.json", lambda doc: doc.update(case_id="\\ud83d\ude00"), "case.case_id"),
]


@pytest.mark.parametrize("file_name,edit,field_path", SURROGATES,
                         ids=["value", "key", "after-escaped-backslash"])
def test_lone_surrogate_escape_is_one_violation(file_name, edit, field_path, tmp_path,
                                                case_dir, capsys):
    # json.dumps writes a lone surrogate as its escape, e.g. "x\ud800".
    case = tmp_path / "bitcoin"
    shutil.copytree(case_dir("bitcoin"), case)
    doc = json.loads((case / file_name).read_text())
    edit(doc)
    (case / file_name).write_text(json.dumps(doc))
    message = f"lone surrogate escape in {file_name}; text must be valid Unicode"

    code, out, _ = run(["validate", str(case)], capsys)
    assert (code, out) == (1, f"{case}: {field_path}: {message}\n")
    code, out, _ = run(["validate", str(case), "--format", "json"], capsys)
    assert code == 1
    assert json.loads(out)["violations"] == [{"path": field_path, "message": message}]
    report = tmp_path / "report.json"
    code, out, err = run(["code", str(case), "--out", str(report)], capsys)
    assert (code, out, err) == (1, "", f"{case}: {field_path}: {message}\n")
    assert not report.exists()


def _count_walks(monkeypatch) -> list:
    """Record each call of the lone-surrogate walk `load_case` makes."""
    import evrc.ingest as ingest_mod

    calls, walk = [], ingest_mod._lone_surrogate
    monkeypatch.setattr(ingest_mod, "_lone_surrogate",
                        lambda *args: calls.append(args) or walk(*args))
    return calls


def test_escaped_surrogate_pair_is_one_character(tmp_path, case_dir, capsys,
                                                 monkeypatch):
    case = tmp_path / "bitcoin"
    shutil.copytree(case_dir("bitcoin"), case)
    doc = json.loads((case / "case.json").read_text())
    doc["case_id"] = "x\U0001F600"  # written as the pair "\ud83d\ude00"
    (case / "case.json").write_text(json.dumps(doc))
    walks = _count_walks(monkeypatch)
    code, out, _ = run(["code", str(case), "--format", "json", "--quiet"], capsys)
    assert code == 0
    assert json.loads(out)["case_id"] == "x\U0001F600"
    assert walks == []  # a paired escape is not walked


@settings(max_examples=100, deadline=None)
@given(text=st.lists(st.sampled_from(["\ud83d", "\ude00", "\\", "u", "d83d", "a",
                                      "\U0001F600", "\u00e9"]), max_size=6).map("".join))
def test_only_a_lone_surrogate_escape_is_walked_and_refused(text, cases_root):
    # json.dumps escapes every character outside ASCII: an astral character
    # as a high-low pair, a surrogate as its own escape. json.loads joins a
    # high escape followed by a low one into one character.
    lone = any("\ud800" <= ch <= "\udfff" for ch in json.loads(json.dumps(text)))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        case = Path(tmp) / "xrp"
        shutil.copytree(cases_root / "xrp", case)
        doc = json.loads((case / "case.json").read_text())
        doc["case_id"] = text
        (case / "case.json").write_text(json.dumps(doc))
        calls = _count_walks(mp)
        result = load_case(case)
    assert len(calls) == lone
    assert [v.path for v in result.violations] == (["case.case_id"] if lone else [])


CASE_FILES = ["case.json", "flows.json", "routes.json", "sources.json",
              "denominators.json"]

JSON_VALUES = st.one_of(
    st.text(max_size=8), st.integers(), st.floats(), st.none(),
    st.lists(st.one_of(st.integers(), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=5), st.integers(), max_size=3))


def _positions(node, path=()):
    """The path to every value below `node`, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _positions(child, path + (key,))


def _mutate(data, doc) -> None:
    """Replace, rename or delete one value or key below `doc`, in place."""
    *parents, key = data.draw(st.sampled_from(list(_positions(doc))))
    parent = doc
    for k in parents:
        parent = parent[k]
    action = data.draw(st.sampled_from(
        ["replace", "rename", "delete"] if isinstance(parent, dict) else ["replace"]))
    if action == "replace":
        parent[key] = data.draw(JSON_VALUES)
    elif action == "rename":
        parent[data.draw(st.text(max_size=12).filter(lambda k: k not in parent))] = \
            parent.pop(key)
    else:
        del parent[key]


def _case_argv(command: str, case: Path) -> list[str]:
    """`command` run on `case`; `code` writes its report beside the case."""
    out = ["--out", str(case.parent / "report.json")] if command == "code" else []
    return [command, str(case), *out, "--quiet"]


@pytest.mark.parametrize("command", ["code", "validate"])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_mutated_case_exits_cleanly(command, data, cases_root):
    # One mutated leaf or key of a shipped case: the engine answers with a
    # report, violations or a classified error, never a traceback. Validation
    # alone decides whether a case may be coded, so `validate` and `code`
    # exit alike on the same copy, whichever of them runs first.
    name = data.draw(st.sampled_from(CASE_NAMES))
    file_name = data.draw(st.sampled_from(CASE_FILES))
    doc = json.loads((cases_root / name / file_name).read_text())
    _mutate(data, doc)

    with tempfile.TemporaryDirectory() as tmp:
        case = Path(tmp) / name
        shutil.copytree(cases_root / name, case)
        (case / file_name).write_text(json.dumps(doc))
        first = main(_case_argv(command, case))
        second = main(_case_argv("validate" if command == "code" else "code", case))
    assert first == second and first in (0, 1, 2, 3)


ROW_CSVS = [("bitcoin", "rows/blocks.csv"), ("ethereum", "rows/eth_rewards.csv")]

CELL_VALUES = st.one_of(
    st.text(max_size=8), st.integers().map(str), st.decimals().map(str),
    st.sampled_from(["", "-1", "1E+999999999", "-1E-999999999", "9" * 5000,
                     "NaN", "1e3", "0x10", '"', "a,b", "\n", "\x00"]))


@pytest.mark.parametrize("command", ["code", "validate"])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_mutated_row_csv_exits_cleanly(command, data, cases_root):
    # One changed cell, header name or line of a shipped row CSV: the engine
    # answers with a report, violations or a classified error, never a traceback.
    name, rel = data.draw(st.sampled_from(ROW_CSVS))
    lines = (cases_root / name / rel).read_text(encoding="utf-8").splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    action = data.draw(st.sampled_from(["cell", "line", "delete", "duplicate"]))
    if action == "cell":  # line 0 is the header, so this covers header names
        cells = lines[i].split(",")
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(CELL_VALUES)
        lines[i] = ",".join(cells)
    elif action == "line":
        lines[i] = data.draw(st.one_of(CELL_VALUES, st.text(max_size=40)))
    elif action == "delete":
        del lines[i]
    else:
        lines.insert(i, lines[i])

    with tempfile.TemporaryDirectory() as tmp:
        case = Path(tmp) / name
        shutil.copytree(cases_root / name, case)
        (case / rel).write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(_case_argv(command, case))
    assert code in (0, 1, 2, 3)


BLOCK_CSV_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(st.lists(CELL_VALUES, min_size=1, max_size=4).map(",".join), max_size=6)
    .map(lambda rows: "\n".join(["height,fees,subsidy", *rows]).encode("utf-8")))


@settings(max_examples=120, deadline=None)
@given(content=BLOCK_CSV_BYTES, window=st.integers(-1, 4))
def test_feeshare_over_arbitrary_bytes_exits_cleanly(content, window):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "blocks.csv"
        path.write_bytes(content)
        code = main(["feeshare", str(path), "--window", str(window), "--quiet"])
    assert code in (0, 1, 2, 3)


SNAPSHOT = "btc_blocks_blocks_839928_840215.json"


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_replay_of_a_mutated_snapshot_exits_cleanly(data, cases_root):
    # One mutated leaf or key of the committed block snapshot, either of its
    # record or of its payload's rows (then signed again, so that the rows
    # reach the parser): a replay gives rows or a classified error.
    doc = json.loads((cases_root / "bitcoin" / "snapshots" / SNAPSHOT).read_text())
    if data.draw(st.booleans()):
        _mutate(data, doc)
    else:
        rows = json.loads(doc["payload"])
        _mutate(data, rows)
        doc["payload"] = json.dumps(rows)
        doc["digest"] = hashlib.sha256(doc["payload"].encode("utf-8")).hexdigest()

    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / SNAPSHOT).write_text(json.dumps(doc))
        code = main(["fetch", "btc_blocks", "--mode", "replay", "--range", "839928:840215",
                     "--snapshot-dir", tmp, "--quiet"])
    assert code in (0, 1, 2, 3)


def _exit_code(argv: list[str]):
    """`main`'s exit code, or "usage" for argparse's own usage exit."""
    try:
        return main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return "usage"


ARGV_VALUES = st.one_of(st.integers().map(str), st.text(max_size=12),
                        st.sampled_from(["0", "-1", "9" * 5000, "1e3", " 7 ", "٣"]))


@settings(max_examples=120, deadline=None)
@given(window=st.one_of(st.integers().map(str),
                        st.sampled_from(["0", "-1", "288", "289", str(10**30), "9" * 5000])))
def test_feeshare_window_exits_cleanly(window, cases_root):
    code = _exit_code(["feeshare", str(cases_root / "bitcoin" / "rows" / "blocks.csv"),
                       f"--window={window}", "--quiet"])
    assert code in (0, 1, 2, 3, "usage")


@settings(max_examples=120, deadline=None)
@given(height_range=st.one_of(
    ARGV_VALUES, st.just("839928:840215"),
    st.tuples(st.integers(), st.integers()).map(lambda pair: "%d:%d" % pair)),
    retries=ARGV_VALUES)
def test_replay_range_and_retries_exit_cleanly(height_range, retries, cases_root):
    # Replay only: a retry count never reaches a transport that retries.
    code = _exit_code(["fetch", "btc_blocks", "--mode", "replay",
                       f"--range={height_range}", f"--retries={retries}",
                       "--snapshot-dir", str(cases_root / "bitcoin" / "snapshots"),
                       "--quiet"])
    assert code in (0, 1, 2, 3, "usage")


def _tree(root: Path) -> dict:
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@settings(max_examples=150, deadline=None)
@given(protocol=st.one_of(ARGV_VALUES, st.just("aave")),
       period=st.one_of(ARGV_VALUES, st.just("2024")),
       adapter_id=st.one_of(ARGV_VALUES, st.just("defillama"),
                            st.sampled_from(["..", ".", "a/b", "a\\b", "x\x00", "x\ud800",
                                             "x\udcff", "n" * 300])))
def test_protocol_fee_replay_arguments_exit_cleanly(protocol, period, adapter_id,
                                                    cases_root):
    # Any protocol, period and snapshot namespace: a replay gives rows or a
    # classified error, and writes nothing, in the snapshot dir or beside it.
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        root = Path(tmp)
        shutil.copytree(cases_root / "aave" / "snapshots", root / "snapshots")
        (root / "cwd").mkdir()
        mp.chdir(root / "cwd")
        before = _tree(root)
        code = _exit_code(["fetch", "protocol_fees", "--mode", "replay",
                           f"--protocol={protocol}", f"--period={period}",
                           f"--adapter-id={adapter_id}",
                           "--snapshot-dir", str(root / "snapshots"), "--quiet"])
        assert _tree(root) == before
    assert code in (0, 1, 2, 3, "usage")


class TestFetch:
    def test_replay_of_committed_snapshot(self, cases_root, capsys):
        snap_dir = cases_root / "bitcoin" / "snapshots"
        code, out, _ = run(["fetch", "btc_blocks", "--mode", "replay",
                            "--range", "839928:840215",
                            "--snapshot-dir", str(snap_dir),
                            "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        committed = json.loads(
            (snap_dir / "btc_blocks_blocks_839928_840215.json").read_text())
        assert doc["digest"] == committed["digest"]
        assert doc["rows"] == 288

    def test_live_without_base_url_exits_two(self, tmp_path, capsys):
        code, _, err = run(["fetch", "btc_blocks", "--mode", "live",
                            "--range", "1:2",
                            "--snapshot-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "base URL" in err

    def test_live_fetch_then_replay_identical(self, tmp_path, capsys,
                                              monkeypatch):
        import evrc.ingest as ingest_mod

        rows = [{"height": h, "fees": "2", "subsidy": "8"} for h in range(5, 8)]
        monkeypatch.setattr(ingest_mod, "_urllib_transport",
                            lambda url: json.dumps(rows).encode("utf-8"))
        code, out, _ = run(["fetch", "btc_blocks", "--mode", "live",
                            "--range", "5:7", "--base-url", "https://example.test",
                            "--snapshot-dir", str(tmp_path),
                            "--format", "json"], capsys)
        assert code == 0
        live_doc = json.loads(out)

        code, out, _ = run(["fetch", "btc_blocks", "--mode", "replay",
                            "--range", "5:7", "--snapshot-dir", str(tmp_path),
                            "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["digest"] == live_doc["digest"]

    @pytest.mark.parametrize("height_range", ["abc:5", "5", "5:"])
    def test_malformed_range_exits_two(self, height_range, tmp_path, capsys):
        code, _, err = run(["fetch", "btc_blocks", "--range", height_range,
                            "--snapshot-dir", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_protocol_fees_replay(self, cases_root, capsys):
        snap_dir = cases_root / "aave" / "snapshots"
        code, out, _ = run(["fetch", "protocol_fees", "--adapter-id", "defillama",
                            "--mode", "replay",
                            "--protocol", "aave", "--period", "2024",
                            "--snapshot-dir", str(snap_dir),
                            "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["adapter"] == "defillama"
        assert doc["coverage_gap"] is False
