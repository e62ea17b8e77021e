"""CLI exit codes, trace ordering, and byte-stable outputs."""

from __future__ import annotations

import copy
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
from helpers import CASE_NAMES
from hypothesis import given, settings
from hypothesis import strategies as st

from evrc import ingest
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


# Run before the code under test: records each call of `compile` and `exec`
# made by a module of the `evrc` package, and not those of the import system,
# which compiles and runs each module's source.
_RECORD_CODE_GENERATION = """
import builtins, sys
generated = []
def recording(builtin):
    def call(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller.partition(".")[0] == "evrc":
            generated.append(f"{builtin.__name__}-from-{caller}")
        return builtin(*args, **kwargs)
    return call
builtins.compile, builtins.exec = recording(compile), recording(exec)
"""


def test_cli_import_leaves_out_the_modules_only_some_commands_need():
    # Every `evrc` process pays for what `import evrc.cli` loads, so it loads
    # no module that only some commands use, and generates no code.
    out = _python_S(_RECORD_CODE_GENERATION + "import evrc.cli\n"
                    "print(' '.join(sorted(m for m in ('dataclasses', 'inspect', 'hashlib', "
                    "'http.client', 'typing', 'tempfile', 'shutil', 'random') "
                    "if m in sys.modules)), generated)")
    assert out.split() == ["[]"]


@pytest.mark.parametrize("command", ["validate", "code"])
def test_reading_a_case_generates_no_code(command, case_dir):
    # Code compiled at run time never reaches `__pycache__`, so every process
    # would pay for it again; the field tables are read as data instead.
    out = _python_S(_RECORD_CODE_GENERATION + "from evrc.cli import main\n"
                    f"code = main([{command!r}, {str(case_dir('bitcoin'))!r}])\n"
                    "print(code, generated)")
    assert out.split()[-2:] == ["0", "[]"]


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
                          "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert [b["code"] for b in doc["breakpoints"]] == ["B3"]

    def test_bitcoin_json_allows_mechanism_claim(self, case_dir, capsys):
        code, out, _ = run(["code", str(case_dir("bitcoin")), "--format", "json"], capsys)
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
                          str(tmp_path), "--format", "json"], capsys)
        assert code == 0
        written = sorted(p.name for p in tmp_path.glob("*.report.json"))
        assert written == sorted(f"{n}.report.json" for n in CASE_NAMES)

    def test_case_path_and_cases_glob_together_exit_two(self, cases_root, capsys):
        # Either one case or a glob: given both, the case path was dropped.
        with pytest.raises(SystemExit) as exc:
            main(["code", str(cases_root / "youtube"), "--cases", str(cases_root / "x*")])
        _, err = capsys.readouterr()
        assert exc.value.code == 2
        assert "--cases: not allowed with argument case_path" in err

    def test_help_says_a_case_path_and_cases_exclude_each_other(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["code", "-h"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "case_path the case directory to code; not allowed with --cases" in out
        assert "sorted order; not allowed with a case path" in out

    def test_neither_case_path_nor_cases_glob_exits_one(self, capsys):
        assert run(["code"], capsys) == (
            1, "", "error: a case path or --cases glob is required\n")

    def test_batch_of_two_directories_of_one_name_is_refused(self, cases_root, tmp_path,
                                                             capsys):
        # Reports are named after their case directory: a/bitcoin and b/bitcoin
        # would write one file, so nothing is coded. Without --out nothing collides.
        for copy, name in (("a", "bitcoin"), ("b", "bitcoin"), ("b", "steem")):
            shutil.copytree(cases_root / name, tmp_path / copy / name)
        cases = str(tmp_path / "*" / "*")
        code, out, err = run(["code", "--cases", cases, "--out", str(tmp_path / "r")], capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: {tmp_path / 'a' / 'bitcoin'} and {tmp_path / 'b' / 'bitcoin'} "
                       f"would write the same report in {tmp_path / 'r'}\n")
        assert not (tmp_path / "r").exists()
        assert run(["code", "--cases", cases], capsys)[0] == 0

    def test_batch_refuses_a_symlink_at_a_report_name(self, cases_root, tmp_path, capsys):
        # Written through, the symlink would put a report outside the --out
        # directory; no case of the batch is written.
        for name in ("steem", "youtube"):
            shutil.copytree(cases_root / name, tmp_path / "cases" / name)
        out_dir, outside = tmp_path / "r", tmp_path / "outside.txt"
        out_dir.mkdir()
        outside.write_text("outside")
        link = out_dir / "youtube.report.json"
        link.symlink_to(outside)
        code, out, err = run(["code", "--cases", str(tmp_path / "cases" / "*"),
                              "--out", str(out_dir), "--format", "json"], capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: {link} is not a regular file; a batch writes only "
                       f"regular files in {out_dir}\n")
        assert outside.read_text() == "outside"
        assert sorted(out_dir.iterdir()) == [link]

    @pytest.mark.parametrize("cwd,pattern", [("steem", "."), ("steem/rows", "..")])
    def test_batch_report_of_a_relative_directory_takes_its_own_name(
            self, cwd, pattern, cases_root, tmp_path, capsys, monkeypatch):
        # `.` and `..` name no case; the report is named after the directory.
        shutil.copytree(cases_root / "steem", tmp_path / "steem")
        (tmp_path / "steem" / "rows").mkdir()
        monkeypatch.chdir(tmp_path / cwd)
        out = tmp_path / "reports"
        code, _, _ = run(["code", "--cases", pattern, "--out", str(out)], capsys)
        assert code == 0
        assert [p.name for p in out.iterdir()] == ["steem.report.txt"]

    def test_double_run_is_byte_identical(self, case_dir, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            code, _, _ = run(["code", str(case_dir("ethereum")), "--out",
                              str(out), "--format", "json"], capsys)
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
        assert (code, err) == (1, f"{tmp_path / 'bitcoin'}: block_rows[0].height: "
                                  "block height must be an integer, got 'abc'\n")

    def test_block_fee_beyond_the_exponent_bound_exits_one(self, tmp_path, case_dir,
                                                          capsys):
        shutil.copytree(case_dir("bitcoin"), tmp_path / "bitcoin")
        csv_path = tmp_path / "bitcoin" / "rows" / "blocks.csv"
        lines = csv_path.read_text().splitlines(keepends=True)
        lines[2] = lines[2].replace(",1,", ",1E+999999999,")
        csv_path.write_text("".join(lines))
        code, _, err = run(["code", str(tmp_path / "bitcoin")], capsys)
        assert code == 1 and err.count("\n") == 1
        assert err.startswith(f"{tmp_path / 'bitcoin'}: block_rows[1].fees: decimal out of range")

    @pytest.mark.parametrize("window,expected", [(-5, 1), (0, 0), (288, 0), (289, 1)])
    def test_feeshare_window_beyond_the_block_rows_is_a_violation(
            self, window, expected, tmp_path, case_dir, capsys):
        # bitcoin holds 288 block rows and youtube none; a window of 0 takes
        # the default.
        messages = {"bitcoin": expected and "must be in [1, 288], the number of block rows",
                    "youtube": window and "is set, but the case has no block rows"}
        for name, message in messages.items():
            case = tmp_path / name
            shutil.copytree(case_dir(name), case)
            doc = json.loads((case / "case.json").read_text())
            doc["feeshare_window"] = window
            (case / "case.json").write_text(json.dumps(doc))
            violation = f"{case}: case.feeshare_window: {message}\n"
            assert run(["validate", str(case)], capsys) == (
                (1, violation, "") if message else (0, f"{case}: ok\n", ""))
            code, out, err = run(["code", str(case), "--format", "json"], capsys)
            if message:
                assert (code, out, err) == (1, "", violation)
            else:
                assert code == 0 and out

    def test_text_format_renders(self, case_dir, capsys):
        code, out, _ = run(["code", str(case_dir("steem"))], capsys)
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
        code, _, _ = run(["code", str(case_dir("bitcoin"))], capsys)
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

    @pytest.mark.parametrize("planted", ["file", "symlink"])
    def test_write_refuses_a_temp_name_already_taken(self, planted, case_dir, tmp_path,
                                                    capsys, monkeypatch):
        # The temp file is created exclusively: a file or a symlink already at
        # its name is neither followed nor overwritten, and the write is refused.
        monkeypatch.setattr("os.urandom", bytes)  # the name's 16 hex digits are zeros
        out_dir, outside = tmp_path / "out", tmp_path / "outside.txt"
        out_dir.mkdir()
        outside.write_text("outside")
        taken = out_dir / f"tmp{'0' * 16}.tmp"
        if planted == "file":
            taken.write_text("planted")
        else:
            taken.symlink_to(outside)
        code, _, err = run(["code", str(case_dir("bitcoin")),
                            "--out", str(out_dir / "report.txt")], capsys)
        assert code == 2
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [
            f"error: cannot write {out_dir / 'report.txt'}: [Errno 17] File exists: '{taken}'"]
        assert outside.read_text() == "outside"
        assert sorted(out_dir.iterdir()) == [taken]
        assert taken.is_symlink() == (planted == "symlink")
        assert taken.read_text() == ("planted" if planted == "file" else "outside")

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

    @staticmethod
    def _first_rows(csv_path: Path, rows: int, cases_root: Path) -> None:
        lines = (cases_root / "bitcoin" / "rows" / "blocks.csv").read_text().splitlines(True)
        csv_path.write_text("".join(lines[:1 + rows]))

    def test_default_window_is_the_one_a_case_takes(self, tmp_path, cases_root, capsys):
        # Without --window: 144 blocks, or every row when there are fewer, as
        # for a case without feeshare_window.
        case = tmp_path / "bitcoin"
        shutil.copytree(cases_root / "bitcoin", case)
        self._first_rows(case / "rows" / "blocks.csv", 49, cases_root)
        doc = json.loads((case / "case.json").read_text())
        del doc["feeshare_window"]
        (case / "case.json").write_text(json.dumps(doc))
        code, out, _ = run(["feeshare", str(case / "rows" / "blocks.csv"), "--format", "json"],
                           capsys)
        assert code == 0
        shares = json.loads(out)
        assert (shares["window"], shares["max_share"]) == (49, "0.01")
        code, out, _ = run(["code", str(case), "--format", "json"], capsys)
        assert code == 0
        in_report = json.loads(out)["row_analytics"]["btc_fee_share"]
        assert (in_report["window"], in_report["max_share"]["value"],
                in_report["max_window_start"]) == (49, "0.01", shares["max_window_start"])

    @pytest.mark.parametrize("rows,window,error", [
        (49, "0", "window must be >= 1, got 0"),
        (49, "-1", "window must be >= 1, got -1"),
        (49, "50", "window of 50 blocks exceeds the 49 rows provided"),
        (0, None, "no block rows to take a fee share of"),
    ])
    def test_a_window_the_rows_cannot_fill_exits_one(self, rows, window, error, tmp_path,
                                                     cases_root, capsys):
        csv_path = tmp_path / "rows.csv"
        self._first_rows(csv_path, rows, cases_root)
        argv = ["feeshare", str(csv_path), *(["--window", window] if window else [])]
        assert run(argv, capsys) == (1, "", f"error: {error}\n")


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

    # One violation per row, at its path, under `validate` (stdout) and `code`.
    key = {"bitcoin": "block_rows", "ethereum": "eth_reward_rows"}[name]
    lines = "".join(f"{case}: {key}[{i}].{column}: must be >= 0\n" for i in range(len(rows)))
    assert run(["validate", str(case)], capsys) == (1, lines, "")
    assert run(["code", str(case)], capsys) == (1, "", lines)
    if name == "bitcoin":  # the first violation only
        assert run(["feeshare", str(case / rel)], capsys) == (
            1, "", f"error: block_rows[0].{column}: must be >= 0\n")


def _edit_block_csv(case: Path, edit) -> None:
    """Rewrite `case`'s blocks.csv as `edit` leaves its table (header first)."""
    path = case / "rows" / "blocks.csv"
    with path.open(newline="") as fh:
        table = list(csv.reader(fh))
    edit(table)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(table)


@pytest.mark.parametrize("fees_row,height_row", [(1, 3), (3, 1)])
def test_each_faulty_row_cell_is_one_violation_at_its_path(fees_row, height_row, tmp_path,
                                                          case_dir, capsys):
    # A row that cannot be read is left out of the case; the paths of the
    # other rows' violations still name them by their place in the file.
    case = tmp_path / "bitcoin"
    shutil.copytree(case_dir("bitcoin"), case)

    def edit(table):
        table[1 + fees_row][1] = "-7"
        table[1 + height_row][0] = "abc"
    _edit_block_csv(case, edit)
    lines = (f"{case}: block_rows[{height_row}].height: block height must be an integer, "
             f"got 'abc'\n{case}: block_rows[{fees_row}].fees: must be >= 0\n")
    assert run(["validate", str(case)], capsys) == (1, lines, "")
    assert run(["code", str(case)], capsys) == (1, "", lines)
    # feeshare stops at the first violation: a cell that cannot be read comes
    # before a rule that a row breaks.
    assert run(["feeshare", str(case / "rows" / "blocks.csv")], capsys) == (
        1, "", f"error: block_rows[{height_row}].height: block height must be an integer, "
               "got 'abc'\n")


def test_an_unknown_row_column_is_ignored(tmp_path, case_dir, capsys):
    case = tmp_path / "bitcoin"
    shutil.copytree(case_dir("bitcoin"), case)

    def edit(table):
        for i, row in enumerate(table):
            row.append("note" if i == 0 else "x")
    _edit_block_csv(case, edit)

    def outputs(case):
        return [run(["code", str(case), "--format", "json"], capsys),
                run(["feeshare", str(case / "rows" / "blocks.csv"), "--format", "json"], capsys)]
    expected = outputs(case_dir("bitcoin"))
    assert outputs(case) == expected and [code for code, *_ in expected] == [0, 0]


def test_a_row_byte_not_utf8_is_named_at_its_offset_in_the_file(tmp_path, case_dir, capsys):
    # A row file is decoded whole, so the position is the byte's offset in the
    # file, also past the first chunk that a streamed read would decode.
    case = tmp_path / "bitcoin"
    shutil.copytree(case_dir("bitcoin"), case)
    rows = case / "rows" / "blocks.csv"
    data = rows.read_bytes() * 5
    rows.write_bytes(data + b"\xff")
    error = (f"error: {rows}: 'utf-8' codec can't decode byte 0xff in position {len(data)}: "
             "invalid start byte\n")
    for argv in (["validate", str(case)], ["code", str(case)], ["feeshare", str(rows)]):
        assert run(argv, capsys) == (1, "", error), argv


def test_a_row_cell_past_the_csv_field_limit_exits_one(tmp_path, case_dir, capsys):
    # The csv module refuses a field longer than its limit (131072 characters):
    # a parse error naming the file, not an internal fault.
    case = tmp_path / "bitcoin"
    shutil.copytree(case_dir("bitcoin"), case)

    def edit(table):
        table[1][1] = "1" * 200_000
    _edit_block_csv(case, edit)
    rows = case / "rows" / "blocks.csv"
    error = f"error: {rows}: field larger than field limit (131072)\n"
    for argv in (["validate", str(case)], ["code", str(case)], ["feeshare", str(rows)]):
        assert run(argv, capsys) == (1, "", error), argv


@pytest.mark.parametrize("cells,count", [(["839928", "1", "99", "777"], 4),
                                         (["839928", "1"], 2)],
                         ids=["extra-cell", "missing-cell"])
def test_a_row_whose_cell_count_differs_from_the_header_exits_one(cells, count, tmp_path,
                                                                  case_dir, capsys):
    # Neither an extra cell nor a missing one is read around: the row is refused
    # with the file and line, as a missing column is.
    case = tmp_path / "bitcoin"
    shutil.copytree(case_dir("bitcoin"), case)

    def edit(table):
        table[1] = cells
    _edit_block_csv(case, edit)
    rows = case / "rows" / "blocks.csv"
    error = f"error: {rows}:2: row has {count} cells; the header names 3 columns\n"
    for argv in (["validate", str(case)], ["validate", str(case), "--format", "json"],
                 ["code", str(case)], ["feeshare", str(rows)]):
        assert run(argv, capsys) == (1, "", error), argv


def test_blank_lines_of_a_row_csv_are_no_rows(tmp_path, case_dir, capsys):
    case = tmp_path / "bitcoin"
    shutil.copytree(case_dir("bitcoin"), case)
    rows = case / "rows" / "blocks.csv"
    rows.write_text(rows.read_text().replace("\n", "\n\n", 3))

    def outputs(case):
        return run(["code", str(case), "--format", "json"], capsys)
    assert outputs(case) == outputs(case_dir("bitcoin"))


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
            code, out, err = run([command, str(case)], capsys)
            assert code == 1, (column, command)
            assert (out + err).startswith(f"{case}: block_rows[0].{column}: "), (column, command)


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



# A date-only or offset-free instant against one with a UTC offset: Python
# cannot order the two, so the period is refused instead.
@pytest.mark.parametrize("start,end", [("2024-01-01", "2024-12-31T23:59:59Z"),
                                       ("2024-01-01T00:00:00+05:00", "2024-12-31T23:59:59")])
def test_a_period_mixing_offset_and_offset_free_instants_exits_one(start, end, tmp_path,
                                                                   case_dir, capsys):
    case = tmp_path / "usdc"
    shutil.copytree(case_dir("usdc"), case)
    doc = json.loads((case / "case.json").read_text())
    doc["periods"][0].update(start=start, end=end)
    (case / "case.json").write_text(json.dumps(doc))
    for command in ("validate", "code"):
        code, out, err = run([command, str(case)], capsys)
        assert code == 1, command
        assert ("case.periods[0]: start and end must both carry a UTC offset, or neither"
                in out + err), command
        assert "internal" not in err


# Instants in the grammar Python 3.10 documents for `datetime.fromisoformat`
# (a Z read as +00:00) validate; texts that only later versions read (basic
# format, week dates, a comma or one-digit fraction, a compact offset, hour
# 24) are refused, so a case validates alike on every supported Python.
@pytest.mark.parametrize("start,end,expected", [
    ("2024-01-01 00:00:00.000+00:00", "2025-01-01T00:00:00.000000+00:00:00", 0),
    ("2024-01-01T00Z", "2025-01-01T00:00Z", 0),
    ("20240101", "2100-W01-1", 1),
    ("2024-01-01T00:00:00Z", "2024-12-31T235959Z", 1),
    ("2024-01-01T00:00:00,5Z", "2025-01-01T00:00:00Z", 1),
    ("2024-01-01T00:00:00.1Z", "2025-01-01T00:00:00Z", 1),
    ("2024-01-01T00:00:00+0000", "2025-01-01T00:00:00+0000", 1),
    ("2024-01-01T00:00:00Z", "2024-12-31T24:00:00Z", 1),
])
def test_a_period_instant_reads_as_python_3_10_documents(start, end, expected, tmp_path,
                                                         case_dir, capsys):
    case = tmp_path / "youtube"
    shutil.copytree(case_dir("youtube"), case)
    doc = json.loads((case / "case.json").read_text())
    doc["periods"][0].update(start=start, end=end)
    (case / "case.json").write_text(json.dumps(doc))
    out = (f"{case}: case.periods[0]: wall-clock periods need ISO-8601 start/end\n"
           if expected else f"{case}: ok\n")
    assert run(["validate", str(case)], capsys) == (expected, out, "")


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


def _with_row_path(case: Path, path: str) -> None:
    case_file = case / "case.json"
    doc = json.loads(case_file.read_text())
    doc["row_files"][0]["path"] = path
    case_file.write_text(json.dumps(doc))


@pytest.mark.parametrize("where", ["parent", "absolute", "absolute-inside", "symlink"])
def test_row_file_outside_the_case_is_a_violation(where, tmp_path, case_dir, capsys):
    # Only the case directory is read: a row file reached through `..`, an
    # absolute path (even one inside the case) or a symlink out of the case
    # is refused at its entry, and the file is not read.
    case = tmp_path / "bitcoin"
    shutil.copytree(case_dir("bitcoin"), case)
    shutil.copytree(case / "rows", tmp_path / "outside")
    path = {"parent": "../outside/blocks.csv",
            "absolute": str(tmp_path / "outside" / "blocks.csv"),
            "absolute-inside": str(case / "rows" / "blocks.csv"),
            "symlink": "rows/link.csv"}[where]
    (case / "rows" / "link.csv").symlink_to(tmp_path / "outside" / "blocks.csv")
    _with_row_path(case, path)
    # The refusal is the one line: the rows left out leave the case's
    # `feeshare_window` unjudged.
    for command in ("validate", "code"):
        code, out, err = run([command, str(case)], capsys)
        assert code == 1
        assert out + err == f"{case}: case.row_files[0].path: must name a file inside " \
                            f"the case directory\n"
    # A symlink that stays inside the case is read.
    _with_row_path(case, "rows/inside.csv")
    (case / "rows" / "inside.csv").symlink_to("blocks.csv")
    assert run(["code", str(case)], capsys)[0] == 0


@pytest.mark.parametrize("name", ["flows.json", "rows/blocks.csv"])
def test_case_file_that_is_a_fifo_exits_one_unread(name, tmp_path, case_dir):
    # `os.stat` finds the FIFO before it is opened, so nothing blocks; a
    # child process under a timeout shows that.
    case = tmp_path / "bitcoin"
    shutil.copytree(case_dir("bitcoin"), case)
    (case / name).unlink()
    os.mkfifo(case / name)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for command in ("validate", "code"):
        proc = subprocess.run([sys.executable, "-m", "evrc.cli", command, str(case)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: {case / name}: not a regular file\n"


@pytest.mark.parametrize("name", ["flows.json", "rows/blocks.csv"])
def test_case_file_over_the_size_limit_exits_one_unread(name, tmp_path, case_dir, capsys):
    # A sparse file one byte past the limit: `os.stat` refuses it unread.
    case = tmp_path / "bitcoin"
    shutil.copytree(case_dir("bitcoin"), case)
    os.truncate(case / name, ingest.MAX_FILE_BYTES + 1)
    error = f"error: {case / name}: larger than the limit of {ingest.MAX_FILE_BYTES} bytes\n"
    for command in ("validate", "code"):
        assert run([command, str(case)], capsys) == (1, "", error), command


def test_case_file_of_the_size_limit_is_read(tmp_path, case_dir, capsys, monkeypatch):
    case = tmp_path / "bitcoin"
    shutil.copytree(case_dir("bitcoin"), case)
    rows = case / "rows" / "blocks.csv"  # the case's largest file
    monkeypatch.setattr(ingest, "MAX_FILE_BYTES", rows.stat().st_size)
    assert run(["validate", str(case)], capsys) == (0, f"{case}: ok\n", "")
    monkeypatch.setattr(ingest, "MAX_FILE_BYTES", rows.stat().st_size - 1)
    assert run(["validate", str(case)], capsys) == (
        1, "", f"error: {rows}: larger than the limit of {ingest.MAX_FILE_BYTES} bytes\n")


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_feeshare_reads_a_csv_from_a_pipe(case_dir):
    # A pipe has no size to stat: its read takes up to the limit and one byte.
    rows = case_dir("bitcoin") / "rows" / "blocks.csv"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    from_file, from_pipe = (
        subprocess.run([sys.executable, "-m", "evrc.cli", "feeshare", path],
                       input=rows.read_text(), env=env, capture_output=True, text=True,
                       timeout=60)
        for path in (str(rows), "/dev/stdin"))
    assert from_file.returncode == 0 and from_file.stdout
    assert (from_pipe.returncode, from_pipe.stdout, from_pipe.stderr) == (
        0, from_file.stdout, "")


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


def test_a_wrong_version_outranks_a_lone_surrogate_in_an_earlier_file(tmp_path, case_dir,
                                                                    capsys):
    # Every file is read and its version checked before a lone surrogate is
    # reported, though flows.json is read before routes.json.
    case = tmp_path / "bitcoin"
    shutil.copytree(case_dir("bitcoin"), case)
    doc = json.loads((case / "flows.json").read_text())
    doc["flows"][0]["payer_note"] = "x\ud800"
    (case / "flows.json").write_text(json.dumps(doc))
    doc = json.loads((case / "routes.json").read_text())
    doc["schema_version"] = "evrc-routes/0"
    (case / "routes.json").write_text(json.dumps(doc))
    error = (f"error: {case / 'routes.json'}: schema_version 'evrc-routes/0' not supported "
             f"(expected 'evrc-routes/1')\n")
    for command in ("validate", "code"):
        assert run([command, str(case)], capsys) == (1, "", error), command


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
    code, out, _ = run(["code", str(case), "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["case_id"] == "x\U0001F600"
    assert walks == []  # a paired escape is not walked


def test_a_case_file_without_a_backslash_is_not_scanned_for_escapes(
        tmp_path, case_dir, capsys, monkeypatch):
    # Every escape starts with a backslash: a file without one is not scanned,
    # and a lone surrogate escape is still refused.
    import evrc.ingest as ingest_mod

    scanned, scan = [], ingest_mod._SURROGATE_ESCAPE

    class Counting:
        def finditer(self, text):
            scanned.append(text)
            return scan.finditer(text)
    monkeypatch.setattr(ingest_mod, "_SURROGATE_ESCAPE", Counting())
    case = tmp_path / "bitcoin"
    shutil.copytree(case_dir("bitcoin"), case)
    texts = [(case / name).read_text() for name in CASE_FILES]
    assert not any("\\" in text for text in texts)
    assert load_case(case).ok and scanned == []

    doc = json.loads((case / "flows.json").read_text())
    doc["flows"][0]["payer_note"] = "x\ud800"
    (case / "flows.json").write_text(json.dumps(doc))
    code, out, _ = run(["validate", str(case)], capsys)
    assert (code, out) == (1, f"{case}: flows[0].payer_note: lone surrogate escape in "
                              "flows.json; text must be valid Unicode\n")
    assert len(scanned) == 1


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

# Instant texts among them: date-only, UTC and offset ones, which a period
# may mix.
JSON_VALUES = st.one_of(
    st.text(max_size=8), st.integers(), st.floats(), st.none(),
    st.sampled_from(["2024-06-01", "2024-06-01T00:00:00Z", "2024-06-01T00:00:00+05:00"]),
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
    return [command, str(case), *out]


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


def _strings(node) -> set[str]:
    """Every string value below `node`."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return set().union(*map(_strings, node))
    return {node} if isinstance(node, str) else set()


def _replaced(node, old: str, new):
    """`node` with each string value equal to `old` replaced by `new`."""
    if isinstance(node, dict):
        return {key: _replaced(value, old, new) for key, value in node.items()}
    if isinstance(node, list):
        return [_replaced(value, old, new) for value in node]
    return new if node == old and isinstance(node, str) else node


@pytest.mark.parametrize("command", ["code", "validate"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_case_files_exit_alike(command, data, cases_root):
    # A value that several files of a case share (a flow id in flows.json and
    # routes.json, a period label, a source id) changed in some or all of
    # them, and maybe a leaf or key of other files too: `validate` and `code`
    # exit alike, with a report, violations or a configuration error.
    name = data.draw(st.sampled_from(CASE_NAMES))
    docs = {f: json.loads((cases_root / name / f).read_text()) for f in CASE_FILES}
    shared = sorted(value for value in set().union(*map(_strings, docs.values()))
                    if sum(value in _strings(doc) for doc in docs.values()) > 1)
    old = data.draw(st.sampled_from(shared))
    new = data.draw(st.one_of(st.text(max_size=8), st.sampled_from(shared), JSON_VALUES))
    for f in data.draw(st.sets(st.sampled_from([f for f in CASE_FILES
                                                if old in _strings(docs[f])]), min_size=1)):
        docs[f] = _replaced(docs[f], old, new)
    for f in data.draw(st.lists(st.sampled_from(CASE_FILES), max_size=2)):
        _mutate(data, docs[f])

    with tempfile.TemporaryDirectory() as tmp:
        case = Path(tmp) / name
        shutil.copytree(cases_root / name, case)
        for f, doc in docs.items():
            (case / f).write_text(json.dumps(doc))
        first = main(_case_argv(command, case))
        second = main(_case_argv("validate" if command == "code" else "code", case))
    assert first == second and first in (0, 1, 2)


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
        code = main(["feeshare", str(path), "--window", str(window)])
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
                     "--snapshot-dir", tmp])
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
                       f"--window={window}"])
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
                       "--snapshot-dir", str(cases_root / "bitcoin" / "snapshots")])
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
                           "--snapshot-dir", str(root / "snapshots")])
        assert _tree(root) == before
    assert code in (0, 1, 2, 3, "usage")


# Adapter arguments and the rows a server sends for them.
LIVE_REQUESTS = {
    "btc_blocks": (["--range", "5:7"],
                   [{"height": h, "fees": "2", "subsidy": "8"} for h in range(5, 8)]),
    "protocol_fees": (["--protocol", "aave", "--period", "2024"],
                      [{"period": "2024", "fees": "10", "revenue": "3"}]),
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=5)


@st.composite
def live_payloads(draw, rows: list[dict]) -> bytes:
    """The JSON of `rows` with one row, key or value changed, or none, as
    UTF-8 with a few bytes (maybe none) inserted somewhere."""
    rows = copy.deepcopy(rows)
    row = draw(st.sampled_from(rows))
    key = draw(st.sampled_from(sorted(row)))
    action = draw(st.sampled_from(["value", "key", "drop", "repeat", "none"]))
    if action == "value":
        row[key] = draw(JSON_VALUES)
    elif action == "key":
        row[draw(st.text(max_size=8))] = row.pop(key)
    elif action == "drop":
        rows.remove(row)
    elif action == "repeat":
        rows.append(copy.deepcopy(row))
    body = json.dumps(rows, ensure_ascii=draw(st.booleans())).encode("utf-8")
    at = draw(st.integers(0, len(body)))
    return body[:at] + draw(st.binary(max_size=3)) + body[at:]


@settings(max_examples=150, deadline=None)
@given(adapter=st.sampled_from(sorted(LIVE_REQUESTS)), data=st.data())
def test_live_fetch_of_any_payload_exits_cleanly(adapter, data):
    # Whatever a server sends, a live fetch gives rows and their snapshot, or
    # a classified error and no snapshot.
    args, rows = LIVE_REQUESTS[adapter]
    body = data.draw(st.one_of(st.binary(max_size=64), live_payloads(rows)))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_urllib_transport", lambda url: body)
        code = _exit_code(["fetch", adapter, *args, "--mode", "live",
                           "--base-url", "https://x.test", "--snapshot-dir", tmp])
        written = os.listdir(tmp)
    assert code in (0, 1, 2, 3)
    assert len(written) == (code == 0), (code, written)


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

    @pytest.mark.parametrize("retries", ["0", "-1"])
    def test_live_fetch_of_no_attempt_exits_two(self, retries, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(ingest, "_urllib_transport", calls.append)
        code, out, err = run(["fetch", "btc_blocks", "--mode", "live", "--range", "1:1",
                              "--base-url", "https://x.test", f"--retries={retries}",
                              "--snapshot-dir", str(tmp_path)], capsys)
        assert (code, out, calls, list(tmp_path.iterdir())) == (2, "", [], [])
        assert err == (f"error: a retry budget of {retries} makes no attempt; "
                       "it must be at least 1\n")

    def test_live_payload_that_is_not_utf8_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ingest, "_urllib_transport", lambda url: b"\xff\xfe[]")
        code, out, err = run(["fetch", "btc_blocks", "--mode", "live", "--range", "1:1",
                              "--base-url", "https://x.test",
                              "--snapshot-dir", str(tmp_path)], capsys)
        assert (code, out, list(tmp_path.iterdir())) == (1, "", [])
        assert err.startswith("error: payload of GET https://x.test/blocks/1/1 is not UTF-8: ")

    @pytest.mark.parametrize("height_range", ["abc:5", "5", "5:"])
    def test_malformed_range_exits_two(self, height_range, tmp_path, capsys):
        code, _, err = run(["fetch", "btc_blocks", "--range", height_range,
                            "--snapshot-dir", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("height_range", [
        "1_000:1_001", " 839928:840215", "\u0668\u0663\u0669\u0669\u0662\u0668:840215",
        "+839928:840215", "-5:3"])
    def test_a_range_height_that_is_not_plain_digits_exits_two(self, height_range,
                                                               cases_root, capsys):
        # Heights are read as a case file's are: `int` alone takes an
        # underscore, a space, a sign or non-ASCII digits, and three of these
        # would replay the committed snapshot.
        code, out, err = run(["fetch", "btc_blocks", "--mode", "replay",
                              f"--range={height_range}",
                              "--snapshot-dir", str(cases_root / "bitcoin" / "snapshots")],
                             capsys)
        assert (code, out) == (2, "")
        assert err == ("error: --range must be START:END with integer heights, "
                       f"got {height_range!r}\n")

    @pytest.mark.parametrize("period", [None, 2024, ["x"]], ids=repr)
    def test_protocol_fees_replay_refuses_a_period_that_is_not_text(self, period, tmp_path,
                                                                    cases_root, capsys):
        # A row's period is compared as text; a JSON null or number is refused,
        # not read as "None" or "2024". The snapshot is signed again after the edit.
        name = "defillama_fees_aave_2024.json"
        doc = json.loads((cases_root / "aave" / "snapshots" / name).read_text())
        rows = json.loads(doc["payload"])
        rows[0]["period"] = period
        doc["payload"] = json.dumps(rows)
        doc["digest"] = hashlib.sha256(doc["payload"].encode("utf-8")).hexdigest()
        (tmp_path / name).write_text(json.dumps(doc))
        code, out, err = run(["fetch", "protocol_fees", "--adapter-id", "defillama",
                              "--protocol", "aave", "--period", "2024",
                              "--snapshot-dir", str(tmp_path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: fee_rows[0].period: must be a string, got {period!r}\n"

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
