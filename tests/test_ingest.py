"""Case loading, snapshots, and adapter live/replay behavior."""

from __future__ import annotations

import hashlib
import http.server
import json
import random
import shutil
import threading
from datetime import datetime
from decimal import Decimal
from pathlib import Path

import pytest
from helpers import CASE_NAMES, make_bundle

from evrc import ingest
from evrc.cli import main
from evrc.core_model import GateDecision, bundle_to_dict
from evrc.errors import (
    ConfigurationError,
    DataError,
    InputError,
    IntegrityError,
    NetworkError,
    ParseError,
    VersioningError,
)
from evrc.ingest import (
    ADAPTER_GRADE,
    REQUIRED_FILES,
    AdapterConfig,
    fetch_block_rows,
    fetch_protocol_fee_rows,
    load_case,
)
from evrc.pipeline import run_case


class TestLoadCase:
    def test_xrp_fixture_loads_with_one_flow_no_routes(self, case_dir):
        result = load_case(case_dir("xrp"))
        assert result.ok
        assert len(result.bundle.flows) == 1
        assert len(result.bundle.routes) == 0

    def test_empty_directory_lists_missing_files(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            load_case(tmp_path)
        for name in ("case.json", "flows.json", "routes.json", "sources.json",
                     "denominators.json"):
            assert name in str(exc.value)

    def test_unknown_schema_version_is_versioning_error(self, tmp_path, case_dir):
        shutil.copytree(case_dir("xrp"), tmp_path / "xrp")
        case_file = tmp_path / "xrp" / "case.json"
        doc = json.loads(case_file.read_text())
        doc["schema_version"] = "evrc-case/99"
        case_file.write_text(json.dumps(doc))
        with pytest.raises(VersioningError):
            load_case(tmp_path / "xrp")

    def test_malformed_json_reports_line_and_column(self, tmp_path, case_dir):
        shutil.copytree(case_dir("xrp"), tmp_path / "xrp")
        (tmp_path / "xrp" / "flows.json").write_text('{"schema_version": }')
        with pytest.raises(ParseError) as exc:
            load_case(tmp_path / "xrp")
        assert exc.value.line is not None
        assert exc.value.column is not None

    @pytest.mark.parametrize("text", ['{"n": ' + "9" * 5000 + "}",
                                      "[" * 100_000 + "]" * 100_000],
                             ids=["integer-past-digit-limit", "deep-nesting"])
    def test_json_python_cannot_hold_is_a_parse_error(self, tmp_path, case_dir, text):
        shutil.copytree(case_dir("xrp"), tmp_path / "xrp")
        (tmp_path / "xrp" / "flows.json").write_text(text)
        with pytest.raises(ParseError, match="flows.json"):
            load_case(tmp_path / "xrp")

    @pytest.mark.parametrize("file_name", ["sources.json", "rows/blocks.csv"])
    def test_bytes_not_utf8_are_a_parse_error(self, tmp_path, case_dir, file_name):
        shutil.copytree(case_dir("bitcoin"), tmp_path / "bitcoin")
        with (tmp_path / "bitcoin" / file_name).open("ab") as fh:
            fh.write(b"\xff\xfe")
        with pytest.raises(ParseError):
            load_case(tmp_path / "bitcoin")

    def test_dangling_reference_is_a_violation_not_an_exception(self, tmp_path,
                                                                case_dir):
        shutil.copytree(case_dir("bitcoin"), tmp_path / "bitcoin")
        routes_file = tmp_path / "bitcoin" / "routes.json"
        doc = json.loads(routes_file.read_text())
        doc["routes"][0]["flow_id"] = "f-missing"
        routes_file.write_text(json.dumps(doc))
        result = load_case(tmp_path / "bitcoin")
        assert len(result.violations) == 1
        assert "f-missing" in result.violations[0].message

    def test_bitcoin_row_file_parsed(self, case_dir):
        result = load_case(case_dir("bitcoin"))
        assert len(result.bundle.block_rows) == 288
        assert result.bundle.feeshare_window == 144

    def test_ethereum_reward_rows_parsed(self, case_dir):
        result = load_case(case_dir("ethereum"))
        assert [r.window for r in result.bundle.eth_reward_rows] == ["w1", "w2"]


def _rows(start, end, fees="5", subsidy="95"):
    return [{"height": h, "fees": fees, "subsidy": subsidy}
            for h in range(start, end + 1)]


def _transport_for(payload_obj):
    calls = []

    def transport(url: str) -> bytes:
        calls.append(url)
        return json.dumps(payload_obj).encode("utf-8")

    return transport, calls


class TestBlockAdapter:
    def test_replay_of_shipped_halving_snapshot(self, cases_root):
        config = AdapterConfig(adapter_id="btc_blocks", mode="replay",
                               snapshot_dir=cases_root / "bitcoin" / "snapshots")
        result = fetch_block_rows(config, (839928, 840215))
        assert len(result.rows) == 288
        heights = [r.height for r in result.rows]
        assert heights == list(range(839928, 840216))
        assert json.loads(result.path.read_text())["grade"] == "G2"

    def test_tampered_snapshot_is_integrity_error(self, tmp_path, cases_root):
        src = cases_root / "bitcoin" / "snapshots" / \
            "btc_blocks_blocks_839928_840215.json"
        dst = tmp_path / src.name
        doc = json.loads(src.read_text())
        doc["payload"] = doc["payload"].replace('"fees":"74"', '"fees":"99"', 1)
        dst.write_text(json.dumps(doc))
        config = AdapterConfig(adapter_id="btc_blocks", mode="replay",
                               snapshot_dir=tmp_path)
        with pytest.raises(IntegrityError):
            fetch_block_rows(config, (839928, 840215))

    def test_replay_without_snapshot_is_configuration_error(self, tmp_path):
        config = AdapterConfig(adapter_id="btc_blocks", mode="replay",
                               snapshot_dir=tmp_path)
        with pytest.raises(ConfigurationError):
            fetch_block_rows(config, (1, 2))

    def test_live_fetch_writes_replayable_snapshot(self, tmp_path):
        transport, calls = _transport_for(_rows(100, 104))
        live = AdapterConfig(adapter_id="btc_blocks", mode="live",
                             snapshot_dir=tmp_path, base_url="https://example.test",
                             transport=transport)
        first = fetch_block_rows(live, (100, 104))
        assert len(first.rows) == 5
        assert json.loads(first.path.read_text())["grade"] == "G2"
        assert calls == ["https://example.test/blocks/100/104"]

        replay = AdapterConfig(adapter_id="btc_blocks", mode="replay",
                               snapshot_dir=tmp_path)
        second = fetch_block_rows(replay, (100, 104))
        assert second.rows == first.rows
        assert second.snapshot.digest == first.snapshot.digest

    def test_a_payload_key_that_names_no_column_is_ignored(self, tmp_path):
        fetched = []
        for name, rows in (("plain", _rows(10, 12)),
                           ("extra", [{**row, "hash": "00ab"} for row in _rows(10, 12)])):
            config = AdapterConfig(adapter_id="btc_blocks", mode="live",
                                   snapshot_dir=tmp_path / name, base_url="https://example.test",
                                   transport=_transport_for(rows)[0])
            fetched.append(fetch_block_rows(config, (10, 12)).rows)
        assert fetched[0] == fetched[1] and len(fetched[0]) == 3

    def test_live_without_base_url_is_configuration_error(self, tmp_path):
        config = AdapterConfig(adapter_id="btc_blocks", mode="live",
                               snapshot_dir=tmp_path)
        with pytest.raises(ConfigurationError):
            fetch_block_rows(config, (1, 2))

    def test_network_failure_retried_then_raised(self, tmp_path):
        attempts = []

        def failing(url: str) -> bytes:
            attempts.append(url)
            raise NetworkError("unreachable host")

        config = AdapterConfig(adapter_id="btc_blocks", mode="live",
                               snapshot_dir=tmp_path, base_url="https://down.test",
                               transport=failing, retry_budget=3)
        with pytest.raises(NetworkError, match="after 3 attempts"):
            fetch_block_rows(config, (1, 2))
        assert len(attempts) == 3

    def test_non_contiguous_response_is_data_error(self, tmp_path):
        rows = _rows(10, 12)
        del rows[1]
        transport, _ = _transport_for(rows)
        config = AdapterConfig(adapter_id="btc_blocks", mode="live",
                               snapshot_dir=tmp_path, base_url="https://example.test",
                               transport=transport)
        with pytest.raises(DataError, match="non-contiguous"):
            fetch_block_rows(config, (10, 12))

    @pytest.mark.parametrize("payload", [
        [{"height": 10, "fees": "1"}],
        [{"height": "ten", "fees": "1", "subsidy": "9"}],
        [["10", "1", "9"]],
        {"rows": []},
    ])
    def test_malformed_rows_are_input_errors_and_not_captured(self, tmp_path,
                                                              payload):
        transport, _ = _transport_for(payload)
        config = AdapterConfig(adapter_id="btc_blocks", mode="live",
                               snapshot_dir=tmp_path, base_url="https://example.test",
                               transport=transport)
        with pytest.raises(InputError):
            fetch_block_rows(config, (10, 10))
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("payload", [b"[" + b"9" * 5000 + b"]", b"[" * 100_000])
    def test_payload_json_cannot_hold_is_a_data_error(self, tmp_path, payload):
        config = AdapterConfig(adapter_id="btc_blocks", mode="live",
                               snapshot_dir=tmp_path, base_url="https://example.test",
                               transport=lambda url: payload)
        with pytest.raises(DataError, match="block_rows payload is not valid JSON"):
            fetch_block_rows(config, (10, 10))
        assert list(tmp_path.iterdir()) == []

    # A fault named by a field alone, or by a field and "-missing", deletes
    # it: every field is required, so no grade is read as G2, no row count as 0.
    @pytest.mark.parametrize("fault", ["truncated", "payload", "digest", "adapter_id",
                                       "request", "captured_at", "grade", "not-an-object",
                                       "grade-G1", "grade-G3", "row_count", "row_count-missing",
                                       "request-mismatch", "request-type",
                                       "captured_at-not-an-instant", "captured_at-naive"])
    def test_malformed_snapshot_exits_three_naming_the_file(self, fault, tmp_path,
                                                              capsys):
        transport, _ = _transport_for(_rows(1, 2))
        fetch_block_rows(AdapterConfig(adapter_id="btc_blocks", mode="live",
                                       snapshot_dir=tmp_path,
                                       base_url="https://example.test",
                                       transport=transport), (1, 2))
        (path,) = tmp_path.iterdir()
        text = path.read_text()
        missing = None
        if fault == "truncated":
            text = text[: len(text) // 2]
        elif fault == "not-an-object":
            text = json.dumps([json.loads(text)])
        elif fault.startswith("grade-"):
            text = json.dumps({**json.loads(text), "grade": fault[len("grade-"):]})
        elif fault == "row_count":  # the payload holds 2 rows
            text = json.dumps({**json.loads(text), "row_count": 5})
        elif fault == "request-mismatch":
            record = json.loads(text)
            text = json.dumps({**record, "request": {**record["request"], "end": 3}})
        elif fault == "request-type":  # "2" == 2 is false, but True == 1 is true
            record = json.loads(text)
            text = json.dumps({**record, "request": {**record["request"], "start": True}})
        elif fault == "captured_at-not-an-instant":
            text = json.dumps({**json.loads(text), "captured_at": "not a time"})
        elif fault == "captured_at-naive":  # a local time names no instant
            text = json.dumps({**json.loads(text), "captured_at": "2025-11-14T00:00:00"})
        else:
            missing = fault.removesuffix("-missing")
            record = json.loads(text)
            del record[missing]
            text = json.dumps(record)
        path.write_text(text)

        code = main(["fetch", "btc_blocks", "--range", "1:2",
                     "--snapshot-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err
        if missing:
            assert err == (f"error: snapshot {path} is malformed: "
                           f"{missing}: required field missing\n")


class TestFeeAdapter:
    def test_replay_of_shipped_aave_snapshot(self, cases_root):
        config = AdapterConfig(adapter_id="defillama", mode="replay",
                               snapshot_dir=cases_root / "aave" / "snapshots")
        result = fetch_protocol_fee_rows(config, "aave", "2024")
        assert len(result.rows) == 1
        assert result.rows[0].period == "2024"
        assert result.coverage_gap is False
        assert json.loads(result.path.read_text())["grade"] == "G2"

    def test_period_outside_coverage_sets_gap_flag(self, tmp_path):
        transport, _ = _transport_for(
            [{"period": "2023", "fees": "1", "revenue": "1"}])
        config = AdapterConfig(adapter_id="defillama", mode="live",
                               snapshot_dir=tmp_path, base_url="https://example.test",
                               transport=transport)
        result = fetch_protocol_fee_rows(config, "aave", "2024")
        assert result.coverage_gap is True
        assert len(result.rows) == 1

    def test_zero_row_response_is_empty_with_gap_flag(self, tmp_path):
        transport, _ = _transport_for([])
        config = AdapterConfig(adapter_id="defillama", mode="live",
                               snapshot_dir=tmp_path, base_url="https://example.test",
                               transport=transport)
        result = fetch_protocol_fee_rows(config, "aave", "2024")
        assert result.rows == ()
        assert result.coverage_gap is True


@pytest.mark.parametrize("adapter_id,protocol", [
    ("defillama", "a/../../x"),
    ("defillama", ".."),
    ("defillama", "a\\b"),
    ("defillama", "x\x00"),
    ("defillama", "x\ud800"),
    ("../x", "aave"),
])
def test_snapshot_name_cannot_leave_the_snapshot_dir(tmp_path, adapter_id, protocol):
    transport, calls = _transport_for([{"period": "2024", "fees": "1", "revenue": "1"}])
    config = AdapterConfig(adapter_id=adapter_id, mode="live",
                           snapshot_dir=tmp_path / "d" / "snapshots",
                           base_url="https://example.test", transport=transport)
    with pytest.raises(ConfigurationError):
        fetch_protocol_fee_rows(config, protocol, "2024")
    assert calls == []
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


class _Handler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        status = 200 if self.path == "/ok" else 404
        self.send_response(status)
        self.end_headers()
        self.wfile.write(b"[]")

    def log_message(self, *args):
        pass


def test_urllib_transport_maps_failures_to_network_error():
    from evrc.ingest import _urllib_transport

    server = http.server.HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    base = f"http://127.0.0.1:{server.server_port}"
    try:
        assert _urllib_transport(f"{base}/ok") == b"[]"
        with pytest.raises(NetworkError, match="404"):
            _urllib_transport(f"{base}/missing")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    with pytest.raises(NetworkError):
        _urllib_transport(f"{base}/ok")  # the server is gone: connection refused
    with pytest.raises(NetworkError):
        _urllib_transport("not a url")


def test_adapters_cannot_declare_g1(tmp_path):
    assert ADAPTER_GRADE == "G2"
    with pytest.raises(TypeError):
        AdapterConfig(adapter_id="x", mode="replay", snapshot_dir=tmp_path,
                      grade="G1")


def test_report_back_references_resolve(case_dir):
    # Provenance closure: every reference a report makes walks back to a
    # case-file record.
    from evrc.pipeline import run_case

    for name in ("bitcoin", "aave", "steem"):
        result = run_case(load_case(case_dir(name)).bundle)
        doc = result.report.document
        source_ids = {s["id"] for s in doc["evidence_sources"]}
        flow_ids = {f.id for f in result.bundle.flows}
        route_ids = {r.id for r in result.bundle.routes}
        assert set(doc["coverage"]["denominator"]["source_ids"]) <= source_ids
        assert set(doc["coverage"]["accepted_flow_ids"]) <= flow_ids
        for outcome in doc["gate_outcomes"]:
            assert outcome["flow_id"] in flow_ids
            if outcome["route_id"] is not None:
                assert outcome["route_id"] in route_ids


class TestSnapshotDeterminism:
    def test_shipped_snapshot_digests_verify(self, cases_root):
        for path in sorted(cases_root.glob("*/snapshots/*.json")):
            doc = json.loads(path.read_text())
            digest = hashlib.sha256(doc["payload"].encode("utf-8")).hexdigest()
            assert digest == doc["digest"], path

    def test_two_replays_yield_identical_rows(self, cases_root):
        config = AdapterConfig(adapter_id="btc_blocks", mode="replay",
                               snapshot_dir=cases_root / "bitcoin" / "snapshots")
        a = fetch_block_rows(config, (839928, 840215))
        b = fetch_block_rows(config, (839928, 840215))
        assert a.rows == b.rows
        assert a.snapshot.digest == b.snapshot.digest

    def test_live_capture_at_a_fixed_instant_writes_pinned_bytes(self, tmp_path,
                                                                 monkeypatch):
        class Fixed(datetime):
            @classmethod
            def now(cls, tz=None):
                return datetime(2025, 11, 14, 12, 30, tzinfo=tz)

        monkeypatch.setattr(ingest, "datetime", Fixed)
        live = AdapterConfig(adapter_id="btc_blocks", mode="live", snapshot_dir=tmp_path,
                             base_url="https://example.test",
                             transport=_transport_for(_rows(100, 101))[0])
        captured = fetch_block_rows(live, (100, 101))
        payload = ('[{\\"height\\": 100, \\"fees\\": \\"5\\", \\"subsidy\\": \\"95\\"}, '
                   '{\\"height\\": 101, \\"fees\\": \\"5\\", \\"subsidy\\": \\"95\\"}]')
        assert captured.path.read_text(encoding="utf-8") == (
            '{\n'
            '  "adapter_id": "btc_blocks",\n'
            '  "captured_at": "2025-11-14T12:30:00+00:00",\n'
            '  "digest": "98eb3f2417dda1a4e9edb4652031e5eacacbdc32ea1b400bb81327332e30339a",\n'
            '  "grade": "G2",\n'
            f'  "payload": "{payload}",\n'
            '  "request": {\n'
            '    "end": 101,\n'
            '    "kind": "blocks",\n'
            '    "start": 100\n'
            '  },\n'
            '  "row_count": 2,\n'
            '  "schema_version": "evrc-snapshot/1"\n'
            '}\n')
        replay = AdapterConfig(adapter_id="btc_blocks", mode="replay", snapshot_dir=tmp_path)
        assert fetch_block_rows(replay, (100, 101)).snapshot == captured.snapshot


def _write_case(bundle, case: Path) -> None:
    """`bundle` as a case directory of the five required files."""
    data = bundle_to_dict(bundle)
    case.mkdir()
    (case / "case.json").write_text(json.dumps(data["case"]))
    for name, version in REQUIRED_FILES.items():
        if name != "case.json":
            key = name.removesuffix(".json")
            (case / name).write_text(json.dumps({"schema_version": version, key: data[key]}))


def _case_from(source: str, cases_root: Path, tmp_path: Path) -> Path:
    """A case directory holding a copy of the shipped case `source`, or the
    `make_bundle` bundle seeded with `source`."""
    case = tmp_path / "case"
    if source in CASE_NAMES:
        shutil.copytree(cases_root / source, case)
    else:
        _write_case(make_bundle(random.Random(source), max_flows=12), case)
    return case


def _run(case: Path):
    result = load_case(case)
    assert result.ok, result
    return run_case(result.bundle)


def _json_report(case: Path) -> dict:
    return json.loads(_run(case).report.to_json())


# Each shipped case, and a `make_bundle` bundle for each of 8 seeds.
SOURCES = [*CASE_NAMES, *(f"seed-{seed}" for seed in range(8))]


# The report's lists with one item per input record, in input order; its
# list of accepted flow ids, in flow order, is checked as well.
PER_ITEM_LISTS = {"gate_outcomes": ("flows", "flow_id"), "evidence_sources": ("sources", "id")}


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
@pytest.mark.parametrize("source", SOURCES)
def test_input_order_changes_only_the_order_of_per_item_lists(source, order, cases_root,
                                                               tmp_path):
    # Reordering the records of flows.json, routes.json and sources.json
    # reorders the report's per-item lists to match, and changes nothing else.
    case = _case_from(source, cases_root, tmp_path)
    before = _json_report(case)
    rng = random.Random(f"{source}:{order}")
    records = {}
    for key in ("flows", "routes", "sources"):
        doc = json.loads((case / f"{key}.json").read_text())
        records[key] = doc[key]
        if order == "reversed":
            doc[key].reverse()
        else:
            rng.shuffle(doc[key])
        (case / f"{key}.json").write_text(json.dumps(doc))
    after = _json_report(case)
    for name, (key, id_key) in PER_ITEM_LISTS.items():
        assert [item[id_key] for item in after[name]] == [r["id"] for r in records[key]]
        by_id = {item[id_key]: item for item in before.pop(name)}
        assert after.pop(name) == [by_id[r["id"]] for r in records[key]]
    accepted = set(before["coverage"].pop("accepted_flow_ids"))
    assert after["coverage"].pop("accepted_flow_ids") == [
        r["id"] for r in records["flows"] if r["id"] in accepted]
    assert after == before


def _looseness(report: dict) -> tuple:
    """What an unknown must never raise in `report`: each flow's band, the
    weighted RAV and the number of allowed claims."""
    bands = {o["flow_id"]: Decimal(o.get("band") or 0) for o in report["gate_outcomes"]}
    return (bands, Decimal(report["coverage"]["rav_weighted"]["value"]),
            sum(c["allowed"] for c in report["claims"]))


@pytest.mark.parametrize("source", SOURCES)
def test_an_unknown_route_check_never_loosens_the_report(source, cases_root, tmp_path):
    # Each route check that reads `yes`, replaced alone by `unknown`, never
    # raises a band, the weighted RAV or the number of allowed claims. Flags
    # are left out: an unknown beneficiary_specificity rejects the flow, which
    # rightly clears `revocable_route_flag`. So are flips from `no`: the band
    # table caps enforceability=no at 0.25, and unknown at 0.5.
    case = _case_from(source, cases_root, tmp_path)
    bands, rav, allowed = _looseness(_json_report(case))
    doc = json.loads((case / "routes.json").read_text())
    for route in doc["routes"]:
        for key in [key for key, value in route["checks"].items() if value == "yes"]:
            route["checks"][key] = "unknown"
            (case / "routes.json").write_text(json.dumps(doc))
            route["checks"][key] = "yes"
            after_bands, after_rav, after_allowed = _looseness(_json_report(case))
            flip = (route["id"], key)
            assert all(after_bands[f] <= band for f, band in bands.items()), flip
            assert after_rav <= rav and after_allowed <= allowed, flip


@pytest.mark.parametrize("source", SOURCES)
def test_a_route_id_never_decides_a_gate(source, cases_root, tmp_path):
    # Each route's id, set alone to the empty text that validation accepts,
    # changes no claim, flag, coverage figure or breakpoint: every accepted
    # route counts, whatever its id.
    case = _case_from(source, cases_root, tmp_path)
    before = _json_report(case)
    doc = json.loads((case / "routes.json").read_text())
    for route in doc["routes"]:
        route_id, route["id"] = route["id"], ""
        (case / "routes.json").write_text(json.dumps(doc))
        route["id"] = route_id
        after = _json_report(case)
        for section in ("claims", "flags", "coverage", "breakpoints"):
            assert after[section] == before[section], (route_id, section)


def _append(case: Path, key: str, record: dict) -> None:
    path = case / f"{key}.json"
    doc = json.loads(path.read_text())
    doc[key].append(record)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("routed", [False, True], ids=["no-route", "unspecific-route"])
@pytest.mark.parametrize("source", SOURCES)
def test_a_rejected_flow_never_changes_rav_or_rcr(source, routed, cases_root, tmp_path):
    # A flow paying the recipient, with no route or with a full-band route
    # that does not name the recipient specifically, is rejected; adding it
    # leaves both RAV figures and the computed closure ratio as they were.
    case = _case_from(source, cases_root, tmp_path)
    before = _run(case)
    meta = json.loads((case / "case.json").read_text())
    _append(case, "flows", {
        "id": "f-added", "amount": "1000", "currency": meta["currency"],
        "period_label": meta["analysis_period"], "motive": "U", "landing": "protocol",
        "payer_note": "", "intended_numerator": True, "pays_recipient": True})
    if routed:
        _append(case, "routes", {
            "id": "r-added", "flow_id": "f-added", "recipient_id": meta["recipient"]["id"],
            "route_kind": "protocol_enforced",
            "checks": {"enforceability": "yes", "beneficiary_specificity": "no",
                       "revocability": "no", "auditability": "yes"},
            "escrowed_or_executed": False, "source_gap": False})
    after = _run(case)
    assert after.outcomes[-1].decision is GateDecision.REJECTED
    for field in ("rav_weighted", "rav_unweighted"):
        assert getattr(after.coverage.rav, field) == getattr(before.coverage.rav, field)
    assert after.coverage.rcr == before.coverage.rcr


@pytest.mark.parametrize("source", SOURCES)
def test_a_case_whose_sources_are_all_g3_allows_no_claim(source, cases_root, tmp_path):
    # Media and narrative sources support no claim at any level.
    case = _case_from(source, cases_root, tmp_path)
    doc = json.loads((case / "sources.json").read_text())
    for record in doc["sources"]:
        record["grade"] = "G3"
    (case / "sources.json").write_text(json.dumps(doc))
    report = _json_report(case)
    assert [c["template"] for c in report["claims"] if c["allowed"]] == []
    assert report["coverage"]["rcr"]["status"] == "blocked"
