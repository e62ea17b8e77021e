"""Case-bundle loading, row-file parsing, and network adapters with replay.

Case bundles live on disk as a directory of JSON files plus optional CSV row
files. Adapters fetch block-fee or protocol-revenue rows; every live fetch
writes a snapshot (payload, digest, capture instant) so the run is replayable,
and replay mode never touches the network. Network payloads are graded G2 at
best; G1 is reserved for artifacts the coder registers manually.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import stat
import tempfile
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from .core_model import (
    CASE,
    CASE_SCHEMA_VERSION,
    DENOMINATORS_SCHEMA_VERSION,
    FLOWS_SCHEMA_VERSION,
    ROUTES_SCHEMA_VERSION,
    SOURCES_SCHEMA_VERSION,
    BtcBlockRow,
    CaseBundle,
    EthRewardRow,
    Field,
    ProtocolFeeRow,
    Record,
    Violation,
    canonical_json,
    parse_bundle,
    parse_record,
    validate_bundle,
)
from .errors import (
    ConfigurationError,
    DataError,
    IntegrityError,
    NetworkError,
    ParseError,
    VersioningError,
)

SNAPSHOT_SCHEMA_VERSION = "evrc-snapshot/1"

REQUIRED_FILES = {
    "case.json": CASE_SCHEMA_VERSION,
    "flows.json": FLOWS_SCHEMA_VERSION,
    "routes.json": ROUTES_SCHEMA_VERSION,
    "sources.json": SOURCES_SCHEMA_VERSION,
    "denominators.json": DENOMINATORS_SCHEMA_VERSION,
}


# The list files: each wraps its records in {"schema_version", <list key>}.
# The list itself is checked and parsed by `parse_bundle`.
LIST_FILES = {
    f"{key}.json": (key, Record(dict, (Field("schema_version", str),
                                       Field(key, object, required=True))))
    for key in ("flows", "routes", "sources", "denominators")}


# Row-file kind -> (combined-dict key, row type whose fields are the columns).
ROW_FILE_KINDS = {
    "btc_blocks": ("block_rows", BtcBlockRow),
    "eth_rewards": ("eth_reward_rows", EthRewardRow),
    "protocol_fees": ("fee_rows", ProtocolFeeRow),
}


@dataclass(frozen=True)
class LoadResult:
    bundle: CaseBundle | None
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return self.bundle is not None and not self.violations


def _read_json(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(str(exc), path=str(path)) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path=str(path), line=exc.lineno,
                         column=exc.colno) from exc
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, deep nesting
        raise ParseError(str(exc), path=str(path)) from exc
    if not isinstance(data, dict):
        raise ParseError("top-level value must be an object", path=str(path))
    return data


def _check_version(data: dict, expected: str, path: Path) -> None:
    version = data.get("schema_version")
    if version != expected:
        raise VersioningError(
            f"{path}: schema_version {version!r} not supported (expected {expected!r})")


def read_csv_rows(path: Path, row_type: type) -> list[dict]:
    """Read a row CSV whose header must carry every field of `row_type`."""
    columns = [f.name for f in fields(row_type)]
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [c for c in columns if c not in header]
            if missing:
                raise ParseError(f"missing columns: {missing}", path=str(path))
            return list(reader)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or bytes not UTF-8
        raise ParseError(str(exc), path=str(path)) from exc


def load_case(path: str | Path) -> LoadResult:
    """Load, parse and validate a case directory.

    Parse and versioning failures raise; schema violations are returned as
    data so a CLI can list every problem at once.
    """
    case_dir = Path(path)
    if not case_dir.is_dir():
        raise ParseError("case directory does not exist", path=str(case_dir))

    missing = [name for name in REQUIRED_FILES if not (case_dir / name).exists()]
    if missing:
        raise ParseError(f"missing required files: {', '.join(sorted(missing))}",
                         path=str(case_dir))

    files = {}
    for name, version in REQUIRED_FILES.items():
        data = _read_json(case_dir / name)
        _check_version(data, version, case_dir / name)
        files[name] = data

    violations: list[Violation] = []
    combined = {"case": files["case.json"]}
    for name, (key, wrapper) in LIST_FILES.items():
        parse_record(wrapper, files[name], name, violations)
        combined[key] = files[name].get(key, [])

    # A malformed case record loads no row files; parse_bundle reports its faults.
    case = parse_record(CASE, files["case.json"], "case", [])
    for entry in case["row_files"] if case is not None else ():
        kind = entry["kind"]
        row_path = case_dir / entry["path"]
        if kind not in ROW_FILE_KINDS:
            raise ParseError(f"unknown row file kind {kind!r}", path=str(row_path))
        key, row_type = ROW_FILE_KINDS[kind]
        combined[key] = read_csv_rows(row_path, row_type)

    bundle, parse_violations = parse_bundle(combined)
    violations += parse_violations
    if bundle is not None:
        violations += validate_bundle(bundle)
    return LoadResult(bundle=bundle, violations=violations)


# ---------------------------------------------------------------------------
# Adapters with snapshot/replay
# ---------------------------------------------------------------------------

Transport = Callable[[str], bytes]


def _urllib_transport(url: str) -> bytes:
    # Imported here: http.client costs tens of ms at start-up, and only live
    # fetches need it.
    import http.client
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            if resp.status != 200:
                raise NetworkError(f"GET {url} returned {resp.status}")
            return resp.read()
    except (OSError, http.client.HTTPException, ValueError) as exc:  # HTTPError is an OSError
        raise NetworkError(f"GET {url} failed: {exc}") from exc


@dataclass(frozen=True)
class AdapterConfig:
    adapter_id: str
    mode: str  # "live" | "replay"
    snapshot_dir: Path
    base_url: str | None = None
    retry_budget: int = 3
    grade: str = "G2"  # adapter-declared; a network payload is never G1
    transport: Transport | None = None

    def __post_init__(self):
        if self.grade == "G1":
            raise ConfigurationError(
                "adapters cannot declare G1; that grade is reserved for "
                "code/on-chain/audited artifacts registered manually")


@dataclass(frozen=True)
class SnapshotRecord:
    adapter_id: str
    request: dict
    captured_at: str
    digest: str
    grade: str
    path: Path
    row_count: int


SNAPSHOT = Record(dict, (
    Field("schema_version", str, required=True),
    Field("adapter_id", str, required=True),
    Field("request", dict, required=True),
    Field("captured_at", str, required=True),
    Field("digest", str, required=True),
    Field("grade", str, default="G2"),
    Field("row_count", int, default=0),
    Field("payload", str, required=True),
))


def _digest(payload: str) -> str:
    # surrogatepass: a lone surrogate, which only an altered snapshot holds,
    # fails the digest check instead of the encoding.
    return hashlib.sha256(payload.encode("utf-8", "surrogatepass")).hexdigest()


def _snapshot_path(config: AdapterConfig, request: dict) -> Path:
    """The snapshot file for a request, always directly inside the snapshot dir."""
    parts = [config.adapter_id, *(str(v) for v in request.values())]
    for part in parts:
        if part == ".." or "/" in part or "\\" in part:
            raise ConfigurationError(
                f"{part!r} cannot name a snapshot inside {config.snapshot_dir}")
    return config.snapshot_dir / ("_".join(parts) + ".json")


def write_text_atomic(path: Path, text: str) -> None:
    """Write `text` to `path`. A regular file, or a new one, is written whole
    or not at all: a temp file in the target directory with the mode the file
    has (or a new file gets), then a rename. Anything else, such as a device,
    a FIFO or a symlink, is written through in place. A path that cannot be
    written is a `ConfigurationError`."""
    tmp = None
    try:
        if path.is_symlink() or (path.exists() and not path.is_file()):
            path.write_text(text, encoding="utf-8")
            return
        if path.exists():
            mode = stat.S_IMODE(path.stat().st_mode)
        else:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, mode)  # mkstemp creates the file owner-only
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _fetch_payload(config: AdapterConfig, url: str) -> str:
    transport = config.transport or _urllib_transport
    last: NetworkError | None = None
    for _ in range(max(1, config.retry_budget)):
        try:
            return transport(url).decode("utf-8")
        except NetworkError as exc:
            last = exc
    raise NetworkError(
        f"fetch failed after {max(1, config.retry_budget)} attempts: {last}")


def _load_snapshot(path: Path) -> tuple[str, SnapshotRecord]:
    if not path.exists():
        raise ConfigurationError(f"replay mode requires a snapshot file at {path}")
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8 or not JSON
        raise IntegrityError(f"snapshot {path} is not readable JSON: {exc}") from exc
    if type(record) is not dict:
        raise IntegrityError(f"snapshot {path} must hold a JSON object")
    if record.get("schema_version") != SNAPSHOT_SCHEMA_VERSION:
        raise VersioningError(
            f"{path}: snapshot schema {record.get('schema_version')!r} not supported")
    violations: list[Violation] = []
    snap = parse_record(SNAPSHOT, record, "", violations)
    if violations:
        raise IntegrityError(f"snapshot {path} is malformed: "
                             + "; ".join(map(str, violations)))
    del snap["schema_version"]
    payload = snap.pop("payload")
    if _digest(payload) != snap["digest"]:
        raise IntegrityError(f"snapshot {path} digest mismatch; payload was altered")
    return payload, SnapshotRecord(**snap, path=path)


def _capture(config: AdapterConfig, request: dict, path: Path, row_count: int,
             payload: str) -> SnapshotRecord:
    digest = _digest(payload)
    captured_at = datetime.now(timezone.utc).isoformat()
    write_text_atomic(path, canonical_json({
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "adapter_id": config.adapter_id,
        "request": request,
        "captured_at": captured_at,
        "digest": digest,
        "grade": config.grade,
        "row_count": row_count,
        "payload": payload,
    }))
    return SnapshotRecord(adapter_id=config.adapter_id, request=request,
                          captured_at=captured_at, digest=digest,
                          grade=config.grade, path=path, row_count=row_count)


@dataclass(frozen=True)
class BlockRowsResult:
    rows: tuple[BtcBlockRow, ...]
    snapshot: SnapshotRecord


@dataclass(frozen=True)
class FeeRowsResult:
    rows: tuple[ProtocolFeeRow, ...]
    snapshot: SnapshotRecord
    coverage_gap: bool


def _payload_rows(payload: str, what: str) -> list:
    try:
        raw = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise DataError(f"{what} payload is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise DataError(f"{what} payload must be a list of rows")
    return raw


def _parse_block_payload(payload: str, start: int, end: int) -> tuple[BtcBlockRow, ...]:
    rows = tuple(BtcBlockRow.from_raw(r) for r in _payload_rows(payload, "block"))
    if not rows:
        raise DataError("block payload contains no rows")
    expected = start
    for row in rows:
        if row.height != expected:
            raise DataError(
                f"non-contiguous block response: expected height {expected}, "
                f"got {row.height}")
        expected += 1
    if rows[-1].height != end:
        raise DataError(
            f"block response ends at {rows[-1].height}, expected {end}")
    return rows


def _parse_fee_payload(payload: str) -> tuple[ProtocolFeeRow, ...]:
    return tuple(ProtocolFeeRow.from_raw(r) for r in _payload_rows(payload, "fee"))


def _fetch_rows(config: AdapterConfig, request: dict, url_path: str,
                parse: Callable[[str], tuple]) -> tuple[tuple, SnapshotRecord]:
    """Replay the request's snapshot, or fetch live and capture a snapshot.

    Live payloads are parsed before capture, so a bad payload is never saved.
    """
    path = _snapshot_path(config, request)
    if config.mode == "replay":
        payload, snap = _load_snapshot(path)
        return parse(payload), snap
    if config.mode != "live":
        raise ConfigurationError(f"unknown adapter mode {config.mode!r}")
    if not config.base_url:
        raise ConfigurationError("live mode requires a configured base URL")
    payload = _fetch_payload(config, f"{config.base_url.rstrip('/')}/{url_path}")
    rows = parse(payload)
    return rows, _capture(config, request, path, len(rows), payload)


def fetch_block_rows(config: AdapterConfig,
                     height_range: tuple[int, int]) -> BlockRowsResult:
    """Fetch contiguous block fee/subsidy rows for [start, end] inclusive."""
    start, end = height_range
    if start > end:
        raise ConfigurationError(f"invalid height range {start}..{end}")
    rows, snap = _fetch_rows(
        config, {"kind": "blocks", "start": start, "end": end},
        f"blocks/{start}/{end}", lambda p: _parse_block_payload(p, start, end))
    return BlockRowsResult(rows=rows, snapshot=snap)


def fetch_protocol_fee_rows(config: AdapterConfig, protocol_id: str,
                            period_label: str) -> FeeRowsResult:
    """Fetch aggregate fee/revenue rows for a protocol and period.

    A period outside the captured coverage is a gap flag, not an error:
    bounded-capture semantics.
    """
    rows, snap = _fetch_rows(
        config, {"kind": "fees", "protocol": protocol_id, "period": period_label},
        f"fees/{protocol_id}?period={period_label}", _parse_fee_payload)
    covered = any(r.period == period_label for r in rows)
    return FeeRowsResult(rows=rows, snapshot=snap, coverage_gap=not covered)
