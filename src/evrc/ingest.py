"""Case-bundle loading, row-file parsing, and network adapters with replay.

Case bundles live on disk as a directory of JSON files plus optional CSV row
files. Adapters fetch block-fee or protocol-revenue rows; every live fetch
writes a snapshot (payload, digest, capture instant) so the run is replayable,
and replay mode never touches the network. Network payloads are always graded
G2; G1 is reserved for artifacts the coder registers manually.
"""

from __future__ import annotations

import csv
import json
import os
import re
import stat
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

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
    ValidCase,
    Violation,
    canonical_json,
    parse_bundle,
    parse_instant,
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


class LoadResult(NamedTuple):
    """What `validate_bundle` decided: `bundle` is a `ValidCase` exactly when
    there are no violations and no configuration error, else the case as
    read, or None when it could not be read."""

    bundle: CaseBundle | None
    violations: list[Violation]
    config_error: str | None = None

    @property
    def ok(self) -> bool:
        return isinstance(self.bundle, ValidCase)


def _read_json(path: Path) -> tuple[str, dict]:
    """The text of a JSON file and the object it holds."""
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
    return text, data


# json.loads reads an unpaired \ud800-\udfff escape into a str that cannot be
# encoded as UTF-8. Only a text holding such an escape is walked. Matches run
# left to right from a backslash, so an escaped backslash and a high-low pair
# are each consumed whole; group 1 is set only for an unpaired escape. The
# leading literal backslash lets the scan skip text without one.
_SURROGATE_ESCAPE = re.compile(r"\\(?:\\|u[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F]|(u[dD]))")
_SURROGATE = re.compile("[\ud800-\udfff]")


def _lone_surrogate(data, root: str) -> str | None:
    """The path, surrogates escaped, of the first key or string in `data` that
    holds a lone surrogate (json.loads joins an escaped pair into one
    character), or None."""
    stack = [(root, data)]
    while stack:
        path, value = stack.pop()
        if _SURROGATE.search(path) or (type(value) is str and _SURROGATE.search(value)):
            return path.encode("utf-8", "backslashreplace").decode("utf-8")
        if type(value) is dict:
            stack.extend((f"{path}.{k}" if path else k, v) for k, v in reversed(value.items()))
        elif type(value) is list:
            stack.extend((f"{path}[{i}]", v) for i, v in reversed(list(enumerate(value))))
    return None


def _check_version(data: dict, expected: str, path: Path) -> None:
    version = data.get("schema_version")
    if version != expected:
        raise VersioningError(
            f"{path}: schema_version {version!r} not supported (expected {expected!r})")


def read_csv_rows(path: Path, row_type: type) -> list[dict]:
    """Read a row CSV whose header must carry every field of `row_type`."""
    columns = row_type._fields
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

    Parse and versioning failures raise; schema violations and the
    configuration error are returned as data so a CLI can list every problem
    at once.
    """
    case_dir = Path(path)
    if not case_dir.is_dir():
        raise ParseError("case directory does not exist", path=str(case_dir))

    missing = [name for name in REQUIRED_FILES if not (case_dir / name).exists()]
    if missing:
        raise ParseError(f"missing required files: {', '.join(sorted(missing))}",
                         path=str(case_dir))

    files, texts = {}, {}
    for name, version in REQUIRED_FILES.items():
        texts[name], files[name] = _read_json(case_dir / name)
        _check_version(files[name], version, case_dir / name)

    for name, text in texts.items():
        if any(m.group(1) for m in _SURROGATE_ESCAPE.finditer(text)):
            where = _lone_surrogate(files[name], "case" if name == "case.json" else "")
            if where is not None:
                return LoadResult(bundle=None, violations=[Violation(
                    where, f"lone surrogate escape in {name}; text must be valid Unicode")])

    violations: list[Violation] = []
    combined = {"case": files["case.json"]}
    for name, (key, wrapper) in LIST_FILES.items():
        wrapper.read(files[name], name, violations)
        combined[key] = files[name].get(key, [])

    # A malformed case record loads no row files; parse_bundle reports its faults.
    case = CASE.read(files["case.json"], "case", [])
    for entry in case["row_files"] if case is not None else ():
        kind = entry["kind"]
        row_path = case_dir / entry["path"]
        if kind not in ROW_FILE_KINDS:
            raise ParseError(f"unknown row file kind {kind!r}", path=str(row_path))
        key, row_type = ROW_FILE_KINDS[kind]
        combined[key] = read_csv_rows(row_path, row_type)

    bundle, parse_violations = parse_bundle(combined)
    violations += parse_violations
    if bundle is None:
        return LoadResult(bundle=None, violations=violations)
    violations, config_error, case = validate_bundle(bundle, violations)
    return LoadResult(bundle=bundle if case is None else case, violations=violations,
                      config_error=config_error)


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


ADAPTER_GRADE = "G2"  # of every adapter row and snapshot


class AdapterConfig(NamedTuple):
    adapter_id: str
    mode: str  # "live" | "replay"
    snapshot_dir: Path
    base_url: str | None = None
    retry_budget: int = 3
    transport: Transport | None = None


class SnapshotRecord(NamedTuple):
    adapter_id: str
    request: dict
    captured_at: str
    digest: str
    path: Path
    row_count: int


SNAPSHOT = Record(dict, (
    Field("schema_version", str, required=True),
    Field("adapter_id", str, required=True),
    Field("request", dict, required=True),
    Field("captured_at", str, required=True),
    Field("digest", str, required=True),
    Field("grade", str, default=ADAPTER_GRADE),
    Field("row_count", int, default=0),
    Field("payload", str, required=True),
))


def _digest(payload: str) -> str:
    # Imported here: only snapshots need hashlib, and it costs start-up time.
    import hashlib

    # surrogatepass: a lone surrogate, which only an altered snapshot holds,
    # fails the digest check instead of the encoding.
    return hashlib.sha256(payload.encode("utf-8", "surrogatepass")).hexdigest()


# What no part of a snapshot name may hold: a path separator, a NUL, or a
# lone surrogate (not valid Unicode, so not printable as UTF-8).
_UNNAMEABLE = re.compile(r"[/\\\0\ud800-\udfff]")


def _snapshot_path(config: AdapterConfig, request: dict) -> Path:
    """The snapshot file for a request, always directly inside the snapshot dir."""
    parts = [config.adapter_id, *(str(v) for v in request.values())]
    for part in parts:
        if part == ".." or _UNNAMEABLE.search(part):
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


def _load_snapshot(path: Path, request: dict) -> tuple[str, SnapshotRecord]:
    """The payload and record of the snapshot at `path`, captured for
    `request`. A missing file is a `ConfigurationError`; a file that is not
    such a snapshot is an `IntegrityError` naming it."""
    try:
        found = path.exists()
    except (OSError, ValueError) as exc:  # a name too long, or a NUL in --snapshot-dir
        raise ConfigurationError(f"cannot look for a snapshot at {path}: {exc}") from exc
    if not found:
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
    snap = SNAPSHOT.read(record, "", violations)
    if violations:
        raise IntegrityError(f"snapshot {path} is malformed: "
                             + "; ".join(map(str, violations)))
    del snap["schema_version"]
    grade = snap.pop("grade")
    if grade != ADAPTER_GRADE:
        raise IntegrityError(f"snapshot {path} declares grade {grade!r}; "
                             f"adapter snapshots are graded {ADAPTER_GRADE}")
    payload = snap.pop("payload")
    if _digest(payload) != snap["digest"]:
        raise IntegrityError(f"snapshot {path} digest mismatch; payload was altered")
    if _typed(snap["request"]) != _typed(request):
        raise IntegrityError(f"snapshot {path} was captured for request "
                             f"{snap['request']!r}, not {request!r}")
    instant = parse_instant(snap["captured_at"])
    if instant is None or instant.tzinfo is None:
        raise IntegrityError(f"snapshot {path} captured_at {snap['captured_at']!r} "
                             "is not an ISO-8601 instant")
    return payload, SnapshotRecord(**snap, path=path)


def _typed(request: dict) -> dict:
    # A JSON true equals 1 and 2.0 equals 2 in Python; a request's values
    # must match in type as well.
    return {key: (type(value), value) for key, value in request.items()}


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
        "grade": ADAPTER_GRADE,
        "row_count": row_count,
        "payload": payload,
    }))
    return SnapshotRecord(adapter_id=config.adapter_id, request=request,
                          captured_at=captured_at, digest=digest, path=path,
                          row_count=row_count)


class BlockRowsResult(NamedTuple):
    rows: tuple[BtcBlockRow, ...]
    snapshot: SnapshotRecord


class FeeRowsResult(NamedTuple):
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
        payload, snap = _load_snapshot(path, request)
        rows = parse(payload)
        if len(rows) != snap.row_count:
            raise IntegrityError(f"snapshot {path} declares {snap.row_count} rows; "
                                 f"its payload holds {len(rows)}")
        return rows, snap
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
