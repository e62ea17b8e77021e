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
from collections import namedtuple
from collections.abc import Callable
from datetime import datetime, timezone
from pathlib import Path

from .core_model import (
    BLOCK_ROW,
    CASE_SCHEMA_VERSION,
    DENOMINATORS_SCHEMA_VERSION,
    ETH_REWARD_ROW,
    FEE_ROW,
    FLOWS_SCHEMA_VERSION,
    ROUTES_SCHEMA_VERSION,
    ROW_FILE,
    SOURCES_SCHEMA_VERSION,
    BtcBlockRow,
    Field,
    ProtocolFeeRow,
    Record,
    ValidCase,
    Violation,
    _indexes,
    canonical_json,
    dump_record,
    parse_bundle,
    parse_instant,
    read_rows,
    validate_bundle,
    without_cycle_collection,
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


# Row-file kind -> (combined-dict key, row table whose keys are the columns).
ROW_FILE_KINDS = {
    "btc_blocks": ("block_rows", BLOCK_ROW),
    "eth_rewards": ("eth_reward_rows", ETH_REWARD_ROW),
    "protocol_fees": ("fee_rows", FEE_ROW),
}


class LoadResult(namedtuple("LoadResult", "bundle violations config_error", defaults=(None,))):
    """What `validate_bundle` decided: `bundle` is a `ValidCase` exactly when
    there are no violations and no configuration error, else the case as
    read, or None when it could not be read."""
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return isinstance(self.bundle, ValidCase)


def _regular_file(path: Path) -> Path:
    """`path`, if it is a regular file, symlinks followed. `os.stat` tells
    before the file is opened, so a FIFO, whose read would block, or a
    device, whose read might never end, is refused unread."""
    try:
        mode = os.stat(path).st_mode
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ParseError(str(exc), path=str(path)) from exc
    if not stat.S_ISREG(mode):
        raise ParseError("not a regular file", path=str(path))
    return path


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
# are each consumed whole; group 1 is set only for an unpaired escape.
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


def _known_keys(record: Record, rows) -> list:
    """Each object of `rows` with only the keys of `record`: a payload's rows
    may carry other keys, which are ignored."""
    keys = record.keys_in_order
    return [{k: row[k] for k in keys if k in row} if type(row) is dict else row
            for row in rows]


def read_csv_rows(path: Path, record: Record) -> list[dict]:
    """The rows of a CSV whose header must carry every key of `record`, as
    objects of those keys' cells. A row must have a cell for each column of
    the header; a blank line is no row."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = [c for c in record.keys_in_order if c not in header]
            if missing:
                raise ParseError(f"missing columns: {missing}", path=str(path))
            # A repeated column name reads its last cell.
            where = {name: i for i, name in enumerate(header)}
            columns = [(key, where[key]) for key in record.keys_in_order]
            rows = []
            for cells in reader:
                if len(cells) != len(header):
                    if not cells:
                        continue
                    raise ParseError(f"row has {len(cells)} cells; the header names "
                                     f"{len(header)} columns", path=str(path),
                                     line=reader.line_num)
                rows.append({key: cells[i] for key, i in columns})
            return rows
    # ValueError: a NUL in the path, or bytes not UTF-8; csv.Error: an oversized cell
    except (OSError, ValueError, csv.Error) as exc:
        raise ParseError(str(exc), path=str(path)) from exc


@without_cycle_collection
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
        texts[name], files[name] = _read_json(_regular_file(case_dir / name))
        _check_version(files[name], version, case_dir / name)

    for name, text in texts.items():
        # Every escape starts with a backslash, so a text without one is skipped.
        if "\\" in text and any(m.group(1) for m in _SURROGATE_ESCAPE.finditer(text)):
            where = _lone_surrogate(files[name], "case" if name == "case.json" else "")
            if where is not None:
                return LoadResult(bundle=None, violations=[Violation(
                    where, f"lone surrogate escape in {name}; text must be valid Unicode")])

    violations: list[Violation] = []
    combined = {"case": files["case.json"]}
    for name, (key, wrapper) in LIST_FILES.items():
        wrapper.read(files[name], name, violations)
        combined[key] = files[name].get(key, [])

    # The row files of the well-formed `row_files` entries; parse_bundle reports faults.
    # Each is read only if its path, symlinks followed, stays inside the case.
    entries = ROW_FILE.read_list(files["case.json"].get("row_files", []), "", []) or ()
    for i, entry in zip(_indexes(entries), entries):
        kind = entry["kind"]
        row_path = case_dir / entry["path"]
        if kind not in ROW_FILE_KINDS:
            raise ParseError(f"unknown row file kind {kind!r}", path=str(row_path))
        try:
            resolved = os.path.realpath(row_path)
        except ValueError as exc:  # a NUL in the path
            raise ParseError(str(exc), path=str(row_path)) from exc
        inside = resolved.startswith(os.path.join(os.path.realpath(case_dir), ""))
        if os.path.isabs(entry["path"]) or not inside:
            violations.append(Violation(f"case.row_files[{i}].path",
                                        "must name a file inside the case directory"))
            continue
        key, record = ROW_FILE_KINDS[kind]
        combined[key] = read_csv_rows(_regular_file(row_path), record)

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

def _urllib_transport(url: str) -> bytes:
    # Imported here: only live fetches need them. Imported at the top, they
    # make each `evrc code` process of `tools/ab_pairs.py --workload
    # shipped_cli` take 1.279/1.227/1.305/1.293 times as long on 3.10-3.13.
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


class AdapterConfig(namedtuple("AdapterConfig", "adapter_id mode snapshot_dir base_url "
                                                "retry_budget transport",
                               defaults=(None, 3, None))):
    """`mode` is "live" or "replay". `transport`, when set, takes the place of
    the urllib GET: a callable from a URL to the response body's bytes."""
    __slots__ = ()


# A snapshot file; every field is required. `_capture` writes it, `_load_snapshot` reads it.
SNAPSHOT = Record("Snapshot", (
    Field("schema_version", str, required=True),
    Field("adapter_id", str, required=True),
    Field("request", dict, required=True),
    Field("captured_at", str, required=True),
    Field("digest", str, required=True),
    Field("grade", str, required=True),
    Field("row_count", int, required=True),
    Field("payload", str, required=True),
))
Snapshot = SNAPSHOT.cls
Snapshot.__module__ = __name__  # `Record` makes it in core_model; it is this module's


def _digest(payload: str) -> str:
    # Imported here: only snapshots need hashlib. Imported at the top, it makes
    # a `shipped_cli` process take 1.038/1.030/1.022/1.018 times as long.
    import hashlib

    # surrogatepass: a lone surrogate, which only an altered snapshot holds,
    # fails the digest check instead of the encoding.
    return hashlib.sha256(payload.encode("utf-8", "surrogatepass")).hexdigest()


def _snapshot_path(config: AdapterConfig, request: dict) -> Path:
    """The snapshot file for a request, always directly inside the snapshot dir."""
    parts = [config.adapter_id, *(str(v) for v in request.values())]
    for part in parts:
        # No path separator, no NUL, and no lone surrogate (not valid
        # Unicode, so not printable as UTF-8).
        if part == ".." or any(c in part for c in "/\\\0") or _SURROGATE.search(part):
            raise ConfigurationError(
                f"{part!r} cannot name a snapshot inside {config.snapshot_dir}")
    return config.snapshot_dir / ("_".join(parts) + ".json")


def write_text_atomic(path: Path, text: str) -> None:
    """Write `text` to `path`. A regular file, or a new one, is written whole
    or not at all: a temp file in the target directory with the mode the file
    has (or a new file gets), then a rename. The temp file, `tmp` and 16 hex
    digits from `os.urandom` then `.tmp`, is created exclusively: anything
    already at that name, a symlink included, is neither followed nor
    overwritten, and the write is refused. Anything else, such as a device,
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
        name = path.parent / f"tmp{os.urandom(8).hex()}.tmp"
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
        tmp = name  # only a file this call created is removed
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, mode)  # from owner-only to the mode worked out above
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _fetch_payload(config: AdapterConfig, url: str) -> str:
    if config.retry_budget < 1:
        raise ConfigurationError(f"a retry budget of {config.retry_budget} makes no "
                                 "attempt; it must be at least 1")
    transport = config.transport or _urllib_transport
    last: NetworkError | None = None
    for _ in range(config.retry_budget):
        try:
            body = transport(url)
        except NetworkError as exc:
            last = exc
            continue
        try:
            return body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"payload of GET {url} is not UTF-8: {exc}") from exc
    raise NetworkError(
        f"fetch failed after {config.retry_budget} attempts: {last}")


def _load_snapshot(path: Path, request: dict) -> Snapshot:
    """The snapshot at `path`, captured for `request`. A missing file is a
    `ConfigurationError`; a file that is not such a snapshot is an
    `IntegrityError` naming it."""
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
    if snap.grade != ADAPTER_GRADE:
        raise IntegrityError(f"snapshot {path} declares grade {snap.grade!r}; "
                             f"adapter snapshots are graded {ADAPTER_GRADE}")
    if _digest(snap.payload) != snap.digest:
        raise IntegrityError(f"snapshot {path} digest mismatch; payload was altered")
    if _typed(snap.request) != _typed(request):
        raise IntegrityError(f"snapshot {path} was captured for request "
                             f"{snap.request!r}, not {request!r}")
    instant = parse_instant(snap.captured_at)
    if instant is None or instant.tzinfo is None:
        raise IntegrityError(f"snapshot {path} captured_at {snap.captured_at!r} "
                             "is not an ISO-8601 instant")
    return snap


def _typed(request: dict) -> dict:
    # A JSON true equals 1 and 2.0 equals 2 in Python; a request's values
    # must match in type as well.
    return {key: (type(value), value) for key, value in request.items()}


def _capture(config: AdapterConfig, request: dict, path: Path, row_count: int,
             payload: str) -> Snapshot:
    snap = Snapshot(SNAPSHOT_SCHEMA_VERSION, config.adapter_id, request,
                    datetime.now(timezone.utc).isoformat(), _digest(payload),
                    ADAPTER_GRADE, row_count, payload)
    write_text_atomic(path, canonical_json(dump_record(SNAPSHOT, snap)))
    return snap


class BlockRowsResult(namedtuple("BlockRowsResult", "rows snapshot path")):
    """`path` is the snapshot's file."""
    __slots__ = ()


class FeeRowsResult(namedtuple("FeeRowsResult", "rows snapshot path coverage_gap")):
    """`path` is the snapshot's file."""
    __slots__ = ()


def _payload_rows(payload: str, record: Record, key: str) -> tuple:
    """The rows of the JSON list `payload`, read as a case's list `key`."""
    try:
        raw = json.loads(payload)
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, deep nesting
        raise DataError(f"{key} payload is not valid JSON: {exc}") from exc
    return read_rows(record, _known_keys(record, raw) if type(raw) is list else raw, key)


def _parse_block_payload(payload: str, start: int, end: int) -> tuple[BtcBlockRow, ...]:
    rows = _payload_rows(payload, BLOCK_ROW, "block_rows")
    for expected, row in enumerate(rows, start):
        if row.height != expected:
            raise DataError(f"non-contiguous block response: expected height {expected}, "
                            f"got {row.height}")
    if len(rows) != end - start + 1:
        raise DataError(f"block response holds {len(rows)} rows for heights {start} to {end}")
    return rows


def _parse_fee_payload(payload: str) -> tuple[ProtocolFeeRow, ...]:
    return _payload_rows(payload, FEE_ROW, "fee_rows")


def _fetch_rows(config: AdapterConfig, request: dict, url_path: str,
                parse: Callable[[str], tuple]) -> tuple[tuple, Snapshot, Path]:
    """Replay the request's snapshot, or fetch live and capture a snapshot:
    the rows, the snapshot and its file.

    Live payloads are parsed before capture, so a bad payload is never saved.
    """
    path = _snapshot_path(config, request)
    if config.mode == "replay":
        snap = _load_snapshot(path, request)
        rows = parse(snap.payload)
        if len(rows) != snap.row_count:
            raise IntegrityError(f"snapshot {path} declares {snap.row_count} rows; "
                                 f"its payload holds {len(rows)}")
        return rows, snap, path
    if config.mode != "live":
        raise ConfigurationError(f"unknown adapter mode {config.mode!r}")
    if not config.base_url:
        raise ConfigurationError("live mode requires a configured base URL")
    payload = _fetch_payload(config, f"{config.base_url.rstrip('/')}/{url_path}")
    rows = parse(payload)
    return rows, _capture(config, request, path, len(rows), payload), path


def fetch_block_rows(config: AdapterConfig,
                     height_range: tuple[int, int]) -> BlockRowsResult:
    """Fetch contiguous block fee/subsidy rows for [start, end] inclusive."""
    start, end = height_range
    if start > end:
        raise ConfigurationError(f"invalid height range {start}..{end}")
    return BlockRowsResult(*_fetch_rows(
        config, {"kind": "blocks", "start": start, "end": end},
        f"blocks/{start}/{end}", lambda p: _parse_block_payload(p, start, end)))


def fetch_protocol_fee_rows(config: AdapterConfig, protocol_id: str,
                            period_label: str) -> FeeRowsResult:
    """Fetch aggregate fee/revenue rows for a protocol and period.

    A period outside the captured coverage is a gap flag, not an error:
    bounded-capture semantics.
    """
    rows, snap, path = _fetch_rows(
        config, {"kind": "fees", "protocol": protocol_id, "period": period_label},
        f"fees/{protocol_id}?period={period_label}", _parse_fee_payload)
    covered = any(r.period == period_label for r in rows)
    return FeeRowsResult(rows, snap, path, coverage_gap=not covered)
