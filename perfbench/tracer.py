"""Spans around the engine's public functions, recorded from outside `src/`.

Each function is replaced under the name its caller looks it up by (the
pipeline imports `admit_flow` and friends directly, so `evrc.pipeline` is
patched, not `evrc.admissibility`). A span is (id, name, op id, parent id,
start ns, end ns); spans stay in memory until the caller takes them. Self
time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from pathlib import Path
from time import perf_counter_ns


def _fee_windows(result) -> int:
    return len(result.shares) + len(result.skipped_starts)


def _text_bytes(result) -> int:
    return len(result.encode("utf-8"))


# (module, attribute, span name, counter fed from the call's result)
SITES = (
    ("evrc.ingest", "load_case", "ingest.load_case", None),
    ("evrc.cli", "load_case", "ingest.load_case", None),
    ("evrc.ingest", "parse_bundle", "core_model.parse_bundle", None),
    ("evrc.ingest", "validate_bundle", "core_model.validate_bundle", None),
    ("evrc.pipeline", "validate_bundle", "core_model.validate_bundle", None),
    ("evrc.core_model", "CaseBundle.route_for_flow", "core_model.route_for_flow", None),
    ("evrc.pipeline", "run_case", "pipeline.run_case", None),
    ("evrc.cli", "run_case", "pipeline.run_case", None),
    ("evrc.pipeline", "net_external_value", "numerator.net_external_value", None),
    ("evrc.pipeline", "assign_band", "admissibility.assign_band", None),
    ("evrc.pipeline", "admit_flow", "admissibility.admit_flow", None),
    ("evrc.pipeline", "classify_breakpoints", "admissibility.classify_breakpoints", None),
    ("evrc.pipeline", "coverage_for_bundle", "coverage.coverage_for_bundle", None),
    ("evrc.pipeline", "btc_fee_share", "coverage.btc_fee_share",
     ("coverage.btc_fee_share.windows", _fee_windows)),
    ("evrc.pipeline", "gate_all_claims", "claims.gate_all_claims", None),
    ("evrc.pipeline", "render_report", "claims.render_report", None),
    ("evrc.claims", "CaseReport.to_json", "claims.to_json",
     ("claims.report_bytes", _text_bytes)),
    ("evrc.claims", "CaseReport.to_text", "claims.to_text",
     ("claims.report_bytes", _text_bytes)),
)


class Tracer:
    """Installs span-recording wrappers; `uninstall` restores the originals."""

    def __init__(self) -> None:
        self.op_id = 0
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._case_bytes: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        local, spans, ids = self._local, self.spans, self._ids

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [next(ids), name, self.op_id, stack[-1][0] if stack else None,
                    perf_counter_ns(), 0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter_ns()
                stack.pop()
                spans.append(span)
            if counter is not None:
                self.count(counter[0], counter[1](result))
            if name == "ingest.load_case":
                self.count("ingest.bytes_read", self._bytes_read(args[0]))
            return result

        return traced

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def _bytes_read(self, case_path) -> int:
        """Bytes of the files `load_case` opens: the five JSON files and the
        row files `case.json` names."""
        key = str(case_path)
        if key not in self._case_bytes:
            from evrc.ingest import REQUIRED_FILES

            case_dir = Path(case_path)
            files = [case_dir / name for name in REQUIRED_FILES]
            case = json.loads((case_dir / "case.json").read_text(encoding="utf-8"))
            files += [case_dir / e["path"] for e in case.get("row_files", [])]
            self._case_bytes[key] = sum(f.stat().st_size for f in files)
        return self._case_bytes[key]

    def install(self) -> None:
        """Wrap every site whose module is imported; the others are skipped."""
        for module_name, attr, name, counter in SITES:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner = module
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Return and clear the spans and counts recorded so far."""
        spans, counts = self.spans[:], dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def layer_times(spans: list[list]) -> dict[str, list[int]]:
    """Per span name: [self ns, total ns, calls]."""
    child_ns: dict[int, int] = {}
    for span in spans:
        if span[3] is not None:
            child_ns[span[3]] = child_ns.get(span[3], 0) + span[5] - span[4]
    out: dict[str, list[int]] = {}
    for span in spans:
        duration = span[5] - span[4]
        row = out.setdefault(span[1], [0, 0, 0])
        row[0] += duration - child_ns.get(span[0], 0)
        row[1] += duration
        row[2] += 1
    return out


def merge(into: dict[str, list[int]], layers: dict[str, list[int]]) -> None:
    for name, row in layers.items():
        acc = into.setdefault(name, [0, 0, 0])
        for i, value in enumerate(row):
            acc[i] += value


def add_counts(into: dict[str, int], counts: dict[str, int]) -> None:
    for name, n in counts.items():
        into[name] = into.get(name, 0) + n


def dump_spans(spans: list[list], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for span_id, name, op_id, parent, start, end in spans:
            fh.write(json.dumps({"id": span_id, "name": name, "op": op_id,
                                 "parent": parent, "start_ns": start,
                                 "end_ns": end}) + "\n")
