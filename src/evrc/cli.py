"""Command-line entry point.

Exit codes: 0 success, 1 schema/input violations, 2 configuration error,
3 network/integrity error, 4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from functools import cache
from pathlib import Path

from .core_model import BLOCK_ROW, canonical_decimal, canonical_json, parse_height, read_rows
from .coverage import btc_fee_share
from .errors import (
    ConfigurationError,
    EvrcError,
    InputError,
    IntegrityError,
    NetworkError,
)
from .ingest import AdapterConfig, LoadResult, fetch_block_rows, fetch_protocol_fee_rows, \
    load_case, read_csv_rows, write_text_atomic
from .pipeline import run_case

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_NETWORK = 3
EXIT_INTERNAL = 4


def _classify(exc: EvrcError) -> int:
    if isinstance(exc, (NetworkError, IntegrityError)):
        return EXIT_NETWORK
    if isinstance(exc, ConfigurationError):
        return EXIT_CONFIG
    if isinstance(exc, InputError):
        return EXIT_INPUT
    return EXIT_INTERNAL


def _err(message: str, quiet: bool) -> None:
    if not quiet:
        print(message, file=sys.stderr)


def _load_exit(result: LoadResult) -> int:
    """The exit code validation decided: any violation outranks the
    configuration error."""
    return EXIT_OK if result.ok else EXIT_INPUT if result.violations else EXIT_CONFIG


def cmd_validate(args) -> int:
    result = load_case(args.case_path)
    if args.format == "json":
        doc = {
            "case_path": str(args.case_path),
            "violations": [{"path": v.path, "message": v.message}
                           for v in result.violations],
            "configuration_error": result.config_error,
            "ok": result.ok,
        }
        print(canonical_json(doc), end="")
    elif not args.quiet:
        if result.ok:
            print(f"{args.case_path}: ok")
        for v in result.violations:
            print(f"{args.case_path}: {v}")
        if result.config_error:
            print(f"{args.case_path}: configuration: {result.config_error}")
    return _load_exit(result)


def _code_one(case_path: str, out_path: Path | None, fmt: str, quiet: bool) -> int:
    try:
        result = load_case(case_path)
        if not result.ok:
            for v in result.violations:
                _err(f"{case_path}: {v}", quiet)
            if not result.violations:
                _err(f"error: {result.config_error}", quiet)
            return _load_exit(result)
        pipeline = run_case(result.bundle)
        # Gate-order trace: the auditor confirms admissibility precedes coverage.
        if not quiet:
            for line in pipeline.report.head["coding_trace"]:
                print(line, file=sys.stderr)
        rendered = (pipeline.report.to_json() if fmt == "json"
                    else pipeline.report.to_text())
        if out_path is None:
            print(rendered, end="")
            return EXIT_OK
        write_text_atomic(out_path, rendered)
    except EvrcError as exc:
        _err(f"error: {exc}", quiet)
        return _classify(exc)
    if not quiet:
        print(f"report written to {out_path}", file=sys.stderr)
    return EXIT_OK


def cmd_code(args) -> int:
    if args.cases:
        case_dirs = sorted(p for p in glob.glob(args.cases) if Path(p).is_dir())
        if not case_dirs:
            raise InputError(f"no case directories match {args.cases!r}")
        out_dir = Path(args.out) if args.out else None
        ext = "json" if args.format == "json" else "txt"
        # Each report is named after its case directory (its own name, also for
        # `.` or `..`), so two directories of one name would write one file.
        names = {case_dir: os.path.basename(os.path.abspath(case_dir)) for case_dir in case_dirs}
        outs = {case_dir: out_dir / f"{name}.report.{ext}" if out_dir else None
                for case_dir, name in names.items()}
        named: dict[str, str] = {}
        for case_dir in case_dirs if out_dir else ():
            other = named.setdefault(names[case_dir], case_dir)
            if other != case_dir:
                raise ConfigurationError(f"{other} and {case_dir} would write the same "
                                         f"report in {out_dir}")
            # A report written through a symlink could land outside `out_dir`.
            # (`os.path` answers False for a path it cannot read; the write
            # reports that.)
            out = outs[case_dir]
            if os.path.islink(out) or (os.path.exists(out) and not os.path.isfile(out)):
                raise ConfigurationError(f"{out} is not a regular file; a batch writes "
                                         f"only regular files in {out_dir}")
        # One case at a time, in sorted order, so each case's stderr lines
        # stay together and the output is the same on every run.
        return max(_code_one(case_dir, outs[case_dir], args.format, args.quiet)
                   for case_dir in case_dirs)

    if not args.case_path:
        raise InputError("a case path or --cases glob is required")
    out = Path(args.out) if args.out else None
    return _code_one(args.case_path, out, args.format, args.quiet)


def cmd_feeshare(args) -> int:
    rows = read_csv_rows(Path(args.rows_csv), BLOCK_ROW)
    result = btc_fee_share(read_rows(BLOCK_ROW, rows, "block_rows"), args.window)
    if args.format == "json":
        doc = {
            "window": result.window,
            "shares": [
                {"start_height": s.start_height,
                 "share": canonical_decimal(s.share)}
                for s in result.shares
            ],
            "max_share": (canonical_decimal(result.max_share)
                          if result.max_share is not None else None),
            "max_window_start": result.max_window_start,
            "skipped_starts": list(result.skipped_starts),
        }
        print(canonical_json(doc), end="")
    elif not args.quiet:
        for s in result.shares:
            print(f"{s.start_height}\t{canonical_decimal(s.share)}")
        if result.max_share is not None:
            print(f"max\t{result.max_window_start}\t"
                  f"{canonical_decimal(result.max_share)}")
        for h in result.skipped_starts:
            print(f"skipped\t{h}\tzero-total window")
    return EXIT_OK


def _height_range(text: str) -> tuple[int, int]:
    try:
        start, end = text.split(":")
        return parse_height(start), parse_height(end)
    except (ValueError, InputError):
        raise ConfigurationError(
            f"--range must be START:END with integer heights, got {text!r}") from None


def cmd_fetch(args) -> int:
    config = AdapterConfig(
        adapter_id=args.adapter_id or args.adapter,
        mode=args.mode,
        snapshot_dir=Path(args.snapshot_dir or os.environ.get(
            "EVRC_SNAPSHOT_DIR", "snapshots")),
        base_url=args.base_url or os.environ.get("EVRC_BASE_URL"),
        retry_budget=args.retries,
    )
    if args.adapter == "btc_blocks":
        if not args.range:
            raise ConfigurationError("btc_blocks requires --range START:END")
        result = fetch_block_rows(config, _height_range(args.range))
        summary = {"rows": len(result.rows)}
    else:  # protocol_fees: argparse admits no other adapter
        if not args.protocol or not args.period:
            raise ConfigurationError("protocol_fees requires --protocol and --period")
        result = fetch_protocol_fee_rows(config, args.protocol, args.period)
        summary = {"rows": len(result.rows), "coverage_gap": result.coverage_gap}

    snap = result.snapshot
    doc = {
        "adapter": snap.adapter_id,
        "mode": args.mode,
        "snapshot": str(result.path),
        "digest": snap.digest,
        "grade": snap.grade,
        **summary,
    }
    if args.format == "json":
        print(canonical_json(doc), end="")
    elif not args.quiet:
        for key in sorted(doc):
            print(f"{key}: {doc[key]}")
    return EXIT_OK


# Built once per process: each build leaves objects in reference cycles (a
# mutually exclusive group refers to its parser), which only the cyclic
# collector frees, and a parser parses any number of argument lists.
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evrc",
        description="Route-admissibility and reward-coverage coding engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--quiet", action="store_true")

    p_val = sub.add_parser("validate", help="validate a case directory")
    p_val.add_argument("case_path")
    common(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_code = sub.add_parser("code", help="run the full coding pipeline")
    one_or_many = p_code.add_mutually_exclusive_group()
    # argparse draws no group that holds a positional, so the help says it.
    one_or_many.add_argument("case_path", nargs="?",
                             help="the case directory to code; not allowed with --cases")
    one_or_many.add_argument(
        "--cases", help="glob of case directories, coded one by one in sorted order; "
                        "not allowed with a case path")
    p_code.add_argument("--out", help="report file (or directory with --cases)")
    common(p_code)
    p_code.set_defaults(func=cmd_code)

    p_fee = sub.add_parser("feeshare", help="rolling fee-share over a block CSV")
    p_fee.add_argument("rows_csv")
    p_fee.add_argument("--window", type=int,
                       help="blocks per window (default: 144, or every row if fewer)")
    common(p_fee)
    p_fee.set_defaults(func=cmd_feeshare)

    p_fetch = sub.add_parser("fetch", help="fetch rows via an adapter")
    p_fetch.add_argument("adapter", choices=["btc_blocks", "protocol_fees"])
    p_fetch.add_argument("--adapter-id", dest="adapter_id",
                         help="snapshot namespace (defaults to the adapter name)")
    p_fetch.add_argument("--mode", choices=["live", "replay"], default="replay")
    p_fetch.add_argument("--range", help="height range START:END (btc_blocks)")
    p_fetch.add_argument("--protocol", help="protocol id (protocol_fees)")
    p_fetch.add_argument("--period", help="period label (protocol_fees)")
    p_fetch.add_argument("--base-url", dest="base_url",
                         help="defaults to $EVRC_BASE_URL")
    p_fetch.add_argument("--snapshot-dir", dest="snapshot_dir",
                         help="defaults to $EVRC_SNAPSHOT_DIR or ./snapshots")
    p_fetch.add_argument("--retries", type=int, default=3,
                         help="attempts a live fetch makes, at least 1 (default: 3)")
    common(p_fetch)
    p_fetch.set_defaults(func=cmd_fetch)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EvrcError as exc:  # each subcommand's classified errors
        _err(f"error: {exc}", args.quiet)
        return _classify(exc)
    except Exception as exc:  # a fault in the engine itself
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
