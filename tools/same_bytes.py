"""Check that two source trees of the engine write the same bytes.

    python tools/same_bytes.py SRC_A SRC_B [--seeds N ...] [--sizes N ...]
                               [--bundles N] [--mutations N] [--seed N]

SRC_A and SRC_B are source roots, each holding an `evrc` package (for
example `src` of two checkouts). Each package is copied into a temporary
directory under its own name, `evrc_a` and `evrc_b`, and both are imported
into this one process, as `tools/ab_pairs.py` does. The script compares:

- the JSON and text reports of the shipped cases under `cases/`;
- the same for the `synthetic_flows` cases of `perfbench/corpus.py`, every
  size of `corpus.SYNTHETIC_SIZES` (or `--sizes`) for each of `--seeds`;
- the violations, configuration error and reports of `--bundles` random
  bundles of `tests/helpers.make_bundle`, their flow and route ids made of
  quotes, backslashes, control characters and non-ASCII text (now and then
  an empty route id), read from the combined-dict form by each tree;
- stdout, stderr and exit code of `validate --format json` and of
  `code --format json` on `--mutations` seeded mutations of the shipped
  case files, row CSVs and snapshots (one value, key or list item changed,
  or one cell, blank line or repeated line, each a change of the case; a
  row of another cell count is refused since the CSV reader checks cell
  counts, and is tested on its own). The mutations visit the shipped cases
  in turn, in sorted order, so eight of them mutate each case once. Each
  mutated case that holds `rows/blocks.csv` is also run through `feeshare
  rows/blocks.csv --format json`, and each that holds snapshots through
  `fetch --mode replay --format json` of each snapshot's request (see
  `case_argvs`).

It prints one line per kind (the mutations' line also counts the runs of
each command) and each differing case by name, and exits 1 on any
difference, else 0. `--seed` seeds the bundles and the mutations.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import importlib
import io
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import corpus  # noqa: E402  (perfbench/corpus.py, found through sys.path)
from helpers import make_bundle  # noqa: E402  (tests/helpers.py)

from evrc.core_model import bundle_to_dict  # noqa: E402

CASES = ROOT / "cases"
CASE_FILES = ("case.json", "flows.json", "routes.json", "sources.json", "denominators.json")

ODD_ID_PARTS = ['"', "\\", "\x00", "\n", "\x1f", " ", "é", "流", "%", "{}"]

# Values a mutation writes: each kind of JSON value, and texts that the
# readers of ids, enums and decimals take or refuse.
MUTANT_VALUES = [
    None, True, False, 0, 1, -1, 10**1001, 1.5, [], [1], {}, {"x": 1},
    "", "x", "0", "0.25", "-1", "1_0", " 5", "٥", "NaN", "-Infinity", "1e1001",
    "9" * 1002, ".", "x\ud800", "\\ud83d", "U", "X", "burn", "app", "new_issuance",
    "yes", "no", "unknown", "protocol_enforced", "governance_mediated", "none",
    "G1", "G3", "measured", "bounded", "unavailable", "f0", "r0", "P1",
    "2024-06-01", "2024-06-01T00:00:00Z", "2024-06-01T00:00:00+05:00",
]
# The same as CSV cells; a lone surrogate cannot be written as UTF-8.
MUTANT_CELLS = [str(value).encode("utf-8", "replace").decode() for value in MUTANT_VALUES]


def load_package(src: Path, name: str, into: Path):
    """Import a copy of `src/evrc` as the package `name`, its CLI included."""
    shutil.copytree(src / "evrc", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    importlib.import_module(f"{name}.cli")
    return importlib.import_module(name)


def code_dir(package, case_dir: Path) -> tuple:
    """What one tree gives for a case directory: its violations, or its reports."""
    result = package.ingest.load_case(case_dir)
    if not result.ok:
        return repr(result.violations), result.config_error
    report = package.pipeline.run_case(result.bundle).report
    return report.to_json(), report.to_text()


def code_dict(package, data: dict) -> tuple:
    """What one tree gives for a bundle in the combined-dict form."""
    bundle, found = package.core_model.parse_bundle(copy.deepcopy(data))
    if bundle is None:
        return (repr(found),)
    violations, config_error, case = package.core_model.validate_bundle(bundle, found)
    if case is None:
        return repr(violations), config_error
    report = package.pipeline.run_case(case).report
    return report.to_json(), report.to_text()


def run_cli(package, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = package.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def with_odd_ids(data: dict, rng: random.Random) -> dict:
    """`data` with its flow and route ids made of `ODD_ID_PARTS`."""
    def odd(prefix: str, i: int) -> str:
        return "".join(rng.choices(ODD_ID_PARTS, k=rng.randint(1, 4))) + f"{prefix}{i}"

    flow_ids = {f["id"]: odd("f", i) for i, f in enumerate(data["flows"])}
    for f in data["flows"]:
        f["id"] = flow_ids[f["id"]]
    for i, r in enumerate(data["routes"]):
        r["id"] = "" if i == 0 and rng.random() < 0.3 else odd("r", i)
        r["flow_id"] = flow_ids.get(r["flow_id"], r["flow_id"])
    return data


def _positions(node, path=()):
    """The path to every value below `node`, containers included."""
    items = node.items() if type(node) is dict else enumerate(node) if type(node) is list else ()
    for key, child in items:
        yield path + (key,)
        yield from _positions(child, path + (key,))


def json_text(value) -> str:
    """`value` as sorted JSON text, so that `1` and `true` differ."""
    return json.dumps(value, sort_keys=True)


def mutate_json(doc: dict, rng: random.Random) -> None:
    """Replace, rename, delete or repeat one value or key below `doc`, in place;
    each changes `doc`. An object's value is repeated under another key."""
    *parents, key = rng.choice(list(_positions(doc)))
    parent = doc
    for k in parents:
        parent = parent[k]
    action = rng.choice(["replace", "replace", "rename", "delete", "repeat"])
    names = ["zz", "band_e", "id", "amount", f"{key}x"]
    if action == "replace":
        was = json_text(parent[key])
        parent[key] = rng.choice([v for v in MUTANT_VALUES if json_text(v) != was])
    elif action == "rename" and type(parent) is dict:
        parent[rng.choice([name for name in names if name != key])] = parent.pop(key)
    elif action == "delete":
        del parent[key]
    elif type(parent) is list:
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[rng.choice([name for name in names if name not in parent])] = copy.deepcopy(
            parent[key])


def mutate_csv(path: Path, rng: random.Random) -> None:
    """Change one cell, blank one line or repeat one line of a row CSV; each
    changes its rows."""
    with path.open(newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    i = rng.randrange(len(table))
    action = rng.choice(["cell", "cell", "blank line", "repeat line"])
    if action == "cell" and table[i]:
        j = rng.randrange(len(table[i]))
        table[i][j] = rng.choice([cell for cell in MUTANT_CELLS if cell != table[i][j]])
    elif action == "blank line" and table[i]:
        table[i] = []
    else:
        table.insert(i, list(table[i]))
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(table)


def mutated_case(i: int, rng: random.Random, into: Path) -> Path:
    """A copy, under `into`, of the `i`th shipped case in sorted order (the
    cases in turn), with one seeded mutation of a case file, row CSV or
    snapshot. A case that holds row CSVs mutates one of them 30% of the
    time, and one that holds snapshots one of those another 30%."""
    names = sorted(p.name for p in CASES.iterdir() if p.is_dir())
    case = into / names[i % len(names)]
    shutil.rmtree(case, ignore_errors=True)
    shutil.copytree(CASES / case.name, case)
    rows = sorted(case.glob("rows/*.csv"))
    snapshots = sorted(case.glob("snapshots/*.json"))
    draw = rng.random()
    if rows and draw < 0.3:
        mutate_csv(rng.choice(rows), rng)
    else:
        path = rng.choice(snapshots if snapshots and draw >= 0.7 else
                          [case / name for name in CASE_FILES])
        doc = json.loads(path.read_text(encoding="utf-8"))
        mutate_json(doc, rng)
        path.write_text(json.dumps(doc), encoding="utf-8")
    return case


def case_argvs(case: Path) -> list[list[str]]:
    """The CLI runs of a mutated copy of a shipped case: `validate` and
    `code`, `feeshare` of its block rows, and a replay `fetch` of each
    snapshot the shipped case holds, its arguments read from that unmutated
    snapshot."""
    argvs = [[command, str(case), "--format", "json"] for command in ("validate", "code")]
    if (case / "rows" / "blocks.csv").exists():
        argvs.append(["feeshare", str(case / "rows" / "blocks.csv"), "--format", "json"])
    for shipped in sorted((CASES / case.name).glob("snapshots/*.json")):
        snapshot = json.loads(shipped.read_text(encoding="utf-8"))
        request = snapshot["request"]
        if request["kind"] == "blocks":
            adapter = ["btc_blocks", "--range", f"{request['start']}:{request['end']}"]
        else:
            adapter = ["protocol_fees", "--protocol", request["protocol"],
                       "--period", request["period"]]
        argvs.append(["fetch", *adapter, "--adapter-id", snapshot["adapter_id"],
                      "--mode", "replay", "--format", "json",
                      "--snapshot-dir", str(case / "snapshots")])
    return argvs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(corpus.SYNTHETIC_SIZES))
    parser.add_argument("--bundles", type=int, default=300)
    parser.add_argument("--mutations", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    differing: list[str] = []

    def compare(kind: str, cases, runs: dict | None = None) -> None:
        """Compare each case, then print the tally and `runs`, counts that the
        cases fill in as they are made."""
        count = same = 0
        for name, a_side, b_side in cases:
            count += 1
            if a_side() == b_side():
                same += 1
            else:
                differing.append(f"{kind}: {name}")
                print(f"DIFFERS {kind}: {name}")
        counts = f" ({', '.join(f'{k} {n}' for k, n in runs.items())})" if runs else ""
        print(f"{kind}: {same} of {count} the same{counts}")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        sys.path.insert(0, str(work))
        a = load_package(args.src_a.resolve(), "evrc_a", work)
        b = load_package(args.src_b.resolve(), "evrc_b", work)

        shipped = sorted(p for p in CASES.iterdir() if p.is_dir())
        compare("shipped", ((p.name, lambda p=p: code_dir(a, p), lambda p=p: code_dir(b, p))
                            for p in shipped))

        def synthetic():
            for seed in args.seeds:
                for group, n in enumerate(args.sizes):
                    case = work / "synthetic" / f"seed{seed}-{n:06d}"
                    corpus.write_case(corpus.synthetic_bundle(seed, n, group), case)
                    yield (case.name, lambda case=case: code_dir(a, case),
                           lambda case=case: code_dir(b, case))
        compare("synthetic", synthetic())

        def bundles():
            rng = random.Random(args.seed)
            for i in range(args.bundles):
                data = bundle_to_dict(make_bundle(rng, max_flows=rng.choice([5, 30])))
                if i % 2:
                    data = with_odd_ids(data, rng)
                yield (f"bundle {i}", lambda data=data: code_dict(a, data),
                       lambda data=data: code_dict(b, data))
        compare("bundles", bundles())

        runs = dict.fromkeys(("validate", "code", "feeshare", "fetch"), 0)

        def mutations():
            rng = random.Random(args.seed)
            for i in range(args.mutations):
                case = mutated_case(i, rng, work / "mutated")
                for argv in case_argvs(case):
                    runs[argv[0]] += 1
                    yield (f"mutation {i} of {case.name}, {argv[0]}",
                           lambda argv=argv: run_cli(a, argv), lambda argv=argv: run_cli(b, argv))
        compare("mutations", mutations(), runs)

    print(f"{len(differing)} differing case(s)")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
