"""Time the benchmark workloads' cold `pbt` commands in two checkouts, the
parser build apart from the command, and compare their output bytes.

Usage:
    python scripts/bench_cli_startup.py PARENT CHANGE [--pairs 5] [--out FILE]

PARENT and CHANGE are checkouts of this repository (each with ``src/``).
Each workload of ``perfbench/workloads.py`` (its commands drawn with seed 1)
runs in a fresh Python process with one BLAS/OpenMP thread that imports
``pbtkit`` from its checkout and calls ``cli.main`` once per command.  The
process wraps ``cli.build_parser`` with a timer, so ``parser_s`` is the
parser build inside those calls and ``command_s`` the rest of them; it also
reads its own peak resident set (VmHWM).  Every output is checked by the
workload's own check, and the sha256 of all its commands' stdout and written
files is a field, so ``bit_identical`` lists it when the two checkouts print
and write the same bytes.  Pairs alternate which checkout runs first (the
runner of ``bench_end_to_end_rows.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import sys
import tempfile
from pathlib import Path

from bench_end_to_end_rows import alternate, run_child, source_digest, summarize

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

SEED = 1
METRICS = ("wall_s", "parser_s", "command_s", "vmhwm_mib")
CHILD = """
import contextlib, io, json, sys, time
from pbtkit import cli
build, parser_s, wall_s, codes, stdout = cli.build_parser, 0.0, 0.0, [], []

def timed(*args):
    global parser_s
    t = time.perf_counter()
    parser = build(*args)
    parser_s += time.perf_counter() - t
    return parser

cli.build_parser = timed
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t = time.perf_counter()
        codes.append(cli.main(argv))
        wall_s += time.perf_counter() - t
    stdout.append(out.getvalue())
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"codes": codes, "stdout": stdout, "wall_s": wall_s, "parser_s": parser_s,
                  "command_s": wall_s - parser_s, "vmhwm_mib": hwm / 1024}))
"""


def run_once(work: Path, tree: Path, point: tuple) -> dict:
    """One cold process running workload ``point[0]``'s commands, writing
    into ``work`` (the same directory for both checkouts, so paths printed
    match); each output checked, and the sha256 of what it printed and wrote."""
    (name,) = point
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    commands = WORKLOADS[name].operation(random.Random(SEED), work)
    result = run_child(tree, CHILD, json.dumps([c.argv for c in commands]))
    if result["codes"] != [0] * len(commands):
        raise SystemExit(f"{tree}: {name} exited {result['codes']}")
    digest = hashlib.sha256()
    for command, stdout in zip(commands, result.pop("stdout")):
        command.check(stdout)
        digest.update(stdout.encode())
    for path in sorted(work.iterdir()):
        digest.update(path.name.encode() + path.read_bytes())
    result["fields"] = {"output_sha256": digest.hexdigest()}
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--out", type=Path, default=Path("BENCH_cli_startup.json"))
    args = ap.parse_args()
    trees = {"parent": args.parent, "change": args.change}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "out"
        runs = alternate(trees, [(name,) for name in WORKLOADS], args.pairs,
                         lambda tree, point: run_once(work, tree, point))
    record = {
        "label": "cli_startup",
        "command": f"python scripts/bench_cli_startup.py PARENT CHANGE --pairs {args.pairs}",
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, one BLAS/OpenMP thread per run",
        "sources": {side: source_digest(tree) for side, tree in trees.items()},
        "pairs": args.pairs,
        "seed": SEED,
        "workloads": {key: summarize(sides, ["output_sha256"], METRICS) for key, sides in runs.items()},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
