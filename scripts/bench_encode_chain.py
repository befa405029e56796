"""Time cold ``pbt encode`` in two checkouts, and compare its stdout.

Usage:
    python scripts/bench_encode_chain.py PARENT CHANGE [--pairs 5] [--out FILE]

PARENT and CHANGE are checkouts of this repository (each with ``src/``).
Every run is a fresh Python process with one BLAS/OpenMP thread and an
address-space limit of 6,000,000 KiB (``ulimit -v 6000000``) that imports
``pbtkit`` from its checkout, times one ``pbt encode`` call and reads its own
peak resident set (VmHWM).  Each pair runs both checkouts at every point of
``POINTS``, alternating which one runs first (the runner of
``bench_end_to_end_rows.py``).  The fields compared are the exit code, the
stdout with ``measured_error`` taken out, and ``measured_error`` itself, so
the record holds the largest |change - parent| of the residual and lists
the stdout as bit-identical when the rest of it is.  The points of
``REFUSED`` run once per checkout; the record holds their exit code, stderr,
wall time and VmHWM.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from pathlib import Path

from bench_end_to_end_rows import alternate, run_child, source_digest, summarize

# (n, d, mode, i)
POINTS = [
    (3, 2, "tight", 1),
    (3, 2, "padded", 1),
    (3, 2, "padded", 2),
    (3, 3, "tight", 1),
    (4, 2, "tight", 1),
    (4, 2, "padded", 1),
]
REFUSED = [(4, 3, "tight", 1), (5, 2, "tight", 1)]
FIELDS = ["code", "stdout", "measured_error"]
CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (6000000 * 1024,) * 2)
import contextlib, io, json, sys, time
from pbtkit.cli import main
n, d, mode, i = sys.argv[1:5]
out, err = io.StringIO(), io.StringIO()
t = time.perf_counter()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(["encode", "--n", n, "--d", d, "--i", i, "--mode", mode])
wall = time.perf_counter() - t
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
fields = {"code": code}
if code == 0:
    payload = json.loads(out.getvalue())
    fields["measured_error"] = payload.pop("measured_error")
    fields["stdout"] = json.dumps(payload, indent=2)
print(json.dumps({"wall_s": wall, "vmhwm_mib": hwm / 1024, "stderr": err.getvalue(), "fields": fields}))
"""


def run_once(tree: Path, point: tuple) -> dict:
    return run_child(tree, CHILD, *map(str, point))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--out", type=Path, default=Path("BENCH_encode_chain.json"))
    args = ap.parse_args()
    trees = {"parent": args.parent, "change": args.change}
    runs = alternate(trees, POINTS, args.pairs, run_once)
    refused = {}
    for point in REFUSED:
        key = ",".join(map(str, point))
        refused[key] = {}
        for side, tree in trees.items():
            result = run_once(tree, point)
            print(side, point, result["fields"]["code"], f"{result['wall_s']:.2f} s", f"{result['vmhwm_mib']:.1f} MiB")
            refused[key][side] = {
                "code": result["fields"]["code"],
                "stderr": result["stderr"],
                "wall_s": result["wall_s"],
                "vmhwm_mib": result["vmhwm_mib"],
            }
    record = {
        "label": "encode_chain",
        "command": f"python scripts/bench_encode_chain.py PARENT CHANGE --pairs {args.pairs}",
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, one BLAS/OpenMP thread per run, ulimit -v 6000000",
        "sources": {side: source_digest(tree) for side, tree in trees.items()},
        "pairs": args.pairs,
        "points": {key: summarize(sides, FIELDS) for key, sides in runs.items()},
        "refused": refused,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
