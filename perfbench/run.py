"""Run one workload of the pbtkit benchmark and print its metrics.

    python3 perfbench/run.py --workload kraus_export --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each operation runs in a fresh interpreter (see child.py), one at
a time, with BLAS/OpenMP pinned to one thread and ``PBT_CACHE_DIR`` pointing
at an empty directory owned by the run.  Operations are started until
``--seconds`` have passed, and every output is checked against the
closed-form oracle (see workloads.py) after its timer has stopped.

With ``--trace 0`` the metrics are the end-to-end ones: the median operation
time, the median peak memory of an operation process and the median import
time of pbtkit.  With ``--trace 1`` one untraced operation of the workload is
followed by the traced replay of every workload's operation and the layer
probes, and the metrics are the per-layer ones of BENCHMARK.json plus the
tracing overhead of this workload; the raw spans are written to
``.perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, CheckFailed, Command  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7  # import-only interpreters per run, for a steady set-up median
RUN_LIMIT_S = 170.0  # no child may outlive this point of the run


class Run:
    """Starts the fresh interpreters of one benchmark run and tallies them."""

    def __init__(self, work: Path):
        self.started = time.perf_counter()
        self.work = work
        self.out = work / "out"
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
            PBT_CACHE_DIR=str(work / "cache"),
        )
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def child(self, mode: str, commands=(), probes=()) -> dict | None:
        """Run child.py once; None when it crashed or ran out of time."""
        self.out.mkdir(parents=True, exist_ok=True)
        (self.work / "cache").mkdir(exist_ok=True)
        result = self.work / "result.json"
        result.unlink(missing_ok=True)
        spec = {"mode": mode, "commands": [list(c) for c in commands], "probes": list(probes), "result": str(result)}
        left = RUN_LIMIT_S - (time.perf_counter() - self.started)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=self.work, env=self.env, capture_output=True, text=True, timeout=max(left, 1.0),
            )
        except subprocess.TimeoutExpired:
            print(f"{mode} {commands}: stopped after {left:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result.exists():
            print(f"{mode} {commands}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        return json.loads(result.read_text())

    def operation(self, mode: str, commands: list[Command], probes=()) -> dict | None:
        """One checked operation; its outputs are removed afterwards.  The
        result is None when the process did not complete; a completed
        operation whose output fails a check still has valid timings."""
        self.attempted += 1
        try:
            res = self.child(mode, [c.argv for c in commands], probes)
            if res is None or any(res["codes"]) or len(res["codes"]) != len(commands):
                self.failed += 1
                return None
            for cmd, stdout in zip(commands, res["stdout"]):
                try:
                    cmd.check(stdout)
                except (CheckFailed, ValueError, KeyError, IndexError) as exc:
                    print(f"check failed for pbt {' '.join(cmd.argv)}: {exc!r}", file=sys.stderr)
                    self.failed += 1
                    self.wrong += 1
                    break
            return res
        finally:
            shutil.rmtree(self.out, ignore_errors=True)
            shutil.rmtree(self.work / "cache", ignore_errors=True)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def end_to_end(run: Run, workload, seed: int, seconds: float) -> dict[str, float]:
    rng = random.Random(seed)
    probes = (run.child("op") for _ in range(SETUP_PROBES))
    setup = [p["setup_s"] for p in probes if p is not None]
    ops = []
    t0 = time.perf_counter()
    while not run.attempted or (time.perf_counter() - t0 < seconds and run.elapsed() < RUN_LIMIT_S):
        res = run.operation("op", workload.operation(rng, run.out))
        if res is not None:
            ops.append(res)
    if not ops:
        raise SystemExit("no operation completed; nothing to measure")
    setup += [r["setup_s"] for r in ops]
    print("operation seconds:", " ".join(f"{r['op_s']:.3f}" for r in ops))
    return {
        "op_s_p50": statistics.median(r["op_s"] for r in ops),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in ops),
        "setup_s": statistics.median(setup),
    }


def per_layer(run: Run, workload, seed: int) -> dict[str, float]:
    untraced = run.operation("op", workload.operation(random.Random(seed), run.out))
    traced_own = None
    spans, values = [], {}
    for other in WORKLOADS.values():
        res = run.operation("path", other.operation(random.Random(seed), run.out))
        if res is not None:
            spans += res["spans"]
            values.update(res["counts"])
            if other is workload:
                traced_own = res["op_s"]
        if other.probes:
            res = run.operation("probe", [], other.probes)
            if res is not None:
                spans += res["spans"]
                values.update(res["counts"])
    traces = ROOT / ".perfbench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    (traces / f"{workload.name}-seed{seed}.json").write_text(json.dumps({"spans": spans, "counts": values}))
    for s in spans:
        key = f"{s['name']}_s.{s['point']}"
        values[key] = values.get(key, 0.0) + s["end"] - s["start"]
    if untraced is not None and traced_own is not None:
        values["trace.overhead_pct"] = 100.0 * (traced_own - untraced["op_s"]) / untraced["op_s"]
    return values


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # exit through the finally clauses, so a terminated run still kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "pbtkit" / "cli.py").is_file():
        print(f"no pbtkit sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(work)
        if run.child("op") is None:  # also compiles the bytecode before anything is timed
            print("pbtkit does not import", file=sys.stderr)
            return 1
        workload = WORKLOADS[args.workload]
        if args.trace:
            values, wanted = per_layer(run, workload, args.seed), bench["per_layer"]
        else:
            values, wanted = end_to_end(run, workload, args.seed, args.seconds), bench["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: {run.attempted} operations attempted, {run.failed} failed, {run.wrong} wrong")
    result = {"correct": run.wrong == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
