"""One benchmark operation in a fresh interpreter, so every lru_cache in
pbtkit starts as cold as it is for a user who types the command.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds ``mode``, ``commands`` (argv lists for `pbt`), ``probes``
((variant, n, d) points) and ``result`` (where the result JSON is written).

- ``op``: each command through ``pbtkit.cli.main(argv)``; the timer covers
  only the ``main`` calls.  With no commands this measures set-up alone.
- ``path``: the same commands replayed through the layers' public functions,
  with a span around each call (the traced run).
- ``probe``: the inner layers of the protocol pipeline at each point, called
  one by one so each gets its own span.

Set-up time is the import of pbtkit, numpy included.  Peak memory is this
process's peak resident set.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


class Tracer:
    """Spans around calls into pbtkit's layers, kept in memory and written
    out with the result; ``extra`` marks a call the command itself does not
    make, which is left out of the traced operation time."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str, point: str, extra: bool = False):
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append(
                {"name": name, "point": point, "start": start, "end": end, "parent": parent, "extra": extra}
            )

    def count(self, name: str, point: str, value: float) -> None:
        self.counts[f"{name}.{point}"] = value

    def op_seconds(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None and not s["extra"])


def traced_export(tr: Tracer, args) -> str:
    import numpy as np

    from pbtkit.pbt import kraus_from_twisted
    from pbtkit.schur import build_schur
    from pbtkit.store import load_matrix, save_matrix
    from pbtkit.twisted import build_twisted

    if args.object != "kraus":
        raise ValueError(f"no traced replay of export {args.object}")
    n, d = args.n, args.d
    p = f"export.n{n}d{d}"
    with tr.span("schur.build_schur", p):
        build_schur(n - 1, d)
        build_schur(n - 2, d)
    with tr.span("twisted.build_twisted", p):
        tw = build_twisted(n, d)
    tr.count("twisted.blocks", p, len(tw.blocks))
    with tr.span("pbt.kraus_from_twisted", p):
        mats = [kraus_from_twisted(n, d, tw, i) for i in range(1, n)]
    stack = np.concatenate(mats, axis=0)
    tr.count("pbt.kraus_mb", p, stack.nbytes / 2**20)
    with tr.span("store.save_matrix", p):
        save_matrix(args.path, stack)
    with tr.span("store.load_matrix", p, extra=True):
        load_matrix(args.path)
    return f"wrote {args.path}"


def traced_fidelity(tr: Tracer, args) -> str:
    from pbtkit.cli import _parse_range
    from pbtkit.pbt import entanglement_fidelity, pgm_dense

    d, ns = args.d, _parse_range(args.n)
    p = f"table.n{ns[0]}-{ns[-1]}d{d}"
    lines = ["n,d,fidelity"]
    for n in ns:
        with tr.span("pbt.pgm_dense", p):
            povm = pgm_dense(n, d)
        with tr.span("pbt.entanglement_fidelity", p):
            f = entanglement_fidelity(n, d, povm)
        lines.append(f"{n},{d},{f:.17g}")
    return "\n".join(lines)


def traced_simulate(tr: Tracer, args) -> str:
    from pbtkit.simulate import ProtocolRun, run, sample

    spec = ProtocolRun(
        n=args.n, d=args.d, input_state="entangled", engine=args.engine, seed=args.seed, variant=args.variant
    )
    variant = "dense" if args.engine == "dense-W" else args.variant
    p = f"{variant}.n{args.n}d{args.d}"
    with tr.span("simulate.run", p):
        payload = json.loads(run(spec).to_json())
    if args.shots:
        with tr.span("simulate.sample", p):
            payload["histogram"] = sample(spec, args.shots)
    return json.dumps(payload)


def probe_layers(tr: Tracer, variant: str, n: int, d: int) -> None:
    """Build the amplified pipeline at (n, d) stage by stage, then apply the
    Naimark V and the amplified product once each to the initial state."""
    from pbtkit.blockenc import encode_kraus, naimark_Uc
    from pbtkit.schur import build_schur
    from pbtkit.simulate import build_pipeline, compressed_encodings, initial_state
    from pbtkit.twisted import build_twisted, maximally_entangled

    p = f"{variant}.n{n}d{d}"
    with tr.span("schur.build_schur", p):
        build_schur(n - 1, d)
        build_schur(n - 2, d)
    with tr.span("twisted.build_twisted", p):
        tw = build_twisted(n, d)
    if variant == "honest":
        with tr.span("blockenc.encode_kraus", p):
            encs = [encode_kraus(n, d, tw, i) for i in range(1, n)]
    else:
        with tr.span("simulate.compressed_encodings", p):
            encs = compressed_encodings(n, d, tw)
    with tr.span("blockenc.verify", p):
        for enc in encs:
            enc.verify()
    with tr.span("blockenc.naimark", p):
        naimark_Uc(n, d, encs)
    with tr.span("simulate.build_pipeline", p):
        pipe = build_pipeline(n, d, variant, tw=tw)
    tr.count("amplify.phases", p, pipe.plan.m)
    tr.count("registers.amplitudes", p, pipe.layout.size)
    state = initial_state(pipe, maximally_entangled(d))
    with tr.span("registers.v_apply", p):
        pipe.naimark.v_op.apply(state, pipe.layout)
    with tr.span("amplify.amplified_apply", p):
        pipe.v_amp.apply(state, pipe.layout)


def main() -> None:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import pbtkit  # noqa: F401  (the whole package, as `pbt` loads it)
    from pbtkit.cli import build_parser
    from pbtkit.cli import main as pbt_main

    result = {"setup_s": time.perf_counter() - t0, "op_s": 0.0, "codes": [], "stdout": []}
    tr = Tracer()
    traced = {"export": traced_export, "fidelity": traced_fidelity, "simulate": traced_simulate}
    for argv in spec["commands"]:
        if spec["mode"] == "op":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                start = time.perf_counter()
                code = pbt_main(argv)
                result["op_s"] += time.perf_counter() - start
            stdout = buf.getvalue()
        else:
            args = build_parser().parse_args(argv)
            code, stdout = 0, traced[args.command](tr, args)
        result["codes"].append(code)
        result["stdout"].append(stdout)
        if code != 0:
            break
    for variant, n, d in spec["probes"]:
        probe_layers(tr, variant, n, d)
    if spec["mode"] != "op":
        result.update(op_s=tr.op_seconds(), spans=tr.spans, counts=tr.counts)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
