"""Command-line surface: tables, verification sweeps, simulation and export.

Exit codes: 0 on success, 1 on verification failure, 2 on usage errors.
All emissions are deterministic given the flags and seed; floating-point
values are printed with 17 significant digits so CSV round-trips exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NoReturn

from .partitions import dim_specht, dim_weyl, enumerate_partitions
from .schur import DenseTooLarge
from .twisted import block_dimension, gram_spectrum

FLOAT_FMT = "{:.17g}"


def _fmt(x: float) -> str:
    return FLOAT_FMT.format(float(x))


def _parse_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(text)]
    except ValueError:
        values = []
    if not values:
        _usage_error(f"expected an integer or a range lo..hi with lo <= hi, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# subcommands


def cmd_irreps(args) -> int:
    n, d = args.n, args.d
    _check_dims(n, d)
    rows = []
    for alpha in enumerate_partitions(n - 2, d):
        lam = gram_spectrum(n, d, alpha, check=not args.no_check)
        rows.append(
            {
                "alpha": str(alpha),
                "d_alpha": dim_specht(alpha),
                "m_alpha": dim_weyl(alpha, d),
                "D_alpha": block_dimension(alpha, d),
                "lambda": {str(nu): v for nu, v in lam.items()},
            }
        )
    if args.format == "json":
        _emit(args, json.dumps({"n": n, "d": d, "irreps": rows}, indent=2))
    else:
        lines = ["alpha,d_alpha,m_alpha,D_alpha,nu,lambda"]
        for r in rows:
            for nu, v in r["lambda"].items():
                lines.append(
                    f"{r['alpha']},{r['d_alpha']},{r['m_alpha']},{r['D_alpha']},"
                    f"{nu},{_fmt(v)}"
                )
        _emit(args, "\n".join(lines))
    return 0


def cmd_fidelity(args) -> int:
    from .pbt import pgm_fidelity

    d = args.d
    ns = _parse_range(args.n)
    for n in ns:
        _check_dims(n, d)
    lines = ["n,d,fidelity"]
    values = {}
    for n in ns:
        f = pgm_fidelity(n, d)
        values[n] = f
        lines.append(f"{n},{d},{_fmt(f)}")
    if args.format == "json":
        _emit(args, json.dumps({"d": d, "fidelity": {str(k): v for k, v in values.items()}}))
    else:
        _emit(args, "\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    from . import verify as verify_mod

    suites = verify_mod.SUITES
    if args.suite not in suites:
        print(
            f"unknown suite {args.suite!r}; available: {', '.join(sorted(suites))}",
            file=sys.stderr,
        )
        return 2
    ns = _parse_range(args.n)
    ds = _parse_range(args.d)
    _check_seed(args.seed)
    for n in ns:
        for d in ds:
            _check_dims(n, d, 3 if args.suite == "encode" else 2)
    ok, residual, detail = suites[args.suite](ns, ds, args.seed)
    status = "pass" if ok else "FAIL"
    print(f"{args.suite}: {status}  max residual {_fmt(residual)}  {detail}")
    return 0 if ok else 1


def cmd_simulate(args) -> int:
    from .simulate import ProtocolRun, run, sample

    _check_dims(args.n, args.d, 3 if args.engine == "amplified-V" else 2)
    if args.shots < 0:
        _usage_error(f"--shots must be nonnegative, got {args.shots}")
    _check_seed(args.seed)
    spec = ProtocolRun(
        n=args.n,
        d=args.d,
        input_state="entangled",
        engine=args.engine,
        seed=args.seed,
        variant=args.variant,
    )
    report = run(spec)
    payload = json.loads(report.to_json())
    if args.shots:
        payload["histogram"] = sample(spec, args.shots, report)
    _emit(args, json.dumps(payload, indent=2))
    return 0


def cmd_encode(args) -> int:
    from .blockenc import amplification_weights, encode_kraus, kraus_ledger, weight_range
    from .twisted import build_twisted

    _check_dims(args.n, args.d, 3)
    if not 1 <= args.i <= args.n - 1:
        _usage_error(f"--i must be a port in 1..{args.n - 1}, got {args.i}")
    x, xp = amplification_weights(args.n, args.d)
    x = x if args.x is None else args.x
    xp = xp if args.xp is None else args.xp
    for flag, value, variant in (("--x", x, "C"), ("--xp", xp, "Cprime")):
        low, high = weight_range(args.n, args.d, variant)
        if not low <= value <= high:
            _usage_error(
                f"{flag} must be positive and finite, between {low} (its square covers the "
                f"weight sums) and {high} (a finite encoding scale), got {value}"
            )
    tw = build_twisted(args.n, args.d)
    enc = encode_kraus(args.n, args.d, tw, args.i, x, xp, args.mode)
    err = enc.verify()
    rows = kraus_ledger(args.n, args.d, x, xp, args.mode)
    payload = {
        "n": args.n,
        "d": args.d,
        "i": args.i,
        "mode": args.mode,
        "x": x,
        "xp": xp,
        "measured_error": err,
        "ledger": [
            {
                "name": r.name,
                "scale": r.scale,
                "ancilla_qubits": r.ancilla_qubits,
                "ancilla_dim": r.ancilla_dim,
            }
            for r in rows
        ],
    }
    _emit(args, json.dumps(payload, indent=2))
    return 0


def cmd_export(args) -> int:
    from .store import MatrixWriter, schur_labels

    _check_dims(args.n, args.d)
    with _open_output(MatrixWriter, args.path) as out:  # before anything is built
        if args.object == "schur":
            from .schur import build_schur

            t = build_schur(args.n, args.d)
            out.write(t.matrix, schur_labels(t.index))
        elif args.object == "twisted":
            from .twisted import build_twisted

            tw = build_twisted(args.n, args.d)
            labels = [
                {"alpha": list(b.alpha.rows), "copy": b.r, "dim": b.dim} for b in tw.blocks
            ]
            out.write((b.f.T for b in tw.blocks), labels)
        else:  # the Kraus operators sqrt(Pi_i) or the POVM Pi_i, from the closed form
            import numpy as np

            from .pbt import measurement_functions

            g = np.sqrt if args.object == "kraus" else (lambda x: x)
            out.write(measurement_functions(args.n, args.d, g))
    print(f"wrote {args.path}")
    return 0


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with _open_output(open, args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _open_output(opener, path: str, *mode):
    """``opener(path, *mode)``; a path that cannot be opened for writing is
    a usage error."""
    try:
        return opener(path, *mode)
    except OSError as exc:
        _usage_error(f"cannot write {path}: {exc.strerror or exc}")


def _check_dims(n: int, d: int, min_n: int = 2) -> None:
    if n < min_n:
        _usage_error(f"--n must be at least {min_n}, got {n}")
    if d < 1:
        _usage_error(f"--d must be at least 1, got {d}")


def _check_seed(seed: int) -> None:
    if seed < 0:
        _usage_error(f"--seed must be nonnegative, got {seed}")


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pbt",
        description="Port-based teleportation toolkit: irrep tables, dense "
        "verification, block-encoding ledgers and protocol simulation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("irreps", help="per-diagram dimensions and Gram eigenvalues")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--no-check", action="store_true")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_irreps)

    sp = sub.add_parser("fidelity", help="entanglement-fidelity table")
    sp.add_argument("--n", required=True, help="value or range lo..hi")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_fidelity)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("--suite", required=True)
    sp.add_argument("--n", default="3", help="value or range lo..hi")
    sp.add_argument("--d", default="2", help="value or range lo..hi")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("simulate", help="run the protocol and report outcomes")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument(
        "--engine",
        choices=("dense-W", "amplified-V"),
        default="dense-W",
        help="dense-W: the closed-form PGM channel, built from the fidelity alone; "
        "amplified-V: the block-encoded, amplified register pipeline",
    )
    sp.add_argument("--variant", choices=("compressed", "honest"), default="compressed")
    sp.add_argument("--shots", type=int, default=0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("encode", help="block-encoding ledger dump")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--mode", choices=("tight", "padded"), default="tight")
    sp.add_argument("--x", type=float)
    sp.add_argument("--xp", type=float)
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("export", help="write an object as a matrix file")
    sp.add_argument("object", choices=("schur", "twisted", "kraus", "povm"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("path")
    sp.set_defaults(func=cmd_export)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DenseTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
