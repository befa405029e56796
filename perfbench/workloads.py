"""The benchmark's workloads: what one operation runs and how its output is
checked.

An operation is a short list of `pbt` commands run in one fresh interpreter.
Every command's output is checked against the closed-form oracle and the
properties the method guarantees; nothing is compared with a stored copy of
earlier output.  This module never imports pbtkit.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from oracle import pgm_fidelity, port_state, swap_index, tolerance

SHOTS = 100_000
KRAUS_POINTS = ((8, 2), (6, 3))
FIDELITY_TABLES = ((2, range(2, 9)), (3, range(2, 5)))
HONEST_POINT = (3, 2)
COMPRESSED_POINTS = ((6, 2, "amplified-V"), (4, 3, "amplified-V"), (6, 2, "dense-W"))

MATRIX_HEADER = struct.Struct("<4sIQQ")  # magic, format version, rows, cols


class CheckFailed(Exception):
    """An output that contradicts the oracle or a property of the method."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _within(value: float, expected: float, tol: float, what: str) -> None:
    _require(abs(value - expected) <= tol, f"{what}: {value!r} vs {expected!r} (tol {tol:.1e})")


def check_kraus(n: int, d: int, path: Path) -> None:
    """A `pbt export kraus` file: checksum, completeness, Hermitian PSD
    operators, port covariance and the oracle fidelity."""
    dim = d**n
    raw = path.read_bytes()
    magic, _, rows, cols = MATRIX_HEADER.unpack(raw[: MATRIX_HEADER.size])
    _require((magic, rows, cols) == (b"PBTM", (n - 1) * dim, dim), f"header {magic!r} {rows}x{cols}")
    payload = raw[MATRIX_HEADER.size :]
    _require(len(payload) == rows * cols * 16, "payload length")
    sidecar = json.loads(Path(f"{path}.json").read_text())
    _require(sidecar.get("checksum") == hashlib.sha256(payload).hexdigest(), "sha256 of the payload")
    kraus = np.frombuffer(payload, dtype="<c16").reshape(n - 1, dim, dim)
    tol = tolerance(dim)
    pis = [k @ k for k in kraus]  # K_i is Hermitian, so K_i^dagger K_i = K_i^2
    fidelity = 0.0
    for i, (k, pi) in enumerate(zip(kraus, pis), start=1):
        _require(np.abs(k - k.conj().T).max() <= tol, f"K_{i} is not Hermitian")
        _require(np.linalg.eigvalsh(k).min() >= -tol, f"K_{i} is not positive semidefinite")
        fidelity += float(np.einsum("ab,ba->", pi, port_state(n, d, i)).real)
    _require(np.abs(sum(pis) - np.eye(dim)).max() <= tol, "sum_i K_i^2 != I")
    for j in range(2, n):
        idx = swap_index(n, d, 1, j)
        _require(
            np.abs(kraus[j - 1] - kraus[0][np.ix_(idx, idx)]).max() <= tol,
            f"K_{j} != V(1 {j}) K_1 V(1 {j})",
        )
    _within(fidelity / d**2, pgm_fidelity(n, d), tol, f"Kraus fidelity at n={n}, d={d}")


def check_fidelity_table(d: int, ns: range, stdout: str) -> None:
    """`pbt fidelity` CSV: one row per requested n, each equal to the oracle."""
    lines = stdout.strip().splitlines()
    _require(lines[0] == "n,d,fidelity", f"header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    _require([(int(r[0]), int(r[1])) for r in rows] == [(n, d) for n in ns], "table rows")
    for n, _, value in rows:
        n = int(n)
        _within(float(value), pgm_fidelity(n, d), tolerance(d**n), f"fidelity row n={n}, d={d}")


def check_protocol(n: int, d: int, shots: int, stdout: str) -> None:
    """`pbt simulate` JSON: port-symmetric outcome probabilities, the oracle
    fidelity and, with shots, a histogram that accounts for every shot."""
    report = json.loads(stdout)
    _require((report["n"], report["d"]) == (n, d), "reported (n, d)")
    tol = tolerance(d ** (n + 2))  # ports, input, receiver and reference
    probs = report["probabilities"]
    _require(len(probs) == n - 1, "number of outcomes")
    for i, p in enumerate(probs, start=1):
        _within(p, 1.0 / (n - 1), tol, f"p({i})")
    _within(report["fidelity"], pgm_fidelity(n, d), tol, f"protocol fidelity at n={n}, d={d}")
    if shots:
        counts = report["histogram"]["counts"]
        _require(len(counts) == n - 1 and min(counts) >= 0, "histogram bins")
        _require(sum(counts) == shots == report["histogram"]["shots"], "histogram total")


@dataclass(frozen=True)
class Command:
    """One `pbt` invocation and the check its output must pass; ``check``
    receives the command's standard output."""

    argv: tuple[str, ...]
    check: Callable[[str], None]


@dataclass(frozen=True)
class Workload:
    name: str
    operation: Callable[[random.Random, Path], list[Command]]
    # (variant, n, d) points whose inner layers traced.py times one by one
    probes: tuple[tuple[str, int, int], ...] = ()


def _kraus_export(rng: random.Random, out: Path) -> list[Command]:
    cmds = []
    for n, d in KRAUS_POINTS:
        path = out / f"kraus-n{n}d{d}.mat"
        argv = ("export", "kraus", "--n", str(n), "--d", str(d), str(path))
        cmds.append(Command(argv, lambda _stdout, n=n, d=d, path=path: check_kraus(n, d, path)))
    return cmds


def _fidelity_table(rng: random.Random, out: Path) -> list[Command]:
    return [
        Command(
            ("fidelity", "--d", str(d), "--n", f"{ns[0]}..{ns[-1]}"),
            lambda stdout, d=d, ns=ns: check_fidelity_table(d, ns, stdout),
        )
        for d, ns in FIDELITY_TABLES
    ]


def _honest_protocol(rng: random.Random, out: Path) -> list[Command]:
    n, d = HONEST_POINT
    argv = ("simulate", "--n", str(n), "--d", str(d), "--engine", "amplified-V", "--variant", "honest")
    return [Command(argv, lambda stdout: check_protocol(n, d, 0, stdout))]


def _compressed_protocol(rng: random.Random, out: Path) -> list[Command]:
    seed = str(rng.randrange(2**31))
    return [
        Command(
            ("simulate", "--n", str(n), "--d", str(d), "--engine", engine,
             "--shots", str(SHOTS), "--seed", seed),
            lambda stdout, n=n, d=d: check_protocol(n, d, SHOTS, stdout),
        )
        for n, d, engine in COMPRESSED_POINTS
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("kraus_export", _kraus_export),
        Workload("fidelity_table", _fidelity_table),
        Workload("honest_protocol", _honest_protocol, (("honest",) + HONEST_POINT,)),
        Workload(
            "compressed_protocol",
            _compressed_protocol,
            tuple(("compressed", n, d) for n, d, engine in COMPRESSED_POINTS if engine == "amplified-V"),
        ),
    )
}
