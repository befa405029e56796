"""Tests of the benchmark's oracle and output checks.

    python3 -m pytest perfbench

The oracle is pinned to hand-computed values; each check must pass on
correct output and reject a deliberately wrong one.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import struct
import subprocess
import sys
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

from oracle import hook_dimension, partitions, pgm_fidelity, port_state, swap_index, weyl_dimension
from run import ROOT, Run
from workloads import WORKLOADS, CheckFailed, Command, check_fidelity_table, check_kraus, check_protocol


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
def test_two_qudit_fidelity_is_one_over_d_squared(d):
    assert pgm_fidelity(2, d) == pytest.approx(1 / d**2, abs=1e-15)


def test_three_qubit_fidelity():
    assert pgm_fidelity(3, 2) == pytest.approx((1 + sqrt(3)) ** 2 / 16, abs=1e-15)


def test_dimensions():
    assert partitions(4, 2) == [(4,), (3, 1), (2, 2)]
    assert len(partitions(6, 6)) == 11
    assert [hook_dimension(p) for p in partitions(4, 4)] == [1, 3, 2, 3, 1]
    assert weyl_dimension((2, 1), 3) == 8
    assert weyl_dimension((1, 1, 1), 2) == 0
    # sum over diagrams of d_mu * m_mu is the dimension d^m of the m-qudit space
    assert sum(hook_dimension(p) * weyl_dimension(p, 3) for p in partitions(5, 3)) == 3**5


def test_port_state_and_swap():
    n, d = 4, 3
    for i in range(1, n):
        rho = port_state(n, d, i)
        assert np.trace(rho) == pytest.approx(1.0)
        assert np.linalg.eigvalsh(rho).min() > -1e-12
    idx = swap_index(n, d, 1, 2)
    assert np.array_equal(idx[idx], np.arange(d**n))
    # swapping the two ports moves port state 1 onto port state 2
    assert np.array_equal(port_state(n, d, 1)[np.ix_(idx, idx)], port_state(n, d, 2))


def _fidelity_csv(d, ns, bump=0.0):
    rows = [f"{n},{d},{pgm_fidelity(n, d) + (bump if n == ns[-1] else 0.0):.17g}" for n in ns]
    return "\n".join(["n,d,fidelity"] + rows)


def test_fidelity_check_rejects_a_perturbed_row():
    check_fidelity_table(2, range(2, 7), _fidelity_csv(2, range(2, 7)))
    with pytest.raises(CheckFailed):
        check_fidelity_table(2, range(2, 7), _fidelity_csv(2, range(2, 7), bump=1e-9))
    with pytest.raises(CheckFailed):
        check_fidelity_table(2, range(2, 7), _fidelity_csv(2, range(2, 6)))


def _protocol_json(n, d, shots, probs=None, counts=None):
    probs = probs or [1 / (n - 1)] * (n - 1)
    report = {"n": n, "d": d, "probabilities": probs, "fidelity": pgm_fidelity(n, d)}
    if shots:
        counts = counts or [shots // (n - 1)] * (n - 2) + [shots - (n - 2) * (shots // (n - 1))]
        report["histogram"] = {"counts": counts, "shots": shots}
    return json.dumps(report)


def test_protocol_check_rejects_skewed_outcomes_and_lost_shots():
    check_protocol(4, 2, 999, _protocol_json(4, 2, 999))
    with pytest.raises(CheckFailed):
        check_protocol(4, 2, 0, _protocol_json(4, 2, 0, probs=[0.34, 0.33, 0.33]))
    with pytest.raises(CheckFailed):
        check_protocol(4, 2, 999, _protocol_json(4, 2, 999, counts=[333, 333, 332]))


def _pbt(*argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1", PBT_CACHE_DIR=str(cwd / "cache"))
    code = "import sys; from pbtkit.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env, check=True, capture_output=True)


def _rewrite(path: Path, kraus: np.ndarray):
    """Write a Kraus stack in the matrix-file format with a valid checksum."""
    payload = kraus.reshape(-1, kraus.shape[-1]).astype("<c16").tobytes()
    rows, cols = kraus.shape[0] * kraus.shape[1], kraus.shape[2]
    path.write_bytes(struct.pack("<4sIQQ", b"PBTM", 1, rows, cols) + payload)
    meta = json.loads(Path(f"{path}.json").read_text())
    meta["checksum"] = hashlib.sha256(payload).hexdigest()
    Path(f"{path}.json").write_text(json.dumps(meta))


def test_kraus_check_rejects_perturbed_files(tmp_path):
    n, d = 4, 2
    path = tmp_path / "k.mat"
    _pbt("export", "kraus", "--n", str(n), "--d", str(d), str(path), cwd=tmp_path)
    check_kraus(n, d, path)
    raw = path.read_bytes()
    kraus = np.frombuffer(raw[24:], dtype="<c16").reshape(n - 1, d**n, d**n).copy()

    path.write_bytes(raw[:-1] + bytes([raw[-1] ^ 1]))  # one flipped bit
    with pytest.raises(CheckFailed, match="sha256"):
        check_kraus(n, d, path)

    bad = kraus.copy()
    bad[0] *= 1 + 1e-9
    _rewrite(path, bad)
    with pytest.raises(CheckFailed):
        check_kraus(n, d, path)

    _rewrite(path, kraus[[1, 0, 2]])  # ports relabelled: complete and Hermitian, not covariant
    with pytest.raises(CheckFailed, match="V\\(1 3\\)"):
        check_kraus(n, d, path)


def test_a_wrong_output_counts_as_a_failed_operation(tmp_path):
    run = Run(tmp_path / "work")
    wrong = Command(("fidelity", "--d", "2", "--n", "2..3"), lambda out: check_fidelity_table(3, range(2, 4), out))
    right = Command(("fidelity", "--d", "2", "--n", "2..3"), lambda out: check_fidelity_table(2, range(2, 4), out))
    run.operation("op", [right])
    assert (run.attempted, run.failed, run.wrong) == (1, 0, 0)
    run.operation("op", [wrong])
    assert (run.attempted, run.failed, run.wrong) == (2, 1, 1)


def test_same_seed_same_inputs(tmp_path):
    for w in WORKLOADS.values():
        first = [c.argv for c in w.operation(random.Random(5), tmp_path)]
        assert first == [c.argv for c in w.operation(random.Random(5), tmp_path)]
