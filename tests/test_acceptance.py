"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with the worst measured residual at the stated tolerance."""

import numpy as np
import pytest

from pbtkit.partitions import add_box, dim_specht, enumerate_partitions
from pbtkit.twisted import build_twisted, f_basis, mf_generator, psi_vectors
from pbtkit.verify import SUITES

RNG = np.random.default_rng(2024)


def _report(name: str, residual: float, tol: float) -> None:
    status = "PASS" if residual <= tol else "FAIL"
    print(f"[{status}] {name}: residual {residual:.3e} (tolerance {tol:.1e})")
    assert residual <= tol, f"{name}: {residual} > {tol}"


def test_criterion_1_gram_spectrum():
    _, worst, _ = SUITES["gram"](range(2, 8), (2, 3), 0)
    _report("1 Gram spectrum identity (n<=7, d<=3)", worst, 1e-8)


def test_criterion_2_induced_dimension():
    failures = 0
    for n in range(2, 11):
        for d in range(1, n + 2):
            for alpha in enumerate_partitions(n - 2, d):
                box = add_box(alpha, d)
                total = sum(dim_specht(c) for c in box.children) + box.theta_dim()
                if (n - 1) * dim_specht(alpha) != total:
                    failures += 1
    _report("2 induced-dimension identity (n<=10, exact)", float(failures), 0.0)


def test_criterion_3_f_basis_contract():
    from pbtkit.schur import permutation_dense
    from pbtkit.symrep import embed_perm

    worst_orth = 0.0
    worst_cov = 0.0
    d = 2
    for n in range(2, 7):
        for alpha in enumerate_partitions(n - 2, d):
            blk = f_basis(n, d, alpha)
            worst_orth = max(
                worst_orth,
                float(np.abs(blk.f.conj().T @ blk.f - np.eye(blk.dim)).max()),
            )
            for _ in range(20):
                sig = tuple(RNG.permutation(n - 1))
                v = permutation_dense(n, d, embed_perm(sig, n))
                rep = mf_generator(n, d, alpha, sig + (n - 1,), False)
                worst_cov = max(worst_cov, float(np.abs(v @ blk.f - blk.f @ rep).max()))
    _report("3a f-basis orthonormality (n<=6, d=2)", worst_orth, 1e-10)
    _report("3b f-basis covariance, 20 random permutations", worst_cov, 1e-9)


def test_criterion_4_pseudoprojector():
    _, worst, _ = SUITES["pseudo"](range(3, 7), (2, 3), 0)
    _report("4 pseudoprojector identity (n<=6, d<=3)", worst, 1e-9)


def test_criterion_5_kraus_reconstruction():
    from pbtkit.pbt import kraus_from_twisted, pgm_dense, principal_sqrt

    worst_kraus = 0.0
    worst_sum = 0.0
    cases = [(n, 2) for n in range(2, 7)] + [(n, 3) for n in range(2, 5)]
    for n, d in cases:
        tw = build_twisted(n, d)
        povm = pgm_dense(n, d)
        total = sum(povm.operators)
        worst_sum = max(worst_sum, float(np.abs(total - np.eye(d**n)).max()))
        for i in range(1, n):
            kt = kraus_from_twisted(n, d, tw, i)
            kd = principal_sqrt(povm.operators[i - 1])
            worst_kraus = max(worst_kraus, float(np.abs(kt - kd).max()))
    _report("5a twisted Kraus equals dense principal root", worst_kraus, 1e-8)
    _report("5b POVM completeness", worst_sum, 1e-9)


def test_criterion_6_fidelity():
    from pbtkit.pbt import (
        Povm,
        entanglement_fidelity,
        kraus_from_twisted,
        pgm_dense,
    )

    values = {}
    for n in range(2, 7):
        values[n] = entanglement_fidelity(n, 2, pgm_dense(n, 2))
    _report("6a F(2,2) = 0.25 exactly", abs(values[2] - 0.25), 1e-12)
    monotone = all(values[n + 1] > values[n] for n in range(2, 6))
    _report("6b fidelity strictly increasing (d=2, n=2..6)", 0.0 if monotone else 1.0, 0.0)
    worst = 0.0
    for n, d in [(3, 2), (4, 2), (5, 2), (3, 3)]:
        tw = build_twisted(n, d)
        ops = tuple(
            kraus_from_twisted(n, d, tw, i) @ kraus_from_twisted(n, d, tw, i)
            for i in range(1, n)
        )
        f_tw = entanglement_fidelity(n, d, Povm(n, d, ops))
        f_dense = entanglement_fidelity(n, d, pgm_dense(n, d))
        worst = max(worst, abs(f_tw - f_dense))
    _report("6c twisted-path fidelity equals dense", worst, 1e-8)


def test_criterion_7_block_encoding_ledger():
    from pbtkit.blockenc import encode_kraus, kraus_ledger

    n, d = 3, 2
    x = xp = float(np.sqrt(2))
    tw = build_twisted(n, d)
    alpha_formula = (n - 1) ** 2 * d * x**4 + (n - 1) ** 1.5 * d * xp**2 + (n - 1) ** -0.5
    worst = 0.0
    for mode in ("tight", "padded"):
        for i in (1, 2):
            enc = encode_kraus(n, d, tw, i, x, xp, mode)
            assert enc.scale == pytest.approx(alpha_formula)
            worst = max(worst, enc.verify())
    _report("7a assembled Kraus encodings at n=3, d=2", worst, 1e-6)

    rows = {r.name: r for r in kraus_ledger(n, d, x, xp, "padded")}
    expected = {
        "O(alpha,k,i)": (x**2, 3),
        "O_cen(i,kl,kr)": (x**4, 6),
        "Phi": (np.sqrt(d), 1),
        "O_cen_tilde(i,kl,kr)": (x**4, 6),
        "summand(i,kl,kr)": (d * x**4, 8),
        "sqrtPi(i)": (alpha_formula, 12),
    }
    mismatches = 0
    for name, (scale, qubits) in expected.items():
        row = rows[name]
        if abs(row.scale - scale) > 1e-9 or row.ancilla_qubits != qubits:
            mismatches += 1
    _report("7b padded ledger matches the reference accounting", float(mismatches), 0.0)


def test_criterion_8_naimark_amplification(honest_end_to_end):
    from pbtkit.amplify import end_to_end

    for variant in ("compressed", "honest"):
        res = end_to_end(3, 2, variant) if variant == "compressed" else honest_end_to_end
        _report(
            f"8a [{variant}] sub-normalized dilation residual <= epsilon",
            res.w_residual,
            res.epsilon + 1e-9,
        )
        _report(
            f"8b [{variant}] amplified residual <= 2 m epsilon",
            res.amplified_residual,
            res.amplified_bound,
        )
        _report(
            f"8c [{variant}] outcome probabilities match dense",
            res.probability_error,
            1e-4,
        )


def test_criterion_9_norm_bound():
    _, worst, _ = SUITES["norm"](range(2, 7), (2, 3), 0)
    _report("9 support-part norm bound ||.|| <= sqrt(d)", worst, 1e-10)


def test_criterion_10_gauge_robustness():
    from pbtkit.blockenc import encode_kraus
    from pbtkit.pbt import (
        Povm,
        entanglement_fidelity,
        kraus_from_twisted,
        pgm_dense,
        principal_sqrt,
    )

    n, d = 3, 2
    worst = 0.0
    # lambda tables via numerically diagonalized Gram matrices per gauge
    for alpha in enumerate_partitions(n - 2, d):
        spectra = []
        for seed in (0, 1):
            psi = psi_vectors(n, d, alpha, gauge_seed=seed)
            spectra.append(np.linalg.eigvalsh(psi.conj().T @ psi))
        worst = max(worst, float(np.abs(spectra[0] - spectra[1]).max()))
    # fidelity through the twisted route per gauge
    fids = []
    residuals = []
    povm = pgm_dense(n, d)
    for seed in (0, 1):
        tw = build_twisted(n, d, gauge_seed=seed)
        ops = tuple(
            kraus_from_twisted(n, d, tw, i) @ kraus_from_twisted(n, d, tw, i)
            for i in range(1, n)
        )
        fids.append(entanglement_fidelity(n, d, Povm(n, d, ops)))
        res = max(
            float(
                np.abs(
                    kraus_from_twisted(n, d, tw, i)
                    - principal_sqrt(povm.operators[i - 1])
                ).max()
            )
            for i in range(1, n)
        )
        residuals.append(res)
        enc = encode_kraus(n, d, tw, 1)
        residuals[-1] = max(residuals[-1], enc.verify())
    worst = max(worst, abs(fids[0] - fids[1]), abs(residuals[0] - residuals[1]))
    _report("10 gauge robustness of emitted scalars", worst, 1e-8)
