"""Named verification suites: each runs an oracle comparison over a range of
(n, d) and returns (passed, max residual, detail)."""

from __future__ import annotations

import numpy as np

from .partitions import dim_weyl, enumerate_partitions
from .symrep import compose, yor
from .twisted import (
    GRAM_TOL,
    ORTHO_TOL,
    PSEUDO_TOL,
    build_twisted,
    f_basis,
    gram_residual,
    mf_pi,
    pseudo_residual,
    pseudo_scale,
)


def _suite_gram(ns, ds, seed):
    worst = 0.0
    count = 0
    for n in ns:
        for d in ds:
            for alpha in enumerate_partitions(n - 2, d):
                worst = max(worst, gram_residual(n, d, alpha))
                count += 1
    return worst <= GRAM_TOL, worst, f"{count} blocks"


def _suite_yor(ns, ds, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in ns:
        for d in ds:
            for lam in enumerate_partitions(n, d):
                m = lam.n
                for _ in range(5):
                    p = tuple(rng.permutation(m))
                    q = tuple(rng.permutation(m))
                    lhs = yor(lam, p).matrix @ yor(lam, q).matrix
                    rhs = yor(lam, compose(p, q)).matrix
                    worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst <= 1e-10, worst, "group law"


def _suite_schur(ns, ds, seed):
    from .schur import build_schur, covariance_residual

    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in ns:
        for d in ds:
            t = build_schur(n, d)
            for _ in range(5):
                worst = max(worst, covariance_residual(t, tuple(rng.permutation(n))))
    return worst <= 1e-10, worst, "covariance"


def _suite_fbasis(ns, ds, seed):
    from .schur import permutation_dense
    from .symrep import embed_perm
    from .twisted import FACTORED_TOL, _check_orthonormal, factored_residual, mf_generator

    rng = np.random.default_rng(seed)
    worst = factored = 0.0
    for n in ns:
        for d in ds:
            for alpha in enumerate_partitions(n - 2, d):
                blk = f_basis(n, d, alpha)
                worst = max(worst, _check_orthonormal(blk.f))
                for r in range(1, dim_weyl(alpha, d) + 1):
                    factored = max(factored, factored_residual(n, d, alpha, r))
                for _ in range(3):
                    sig = tuple(rng.permutation(n - 1))
                    v = permutation_dense(n, d, embed_perm(sig, n))
                    rep = mf_generator(n, d, alpha, sig + (n - 1,), False)
                    worst = max(worst, float(np.abs(v @ blk.f - blk.f @ rep).max()))
    ok = worst <= ORTHO_TOL and factored <= FACTORED_TOL
    detail = f"orthonormality + covariance, factored residual {factored:.2e} (every copy)"
    return ok, max(worst, factored), detail


def _suite_pseudo(ns, ds, seed):
    worst = 0.0
    for n in ns:
        for d in ds:
            for alpha in enumerate_partitions(n - 2, d):
                scale = pseudo_scale(n, d, alpha)
                for i in range(1, n):
                    worst = max(worst, pseudo_residual(mf_pi(n, d, alpha, i, check=False), scale))
    return worst <= PSEUDO_TOL, worst, "pseudoprojector identity"


def _suite_kraus(ns, ds, seed):
    from .pbt import pgm_dense, pgm_function, pgm_functions, principal_sqrt

    worst = 0.0
    for n in ns:
        for d in ds:
            tw = build_twisted(n, d)
            povm = pgm_dense(n, d)
            pairs = zip(povm.operators, pgm_functions(n, d, tw, np.sqrt))
            for i, (op, k) in enumerate(pairs, start=1):
                kraus = k - principal_sqrt(op)
                pi = pgm_function(n, d, tw, i, lambda x: x) - op
                worst = max(worst, float(np.abs(kraus).max()), float(np.abs(pi).max()))
    return worst <= 1e-8, worst, "twisted vs dense Kraus and Pi_i"


def _suite_fidelity(ns, ds, seed):
    from .pbt import entanglement_fidelity, pgm_dense, pgm_fidelity

    worst = 0.0
    monotone = True
    for d in ds:
        prev = None
        for n in ns:
            f = pgm_fidelity(n, d)
            worst = max(worst, abs(f - entanglement_fidelity(n, d, pgm_dense(n, d))))
            if prev is not None and f <= prev:
                monotone = False
            prev = f
    return monotone and worst <= 1e-10, worst, "closed form vs dense, monotone in n"


def _suite_norm(ns, ds, seed):
    from .pbt import sqrt_tilde_norm

    worst = 0.0
    for n in ns:
        for d in ds:
            for i in range(1, n):
                worst = max(worst, sqrt_tilde_norm(n, d, i) - np.sqrt(d))
    return worst <= 1e-10, worst, "max(||sqrt support part|| - sqrt(d), 0)"


def _suite_encode(ns, ds, seed):
    from .blockenc import encode_kraus
    from .twisted import build_twisted

    worst = 0.0
    for n in ns:
        for d in ds:
            tw = build_twisted(n, d)
            for i in range(1, n):
                enc = encode_kraus(n, d, tw, i)
                worst = max(worst, enc.verify())
    return worst <= 1e-6, worst, "Kraus block-encodings"


SUITES = {
    "gram": _suite_gram,
    "yor": _suite_yor,
    "schur": _suite_schur,
    "fbasis": _suite_fbasis,
    "pseudo": _suite_pseudo,
    "kraus": _suite_kraus,
    "fidelity": _suite_fidelity,
    "norm": _suite_norm,
    "encode": _suite_encode,
}
