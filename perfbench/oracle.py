"""Independent output oracle.

Transforms are recomputed from the kernel's ``U(s)`` matrix alone
(``SMPKernel.u_matrix``) with scipy sparse solves; the program's passage and
transient solvers (``repro.smp.passage``/``repro.smp.transient``) are never
called, so a later rewrite of those solvers is checked against code it did
not change.  Inverted answers are checked with an Euler inversion written
here, with its own parameters, and against sanity bounds.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as splinalg

#: above this many kernel non-zeros the LU fill-in gets dense; use GMRES
_DIRECT_NNZ = 60_000


def _solve(a: sparse.spmatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` exactly (sparse LU) or to 1e-13 (GMRES, dense kernels)."""
    a = sparse.csc_matrix(a)
    if a.nnz <= _DIRECT_NNZ:
        return np.asarray(splinalg.spsolve(a, b), dtype=complex)
    x, info = splinalg.gmres(a, b, rtol=1e-13, atol=0.0, restart=60, maxiter=400)
    if info != 0:
        return np.linalg.solve(a.toarray(), b)
    return np.asarray(x, dtype=complex)


def _mask(n: int, targets) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(targets, dtype=np.int64)] = True
    return mask


def stationary_weights(kernel, sources) -> np.ndarray:
    """Source weights of Eq. 5 from the embedded chain ``P = U(0)``.

    A single source gets weight one; several are weighted by the embedded
    DTMC's stationary distribution (solved here by sparse LU), restricted to
    the sources and renormalised.
    """
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    alpha = np.zeros(kernel.n_states)
    if sources.size == 1:
        alpha[sources[0]] = 1.0
        return alpha
    p = sparse.csr_matrix(kernel.u_matrix(0.0).real)
    n = p.shape[0]
    a = (p.T - sparse.identity(n, format="csr")).tolil()
    a[n - 1, :] = 1.0
    b = np.zeros(n)
    b[n - 1] = 1.0
    pi = np.maximum(np.asarray(splinalg.spsolve(sparse.csc_matrix(a), b)).real, 0.0)
    alpha[sources] = pi[sources] / pi[sources].sum()
    return alpha


def passage_transform(kernel, alpha, targets, s: complex) -> complex:
    """``L(s)`` of the first passage into ``targets`` by the absorbing row solve.

    With ``N`` the non-target states, ``x_N = (I - U_NN)^{-1} U_NJ 1`` is the
    transform of the time to reach the target set from each non-target
    state; one more step ``U (1_J + 1_N x)`` gives it from every state
    (a source inside the target set gets its return time).
    """
    u = sparse.csr_matrix(kernel.u_matrix(complex(s)))
    n = u.shape[0]
    j = _mask(n, targets)
    keep = np.flatnonzero(~j)
    u_nn = u[keep][:, keep]
    b = np.asarray(u[keep][:, np.flatnonzero(j)].sum(axis=1)).ravel().astype(complex)
    x_n = _solve(sparse.identity(keep.size, format="csc", dtype=complex) - u_nn, b)
    hit = j.astype(complex)
    hit[keep] = x_n
    step = u @ hit
    return complex(np.dot(np.asarray(alpha, dtype=complex), step))


def transient_transform(kernel, alpha, targets, s: complex) -> complex:
    """``T*(s) = (1/s) alpha (I - U)^{-1} (1_J * (1 - h))``, ``h = U 1``.

    The Markov-renewal form of the transient probability transform (Pyke):
    one solve with no absorption, weighted by the probability of not having
    left a target state yet.
    """
    s = complex(s)
    u = sparse.csr_matrix(kernel.u_matrix(s))
    n = u.shape[0]
    h = np.asarray(u.sum(axis=1)).ravel()
    w = np.where(_mask(n, targets), 1.0 - h, 0.0).astype(complex)
    x = _solve(sparse.identity(n, format="csc", dtype=complex) - u, w)
    return complex(np.dot(np.asarray(alpha, dtype=complex), x)) / s


def close(value: complex, reference: complex, *, rtol: float, atol: float) -> bool:
    return abs(complex(value) - complex(reference)) <= atol + rtol * abs(complex(reference))


# ---------------------------------------------------------------------------
# Inversion oracle (Abate & Whitt's Euler algorithm, its own parameters)
# ---------------------------------------------------------------------------

EULER_A, EULER_N, EULER_M = 18.4, 15, 11


def euler_points(t: float) -> np.ndarray:
    k = np.arange(EULER_N + EULER_M + 1)
    return (EULER_A + 2j * math.pi * k) / (2.0 * t)


def euler_invert(t: float, values: np.ndarray) -> float:
    """Invert from the transform at ``euler_points(t)`` (binomial averaging)."""
    values = np.asarray(values, dtype=complex)
    terms = (math.exp(EULER_A / 2.0) / t) * ((-1.0) ** np.arange(values.size)) * values.real
    terms[0] *= 0.5
    partial = np.cumsum(terms)
    weights = np.array([math.comb(EULER_M, k) for k in range(EULER_M + 1)]) / 2.0**EULER_M
    return float(np.dot(weights, partial[EULER_N : EULER_N + EULER_M + 1]))


class MeasureOracle:
    """Oracle answers for one measure on one kernel, memoised per ``t``."""

    def __init__(self, kernel, alpha, targets, kind: str):
        if kind not in ("passage", "transient"):
            raise ValueError(kind)
        self.kernel, self.alpha, self.targets, self.kind = kernel, alpha, targets, kind
        self._memo: dict[float, tuple[float, float]] = {}

    def transform(self, s: complex) -> complex:
        fn = passage_transform if self.kind == "passage" else transient_transform
        return fn(self.kernel, self.alpha, self.targets, s)

    def at(self, t: float) -> tuple[float, float]:
        """``(density, cdf)`` for passage or ``(probability, nan)`` for transient."""
        t = float(t)
        hit = self._memo.get(t)
        if hit is None:
            s_pts = euler_points(t)
            values = np.array([self.transform(s) for s in s_pts])
            first = euler_invert(t, values)
            second = euler_invert(t, values / s_pts) if self.kind == "passage" else math.nan
            hit = self._memo[t] = (first, second)
        return hit


# ---------------------------------------------------------------------------
# Sanity checks on inverted answers
# ---------------------------------------------------------------------------

#: slack allowed below 0 / above 1 and against non-monotonicity; the Euler
#: discretisation error of the program's inverter is of order e^-a ~ 5e-9,
#: and the iterative truncation adds ~1e-8 per transform value
SANITY_TOL = 1e-6


def sanity_errors(*, density=None, cdf=None, probability=None, tol: float = SANITY_TOL) -> list[str]:
    """Reasons an inverted answer is impossible (empty when it is plausible).

    ``cdf`` must be given in increasing-``t`` order.
    """
    errors = []
    if density is not None:
        d = np.asarray(density, dtype=float)
        if not np.all(np.isfinite(d)):
            errors.append("density is not finite")
        elif d.min() < -tol:
            errors.append(f"density {d.min():.3g} < 0")
    if cdf is not None:
        c = np.asarray(cdf, dtype=float)
        if not np.all(np.isfinite(c)):
            errors.append("cdf is not finite")
        else:
            if c.min() < -tol or c.max() > 1 + tol:
                errors.append(f"cdf outside [0, 1]: [{c.min():.3g}, {c.max():.3g}]")
            if c.size > 1 and np.diff(c).min() < -tol:
                errors.append("cdf is not monotone")
    if probability is not None:
        p = np.asarray(probability, dtype=float)
        if not np.all(np.isfinite(p)):
            errors.append("probability is not finite")
        elif p.min() < -tol or p.max() > 1 + tol:
            errors.append(f"probability outside [0, 1]: [{p.min():.3g}, {p.max():.3g}]")
    return errors
