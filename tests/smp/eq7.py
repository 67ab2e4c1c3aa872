"""Reference transient transforms for the tests: Eq. 7 of the paper and an exact solve.

:func:`eq7_transient_transform` follows Eq. 7 literally — one direct
passage-time vector solve per target state ``k`` gives ``L_ik(s)`` for every
source ``i`` and the cycle transform ``L_kk(s)``, combined through Pyke's
relations:

    T*(s) = (1/s) sum_k Lambda_k(s) (alpha_k + sum_{i != k} alpha_i L_ik(s))
    Lambda_k(s) = (1 - h*_k(s)) / (1 - L_kk(s))

:func:`exact_transient_transform` solves the renewal form
``(I - U(s)) x = w(s)`` with ``scipy.sparse.linalg.spsolve`` on the kernel's
``U(s)`` matrix alone.  Neither touches the library's transient solver.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as splinalg

from repro.smp import passage_transform_direct_batch


def eq7_transient_transform(kernel, alpha, targets, s_values) -> np.ndarray:
    """``T*(s)`` over a grid by Eq. 7: one direct passage solve per target."""
    evaluator = kernel.evaluator()
    s_values = np.asarray(s_values, dtype=complex).ravel()
    alpha = np.asarray(alpha, dtype=complex)
    h = evaluator.sojourn_lst_batch(s_values)
    total = np.zeros(s_values.size, dtype=complex)
    for k in np.unique(targets):
        passage = passage_transform_direct_batch(evaluator, [k], s_values)
        lam = (1.0 - h[:, k]) / (1.0 - passage[:, k])
        # The delta term of Eq. 7: a source equal to the target contributes
        # Lambda_k itself rather than Lambda_k L_kk(s).
        passage[:, k] = 1.0
        total += lam * (passage @ alpha)
    return total / s_values


def exact_transient_transform(kernel, alpha, targets, s_values) -> np.ndarray:
    """``T*(s) = (1/s) alpha (I - U)^{-1} w`` by one sparse LU solve per point."""
    n = kernel.n_states
    in_target = np.zeros(n, dtype=bool)
    in_target[np.asarray(targets, dtype=np.int64)] = True
    out = []
    for s in np.asarray(s_values, dtype=complex).ravel():
        u = sparse.csr_matrix(kernel.u_matrix(complex(s)))
        h = np.asarray(u.sum(axis=1)).ravel()
        w = np.where(in_target, 1.0 - h, 0.0).astype(complex)
        a = sparse.csc_matrix(sparse.identity(n, dtype=complex) - u)
        out.append(np.dot(np.asarray(alpha, dtype=complex), splinalg.spsolve(a, w)) / s)
    return np.asarray(out, dtype=complex)
