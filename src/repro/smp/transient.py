"""Transient state distributions from passage-time quantities (Eqs. 6–7).

Pyke's relations connect the transform of the transient probability
``T_ij(t) = P(Z(t) = j | Z(0) = i)`` to first-passage and cycle-time
transforms:

    T*_ii(s) = (1/s) (1 - h*_i(s)) / (1 - L_ii(s))
    T*_ij(s) = L_ij(s) T*_jj(s)                       (i != j)

Summed over a target set ``j`` (Eq. 7) they need one passage-time vector per
target state.  The Markov renewal identity behind them (Pyke 1961) gives the
same transform from a single solve with no absorbing states:

    T*(s) = (1/s) alpha (I - U(s))^{-1} w(s),   w_k(s) = 1 - h*_k(s) on j, 0 off j

— the probability weight of *being in* ``k`` is that of entering it and not
yet having left.  This module evaluates that renewal form with the
passage-time row-form machinery of :mod:`repro.smp.passage`: one row sum per
s-point whatever the size of the target set.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .kernel import as_evaluator, target_mask

# Kept for perfbench/inline.py, which patches this name in traced voting runs.
from .linear import passage_transform_direct_batch as passage_transform_vector_batch  # noqa: F401
from .passage import (
    ConvergenceDiagnostics,
    PassageTimeOptions,
    SPointPolicy,
    _check_alpha,
    _passage_block,
    _solve_grid,
)

__all__ = ["transient_transform_batch", "sojourn_lsts"]

#: The renewal sum runs to ``epsilon`` times this.  A passage sum's remaining
#: mass ``||v_k||_1`` is absorbed at most once, so it bounds the tail; with no
#: absorbing states that mass keeps revisiting the targets and the tail can be
#: several times the last term.  Two more decades keep the renewal form at
#: least as accurate as the per-target Eq. 7 sums on the bundled models, for
#: about a quarter more iterations.
RENEWAL_EPSILON_SCALE = 1e-2


def sojourn_lsts(kernel_or_evaluator, s: complex) -> np.ndarray:
    """Per-state sojourn-time transforms ``h*_i(s) = sum_j r*_ij(s)``."""
    evaluator = as_evaluator(kernel_or_evaluator)
    return evaluator.sojourn_lst(s)


def transient_transform_batch(
    kernel_or_evaluator,
    alpha: np.ndarray,
    targets,
    s_values,
    options: PassageTimeOptions | None = None,
    *,
    solver: str = "iterative",
    policy: SPointPolicy | None = None,
    report: dict | None = None,
) -> tuple[np.ndarray, list[ConvergenceDiagnostics]]:
    """Evaluate ``T*_{i->j}(s)``, the transform of ``P(Z(t) in j)``, over an s-grid.

    Parameters
    ----------
    alpha:
        Initial-state weighting (Eq. 5); a unit vector for a single source.
    targets:
        Target state set ``j``.
    solver:
        ``"iterative"`` runs the paper's row-form sum (with the
        :class:`SPointPolicy` routing hard points to sparse LU);
        ``"direct"`` solves ``(I - U(s)) x = w(s)`` by sparse LU at every
        point.

    The grid is processed in the same memory-bounded blocks, spans and
    solve-block records as :func:`~repro.smp.passage.passage_transform_batch`.
    Returns the values plus one :class:`ConvergenceDiagnostics` per s-point.
    """
    options = options or PassageTimeOptions()
    options = replace(options, epsilon=options.epsilon * RENEWAL_EPSILON_SCALE)
    evaluator = as_evaluator(kernel_or_evaluator)
    if solver not in ("iterative", "direct"):
        raise ValueError("solver must be 'iterative' or 'direct'")

    s_values = np.asarray(s_values, dtype=complex).ravel()
    if np.any(s_values == 0):
        raise ValueError("the transient transform has a pole at s = 0; use Re(s) > 0")

    n = evaluator.kernel.n_states
    alpha = _check_alpha(alpha, n)
    targets = np.flatnonzero(target_mask(n, targets))
    no_absorption = np.zeros(n, dtype=bool)

    policy = policy or SPointPolicy()
    engine = policy.resolve_engine(evaluator) if s_values.size else policy.engine
    # The direct solver materialises O(block · nnz) data whatever engine the
    # policy resolved, so its blocks must use the batch sizing — factored-
    # sized blocks would blow the memory budget on dense kernels.
    block = policy.block_points(evaluator, "batch" if solver == "direct" else engine)

    def solve_block(s_block):
        if engine == "factored":
            h = evaluator.factored().sojourn_lst_batch(s_block)
        else:
            h = evaluator.sojourn_lst_batch(s_block)
        values, diags = _passage_block(
            evaluator, engine, alpha, no_absorption, s_block, options, policy,
            targets=targets, weights=1.0 - h[:, targets], direct=solver == "direct",
        )
        return values / s_block, diags

    return _solve_grid(s_values, engine, block, report, solve_block)
