"""The iterative passage-time algorithm of Section 3 of the paper.

For a fixed transform argument ``s`` the first-passage-time transform from a
weighted set of source states into a target set ``j`` is the limit of the
r-transition quantities

    L^(r)(s) = (alpha U + alpha U U' + ... + alpha U U'^(r-1)) e        (Eq. 10)

where ``U`` has entries ``r*_pq(s)``, ``U'`` equals ``U`` with the target
states made absorbing and ``e`` indicates the target states.  The sum is
evaluated with sparse vector–matrix products and truncated once successive
terms fall below a tolerance in both real and imaginary parts (Eq. 11) —
``O(N^2 r)`` work in the worst case versus the ``O(N^3)`` of a direct solve.

:func:`passage_transform` accumulates the ``alpha``-weighted row vector
``v_{k+1} = v_k U'`` — one sparse vector–matrix product per transition,
however many target states there are.  The transient measure of
:mod:`repro.smp.transient` runs the same row form with no absorbing states
and a per-point weight vector read out in place of ``e``.

Batched evaluation
------------------
The batched entry points advance *all* s-points of an inversion grid through
one truncated sum, with a per-point active-set mask dropping converged points.
The grid is processed in **blocks** sized by :meth:`SPointPolicy.block_points`
so the per-block working set respects a configurable memory budget — a
165-point Euler grid streams through a million-state kernel instead of
materialising an ``O(n_s · nnz)`` data matrix.  Within a block, one of two
engines applies ``U'(s)`` to every live point per iteration:

* ``batch`` — per-s-point complex CSR data (either one block-diagonal sparse
  product for the whole block, or one sparse matvec per point once the
  block's state no longer fits cache),
* ``factored`` — the distribution-factored product of
  :mod:`repro.smp.factored`, whose per-iteration sparse work is independent
  of the number of points in flight.

Both engines run the *same* truncation rule through one shared driver, so
they agree with the scalar functions to float associativity; the
:class:`SPointPolicy` picks the engine, routes hard (small ``|s|``) points to
the sparse-LU direct solve and bounds block sizes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace

from .kernel import as_evaluator, target_mask

__all__ = [
    "PassageTimeOptions",
    "ConvergenceDiagnostics",
    "SPointPolicy",
    "passage_transform",
    "passage_transform_batch",
]


@dataclass(frozen=True)
class PassageTimeOptions:
    """Truncation controls for the iterative sum.

    Attributes
    ----------
    epsilon:
        Convergence threshold applied separately to the real and imaginary
        part of the change between successive iterates (Eq. 11).
    max_iterations:
        Hard cap on the number of transitions ``r``; exceeding it marks the
        result as unconverged rather than raising, so long-running sweeps can
        report partial diagnostics.
    consecutive:
        Number of consecutive below-threshold steps required before the sum
        is declared converged (guards against coincidentally tiny terms).
    """

    epsilon: float = 1e-8
    max_iterations: int = 100_000
    consecutive: int = 2

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.consecutive < 1:
            raise ValueError("consecutive must be >= 1")


@dataclass
class ConvergenceDiagnostics:
    """Outcome of one truncated iterative sum."""

    iterations: int
    converged: bool
    final_delta: float
    matvec_count: int = field(default=0)
    #: which solver produced the value: "iterative", "direct" (policy-routed)
    #: or "direct-fallback" (iterative hit the cap and was re-solved exactly)
    solver: str = field(default="iterative")
    #: number of sparse-LU solves spent on this value (fallback points keep
    #: their matvec_count too — they paid for both)
    direct_solves: int = field(default=0)
    #: which evaluation engine advanced the iterative sum ("batch" or
    #: "factored"; direct-routed points keep the block's engine label)
    engine: str = field(default="batch")

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.converged


@dataclass(frozen=True)
class SPointPolicy:
    """Evaluation policy: engine choice, memory budget and per-point routing.

    The iterative algorithm's per-step contraction is bounded by the maximum
    row sum ``rho(s)`` of ``|U'(s)|``, which tends to one as ``s -> 0`` — the
    rare-event regime of Fig. 6, where a single s-point can need thousands of
    matvecs.  Since the first term of the sum has 1-norm at most one, reaching
    the truncation threshold ``epsilon`` needs roughly
    ``log(epsilon) / log(rho)`` transitions; points whose prediction exceeds
    ``predicted_iteration_limit`` are handed to the direct solver instead,
    where they cost one LU factorisation regardless of ``|s|`` (and come back
    exact rather than truncated).

    Attributes
    ----------
    predicted_iteration_limit:
        Predicted-iteration count above which an s-point is routed to the
        direct solver.  Set to a huge value to force the pure iterative path.
    fallback_to_direct:
        Re-solve directly any point that the iterative sum fails to converge
        within ``max_iterations`` (rather than returning a truncated value).
    engine:
        ``"auto"`` picks per kernel (see :meth:`resolve_engine`); ``"batch"``
        or ``"factored"`` force one engine.
    max_block_bytes:
        Memory budget for one s-block's working set; the s-grid is processed
        in blocks of :meth:`block_points` points.
    factored_density_ratio:
        ``auto`` picks the factored engine when the kernel's fan-out measure
        ``nnz / (pairs + 2n)`` is at least this (see
        :meth:`FactoredUEvaluator.density_ratio
        <repro.smp.factored.FactoredUEvaluator.density_ratio>`).
    factored_max_distributions:
        ``auto`` never factors kernels with more distinct distributions than
        this (the per-distribution slices stop paying for themselves).
    direct_max_states:
        Kernels larger than this never route points to the sparse-LU solver
        (fill-in makes million-state factorisations slower than very long
        iterative sums); unconverged points then come back truncated with
        ``converged=False`` instead of falling back.
    blockdiag_max_bytes:
        The batch engine applies one block-diagonal product for the whole
        block while the block's state fits in roughly this many bytes;
        beyond it the per-point state no longer caches and one sparse matvec
        per point (a much smaller random-access window) is faster.
    watchdog_floor_seconds / watchdog_multiplier:
        Hung-worker detection for dispatched s-blocks: a block running longer
        than ``max(floor, multiplier * longest observed block)`` is declared
        hung, its pool is torn down and the unfinished blocks are
        resubmitted.  ``multiplier <= 0`` disables the watchdog.  These (and
        ``poison_after``) tune failure handling, not the arithmetic — they
        are excluded from ``repr`` so job digests (and therefore on-disk
        checkpoints) are insensitive to them.
    poison_after:
        A block implicated in this many consecutive pool breaks is declared
        poisonous and the run fails fast with a structured error naming it,
        instead of burning every retry on a deterministic crasher.
    """

    predicted_iteration_limit: int = 2000
    fallback_to_direct: bool = True
    engine: str = "auto"
    max_block_bytes: int = 1 << 30
    factored_density_ratio: float = 3.0
    factored_max_distributions: int = 64
    direct_max_states: int = 200_000
    blockdiag_max_bytes: int = 64 << 20
    watchdog_floor_seconds: float = field(default=30.0, repr=False)
    watchdog_multiplier: float = field(default=8.0, repr=False)
    poison_after: int = field(default=3, repr=False)

    def __post_init__(self):
        if self.predicted_iteration_limit < 1:
            raise ValueError("predicted_iteration_limit must be >= 1")
        if self.engine not in ("auto", "batch", "factored"):
            raise ValueError("engine must be 'auto', 'batch' or 'factored'")
        if self.max_block_bytes < 1 << 20:
            raise ValueError("max_block_bytes must be at least 1 MiB")
        if self.factored_density_ratio <= 0:
            raise ValueError("factored_density_ratio must be > 0")
        if self.factored_max_distributions < 1:
            raise ValueError("factored_max_distributions must be >= 1")
        if self.direct_max_states < 1:
            raise ValueError("direct_max_states must be >= 1")
        if self.blockdiag_max_bytes < 0:
            raise ValueError("blockdiag_max_bytes must be >= 0")
        if self.watchdog_floor_seconds <= 0:
            raise ValueError("watchdog_floor_seconds must be > 0")
        if self.poison_after < 1:
            raise ValueError("poison_after must be >= 1")

    # ------------------------------------------------------------- routing
    def predicted_iterations(self, epsilon: float, contraction: np.ndarray) -> np.ndarray:
        """Estimated iterations to reach ``epsilon`` given per-s contractions."""
        contraction = np.minimum(np.asarray(contraction, dtype=float), 1.0 - 1e-15)
        with np.errstate(divide="ignore"):
            log_rho = np.log(contraction)
        return np.where(log_rho < 0.0, np.log(epsilon) / log_rho, np.inf)

    def route_direct(self, epsilon: float, contraction: np.ndarray) -> np.ndarray:
        """Boolean mask of s-points that should use the direct solver."""
        return self.predicted_iterations(epsilon, contraction) > self.predicted_iteration_limit

    def allow_direct(self, evaluator) -> bool:
        """Whether the sparse-LU solver is on the table for this kernel."""
        return evaluator.kernel.n_states <= self.direct_max_states

    # -------------------------------------------------------------- engines
    def resolve_engine(self, evaluator) -> str:
        """The evaluation engine a batched solve on this kernel will use."""
        if self.engine != "auto":
            return self.engine
        kernel = evaluator.kernel
        if kernel.n_distributions > self.factored_max_distributions:
            return "batch"
        if evaluator.factored().density_ratio() >= self.factored_density_ratio:
            return "factored"
        return "batch"

    def block_points(self, evaluator, engine: str) -> int:
        """s-points per block so the block working set fits the budget.

        ``batch`` blocks materialise ``O(block · nnz)`` complex data (the
        ``U``/``U'`` data, their magnitudes and the iteration operator);
        ``factored`` blocks hold ``O(block · (pairs + n))`` dense state and
        never touch per-edge data.
        """
        kernel = evaluator.kernel
        if engine == "factored":
            pairs = evaluator.factored().row_pair_count
            per_point = 16 * (3 * pairs + 3 * kernel.n_states)
        else:
            per_point = 64 * kernel.n_transitions
        return max(1, int(self.max_block_bytes // max(per_point, 1)))

    def dispatch_block_points(
        self,
        evaluator,
        engine: str,
        n_points: int,
        workers: int,
    ) -> int:
        """s-points per *dispatched* block when farming a grid out to workers.

        The single code path for every parallel backend: the memory-budgeted
        :meth:`block_points` bound (a worker solves its block in one sweep),
        additionally capped so each worker sees several blocks — small grids
        still spread across the pool, and stragglers can be rebalanced.
        """
        workers = max(1, int(workers))
        spread_cap = max(1, -(-int(n_points) // (4 * workers)))
        return max(1, min(self.block_points(evaluator, engine), spread_cap))


def passage_transform(
    kernel_or_evaluator,
    alpha: np.ndarray,
    targets,
    s: complex,
    options: PassageTimeOptions | None = None,
) -> tuple[complex, ConvergenceDiagnostics]:
    """Evaluate ``L_{i->j}(s)`` for an ``alpha``-weighted source distribution.

    Parameters
    ----------
    kernel_or_evaluator:
        The SMP kernel (or a pre-built :class:`UEvaluator` when evaluating
        many s-points against the same kernel).
    alpha:
        Source weighting vector of Eq. (5); must sum to one.
    targets:
        Target state indices (the set ``j`` of the paper).
    s:
        Complex transform argument with ``Re(s) >= 0``.
    """
    options = options or PassageTimeOptions()
    evaluator = as_evaluator(kernel_or_evaluator)
    n = evaluator.kernel.n_states
    alpha = _check_alpha(alpha, n)
    mask = target_mask(n, targets)
    e = mask.astype(complex)

    U = evaluator.u(s)
    U_prime = evaluator.u_prime(s, mask)

    # Row accumulation: v_0 = alpha U,  v_{k+1} = v_k U',  L = sum_k v_k . e
    #
    # Convergence is judged on ||v_k||_1 rather than on the added term
    # |v_k . e| of Eq. (11): the row sums of |U'| never exceed one, so
    # ||v||_1 is monotonically non-increasing and bounds *every* future term.
    # This strengthens the paper's test — a structurally periodic model can
    # produce exactly-zero terms at some transition counts (no path of that
    # length reaches the target), which would otherwise trigger a premature
    # stop even though later terms are still significant.
    v = alpha @ U
    total = complex(v @ e)
    matvecs = 1
    below = 0
    delta = float(np.sum(np.abs(v)))
    for iteration in range(1, options.max_iterations + 1):
        v = v @ U_prime
        matvecs += 1
        total += complex(v @ e)
        delta = float(np.sum(np.abs(v)))
        if delta < options.epsilon:
            below += 1
            if below >= options.consecutive:
                return total, ConvergenceDiagnostics(
                    iterations=iteration,
                    converged=True,
                    final_delta=delta,
                    matvec_count=matvecs,
                )
        else:
            below = 0
    return total, ConvergenceDiagnostics(
        iterations=options.max_iterations,
        converged=False,
        final_delta=delta,
        matvec_count=matvecs,
    )


# ---------------------------------------------------------------------------
# Batched evaluation: blocked s-grid, engine-agnostic iteration drivers.
# ---------------------------------------------------------------------------


def _check_alpha(alpha, n: int) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (n,):
        raise ValueError("alpha must have one weight per state")
    if abs(alpha.sum() - 1.0) > 1e-6:
        raise ValueError("alpha must sum to 1")
    return alpha


class _BatchRowOperator:
    """Row-form stepper on per-s-point complex CSR data.

    While the block's live state (``live_points × n`` complex) fits in
    roughly ``blockdiag_max_bytes`` the whole block advances through one
    block-diagonal sparse product (amortising the per-matvec Python cost);
    beyond that each point advances through its own sparse matvec, whose
    random-access window is a single ``n``-vector.

    Each step's contribution is read out on ``targets`` (default: the
    absorbing states of ``mask``), summed plainly or, given ``weights``
    of shape ``(width, targets.size)``, weighted per point.
    """

    engine = "batch"

    def __init__(self, evaluator, s_block, mask, alpha, u_data, up_data, policy,
                 targets=None, weights=None):
        self.evaluator = evaluator
        self.n = evaluator.kernel.n_states
        self._targets = np.flatnonzero(mask) if targets is None else targets
        self._weights = weights
        self._alpha = alpha
        self._u_data = u_data
        self._up = up_data
        self.width = int(np.asarray(s_block).size)
        self._live = np.ones(self.width, dtype=bool)
        self._blockdiag_max = policy.blockdiag_max_bytes
        self._operator = None
        self._per_point = None

    def _ensure_operator(self) -> None:
        if self._operator is not None or self._per_point is not None:
            return
        if self.width * self.n * 16 <= self._blockdiag_max:
            self._operator = self.evaluator.block_diag_matrix(self._up)
        else:
            indptr, indices = self.evaluator._indptr, self.evaluator._indices
            shape = (self.n, self.n)
            # csr(data_t).T is a CSC view sharing the data row: one matvec
            # computes v @ U'(s_t) without building a transposed structure.
            self._per_point = [
                sparse.csr_matrix((self._up[t], indices, indptr), shape=shape).T
                for t in range(self.width)
            ]

    def start(self) -> None:
        self.V = self.evaluator.alpha_vec_matrix_batch(self._alpha, self._u_data)

    def step(self) -> None:
        self._ensure_operator()
        if self._operator is not None:
            self.V = (self._operator @ self.V.ravel()).reshape(self.width, self.n)
        else:
            # Converged points are exactly zero: skip their matvecs.
            for t in np.flatnonzero(self._live):
                self.V[t] = self._per_point[t] @ self.V[t]

    def target_totals(self) -> np.ndarray:
        picked = self.V[:, self._targets]
        if self._weights is None:
            return picked.sum(axis=1)
        return (picked * self._weights).sum(axis=1)

    def abs_sums(self) -> np.ndarray:
        return np.abs(self.V).sum(axis=1)

    def zero_points(self, positions: np.ndarray) -> None:
        self.V[positions] = 0.0
        self._live[positions] = False

    def shrink(self, live: np.ndarray) -> None:
        self._up = self._up[live]
        self.V = self.V[live]
        if self._weights is not None:
            self._weights = self._weights[live]
        self.width = int(live.sum())
        self._live = np.ones(self.width, dtype=bool)
        self._operator = None
        self._per_point = None


def _drive_row(op, options: PassageTimeOptions):
    """Advance a row-form block to convergence; shared by both engines.

    Returns ``(values, iterations, deltas, converged)`` indexed by the
    block's original point positions.  Converged points are snapshotted and
    their state zeroed (numerically inert thereafter); the operator shrinks
    onto the surviving points whenever the live set halves, so total work
    stays within 2x of the per-point optimum.
    """
    width = op.width
    values = np.empty(width, dtype=complex)
    iterations = np.full(width, options.max_iterations, dtype=np.int64)
    deltas = np.zeros(width)
    converged = np.zeros(width, dtype=bool)
    pos_map = np.arange(width)

    op.start()
    totals = op.target_totals()
    below = np.zeros(op.width, dtype=np.int64)
    delta = op.abs_sums()
    live = np.ones(op.width, dtype=bool)
    for iteration in range(1, options.max_iterations + 1):
        op.step()
        totals = totals + op.target_totals()
        delta = op.abs_sums()
        below = np.where(delta < options.epsilon, below + 1, 0)
        done = live & (below >= options.consecutive)
        if done.any():
            for pos in np.flatnonzero(done):
                orig = pos_map[pos]
                values[orig] = totals[pos]
                iterations[orig] = iteration
                deltas[orig] = float(delta[pos])
                converged[orig] = True
            live &= ~done
            n_live = int(live.sum())
            if n_live == 0:
                break
            op.zero_points(np.flatnonzero(done))
            if n_live <= op.width // 2:
                keep = np.flatnonzero(live)
                op.shrink(live)
                totals = totals[keep]
                below = below[keep]
                delta = delta[keep]
                pos_map = pos_map[keep]
                live = np.ones(op.width, dtype=bool)
    if live.any():
        for pos in np.flatnonzero(live):
            orig = pos_map[pos]
            values[orig] = totals[pos]
            deltas[orig] = float(delta[pos])
    return values, iterations, deltas, converged


def _block_bounds(n_s: int, block: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + block, n_s)) for lo in range(0, n_s, block)]


def _note_block(report, *, points, seconds, diags, engine) -> None:
    iterations = int(sum(d.iterations for d in diags))
    direct_solves = int(sum(d.direct_solves for d in diags))
    # Points returned truncated (no convergence, no direct fallback —
    # e.g. kernels above direct_max_states): downstream stats must be
    # able to see that the values are approximations.
    unconverged = int(sum(not d.converged for d in diags))
    _obs_metrics.note_solve_block(
        points=int(points),
        seconds=seconds,
        iterations=iterations,
        direct_solves=direct_solves,
        unconverged=unconverged,
        iteration_counts=[int(d.iterations) for d in diags],
        engine=engine,
    )
    if report is None:
        return
    report.setdefault("blocks", []).append(
        {
            "points": int(points),
            "seconds": round(seconds, 6),
            "iterations": iterations,
            "direct_solves": direct_solves,
            "unconverged": unconverged,
        }
    )


def passage_transform_batch(
    kernel_or_evaluator,
    alpha: np.ndarray,
    targets,
    s_values,
    options: PassageTimeOptions | None = None,
    *,
    policy: SPointPolicy | None = None,
    report: dict | None = None,
) -> tuple[np.ndarray, list[ConvergenceDiagnostics]]:
    """Evaluate ``L_{i->j}(s)`` at every point of an s-grid in one sweep.

    Semantically equivalent to calling :func:`passage_transform` per point
    (same truncation rule, so iteratively-solved points match the scalar path
    bit-for-bit up to float associativity), but the whole grid shares each
    transform evaluation of the underlying distributions and each iteration's
    sparse products, processed in memory-bounded blocks.  Points that the
    :class:`SPointPolicy` predicts to need too many iterations — the
    small-``|s|`` rare-event regime — are solved with the sparse-LU direct
    method instead and come back exact.

    Returns the values as an ``(n_s,)`` array plus one
    :class:`ConvergenceDiagnostics` per s-point (in input order).  When a
    ``report`` dict is supplied it is filled with the engine used and
    per-block solve timings.
    """
    options = options or PassageTimeOptions()
    policy = policy or SPointPolicy()
    evaluator = as_evaluator(kernel_or_evaluator)
    n = evaluator.kernel.n_states
    alpha = _check_alpha(alpha, n)
    mask = target_mask(n, targets)
    s_values = np.asarray(s_values, dtype=complex).ravel()
    engine = policy.resolve_engine(evaluator) if s_values.size else policy.engine
    return _solve_grid(
        s_values, engine, policy.block_points(evaluator, engine), report,
        lambda s_block: _passage_block(
            evaluator, engine, alpha, mask, s_block, options, policy
        ),
    )


def _solve_grid(s_values, engine, block, report, solve_block):
    """Run ``solve_block`` over memory-bounded blocks of an s-grid.

    The one blocked driver of both measures: each block gets an
    ``s-block-solve`` span and one engine-labelled solve-block record.
    """
    n_s = s_values.size
    values = np.empty(n_s, dtype=complex)
    diags: list[ConvergenceDiagnostics | None] = [None] * n_s
    if report is not None:
        report["engine"] = engine
        report.setdefault("blocks", [])
    for lo, hi in _block_bounds(n_s, block):
        started = time.perf_counter()
        with _obs_trace.span("s-block-solve", points=hi - lo, engine=engine):
            block_values, block_diags = solve_block(s_values[lo:hi])
        values[lo:hi] = block_values
        diags[lo:hi] = block_diags
        _note_block(
            report, points=hi - lo, seconds=time.perf_counter() - started,
            diags=block_diags, engine=engine,
        )
    return values, diags


def _passage_block(evaluator, engine, alpha, mask, s_block, options, policy,
                   *, targets=None, weights=None, direct=False):
    """One memory-bounded block of the row-form batched computation.

    ``mask`` marks the absorbing states of ``U'``.  Without ``weights`` each
    point's value is the passage transform ``sum_k alpha U U'^k e`` of the
    target set ``mask``.  With ``weights`` (``(n_s, targets.size)``, zero
    outside ``targets``) and an empty ``mask`` it is
    ``alpha (I - U)^{-1} w_t = alpha . w_t + sum_k alpha U U^k w_t``, the
    transient transform's renewal form before its ``1/s``.  Policy-routed
    points, iteration-cap fallbacks and every point under ``direct=True``
    are solved by sparse LU instead.
    """
    from .linear import passage_transform_direct_batch

    n_s = s_block.size
    values = np.empty(n_s, dtype=complex)
    diags: list[ConvergenceDiagnostics | None] = [None] * n_s
    if targets is None:
        targets = np.flatnonzero(mask)

    u_data = up_data = None
    if engine != "factored":
        u_data = evaluator.u_data_batch(s_block)
    if direct:
        direct_mask = np.ones(n_s, dtype=bool)
    else:
        if engine == "factored":
            contraction = evaluator.factored().contraction(s_block, mask)
        else:
            up_data = evaluator.u_prime_data_batch(s_block, mask) if mask.any() else u_data
            contraction = evaluator.row_abs_sums(up_data).max(axis=1)
        if policy.allow_direct(evaluator):
            direct_mask = policy.route_direct(options.epsilon, contraction)
        else:
            direct_mask = np.zeros(n_s, dtype=bool)
    direct_idx = np.flatnonzero(direct_mask)
    iter_idx = np.flatnonzero(~direct_mask)

    def _solve_direct(indices, solver_label, iterations, matvecs):
        u_rows = u_data[indices] if u_data is not None else None
        rhs = None
        if weights is not None:
            rhs = np.zeros((indices.size, mask.size), dtype=complex)
            rhs[:, targets] = weights[indices]
        vecs = passage_transform_direct_batch(
            evaluator, np.flatnonzero(mask), s_block[indices], u_data=u_rows, rhs=rhs
        )
        values[indices] = vecs @ alpha
        for idx in indices:
            diags[idx] = ConvergenceDiagnostics(
                iterations=iterations,
                converged=True,
                final_delta=0.0,
                matvec_count=matvecs,
                solver=solver_label,
                direct_solves=1,
                engine=engine,
            )

    if direct_idx.size:
        _solve_direct(direct_idx, "direct", 0, 0)

    if iter_idx.size:
        s_iter = s_block[iter_idx]
        w_iter = None if weights is None else weights[iter_idx]
        if engine == "factored":
            from .factored import FactoredRowOperator

            op = FactoredRowOperator(
                evaluator.factored(), s_iter, mask, alpha, targets, w_iter
            )
        else:
            op = _BatchRowOperator(
                evaluator, s_iter, mask, alpha,
                u_data[iter_idx], up_data[iter_idx], policy, targets, w_iter,
            )
        iter_values, iterations, deltas, conv = _drive_row(op, options)
        if w_iter is not None:
            iter_values += w_iter @ alpha[targets]  # the k = 0 term alpha . w_t
        do_fallback = (
            not conv.all()
            and policy.fallback_to_direct
            and policy.allow_direct(evaluator)
        )
        retried = ~conv if do_fallback else np.zeros(iter_idx.size, dtype=bool)
        for pos in range(iter_idx.size):
            if retried[pos]:
                continue
            idx = int(iter_idx[pos])
            values[idx] = iter_values[pos]
            diags[idx] = ConvergenceDiagnostics(
                iterations=int(iterations[pos]),
                converged=bool(conv[pos]),
                final_delta=float(deltas[pos]),
                matvec_count=int(iterations[pos]) + 1,
                engine=engine,
            )
        if retried.any():
            _solve_direct(
                iter_idx[retried], "direct-fallback",
                options.max_iterations, options.max_iterations + 1,
            )
    return values, diags
