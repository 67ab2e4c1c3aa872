"""Distribution-factored multi-s transform engine.

Every kernel entry is ``u_pq(s) = p_pq · h*_d(s)`` where ``d`` indexes one of
a handful of *distinct* sojourn distributions (a million-edge voting kernel
carries ~10).  Grouping transitions by distribution therefore factors the
kernel into real, s-independent CSR slices

    U(s) @ x  =  Σ_d  lst_d(s) ⊙ (P_d @ x)

so one block of s-points advances through sparse products whose *data* is
streamed once per iteration — independent of how many s-points are in
flight — while the s-dependence lives in an ``(n_s, n_dists)`` table of
distribution transforms.  Peak memory is ``O(nnz + n_s·n)`` instead of the
``O(n_s·nnz)`` of the batched data materialisation.

Concretely the row-form product ``v ← v @ U'(s)`` reduces to a *pair
expansion*: group edges by ``(distribution, source)`` pair::

    expV[(d, i), t] = v[i, t] · lst_d(s_t)          (gather + scale)
    out[j, t]       = Σ_{e=(i,j,d)} p_e · expV[(d, i), t]     (one real SpMM)

The gather/scale works on a packed real block ``(n, 2k)`` ([Re | Im]
halves), the sparse product is one real CSR×dense multiply accumulated in
C by scipy's ``csr_matvecs``, and target-absorbing ``U'`` drops the pairs
whose source is a target state (zeroing rows of ``U`` equals zeroing the
corresponding components of ``v`` before the product).

When this engine wins — and when it does not
--------------------------------------------
Per iteration the factored product streams ``O(nnz)`` sparse data plus a
dense working set proportional to ``(pairs + 2n) · n_s``; the batched
block-diagonal product streams ``O(n_s · nnz)`` complex data.  The factored
engine therefore dominates when the kernel has high fan-out relative to its
pair count (``nnz >> pairs + 2n``, e.g. service pools where every state can
hand off to many successors drawn from few distributions) and it is the
only engine whose *memory* allows very wide s-blocks on very large kernels.
On low fan-out kernels (``nnz ≈ pairs + 2n``, e.g. the voting net with
average degree ~5) the dense gather/scale touches as many bytes as the
batched product streams, so :class:`~repro.smp.passage.SPointPolicy` routes
those to the batched engine instead and bounds its block size.  See
``scripts/bench_passage.py`` for the measured crossover.
"""
from __future__ import annotations

from collections import OrderedDict

import numpy as np
from scipy import sparse

__all__ = ["FactoredUEvaluator"]

try:  # scipy's C kernel accumulates `out += A @ B` without temporaries.
    from scipy.sparse import _sparsetools

    def _spmm_accumulate(matrix: sparse.csr_matrix, block: np.ndarray, out: np.ndarray) -> None:
        n_row, n_col = matrix.shape
        _sparsetools.csr_matvecs(
            n_row, n_col, block.shape[1],
            matrix.indptr, matrix.indices, matrix.data,
            block.ravel(), out.ravel(),
        )
except Exception:  # pragma: no cover - exercised only on exotic scipy builds

    def _spmm_accumulate(matrix, block, out):
        out += matrix @ block


class _RowStructure:
    """s-independent row-form expansion for one target mask.

    ``B`` maps expanded ``(dist, source)`` pairs to destination states:
    ``B[j, pair(e)] = p_e``; pairs whose source is absorbing are dropped
    (zeroing rows of ``U`` equals zeroing those components of ``v``, so the
    structure *is* the target-absorbing ``U'``).
    """

    __slots__ = ("pair_src", "pair_dist", "matrix", "n_pairs")

    def __init__(self, factored: "FactoredUEvaluator", target_mask: np.ndarray):
        pair_src, pair_dist, pair_of_edge = factored._row_pairs()
        evaluator = factored.evaluator
        probs, cols = evaluator._csr_probs, evaluator._indices
        n = factored.kernel.n_states
        keep = ~target_mask[pair_src]
        kept = np.flatnonzero(keep)
        self.pair_src = pair_src[kept]
        self.pair_dist = pair_dist[kept]
        n_pairs = kept.size
        remap = np.full(pair_src.size, -1, dtype=np.int64)
        remap[kept] = np.arange(n_pairs)
        keep_edges = keep[pair_of_edge]
        pair_column = remap[pair_of_edge[keep_edges]]
        self.n_pairs = int(n_pairs)
        self.matrix = sparse.csr_matrix(
            (probs[keep_edges], (cols[keep_edges], pair_column)), shape=(n, n_pairs)
        )
        self.matrix.sort_indices()


# Kept for perfbench/pool.py, whose pool-factored set-up calls col_structure().
class _ColStructure:
    """s-independent column-form expansion (``(dist, destination)`` pairs)."""

    __slots__ = ("pair_dst", "pair_dist", "matrix", "n_pairs")

    def __init__(self, factored: "FactoredUEvaluator"):
        evaluator = factored.evaluator
        n = factored.kernel.n_states
        dist_index = evaluator._csr_dist_index
        dst = evaluator._indices
        keys = dist_index * np.int64(n) + dst
        unique_keys, pair_of_edge = np.unique(keys, return_inverse=True)
        self.pair_dist = (unique_keys // n).astype(np.int64)
        self.pair_dst = (unique_keys % n).astype(np.int64)
        self.n_pairs = int(unique_keys.size)
        self.matrix = sparse.csr_matrix(
            (evaluator._csr_probs, (evaluator._csr_rows, pair_of_edge)),
            shape=(n, self.n_pairs),
        )
        self.matrix.sort_indices()


class FactoredUEvaluator:
    """Distribution-factored products for a kernel's :class:`UEvaluator`.

    Obtain via :meth:`repro.smp.kernel.UEvaluator.factored`, which caches
    one instance per evaluator so the pair decompositions are paid once per
    kernel.  All structures are built lazily: constructing the object costs
    nothing until a factored product is requested.
    """

    #: how many target-mask row structures to keep (a serving workload
    #: alternates between a few measures per kernel)
    _STRUCTURE_CACHE = 4

    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.kernel = evaluator.kernel
        self._row_pair_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._row_pair_count: int | None = None
        self._row_structures: "OrderedDict[bytes, _RowStructure]" = OrderedDict()
        self._col_structure: _ColStructure | None = None
        self._dist_row_sums: np.ndarray | None = None

    # -------------------------------------------------------------- identity
    @property
    def n_distributions(self) -> int:
        return self.kernel.n_distributions

    @property
    def row_pair_count(self) -> int:
        """Number of distinct ``(distribution, source)`` pairs.

        Computed without retaining the nnz-sized edge→pair mapping: the
        engine-selection policy asks this on *every* kernel, including ones
        it then routes to the batch engine, which must not pin per-edge
        arrays for an engine they never use.
        """
        if self._row_pair_count is None:
            if self._row_pair_cache is not None:
                self._row_pair_count = int(self._row_pair_cache[0].size)
            else:
                evaluator = self.evaluator
                keys = (
                    evaluator._csr_dist_index * np.int64(self.kernel.n_states)
                    + evaluator._csr_rows
                )
                self._row_pair_count = int(np.unique(keys).size)
        return self._row_pair_count

    def prewarm(self) -> None:
        """Build the target-independent structures ahead of the first solve.

        Called by the service registry for kernels the policy routes to this
        engine, so queries never pay the pair decomposition.
        """
        from repro.obs import trace as _obs_trace

        with _obs_trace.span(
            "factored-prewarm",
            n_states=int(self.kernel.n_states),
            n_distributions=int(self.n_distributions),
        ):
            self._row_pairs()
            self.dist_row_sums()

    def density_ratio(self) -> float:
        """``nnz / (pairs + 2n)`` — the fan-out measure the policy routes on.

        The factored per-iteration dense working set is proportional to
        ``pairs + 2n`` while the batched engine streams ``nnz`` complex
        entries per s-point, so this ratio approximates the per-iteration
        bandwidth advantage of the factored product.
        """
        return self.kernel.n_transitions / float(
            self.row_pair_count + 2 * self.kernel.n_states
        )

    # ----------------------------------------------------- shared structures
    def _row_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._row_pair_cache is None:
            evaluator = self.evaluator
            n = self.kernel.n_states
            keys = evaluator._csr_dist_index * np.int64(n) + evaluator._csr_rows
            unique_keys, pair_of_edge = np.unique(keys, return_inverse=True)
            self._row_pair_cache = (
                (unique_keys % n).astype(np.int64),
                (unique_keys // n).astype(np.int64),
                pair_of_edge,
            )
            self._row_pair_count = int(unique_keys.size)
        src, dist, edge = self._row_pair_cache
        return src, dist, edge

    def row_structure(self, target_mask: np.ndarray) -> _RowStructure:
        key = np.asarray(target_mask, dtype=bool).tobytes()
        hit = self._row_structures.get(key)
        if hit is not None:
            self._row_structures.move_to_end(key)
            return hit
        structure = _RowStructure(self, target_mask)
        self._row_structures[key] = structure
        while len(self._row_structures) > self._STRUCTURE_CACHE:
            self._row_structures.popitem(last=False)
        return structure

    def col_structure(self) -> _ColStructure:
        if self._col_structure is None:
            self._col_structure = _ColStructure(self)
        return self._col_structure

    def dist_row_sums(self) -> np.ndarray:
        """``R[d, i] = Σ_j p_ij`` over transitions of distribution ``d``."""
        if self._dist_row_sums is None:
            evaluator = self.evaluator
            R = np.zeros((self.n_distributions, self.kernel.n_states))
            np.add.at(
                R,
                (evaluator._csr_dist_index, evaluator._csr_rows),
                evaluator._csr_probs,
            )
            self._dist_row_sums = R
        return self._dist_row_sums

    # ------------------------------------------------------------- transforms
    def lst_grid(self, s_values) -> np.ndarray:
        """``(n_s, n_dists)`` table of distribution transforms over the grid."""
        s_values = np.asarray(s_values, dtype=complex).ravel()
        table = np.empty((s_values.size, self.n_distributions), dtype=complex)
        for d, dist in enumerate(self.kernel.distributions):
            table[:, d] = dist.lst_batch(s_values)
        return table

    def contraction(
        self, s_values, target_mask: np.ndarray | None, *, chunk: int = 65536
    ) -> np.ndarray:
        """``max_i Σ_j |u'_ij(s)|`` per s-point, without touching nnz-sized data.

        ``|u_ij(s)| = p_ij |lst_d(s)|``, so the row sums of ``|U(s)|`` are
        ``|L| @ R`` — an ``(n_s, n_dists) × (n_dists, n)`` product evaluated
        in state chunks to keep the intermediate bounded.
        """
        abs_lst = np.abs(self.lst_grid(s_values))
        R = self.dist_row_sums()
        n = self.kernel.n_states
        best = np.zeros(abs_lst.shape[0])
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            rows = abs_lst @ R[:, lo:hi]
            if target_mask is not None and target_mask[lo:hi].any():
                rows[:, target_mask[lo:hi]] = 0.0
            if rows.size:
                np.maximum(best, rows.max(axis=1), out=best)
        return best

    def sojourn_lst_batch(self, s_values) -> np.ndarray:
        """``(n_s, n_states)`` sojourn transforms ``h*_i(s) = Σ_d lst_d(s) R[d,i]``."""
        return self.lst_grid(s_values) @ self.dist_row_sums()

    def alpha_dist_matrix(self, alpha: np.ndarray) -> np.ndarray:
        """``A[d, j] = Σ_e α_src(e) p_e`` over edges of distribution ``d``.

        ``α @ U(s) = L(s,:) @ A`` — the factored form of the batched
        ``alpha_vec_matrix_batch`` start vector.
        """
        evaluator = self.evaluator
        alpha = np.asarray(alpha, dtype=complex)
        weights = alpha[evaluator._csr_rows]
        selected = np.flatnonzero(weights != 0)
        A = np.zeros((self.n_distributions, self.kernel.n_states), dtype=complex)
        np.add.at(
            A,
            (evaluator._csr_dist_index[selected], evaluator._indices[selected]),
            weights[selected] * evaluator._csr_probs[selected],
        )
        return A


# ---------------------------------------------------------------------------
# Block operators: the per-s-block stepping objects the iteration driver in
# repro.smp.passage drives.  State is a packed real block (rows, 2k) whose
# first k columns are real parts and last k imaginary parts.
# ---------------------------------------------------------------------------


def _pack(real_block: np.ndarray, imag_block: np.ndarray) -> np.ndarray:
    n, k = real_block.shape
    packed = np.empty((n, 2 * k))
    packed[:, :k] = real_block
    packed[:, k:] = imag_block
    return packed


def _scale_pairs(
    gathered: np.ndarray, d_re: np.ndarray, d_im: np.ndarray, out: np.ndarray, k: int
) -> None:
    """``out = gathered · D`` complex multiply on packed planar blocks."""
    g_re = gathered[:, :k]
    g_im = gathered[:, k:]
    np.multiply(g_re, d_re, out=out[:, :k])
    out[:, :k] -= g_im * d_im
    np.multiply(g_re, d_im, out=out[:, k:])
    out[:, k:] += g_im * d_re


class FactoredRowOperator:
    """Row-form stepper: ``v ← (v ⊙ non-target) @ U(s_t)`` for a whole block.

    Each step's contribution is read out on ``targets`` (default: the
    absorbing states of ``target_mask``), summed plainly or, given
    ``weights`` of shape ``(width, targets.size)``, weighted per point.
    """

    engine = "factored"

    def __init__(self, factored, s_block, target_mask, alpha, targets=None, weights=None):
        self.factored = factored
        self.n = factored.kernel.n_states
        self.targets = np.flatnonzero(target_mask) if targets is None else targets
        self._weights = weights
        self.structure = factored.row_structure(target_mask)
        self.lst = factored.lst_grid(s_block)  # (k, D)
        self.width = int(np.asarray(s_block).size)
        self._alpha = np.asarray(alpha)
        pair_dist = self.structure.pair_dist
        self._d_re = np.ascontiguousarray(self.lst.real[:, pair_dist].T)
        self._d_im = np.ascontiguousarray(self.lst.imag[:, pair_dist].T)
        self._state: np.ndarray | None = None
        self._scratch = np.empty((self.structure.n_pairs, 2 * self.width))
        self._out = np.empty((self.n, 2 * self.width))

    def start(self) -> None:
        """``v0 = α @ U(s_t)`` for every point of the block."""
        v0 = self.lst @ self.factored.alpha_dist_matrix(self._alpha)
        self._state = _pack(
            np.ascontiguousarray(v0.real.T), np.ascontiguousarray(v0.imag.T)
        )

    def step(self) -> None:
        k = self.width
        gathered = self._state[self.structure.pair_src]
        _scale_pairs(gathered, self._d_re, self._d_im, self._scratch, k)
        self._out[:] = 0.0
        _spmm_accumulate(self.structure.matrix, self._scratch, self._out)
        self._state, self._out = self._out, self._state

    def target_totals(self) -> np.ndarray:
        k = self.width
        picked = self._state[self.targets]
        if self._weights is None:
            sums = picked.sum(axis=0)
            return sums[:k] + 1j * sums[k:]
        return ((picked[:, :k] + 1j * picked[:, k:]) * self._weights.T).sum(axis=0)

    def abs_sums(self) -> np.ndarray:
        k = self.width
        return np.hypot(self._state[:, :k], self._state[:, k:]).sum(axis=0)

    def zero_points(self, positions: np.ndarray) -> None:
        self._state[:, positions] = 0.0
        self._state[:, self.width + positions] = 0.0

    def shrink(self, live: np.ndarray) -> None:
        keep = np.flatnonzero(live)
        k = self.width
        self._state = np.ascontiguousarray(
            self._state[:, np.concatenate((keep, k + keep))]
        )
        self.lst = self.lst[keep]
        if self._weights is not None:
            self._weights = self._weights[keep]
        pair_dist = self.structure.pair_dist
        self._d_re = np.ascontiguousarray(self.lst.real[:, pair_dist].T)
        self._d_im = np.ascontiguousarray(self.lst.imag[:, pair_dist].T)
        self.width = keep.size
        self._scratch = np.empty((self.structure.n_pairs, 2 * self.width))
        self._out = np.empty((self.n, 2 * self.width))
