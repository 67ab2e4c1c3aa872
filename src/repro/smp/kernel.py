"""Sparse representation of a semi-Markov kernel.

The time-homogeneous SMP kernel is ``R(i, j, t) = p_ij H_ij(t)`` (Section 2.1
of the paper): a one-step transition probability matrix ``P = [p_ij]`` plus a
sojourn-time distribution ``H_ij`` attached to every transition.  The
Laplace–Stieltjes transform of the kernel, ``r*_ij(s) = p_ij H*_ij(s)``, is
exactly the matrix ``U`` of the iterative algorithm (Eq. 9).

The kernel stores transitions in coordinate form with an index into a list of
*unique* distribution objects, so evaluating ``U(s)`` costs one transform
evaluation per distinct distribution (not per transition) plus a single data
fill of a pre-assembled CSR structure.
"""
from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from ..distributions import Distribution
from ..utils.validation import check_probability_vector, require

__all__ = [
    "SMPKernel",
    "UEvaluator",
    "as_evaluator",
    "kernel_content_digest",
    "target_mask",
]


def kernel_content_digest(kernel: "SMPKernel") -> str:
    """A stable content hash of the kernel's structure and distributions.

    Memoised on the kernel object: a long-lived analysis service re-digests
    the same kernel on every query, and the arrays are immutable after build.
    Kernels reconstructed from a shared-memory plane carry the original
    digest forward (their edge columns are in CSR order, so re-hashing would
    produce a different — but equivalent — value).
    """
    cached = getattr(kernel, "_content_digest", None)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    h.update(np.int64(kernel.n_states).tobytes())
    h.update(kernel.src.tobytes())
    h.update(kernel.dst.tobytes())
    h.update(kernel.probs.tobytes())
    h.update(kernel.dist_index.tobytes())
    for dist in kernel.distributions:
        h.update(repr(dist._key()).encode())
    digest = h.hexdigest()
    kernel._content_digest = digest
    return digest


def as_evaluator(kernel_or_evaluator) -> "UEvaluator":
    """Coerce an :class:`SMPKernel` or :class:`UEvaluator` to an evaluator."""
    if isinstance(kernel_or_evaluator, UEvaluator):
        return kernel_or_evaluator
    if isinstance(kernel_or_evaluator, SMPKernel):
        return kernel_or_evaluator.evaluator()
    raise TypeError("expected an SMPKernel or UEvaluator")


def target_mask(n_states: int, targets) -> np.ndarray:
    """Validated boolean mask over states for a target index set."""
    targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    if targets.size == 0:
        raise ValueError("at least one target state is required")
    if targets.min() < 0 or targets.max() >= n_states:
        raise ValueError("target state index out of range")
    mask = np.zeros(n_states, dtype=bool)
    mask[targets] = True
    return mask


class SMPKernel:
    """An immutable semi-Markov process kernel over states ``0 .. n_states-1``.

    Construct instances with :class:`repro.smp.SMPBuilder` (or the
    lower-level :meth:`from_arrays`).
    """

    def __init__(
        self,
        n_states: int,
        src: np.ndarray,
        dst: np.ndarray,
        probs: np.ndarray,
        dist_index: np.ndarray,
        distributions: Sequence[Distribution],
        state_names: Sequence[str] | None = None,
        *,
        row_sum_tolerance: float = 1e-8,
    ):
        require(n_states > 0, "an SMP kernel needs at least one state")
        self.n_states = int(n_states)
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.probs = np.asarray(probs, dtype=float)
        self.dist_index = np.asarray(dist_index, dtype=np.int64)
        self.distributions = list(distributions)
        if not (
            self.src.shape == self.dst.shape == self.probs.shape == self.dist_index.shape
        ):
            raise ValueError("src, dst, probs and dist_index must have identical shapes")
        if self.src.size == 0:
            raise ValueError("an SMP kernel needs at least one transition")
        if self.src.min() < 0 or self.src.max() >= self.n_states:
            raise ValueError("transition source index out of range")
        if self.dst.min() < 0 or self.dst.max() >= self.n_states:
            raise ValueError("transition destination index out of range")
        if np.any(self.probs < 0) or np.any(~np.isfinite(self.probs)):
            raise ValueError("transition probabilities must be finite and non-negative")
        if self.dist_index.min() < 0 or self.dist_index.max() >= len(self.distributions):
            raise ValueError("distribution index out of range")
        for d in self.distributions:
            if not isinstance(d, Distribution):
                raise TypeError(f"expected Distribution, got {type(d).__name__}")

        # Names materialise lazily via the state_names property: a
        # million-state kernel should not pay for a million name strings it
        # may never print.  ``state_names`` may be a sequence or a zero-arg
        # callable producing one (the factory form the array-backed state
        # space uses to defer marking-string generation).
        self._state_names: list[str] | None = None
        self._state_names_factory = None
        if callable(state_names):
            self._state_names_factory = state_names
        elif state_names is not None:
            state_names = list(state_names)
            require(
                len(state_names) == self.n_states,
                "state_names must have one entry per state",
            )
            self._state_names = [str(s) for s in state_names]

        # Pre-assemble the sparse structure shared by P, U(s) and U'(s).
        self._structure = sparse.csr_matrix(
            (np.arange(1, self.src.size + 1, dtype=float), (self.src, self.dst)),
            shape=(self.n_states, self.n_states),
        )
        if self._structure.nnz != self.src.size:
            raise ValueError(
                "duplicate transitions detected: combine parallel transitions into a "
                "single (probability, Mixture) pair before building the kernel"
            )
        # Permutation mapping COO transition order -> CSR data order.
        self._coo_to_csr = np.asarray(self._structure.data, dtype=np.int64) - 1

        row_sums = np.bincount(self.src, weights=self.probs, minlength=self.n_states)
        dangling = np.where(row_sums < row_sum_tolerance)[0]
        if dangling.size:
            raise ValueError(
                f"states without outgoing probability mass: {dangling[:10].tolist()} — "
                "every state of a finite irreducible SMP needs at least one transition"
            )
        if np.any(np.abs(row_sums - 1.0) > row_sum_tolerance):
            worst = int(np.argmax(np.abs(row_sums - 1.0)))
            raise ValueError(
                "transition probabilities of each state must sum to 1 "
                f"(state {worst} sums to {row_sums[worst]:.12g})"
            )

    # ------------------------------------------------------------- factory
    @classmethod
    def from_arrays(
        cls,
        n_states: int,
        transitions: Iterable[tuple[int, int, float, Distribution]],
        state_names: Sequence[str] | None = None,
    ) -> "SMPKernel":
        """Build a kernel from ``(src, dst, probability, distribution)`` tuples."""
        src, dst, probs, dist_idx = [], [], [], []
        dists: list[Distribution] = []
        index_of: dict[Distribution, int] = {}
        for i, j, p, d in transitions:
            src.append(i)
            dst.append(j)
            probs.append(p)
            if d not in index_of:
                index_of[d] = len(dists)
                dists.append(d)
            dist_idx.append(index_of[d])
        return cls(n_states, np.asarray(src), np.asarray(dst), np.asarray(probs),
                   np.asarray(dist_idx), dists, state_names)

    @classmethod
    def from_columns(
        cls,
        n_states: int,
        src: np.ndarray,
        dst: np.ndarray,
        probs: np.ndarray,
        dist_index: np.ndarray,
        distributions: Sequence[Distribution],
        state_names: Sequence[str] | None = None,
        *,
        normalise: bool = False,
    ) -> "SMPKernel":
        """Build a kernel straight from edge columns (structure-of-arrays).

        The zero-copy handoff from the array-backed state space: when no two
        edges share a ``(src, dst)`` pair the columns are adopted as-is — no
        per-edge Python objects, no :class:`SMPBuilder` dict merging.  Parallel
        edges keep the builder's merge semantics via grouped reduction:
        probabilities sum, sojourns combine into a probability-weighted
        :class:`~repro.distributions.Mixture` in edge order.

        ``normalise`` rescales each state's outgoing probabilities to sum to
        one (the truncated-graph convention of ``SMPBuilder.build``).
        """
        from ..distributions import Mixture

        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        probs = np.asarray(probs, dtype=float)
        dist_index = np.asarray(dist_index, dtype=np.int64)
        if np.any(probs < 0) or np.any(~np.isfinite(probs)):
            raise ValueError("transition probabilities must be finite and non-negative")
        positive = probs > 0.0
        if not positive.all():
            src, dst, probs, dist_index = (
                src[positive], dst[positive], probs[positive], dist_index[positive],
            )
        if src.size == 0:
            raise ValueError("no transitions have been added")

        # One packed int64 key sorts (src, dst) pairs in a single-array pass;
        # the common no-parallel-edge case detects as "no adjacent equal keys"
        # without ever permuting the columns.
        if n_states <= 3_000_000_000:
            pair_keys = src * np.int64(n_states) + dst
        else:  # pragma: no cover - keys would overflow int64
            pair_keys = None
        if pair_keys is not None:
            sorted_keys = np.sort(pair_keys)
            has_duplicates = bool((sorted_keys[1:] == sorted_keys[:-1]).any())
            order = np.argsort(pair_keys, kind="stable") if has_duplicates else None
        else:
            order = np.lexsort((dst, src))
            s_ordered, d_ordered = src[order], dst[order]
            has_duplicates = bool(
                ((s_ordered[1:] == s_ordered[:-1]) & (d_ordered[1:] == d_ordered[:-1])).any()
            )
        if has_duplicates:
            s_sorted, d_sorted = src[order], dst[order]
            duplicate = np.empty(src.size, dtype=bool)
            duplicate[0] = False
            duplicate[1:] = (s_sorted[1:] == s_sorted[:-1]) & (d_sorted[1:] == d_sorted[:-1])
            p_sorted, di_sorted = probs[order], dist_index[order]
            starts = np.flatnonzero(~duplicate)
            sizes = np.diff(np.append(starts, src.size))
            src = s_sorted[starts]
            dst = d_sorted[starts]
            probs = np.add.reduceat(p_sorted, starts)
            distributions = list(distributions)
            dist_of: dict[Distribution, int] = {}
            # Singleton groups (the vast majority) copy their index wholesale;
            # only genuinely parallel groups pay the Mixture construction.
            dist_index = di_sorted[starts].copy()
            for g in np.flatnonzero(sizes > 1):
                branch = slice(starts[g], starts[g] + sizes[g])
                weights = check_probability_vector(
                    p_sorted[branch], "parallel transition weights", normalise=True
                )
                mixture = Mixture(
                    [distributions[int(i)] for i in di_sorted[branch]], weights
                )
                found = dist_of.get(mixture)
                if found is None:
                    found = len(distributions)
                    dist_of[mixture] = found
                    distributions.append(mixture)
                dist_index[g] = found

        if normalise:
            row_sums = np.bincount(src, weights=probs, minlength=n_states)
            zero_rows = np.where(row_sums == 0.0)[0]
            if zero_rows.size:
                raise ValueError(
                    f"cannot normalise: states {zero_rows[:10].tolist()} have no outgoing weight"
                )
            probs = probs / row_sums[src]

        return cls(n_states, src, dst, probs, dist_index, list(distributions),
                   state_names)

    @classmethod
    def _from_csr(
        cls,
        n_states: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        csr_probs: np.ndarray,
        csr_dist_index: np.ndarray,
        csr_rows: np.ndarray,
        distributions: Sequence[Distribution],
        content_digest: str | None = None,
    ) -> "SMPKernel":
        """Reassemble a kernel zero-copy from already-validated CSR columns.

        The shared-memory plane attach path: the arrays come straight out of
        a buffer exported by a kernel that already passed ``__init__``'s
        validation, so this skips re-validation *and* the COO→CSR sort — the
        edge columns are adopted in CSR order (``_coo_to_csr`` is the
        identity).  ``content_digest`` stamps the original kernel's digest so
        checkpoint keys agree across processes.
        """
        self = cls.__new__(cls)
        self.n_states = int(n_states)
        self.src = csr_rows
        self.dst = indices
        self.probs = csr_probs
        self.dist_index = csr_dist_index
        self.distributions = list(distributions)
        self._state_names = None
        self._state_names_factory = None
        self._structure = sparse.csr_matrix(
            (csr_probs, indices, indptr), shape=(self.n_states, self.n_states),
            copy=False,
        )
        self._coo_to_csr = np.arange(csr_probs.size, dtype=np.int64)
        if content_digest is not None:
            self._content_digest = content_digest
        return self

    # ------------------------------------------------------------ topology
    @property
    def n_transitions(self) -> int:
        return int(self.src.size)

    @property
    def n_distributions(self) -> int:
        return len(self.distributions)

    @property
    def state_names(self) -> list[str]:
        """Per-state display names (default ``str(index)``, built on demand)."""
        if self._state_names is None:
            if self._state_names_factory is not None:
                names = [str(s) for s in self._state_names_factory()]
                require(
                    len(names) == self.n_states,
                    "state_names must have one entry per state",
                )
                self._state_names = names
            else:
                self._state_names = [str(i) for i in range(self.n_states)]
        return self._state_names

    def embedded_matrix(self) -> sparse.csr_matrix:
        """One-step transition probability matrix ``P`` of the embedded DTMC."""
        mat = self._structure.copy()
        mat.data = self.probs[self._coo_to_csr]
        return mat

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices)`` of the transition structure.

        The arrays are shared with the kernel's pre-assembled structure —
        treat them as read-only.  Graph algorithms (partitioners, BFS
        orderings) should traverse these instead of rebuilding Python
        adjacency lists.
        """
        return self._structure.indptr, self._structure.indices

    def state_index(self, name: str) -> int:
        """Index of the state called ``name`` (O(n) lookup, for small models/tests)."""
        try:
            return self.state_names.index(name)
        except ValueError:
            raise KeyError(f"unknown state name {name!r}") from None

    def states_matching(self, predicate) -> list[int]:
        """All state indices whose *name* satisfies ``predicate``."""
        return [i for i, name in enumerate(self.state_names) if predicate(name)]

    # ----------------------------------------------------------- transforms
    def evaluator(self) -> "UEvaluator":
        """A reusable evaluator of ``U(s)`` / ``U'(s)`` sharing the CSR structure."""
        return UEvaluator(self)

    def u_matrix(self, s: complex) -> sparse.csr_matrix:
        """The matrix ``U(s)`` with entries ``u_pq = r*_pq(s)`` (Eq. 9)."""
        return self.evaluator().u(s)

    def mean_sojourn_times(self) -> np.ndarray:
        """Expected sojourn time in each state: ``m_i = sum_j p_ij E[H_ij]``."""
        means = np.asarray([d.mean() for d in self.distributions], dtype=float)
        contrib = self.probs * means[self.dist_index]
        return np.bincount(self.src, weights=contrib, minlength=self.n_states)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SMPKernel(n_states={self.n_states}, n_transitions={self.n_transitions}, "
            f"n_distributions={self.n_distributions})"
        )


@dataclass
class _EvaluatorCache:
    s: complex | None = None
    data: np.ndarray | None = None


class _BatchLRU:
    """A handful of recent ``U(s)`` data grids, keyed by the grid bytes.

    One slot covers a block whose sojourn transforms and solve request the
    same grid; a long-lived analysis service additionally
    interleaves *measures* on one shared evaluator — density, CDF and
    quantile-refinement requests that alternate between a few distinct
    grids — so a short LRU keeps those from evicting each other.  Grids
    larger than ``max_entry_bytes`` are never retained: pinning several
    multi-GiB ``(n_s, nnz)`` arrays is exactly the failure mode the blocked
    evaluation path exists to avoid.
    """

    def __init__(self, capacity: int = 4, max_entry_bytes: int = 256 << 20):
        self.capacity = capacity
        self.max_entry_bytes = max_entry_bytes
        self._entries: "OrderedDict[bytes, np.ndarray]" = OrderedDict()

    def get(self, key: bytes) -> np.ndarray | None:
        data = self._entries.get(key)
        if data is not None:
            self._entries.move_to_end(key)
        return data

    def put(self, key: bytes, data: np.ndarray) -> None:
        if data.nbytes > self.max_entry_bytes:
            return
        self._entries[key] = data
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


class UEvaluator:
    """Evaluates ``U(s)`` and target-absorbing ``U'(s)`` re-using one CSR structure.

    The iterative algorithm calls this once per s-point and then performs
    ``O(r)`` sparse vector–matrix products, so the evaluator keeps the
    structural arrays (``indptr``/``indices``) fixed and only refreshes the
    complex data vector when ``s`` changes.
    """

    def __init__(self, kernel: SMPKernel):
        self.kernel = kernel
        template = kernel._structure
        self._indptr = template.indptr.copy()
        self._indices = template.indices.copy()
        self._shape = template.shape
        # probs/dist_index in CSR data order.
        order = kernel._coo_to_csr
        self._csr_probs = kernel.probs[order]
        self._csr_dist_index = kernel.dist_index[order]
        # row index of every stored entry (needed to zero absorbing rows).
        self._csr_rows = np.repeat(
            np.arange(kernel.n_states), np.diff(self._indptr)
        )
        self._cache = _EvaluatorCache()
        self._batch_cache = _BatchLRU()

    @classmethod
    def _from_parts(
        cls,
        kernel: SMPKernel,
        indptr: np.ndarray,
        indices: np.ndarray,
        csr_probs: np.ndarray,
        csr_dist_index: np.ndarray,
        csr_rows: np.ndarray,
    ) -> "UEvaluator":
        """Assemble an evaluator directly over externally-owned CSR arrays.

        The plane attach path: `__init__` would copy ``indptr``/``indices``
        and re-derive the data-order columns, defeating the point of a
        shared-memory export.  The caller guarantees the arrays are the CSR
        projection of ``kernel`` (they come from a buffer that an ordinary
        evaluator exported).  Caches start empty and are process-local.
        """
        self = cls.__new__(cls)
        self.kernel = kernel
        self._indptr = indptr
        self._indices = indices
        self._shape = (kernel.n_states, kernel.n_states)
        self._csr_probs = csr_probs
        self._csr_dist_index = csr_dist_index
        self._csr_rows = csr_rows
        self._cache = _EvaluatorCache()
        self._batch_cache = _BatchLRU()
        return self

    # ------------------------------------------------------------ internals
    def _u_data(self, s: complex) -> np.ndarray:
        s = complex(s)
        if self._cache.s == s and self._cache.data is not None:
            return self._cache.data
        lst_values = np.asarray(
            [d.lst(s) for d in self.kernel.distributions], dtype=complex
        )
        data = self._csr_probs * lst_values[self._csr_dist_index]
        self._cache = _EvaluatorCache(s=s, data=data)
        return data

    def _matrix_from_data(self, data: np.ndarray) -> sparse.csr_matrix:
        return sparse.csr_matrix(
            (data, self._indices, self._indptr), shape=self._shape, copy=False
        )

    # ------------------------------------------------------------------ API
    def u(self, s: complex) -> sparse.csr_matrix:
        """``U(s)``: entry ``(p, q)`` equals ``p_pq H*_pq(s)``."""
        return self._matrix_from_data(self._u_data(s).copy())

    def u_prime(self, s: complex, target_mask: np.ndarray) -> sparse.csr_matrix:
        """``U'(s)``: as ``U(s)`` but with the target states made absorbing.

        Rows belonging to target states are zeroed so that probability mass
        reaching the target set never leaves it again — this is what turns
        the r-transition sum of Eq. (9) into a *first* passage quantity.
        """
        target_mask = np.asarray(target_mask, dtype=bool)
        if target_mask.shape != (self.kernel.n_states,):
            raise ValueError("target_mask must have one boolean per state")
        data = self._u_data(s).copy()
        data[target_mask[self._csr_rows]] = 0.0
        return self._matrix_from_data(data)

    def sojourn_lst(self, s: complex) -> np.ndarray:
        """Per-state sojourn transform ``h*_i(s) = sum_j r*_ij(s)`` (row sums of U)."""
        data = self._u_data(s)
        rows = self._csr_rows
        n = self.kernel.n_states
        out = np.zeros(n, dtype=complex)
        out.real = np.bincount(rows, weights=data.real, minlength=n)
        out.imag = np.bincount(rows, weights=data.imag, minlength=n)
        return out

    #: cap on the temporary working set of one internal ``u_data_batch``
    #: fill chunk; the gather below is performed in s-slices of at most this
    #: many bytes so building a large grid never doubles its own footprint
    batch_fill_bytes: int = 256 << 20

    def fill_chunk_points(self) -> int:
        """How many s-points of per-edge data fit one :attr:`batch_fill_bytes`
        working chunk (shared by the batch fill and the direct solver)."""
        return max(1, int(self.batch_fill_bytes // max(self._indices.size * 16, 1)))

    def factored(self) -> "FactoredUEvaluator":
        """The distribution-factored multi-s engine sharing this kernel.

        Built lazily and cached: the pair decompositions cost one pass over
        the edges and are reused by every factored solve on this evaluator.
        """
        if getattr(self, "_factored", None) is None:
            from .factored import FactoredUEvaluator

            self._factored = FactoredUEvaluator(self)
        return self._factored

    # ------------------------------------------------------------- batch API
    def u_data_batch(self, s_values, out: np.ndarray | None = None) -> np.ndarray:
        """CSR data of ``U(s)`` for a whole grid of s-points at once.

        Returns an ``(n_s, nnz)`` array whose row ``t`` is the data vector of
        ``U(s_values[t])`` in the shared CSR entry order.  Each distinct
        distribution's transform is evaluated exactly once over the full grid,
        so the per-s-point Python overhead of the scalar path is amortised
        across the batch.  The result is assembled in s-chunks bounded by
        :attr:`batch_fill_bytes` (optionally straight into ``out``), so the
        build never allocates beyond the result itself; results small enough
        to be worth retaining are cached (see :class:`_BatchLRU`) — a
        block's sojourn transforms and its solve request the same grid, and
        measures sharing one evaluator alternate between a few grids.

        The *result* still scales as ``O(n_s · nnz)``: callers handling
        large kernels should block their s-grid (see
        :class:`~repro.smp.passage.SPointPolicy.block_points`) or use the
        factored engine, which never materialises per-edge data.
        """
        s_values = np.asarray(s_values, dtype=complex).ravel()
        nnz = self._indices.size
        if out is not None and out.shape != (s_values.size, nnz):
            raise ValueError("out must have shape (n_s, nnz)")
        key = s_values.tobytes()
        cached = self._batch_cache.get(key)
        if cached is not None:
            if out is not None:
                out[:] = cached
                return out
            return cached
        # A caller-owned buffer must never enter the LRU: the caller will
        # overwrite it, silently corrupting every alias in the cache.
        cacheable = out is None
        if out is None:
            out = np.empty((s_values.size, nnz), dtype=complex)
        lst_matrix = np.empty(
            (s_values.size, len(self.kernel.distributions)), dtype=complex
        )
        for k, dist in enumerate(self.kernel.distributions):
            lst_matrix[:, k] = dist.lst_batch(s_values)
        chunk = self.fill_chunk_points()
        for lo in range(0, s_values.size, chunk):
            hi = min(lo + chunk, s_values.size)
            block = out[lo:hi]
            np.take(lst_matrix[lo:hi], self._csr_dist_index, axis=1, out=block)
            block *= self._csr_probs
        if cacheable:
            self._batch_cache.put(key, out)
        return out

    def u_prime_data_batch(self, s_values, target_mask: np.ndarray) -> np.ndarray:
        """As :meth:`u_data_batch` but with the target states' rows zeroed."""
        target_mask = np.asarray(target_mask, dtype=bool)
        if target_mask.shape != (self.kernel.n_states,):
            raise ValueError("target_mask must have one boolean per state")
        data = self.u_data_batch(s_values).copy()
        data[:, target_mask[self._csr_rows]] = 0.0
        return data

    def sojourn_lst_batch(self, s_values) -> np.ndarray:
        """``(n_s, n_states)`` sojourn transforms ``h*_i(s)`` for a grid of s."""
        return np.add.reduceat(self.u_data_batch(s_values), self._indptr[:-1], axis=1)

    def row_abs_sums(self, data_batch: np.ndarray) -> np.ndarray:
        """Per-state row sums of ``|data|`` for every s-point: ``(n_s, n_states)``.

        The maximum over states bounds the per-iteration contraction of the
        iterative sum, which is what the adaptive iterative/direct policy uses
        to predict iteration counts.
        """
        return np.add.reduceat(np.abs(data_batch), self._indptr[:-1], axis=1)

    def direct_solve_structure(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Cached CSC symbolic structure of ``A = I - U K`` (Eq. 3).

        The pattern is independent of both ``s`` and the target set (targets
        only zero data), so it is assembled once per evaluator: the identity's
        coordinates are merged with ``U``'s, sorted into CSC order, and
        duplicates collapsed (a self-loop of ``U`` shares its position with
        the diagonal).  Returns ``(nnz_A, indices, indptr, diag_pos, u_pos)``
        where ``diag_pos``/``u_pos`` map the identity/U entries into the CSC
        data vector.
        """
        if getattr(self, "_a_structure", None) is None:
            n = self.kernel.n_states
            diag = np.arange(n, dtype=np.int64)
            all_rows = np.concatenate((diag, self._csr_rows))
            all_cols = np.concatenate((diag, self._indices))
            keys = all_cols * np.int64(n) + all_rows
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            a_indices = (unique_keys % n).astype(np.int32)
            col_counts = np.bincount((unique_keys // n).astype(np.int64), minlength=n)
            a_indptr = np.concatenate(([0], np.cumsum(col_counts))).astype(np.int32)
            self._a_structure = (
                int(unique_keys.size), a_indices, a_indptr, inverse[:n], inverse[n:]
            )
        return self._a_structure

    def _csc_structure(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSC view of the shared structure: (entry order, indptr, row indices)."""
        if getattr(self, "_csc_order", None) is None:
            order = np.argsort(self._indices, kind="stable")
            counts = np.bincount(self._indices, minlength=self.kernel.n_states)
            self._csc_order = order
            self._csc_indptr = np.concatenate(([0], np.cumsum(counts)))
            self._csc_rows = self._csr_rows[order]
        return self._csc_order, self._csc_indptr, self._csc_rows

    def block_diag_matrix(self, data_batch: np.ndarray):
        """``block_diag(M(s_1)^T, ..., M(s_k)^T)`` as one CSR matrix.

        The batched iterative loops run one C-level sparse matvec per
        iteration on this operator instead of ``k`` separate products (or a
        Python-level gather/segment-sum), which is what makes grid-sized
        batches cheaper than the scalar loop even when each point converges
        quickly.  The blocks are transposed, so a single matvec computes
        every row-form product ``v_t @ M(s_t)``.
        """
        from scipy import sparse as _sparse

        k, nnz = data_batch.shape
        n = self.kernel.n_states
        offsets_e = (np.arange(k, dtype=np.int64) * nnz)[:, None]
        offsets_s = (np.arange(k, dtype=np.int64) * n)[:, None]
        order, indptr, rows = self._csc_structure()
        data = data_batch[:, order].ravel()
        indices = (rows[None, :] + offsets_s).ravel()
        big_indptr = np.append((indptr[None, :-1] + offsets_e).ravel(), k * nnz)
        return _sparse.csr_matrix(
            (data, indices, big_indptr), shape=(k * n, k * n), copy=False
        )

    def alpha_vec_matrix_batch(self, alpha: np.ndarray, data_batch: np.ndarray) -> np.ndarray:
        """``out[t] = alpha @ M(s_t)`` for one shared row vector ``alpha``.

        The batched engines start every s-point from the same source
        weighting, so the product only needs the entries whose *source row*
        carries alpha weight — for the typical single-source passage measure
        that is a handful of transitions rather than the whole kernel.
        """
        alpha = np.asarray(alpha, dtype=complex)
        weights = alpha[self._csr_rows]
        sel = np.flatnonzero(weights != 0)
        out = np.zeros((data_batch.shape[0], self.kernel.n_states), dtype=complex)
        if sel.size == 0:
            return out
        cols = self._indices[sel]
        contrib = data_batch[:, sel] * weights[sel]
        order = np.argsort(cols, kind="stable")
        sorted_cols = cols[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_cols)) + 1))
        out[:, sorted_cols[starts]] = np.add.reduceat(contrib[:, order], starts, axis=1)
        return out
