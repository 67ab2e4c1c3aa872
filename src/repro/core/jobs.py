"""Transform-evaluation jobs: the unit of work of the distributed pipeline.

A *job* bundles everything a worker needs to evaluate the Laplace transform
of one measure (a passage time or a transient probability) at an arbitrary
s-point: the kernel, the source weighting, the target set and the truncation
options.  Jobs are picklable, so the multiprocessing backend can ship them to
worker processes once and then stream bare s-values, and they expose a stable
digest used to key the on-disk checkpoint cache.
"""
from __future__ import annotations

import abc
import hashlib
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..obs.metrics import note_solve_block
from ..smp.kernel import SMPKernel, UEvaluator, kernel_content_digest
from ..smp.linear import passage_transform_direct, passage_transform_direct_batch
from ..smp.passage import (
    PassageTimeOptions,
    SPointPolicy,
    passage_transform,
    passage_transform_batch,
)
from ..smp.transient import transient_transform_batch

__all__ = ["TransformJob", "PassageTimeJob", "TransientJob", "JobSpec"]

#: Relative cost, in matvec-equivalents, attributed to one sparse-LU solve
#: when apportioning a batch's wall-clock time over its s-points.  Only the
#: *shape* matters (the simulated cluster replays relative durations); a
#: factorisation is far more expensive than a single sparse matvec but
#: independent of ``|s|``.
_DIRECT_SOLVE_COST = 100.0


# The kernel content hash lives with the kernel (repro.smp.kernel); keep the
# historical alias for callers that imported it from here.
_kernel_digest = kernel_content_digest


@dataclass
class TransformJob(abc.ABC):
    """A transform-evaluation task: ``evaluate(s)`` for arbitrary complex ``s``."""

    kernel: SMPKernel
    alpha: np.ndarray
    targets: np.ndarray
    options: PassageTimeOptions = field(default_factory=PassageTimeOptions)
    solver: str = "iterative"
    #: iterative/direct routing used by the batched path; ``None`` means the
    #: engine default (small-|s| points go to the sparse-LU solve)
    policy: SPointPolicy | None = None
    #: numerical form of the transform, folded into :meth:`digest` when set
    #: so checkpointed values of an earlier form are never mixed in
    form: ClassVar[str] = ""

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.targets = np.unique(np.atleast_1d(np.asarray(self.targets, dtype=np.int64)))
        if self.solver not in ("iterative", "direct"):
            raise ValueError("solver must be 'iterative' or 'direct'")
        if self.alpha.shape != (self.kernel.n_states,):
            raise ValueError("alpha must have one weight per state")
        if self.targets.size == 0:
            raise ValueError("at least one target state is required")
        self._evaluator: UEvaluator | None = None
        #: filled by every evaluate_batch call: which evaluation engine served
        #: it plus per-block solve timings ({"engine": ..., "blocks": [...]});
        #: surfaced through service/query statistics
        self.last_report: dict | None = None

    # ------------------------------------------------------------ plumbing
    @property
    def evaluator(self) -> UEvaluator:
        """Lazily constructed (and per-process) U/U' evaluator."""
        if getattr(self, "_evaluator", None) is None:
            self._evaluator = self.kernel.evaluator()
        return self._evaluator

    def attach_evaluator(self, evaluator: UEvaluator) -> None:
        """Install a shared (per-kernel) evaluator instead of building one.

        The analysis service keeps one :class:`UEvaluator` per registered
        model so every measure on that kernel reuses the CSR structure, the
        cached ``U(s)`` grid data and the symbolic direct-solve structure.
        Callers sharing an evaluator across threads must serialise their
        evaluations (its grid caches are not thread-safe).  Like the lazily
        built evaluator, an attached one is dropped on pickling.
        """
        if evaluator.kernel is not self.kernel:
            raise ValueError("evaluator was built for a different kernel")
        self._evaluator = evaluator

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_evaluator"] = None  # rebuild lazily in the worker process
        return state

    def digest(self) -> str:
        """Content hash identifying this measure (kernel + sources + targets)."""
        h = hashlib.sha256()
        h.update(self.kind().encode())
        h.update(_kernel_digest(self.kernel).encode())
        h.update(self.alpha.tobytes())
        h.update(self.targets.tobytes())
        # The routing policy changes which points come back exact vs
        # truncated, so checkpoints must not be shared across policies.
        h.update(f"{self.options.epsilon}:{self.solver}:{self.policy!r}".encode())
        if self.form:
            h.update(f"form:{self.form}".encode())
        return h.hexdigest()[:32]

    # ----------------------------------------------------------------- API
    @abc.abstractmethod
    def kind(self) -> str:
        """Short label ("passage" / "transient") used in digests and logs."""

    @abc.abstractmethod
    def evaluate(self, s: complex) -> complex:
        """The transform value at ``s``."""

    @abc.abstractmethod
    def evaluate_batch(self, s_values) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate a whole s-grid in one sweep via the batched engine.

        Returns ``(values, costs)``: the transform values (in input order)
        and non-negative relative per-point costs (matvec-equivalents) that
        backends use to apportion the batch's wall-clock time.
        """

    def evaluate_many(self, s_values) -> dict[complex, complex]:
        """Evaluate a batch of s-points, returned as an ``{s: L(s)}`` mapping."""
        s_list = [complex(s) for s in s_values]
        values, _ = self.evaluate_batch(np.asarray(s_list, dtype=complex))
        return {s: complex(v) for s, v in zip(s_list, values)}


class PassageTimeJob(TransformJob):
    """Evaluates the first-passage-time transform ``L_{i->j}(s)``."""

    def kind(self) -> str:
        return "passage"

    def evaluate(self, s: complex) -> complex:
        s = complex(s)
        if s == 0:
            # L(0) is the probability of ever reaching the target set, which
            # is one in the irreducible chains this library targets.
            return 1.0 + 0.0j
        if self.solver == "direct":
            vec = passage_transform_direct(self.evaluator, self.targets, s)
            return complex(np.dot(self.alpha, vec))
        value, _ = passage_transform(
            self.evaluator, self.alpha, self.targets, s, self.options
        )
        return value

    def evaluate_batch(self, s_values) -> tuple[np.ndarray, np.ndarray]:
        s_values = np.asarray(s_values, dtype=complex).ravel()
        values = np.empty(s_values.shape, dtype=complex)
        costs = np.zeros(s_values.shape, dtype=float)
        nonzero = np.flatnonzero(s_values != 0)
        values[s_values == 0] = 1.0 + 0.0j  # reached almost surely, as in evaluate()
        if nonzero.size == 0:
            return values, costs
        s_work = s_values[nonzero]
        alpha = np.asarray(self.alpha, dtype=complex)
        if self.solver == "direct":
            import time as _time

            started = _time.perf_counter()
            vecs = passage_transform_direct_batch(self.evaluator, self.targets, s_work)
            values[nonzero] = vecs @ alpha
            costs[nonzero] = _DIRECT_SOLVE_COST
            elapsed = _time.perf_counter() - started
            note_solve_block(
                points=int(s_work.size), seconds=elapsed,
                direct_solves=int(s_work.size), engine="direct-lu",
            )
            self.last_report = {
                "engine": "direct-lu",
                "blocks": [{
                    "points": int(s_work.size),
                    "seconds": round(elapsed, 6),
                    "iterations": 0,
                    "direct_solves": int(s_work.size),
                }],
            }
            return values, costs
        report: dict = {}
        vals, diags = passage_transform_batch(
            self.evaluator, alpha, self.targets, s_work, self.options,
            policy=self.policy, report=report,
        )
        self.last_report = report
        values[nonzero] = vals
        costs[nonzero] = [
            d.matvec_count + d.direct_solves * _DIRECT_SOLVE_COST for d in diags
        ]
        return values, costs


class TransientJob(TransformJob):
    """Evaluates the transient-probability transform ``T*_{i->j}(s)``."""

    #: Markov renewal form; the per-target Eq. 7 values it replaced differ
    #: in their last digits, so they must not share checkpoints
    form = "renewal"

    def kind(self) -> str:
        return "transient"

    def evaluate(self, s: complex) -> complex:
        values, _ = self.evaluate_batch([complex(s)])
        return complex(values[0])

    def evaluate_batch(self, s_values) -> tuple[np.ndarray, np.ndarray]:
        s_values = np.asarray(s_values, dtype=complex).ravel()
        report: dict = {}
        values, diags = transient_transform_batch(
            self.evaluator,
            self.alpha,
            self.targets,
            s_values,
            self.options,
            solver=self.solver,
            policy=self.policy,
            report=report,
        )
        self.last_report = report
        costs = np.asarray(
            [d.matvec_count + d.direct_solves * _DIRECT_SOLVE_COST for d in diags],
            dtype=float,
        )
        return values, costs


_JOB_KINDS = {"passage": PassageTimeJob, "transient": TransientJob}


@dataclass
class JobSpec:
    """The picklable skeleton of a :class:`TransformJob` — no kernel arrays.

    A worker that has attached the kernel plane (see
    :mod:`repro.smp.plane`) only needs to know *which measure* to evaluate:
    the kernel digest (for sanity/checkpoint keying), the non-zero source
    weights, the target indices and the truncation/routing options.  Pickling
    a spec costs a few hundred bytes regardless of kernel size; ``build``
    reconstitutes a full job against the process-local evaluator with a
    digest identical to the original job's.
    """

    kind: str
    kernel_digest: str
    n_states: int
    alpha_indices: np.ndarray
    alpha_weights: np.ndarray
    targets: np.ndarray
    options: PassageTimeOptions = field(default_factory=PassageTimeOptions)
    solver: str = "iterative"
    policy: SPointPolicy | None = None

    @classmethod
    def from_job(cls, job: TransformJob) -> "JobSpec":
        indices = np.flatnonzero(job.alpha)
        return cls(
            kind=job.kind(),
            kernel_digest=_kernel_digest(job.kernel),
            n_states=job.kernel.n_states,
            alpha_indices=indices.astype(np.int64),
            alpha_weights=np.asarray(job.alpha[indices], dtype=float),
            targets=job.targets.copy(),
            options=job.options,
            solver=job.solver,
            policy=job.policy,
        )

    def build(self, evaluator: UEvaluator) -> TransformJob:
        """Reconstitute the job against a process-local evaluator."""
        kernel = evaluator.kernel
        if kernel.n_states != self.n_states:
            raise ValueError(
                f"evaluator kernel has {kernel.n_states} states, "
                f"spec expects {self.n_states}"
            )
        local_digest = _kernel_digest(kernel)
        if local_digest != self.kernel_digest:
            raise ValueError(
                "evaluator kernel digest does not match the job spec "
                f"({local_digest[:12]} != {self.kernel_digest[:12]})"
            )
        alpha = np.zeros(kernel.n_states, dtype=float)
        alpha[self.alpha_indices] = self.alpha_weights
        job = _JOB_KINDS[self.kind](
            kernel=kernel,
            alpha=alpha,
            targets=self.targets,
            options=self.options,
            solver=self.solver,
            policy=self.policy,
        )
        job.attach_evaluator(evaluator)
        return job
