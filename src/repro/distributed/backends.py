"""Execution backends for transform-evaluation jobs.

A backend takes a :class:`~repro.core.jobs.TransformJob` and a list of
s-points and returns ``{s: L(s)}``.  Three implementations are provided:

* :class:`SerialBackend` — in-process evaluation, optionally recording the
  wall-clock duration of every s-point (the measured durations feed the
  simulated cluster used to regenerate Table 2),
* :class:`MultiprocessingBackend` — a pool of worker *processes* sharing one
  kernel image: the master exports the kernel plane once (shared memory, or
  an mmap'd file via a :class:`~repro.smp.plane.PlaneStore`), ships each
  worker a few-hundred-byte :class:`~repro.core.jobs.JobSpec` at pool start,
  and then streams :class:`~repro.distributed.queue.SBlock` work units,
* :class:`repro.distributed.simcluster.SimulatedCluster` — not an executor
  but a timing model; see that module.
"""
from __future__ import annotations

import contextlib
import logging
import os
import shutil
import signal
import tempfile
import time
from concurrent import futures
from typing import Iterable, Protocol

import numpy as np

from .. import faults
from ..core.jobs import JobSpec, TransformJob
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..smp.kernel import kernel_content_digest
from ..smp.passage import SPointPolicy
from ..smp.plane import KernelPlane, PlaneHandle, PlaneStore
from .queue import SBlock, SBlockQueue

__all__ = [
    "Backend",
    "PoisonBlockError",
    "SerialBackend",
    "MultiprocessingBackend",
]

logger = logging.getLogger("repro.distributed")


class PoisonBlockError(RuntimeError):
    """One s-block keeps killing the pool: quarantined, run failed fast.

    Raised when the same block is implicated in ``poison_after`` consecutive
    pool breaks — a deterministic crasher (or hanger) that would otherwise
    burn every rebuild the retry budget allows while the rest of the grid
    starves.  Carries the block and its s-points so the operator can
    reproduce the failure in isolation.
    """

    def __init__(self, block_index: int, s_points, failures: int, reason: str):
        self.block_index = int(block_index)
        self.s_points = [complex(s) for s in s_points]
        self.failures = int(failures)
        self.reason = str(reason)
        preview = ", ".join(f"{s:.6g}" for s in self.s_points[:4])
        if len(self.s_points) > 4:
            preview += f", ... ({len(self.s_points)} points)"
        super().__init__(
            f"s-block {self.block_index} quarantined: implicated in "
            f"{self.failures} consecutive pool breaks (last reason: "
            f"{self.reason}); s-points: [{preview}]"
        )


class Backend(Protocol):
    """Anything that can evaluate a job at a batch of s-points."""

    def evaluate(self, job: TransformJob, s_points: Iterable[complex]) -> dict[complex, complex]:
        ...  # pragma: no cover - protocol definition


class SerialBackend:
    """Evaluate all s-points in the calling process via the batched engine.

    Parameters
    ----------
    record_timings:
        When true, per-s-point wall-clock durations are appended to
        :attr:`task_durations`; the Table 2 benchmark replays them through the
        simulated cluster.  The batched engine evaluates the whole grid in one
        sweep, so the measured batch time is apportioned over the points in
        proportion to the per-point work reported by the job (iteration/matvec
        counts, LU-solve equivalents) — the per-task durations keep the same
        relative shape a scalar evaluation loop would have recorded.
    """

    name = "serial"

    def __init__(self, *, record_timings: bool = False):
        self.record_timings = record_timings
        self.task_durations: list[float] = []

    def evaluate(self, job: TransformJob, s_points) -> dict[complex, complex]:
        s_list = [complex(s) for s in s_points]
        if not s_list:
            return {}
        start = time.perf_counter()
        values, costs = job.evaluate_batch(np.asarray(s_list, dtype=complex))
        elapsed = time.perf_counter() - start
        if self.record_timings:
            total_cost = float(np.sum(costs))
            if total_cost > 0:
                durations = elapsed * np.asarray(costs, dtype=float) / total_cost
            else:
                durations = np.full(len(s_list), elapsed / len(s_list))
            self.task_durations.extend(float(d) for d in durations)
        return {s: complex(v) for s, v in zip(s_list, values)}


# ---------------------------------------------------------------------------
# Multiprocessing backend.  Pool start-up attaches every worker to the shared
# kernel plane and builds the job from its JobSpec (the paper's "slaves are
# assigned the model" handshake, minus the model copy); each task message then
# carries one s-block, so the worker runs the batched engine on a
# memory-budgeted block rather than a single s-value.
# ---------------------------------------------------------------------------

_WORKER_JOB: TransformJob | None = None
_WORKER_PLANE = None
_WORKER_INCIDENT: str | None = None


def _block_worker_init(
    spec: JobSpec,
    handle: PlaneHandle,
    trace_enabled: bool = False,
    incident_dir: str | None = None,
) -> None:  # pragma: no cover - subprocess
    global _WORKER_JOB, _WORKER_PLANE, _WORKER_INCIDENT
    tracer = obs_trace.get_tracer()
    tracer.clear()  # drop spans inherited from the parent on fork
    if trace_enabled:
        tracer.enable()
    _WORKER_INCIDENT = incident_dir
    _WORKER_PLANE = handle.attach()
    _WORKER_JOB = spec.build(_WORKER_PLANE.evaluator)


def _block_worker_run(block: SBlock):  # pragma: no cover - subprocess
    assert _WORKER_JOB is not None, "worker used before initialisation"
    # Drop a started-marker before solving and remove it after: when the pool
    # breaks, the master scans the leftover markers to learn which block(s)
    # were in flight on the dead (or hung, and then terminated) worker — the
    # worker cannot report its own crash, so the blame trail must be on disk.
    marker = None
    if _WORKER_INCIDENT is not None:
        marker = os.path.join(
            _WORKER_INCIDENT, f"started.{block.index}.{os.getpid()}"
        )
        try:
            with open(marker, "w") as handle:
                handle.write(str(time.time()))
        except OSError:
            marker = None
    faults.fire("worker.solve", block=block.index, pid=os.getpid())
    registry = obs_metrics.get_metrics()
    baseline = registry.snapshot()
    started = time.perf_counter()
    with obs_trace.span("s-block", index=block.index, points=block.n_points):
        values, _ = _WORKER_JOB.evaluate_batch(block.s_points)
    elapsed = time.perf_counter() - started
    pairs = [(complex(s), complex(v)) for s, v in zip(block.s_points, values)]
    # Everything the master-side observability needs from this block: the
    # worker's finished spans and its metrics delta, shipped with the result
    # so crashes lose a block's telemetry only alongside the block itself.
    obs = {
        "spans": obs_trace.get_tracer().drain(),
        "metrics": registry.diff(baseline),
    }
    if marker is not None:
        with contextlib.suppress(OSError):
            os.unlink(marker)
    return block.index, pairs, elapsed, os.getpid(), _WORKER_JOB.last_report, obs


class MultiprocessingBackend:
    """Evaluate s-blocks on a pool of worker processes sharing one kernel plane.

    Parameters
    ----------
    processes:
        Number of worker processes (defaults to the machine's CPU count).
    block_size:
        s-points per dispatched :class:`SBlock`.  ``None`` (default) delegates
        to :meth:`SPointPolicy.dispatch_block_points` — the same memory-budget
        computation the in-process engines block by, capped so every worker
        sees about four blocks.  ``chunk_size`` is the historical alias.
    plane_store:
        When given (a :class:`~repro.smp.plane.PlaneStore` or a directory
        path), the kernel plane is exported as an mmap'd *file* under that
        directory and workers attach by digest — the serve-fleet layout.
        Default is an anonymous shared-memory segment.
    max_retries:
        How many times a broken pool is rebuilt and the unfinished blocks
        resubmitted before giving up.  Completed blocks are never recomputed
        (and, when a checkpoint is threaded through, already merged to disk).
    """

    name = "multiprocessing"
    #: pipeline capability flag: evaluate() accepts checkpoint/digest and
    #: merges each block's results as it completes
    supports_blocks = True
    #: evaluate() accepts a ProgressReporter and advances it per block
    supports_progress = True

    def __init__(
        self,
        processes: int | None = None,
        *,
        block_size: int | None = None,
        chunk_size: int | None = None,
        plane_store: PlaneStore | str | None = None,
        max_retries: int = 2,
    ):
        if processes is not None and processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = processes or os.cpu_count() or 1
        if block_size is not None and chunk_size is not None:
            raise ValueError("pass block_size or chunk_size, not both")
        size = block_size if block_size is not None else chunk_size
        if size is not None and size < 1:
            raise ValueError("block_size must be >= 1")
        self.block_size = size
        if isinstance(plane_store, (str, os.PathLike)):
            plane_store = PlaneStore(plane_store)
        self.plane_store = plane_store
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.max_retries = max_retries
        self.last_wall_clock: float | None = None
        #: per-worker {"blocks", "busy_seconds", "points"} of the last evaluate
        self.last_worker_stats: dict[str, dict] | None = None
        #: {"retries": {block: n}, "suspected": {block: n}} of the last evaluate
        self.last_retry_stats: dict[str, dict] | None = None
        self._plane_cache: dict[tuple[str, bool], KernelPlane] = {}

    # --------------------------------------------------------------- plumbing
    @property
    def chunk_size(self) -> int | None:
        """Historical name for :attr:`block_size`."""
        return self.block_size

    def _plane_handle(self, job: TransformJob, include_factored: bool) -> PlaneHandle:
        evaluator = job.evaluator
        digest = kernel_content_digest(job.kernel)
        with obs_trace.span(
            "plane-export",
            digest=digest,
            factored=include_factored,
            backing="file" if self.plane_store is not None else "shm",
        ):
            if include_factored:
                evaluator.factored().prewarm()
            if self.plane_store is not None:
                return self.plane_store.export(
                    evaluator, include_factored=include_factored
                )
            key = (digest, include_factored)
            plane = self._plane_cache.get(key)
            if plane is None:
                plane = KernelPlane.build(
                    evaluator, backing="shm", include_factored=include_factored
                )
                self._plane_cache[key] = plane
            return plane.handle()

    def close(self) -> None:
        """Release any shared-memory planes this backend built."""
        for plane in self._plane_cache.values():
            plane.unlink()
        self._plane_cache.clear()

    # -------------------------------------------------------------------- API
    def evaluate(
        self,
        job: TransformJob,
        s_points,
        *,
        checkpoint=None,
        digest: str | None = None,
        progress=None,
    ) -> dict[complex, complex]:
        """Evaluate ``s_points``, dispatching s-blocks to the worker pool.

        When ``checkpoint`` (a :class:`~repro.distributed.checkpoint.CheckpointStore`)
        and ``digest`` are given, every completed block is merged to disk as
        it arrives, so a run that dies mid-grid resumes from the finished
        blocks rather than from nothing.  ``progress`` (a
        :class:`~repro.obs.progress.ProgressReporter`) is advanced once per
        completed block.
        """
        s_list = [complex(s) for s in np.asarray(list(s_points), dtype=complex)]
        if not s_list:
            return {}
        start = time.perf_counter()
        workers = min(self.processes, len(s_list))
        policy = job.policy or SPointPolicy()
        evaluator = job.evaluator
        engine = policy.resolve_engine(evaluator)
        block_size = policy.dispatch_block_points(evaluator, engine, len(s_list), workers)
        if self.block_size is not None:
            block_size = min(self.block_size, block_size)
        include_factored = engine == "factored" and job.solver != "direct"
        handle = self._plane_handle(job, include_factored)
        spec = JobSpec.from_job(job)

        queue = SBlockQueue.from_points(s_list, block_size)
        if progress is not None:
            progress.add_total(queue.n_pending, len(s_list))
        reports: list[tuple[int, str, dict | None]] = []
        attempts = 0
        #: block index -> consecutive pool breaks it was implicated in
        suspects: dict[int, int] = {}
        watch_state = {"longest": 0.0}
        incident_dir = tempfile.mkdtemp(prefix="repro-incident-")
        try:
            while queue.n_pending:
                outstanding = queue.outstanding()
                pending_before = queue.n_pending
                with futures.ProcessPoolExecutor(
                    max_workers=min(workers, len(outstanding)),
                    initializer=_block_worker_init,
                    initargs=(
                        spec, handle, obs_trace.get_tracer().enabled, incident_dir
                    ),
                ) as pool:
                    by_future = {
                        pool.submit(_block_worker_run, block): block
                        for block in outstanding
                    }
                    procs = dict(pool._processes or {})
                    reason, hung = self._drain(
                        by_future, queue, checkpoint, digest, reports, progress,
                        policy=policy, pool=pool, watch_state=watch_state,
                    )
                # All workers are joined once the `with` exits, so exit codes
                # are final: the worker that *caused* the break died on its
                # own (positive code, or SIGKILL e.g. the OOM killer), while
                # innocent bystanders were SIGTERMed during pool teardown.
                exitcodes = {
                    proc.pid: proc.exitcode for proc in procs.values()
                }
                if reason is None:
                    continue
                blamed = (
                    hung
                    if hung
                    else self._implicated_blocks(incident_dir, queue, exitcodes)
                )
                for index in blamed:
                    suspects[index] = suspects.get(index, 0) + 1
                # Forward progress (any block completed since the last break)
                # buys back the full retry budget — only a pool that dies
                # over and over without finishing *anything* exhausts it.
                attempts = 1 if queue.n_pending < pending_before else attempts + 1
                queue.note_retry(block.index for block in queue.outstanding())
                obs_metrics.note_block_retry(reason, queue.n_pending)
                # A block implicated in poison_after consecutive breaks is a
                # deterministic crasher: fail fast with a reproducible report
                # instead of burning pool rebuilds on it.  Checked before the
                # retry budget so the structured error wins the race.
                for index, block in sorted(queue.pending.items()):
                    if suspects.get(index, 0) >= policy.poison_after:
                        raise PoisonBlockError(
                            index, block.s_points, suspects[index], reason
                        )
                if attempts > self.max_retries:
                    raise futures.process.BrokenProcessPool(
                        f"worker pool died {attempts} time(s) without progress "
                        f"(last reason: {reason}); "
                        f"{queue.n_pending} block(s) unfinished"
                    )
        finally:
            shutil.rmtree(incident_dir, ignore_errors=True)
        self.last_retry_stats = {
            "retries": dict(queue.retries),
            "suspected": dict(suspects),
        }
        self._finalise_report(job, queue, reports)
        self.last_wall_clock = time.perf_counter() - start
        self._note_busy_fractions(self.last_wall_clock)
        return dict(queue.results)

    @staticmethod
    def _implicated_blocks(
        incident_dir: str, queue: SBlockQueue, exitcodes: dict[int, int | None]
    ) -> set[int]:
        """Which still-pending blocks killed their worker when the pool broke.

        Workers drop ``started.{block}.{pid}`` markers before solving and
        remove them after, so a leftover marker names a block that was in
        flight on a dead worker.  Only the worker whose death *broke* the
        pool is blamed — it exited on its own (positive code, or SIGKILL,
        e.g. the OOM killer); every other in-flight worker was SIGTERMed
        (-15) by pool teardown and its block is an innocent bystander.  All
        markers are consumed per scan so the next break starts clean.
        """
        teardown = -int(signal.SIGTERM)
        pending = set(queue.pending)
        blamed: set[int] = set()
        try:
            names = os.listdir(incident_dir)
        except OSError:
            return blamed
        for name in names:
            parts = name.split(".")
            if len(parts) == 3 and parts[0] == "started":
                with contextlib.suppress(ValueError):
                    index, pid = int(parts[1]), int(parts[2])
                    code = exitcodes.get(pid)
                    if (
                        index in pending
                        and code is not None
                        and code not in (0, teardown)
                    ):
                        blamed.add(index)
            with contextlib.suppress(OSError):
                os.unlink(os.path.join(incident_dir, name))
        return blamed

    def _drain(
        self,
        by_future,
        queue,
        checkpoint,
        digest,
        reports,
        progress=None,
        *,
        policy: SPointPolicy | None = None,
        pool=None,
        watch_state: dict | None = None,
    ) -> tuple[str | None, set[int]]:
        """Process completions until the pool drains.

        Returns ``(reason, hung_blocks)``: reason is ``None`` on a clean
        drain, ``"crashed"`` when the pool broke on its own, ``"hung"`` when
        the watchdog killed it.  Results that finished before a break are
        kept (and checkpointed), so a retry only re-runs the genuinely
        unfinished blocks.  Each completed block is recorded exactly once
        here — telemetry (global per-worker counters, queue-depth gauge,
        progress, worker spans and metric deltas) rides the same path as the
        results, so a pool rebuild neither loses nor double-counts it.

        The watchdog: a worker that stops making progress (deadlocked solve,
        injected hang) never completes its future, so the pool would wait
        forever.  Every poll tick the master compares each running block's
        age against ``max(watchdog_floor_seconds, watchdog_multiplier x
        longest completed block so far)``; a block past the deadline gets its
        whole pool terminated and is retried/suspected like a crash.
        """
        registry = obs_metrics.get_metrics()
        depth_gauge = registry.gauge(
            "repro_sblocks_pending", "s-blocks not yet completed"
        )
        depth_gauge.set(queue.n_pending)
        broken = False
        hung: set[int] = set()
        not_done = set(by_future)
        started_at: dict = {}
        if watch_state is None:
            watch_state = {"longest": 0.0}
        mult = policy.watchdog_multiplier if policy is not None else 0.0
        floor = policy.watchdog_floor_seconds if policy is not None else 30.0
        watchdog_on = pool is not None and mult > 0
        poll = min(1.0, max(0.05, floor / 20.0)) if watchdog_on else None
        while not_done:
            done, not_done = futures.wait(
                not_done, timeout=poll, return_when=futures.FIRST_COMPLETED
            )
            now = time.monotonic()
            for future in done:
                block = by_future[future]
                started_at.pop(future, None)
                error = future.exception()
                if error is not None:
                    if isinstance(error, futures.process.BrokenProcessPool):
                        broken = True
                        continue
                    raise error
                index, pairs, elapsed, pid, report, obs = future.result()
                watch_state["longest"] = max(watch_state["longest"], elapsed)
                values = {s: v for s, v in pairs}
                queue.complete(block, values, worker=pid, duration=elapsed)
                reports.append((index, str(pid), report))
                obs_trace.get_tracer().absorb(obs.get("spans"))
                registry.absorb(obs.get("metrics"))
                obs_metrics.record_worker_block(
                    pid, block.n_points, elapsed, registry=registry
                )
                depth_gauge.set(queue.n_pending)
                if progress is not None:
                    progress.advance(1, block.n_points)
                if checkpoint is not None and digest is not None:
                    try:
                        checkpoint.merge(digest, values)
                    except OSError as exc:
                        # A full disk must not kill an in-memory computation;
                        # the block's results stay in the queue, only their
                        # durability is lost.
                        logger.warning(
                            "checkpoint merge failed for block %d: %s "
                            "(continuing without durability)", index, exc,
                        )
            if watchdog_on and not broken and not_done:
                for future in not_done:
                    if future not in started_at and future.running():
                        started_at[future] = now
                deadline = max(floor, mult * watch_state["longest"])
                expired = [
                    future for future, t0 in started_at.items()
                    if future in not_done and now - t0 > deadline
                ]
                if expired:
                    hung.update(by_future[future].index for future in expired)
                    logger.warning(
                        "watchdog: block(s) %s still running after %.1fs "
                        "deadline; terminating worker pool",
                        sorted(hung), deadline,
                    )
                    for proc in list((pool._processes or {}).values()):
                        with contextlib.suppress(Exception):
                            proc.terminate()
                    broken = True
        if hung:
            return "hung", hung
        return ("crashed", set()) if broken else (None, set())

    def _note_busy_fractions(self, wall_clock: float) -> None:
        """Per-worker busy fraction of the evaluate that just finished."""
        if not wall_clock or not self.last_worker_stats:
            return
        gauge = obs_metrics.get_metrics().gauge(
            "repro_worker_busy_fraction",
            "busy seconds / wall-clock of the last pool evaluate",
            ("worker",),
        )
        for worker, entry in self.last_worker_stats.items():
            gauge.set(
                min(entry["busy_seconds"] / wall_clock, 1.0), worker=str(worker)
            )

    def _finalise_report(self, job, queue: SBlockQueue, reports) -> None:
        """Aggregate the workers' engine reports onto the master-side job."""
        blocks: list[dict] = []
        engine = None
        for index, pid, report in sorted(reports, key=lambda r: r[0]):
            if not report:
                continue
            engine = report.get("engine", engine)
            for entry in report.get("blocks", []):
                entry = dict(entry)
                entry["worker"] = pid
                blocks.append(entry)
        self.last_worker_stats = queue.worker_stats()
        job.last_report = {
            "engine": engine,
            "blocks": blocks,
            "workers": self.last_worker_stats,
        }