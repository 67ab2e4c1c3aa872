"""Background executor draining the job queue through the serving pipeline.

The :class:`JobRunner` owns one daemon thread.  Each claimed job is executed
through the *same* code path a synchronous query takes —
``AnalysisService.passage`` / ``.transient`` over the coalescing scheduler
and the block pipeline — with one difference: the evaluation step is driven
block-by-block by the runner, so that

* every completed s-block lands in the tiered result cache (and, with a
  checkpoint directory, on disk) before the next one starts,
* the job record's progress is advanced once per completed s-block
  (``GET /v1/jobs/{id}`` shows monotone progress),
* cancellation is honoured *between* blocks (``DELETE /v1/jobs/{id}``),
* a job re-queued after a crash resumes from its checkpointed blocks: the
  scheduler's disk tier answers the already-solved points, so only the
  genuinely unfinished blocks are computed (no loss, no double-count).

Because the final response is assembled by the synchronous query method
from the very values the blocks produced, an async job's result is
bit-identical to the synchronous path's.
"""
from __future__ import annotations

import logging
import os
import threading
import time

from .. import faults
from ..smp.passage import SPointPolicy
from .store import JobRecord, JobStore, JobStoreError

__all__ = ["JobCancelled", "JobDrained", "JobRunner"]

logger = logging.getLogger("repro.jobs")

#: test/ops hook: force the runner's per-dispatch block size
_BLOCK_POINTS_ENV = "REPRO_JOBS_BLOCK_POINTS"


class JobCancelled(Exception):
    """Raised between blocks when the job's cancel flag is set."""


class JobDrained(Exception):
    """Raised between blocks when the runner is draining for shutdown.

    The in-flight job goes back to ``queued`` with its checkpointed blocks
    intact, so the next server to open the store resumes it from where the
    drain cut it off.
    """


class JobRunner:
    """Drains ``queued`` jobs from a :class:`JobStore`, one at a time.

    A single executor thread is deliberate: transform evaluation already
    parallelises *inside* a job (the worker pool shares the kernel plane),
    and concurrent sync queries still coalesce with a running job through
    the scheduler, so a second executor would only fight the first for the
    same evaluator lock.
    """

    def __init__(
        self,
        service,
        store: JobStore,
        *,
        block_points: int | None = None,
        poll_interval: float = 0.5,
    ):
        self.service = service
        self.store = store
        env_block = os.environ.get(_BLOCK_POINTS_ENV)
        self.block_points = int(env_block) if env_block else block_points
        self.poll_interval = float(poll_interval)
        self._cond = threading.Condition()
        self._thread: threading.Thread | None = None
        self._stop = False
        self._draining = False
        self._active: str | None = None

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop = False
        self._thread = threading.Thread(
            target=self._loop, name="repro-job-runner", daemon=True
        )
        self._thread.start()

    def wake(self) -> None:
        """Nudge the loop (called after every submit and cancel)."""
        with self._cond:
            self._cond.notify_all()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop = True
        self.wake()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def drain(self, timeout: float = 30.0) -> bool:
        """Stop claiming jobs; re-queue the in-flight one at a block boundary.

        Returns True once the executor is idle (the in-flight job, if any,
        has been pushed back to ``queued`` with its completed blocks already
        checkpointed), False if it was still busy when ``timeout`` expired.
        """
        self._draining = True
        self.wake()
        deadline = time.monotonic() + float(timeout)
        with self._cond:
            while self._active is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(timeout=min(remaining, 0.25))
        return True

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def draining(self) -> bool:
        return self._draining

    # ----------------------------------------------------------------- loop
    def _loop(self) -> None:
        while not self._stop:
            if self._draining:
                with self._cond:
                    self._cond.wait(timeout=self.poll_interval)
                continue
            record = self.store.next_queued()
            if record is None:
                with self._cond:
                    self._cond.wait(timeout=self.poll_interval)
                continue
            try:
                record = self.store.transition(record.job_id, "running")
            except JobStoreError:
                continue  # cancelled (or otherwise claimed) since we looked
            self._execute(record)

    def _execute(self, record: JobRecord) -> None:
        from ..service.service import ServiceError, measure_kwargs

        evaluator = self._block_evaluator(record)
        self._active = record.job_id
        try:
            kwargs = measure_kwargs(record.request, record.kind)
            run = getattr(self.service, record.kind)
            response = run(
                tenant=record.tenant,
                _evaluate=evaluator,
                **kwargs,
            )
            self.store.transition(record.job_id, "done", result=response)
            logger.info("job=%s tenant=%s kind=%s state=done",
                        record.job_id, record.tenant, record.kind)
        except JobCancelled:
            self.store.transition(record.job_id, "cancelled",
                                  note="cancelled between blocks")
            logger.info("job=%s tenant=%s state=cancelled", record.job_id,
                        record.tenant)
        except JobDrained:
            self.store.transition(record.job_id, "queued",
                                  note="re-queued by graceful drain")
            logger.info("job=%s tenant=%s state=queued (drained)",
                        record.job_id, record.tenant)
        except ServiceError as exc:
            self.store.transition(record.job_id, "failed",
                                  error=f"{type(exc).__name__}: {exc}")
            logger.warning("job=%s tenant=%s state=failed error=%s",
                           record.job_id, record.tenant, exc)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            self.store.transition(record.job_id, "failed",
                                  error=f"{type(exc).__name__}: {exc}")
            logger.exception("job=%s tenant=%s state=failed", record.job_id,
                             record.tenant)
        finally:
            evaluator.finish()
            with self._cond:
                self._active = None
                self._cond.notify_all()

    # ------------------------------------------------------------ execution
    def _block_evaluator(self, record: JobRecord):
        """The per-job evaluation hook handed to the sync query path.

        Matches the ``_evaluate(job, s_points, entry, stats)`` contract of
        ``AnalysisService._gather``: resolve the grid through the coalescing
        scheduler exactly like a synchronous query would, but in runner-sized
        blocks with a cancellation check and a progress event between them.
        The first call sees the full plan grid; later calls (quantile
        root-finding) reuse the same accounting.
        """
        state = {"planned": False, "points_done": 0, "blocks_done": 0,
                 "reporter": None, "board_key": None}
        board = getattr(self.service.scheduler, "progress_board", None)

        def evaluate(job, s_points, entry, stats):
            s_list = [complex(s) for s in s_points]
            policy = job.policy or SPointPolicy()
            engine = policy.resolve_engine(entry.evaluator)
            size = self.block_points or policy.dispatch_block_points(
                entry.evaluator, engine, len(s_list),
                max(int(getattr(self.service, "workers", 1)), 1),
            )
            blocks = [s_list[i:i + size] for i in range(0, len(s_list), size)]
            if not state["planned"]:
                state["planned"] = True
                if board is not None:
                    # One board run spans the whole job — each block's
                    # evaluation advances it, so /v1/progress/{digest} shows
                    # a single monotone run instead of a micro-run per block.
                    state["board_key"] = entry.digest
                    state["reporter"] = board.start(
                        entry.digest, label=f"job:{record.job_id}"
                    )
                self.store.annotate_plan(record.job_id, {
                    "measure": job.digest(),
                    "engine": engine,
                    "n_s_points": len(s_list),
                    "n_blocks": len(blocks),
                    "block_points": size,
                    "solver": job.solver,
                    "points_checkpointed": self.service.cache.checkpointed_points(
                        job.digest()
                    ),
                })
                self.store.progress(record.job_id, {
                    "points_total": len(s_list),
                    "blocks_total": len(blocks),
                    "points_done": 0,
                    "blocks_done": 0,
                    "points_computed": 0,
                })
                state["points_total"] = len(s_list)
                state["blocks_total"] = len(blocks)
            else:
                # quantile refinement adds points beyond the plan grid
                state["points_total"] = state.get("points_total", 0) + len(s_list)
                state["blocks_total"] = state.get("blocks_total", 0) + len(blocks)

            resolved: dict[complex, complex] = {}
            for block in blocks:
                if self.store.cancel_requested(record.job_id):
                    raise JobCancelled(record.job_id)
                resolved.update(self.service.scheduler.evaluate(
                    job, block, eval_lock=entry.eval_lock, stats=stats,
                    progress_key=entry.digest, reporter=state["reporter"],
                ))
                state["points_done"] += len(block)
                state["blocks_done"] += 1
                self.store.progress(record.job_id, {
                    "points_total": state["points_total"],
                    "blocks_total": state["blocks_total"],
                    "points_done": state["points_done"],
                    "blocks_done": state["blocks_done"],
                    "points_computed": stats.s_points_computed,
                })
                # e.g. jobs.block=crash:done=1 hard-kills the process after
                # the first completed block: blocks are checkpointed, the job
                # is still `running` in the store — the durability scenario.
                faults.fire(
                    "jobs.block",
                    done=state["blocks_done"], job=record.job_id,
                )
                if self._draining:
                    raise JobDrained(record.job_id)
            if self.store.cancel_requested(record.job_id):
                raise JobCancelled(record.job_id)
            return resolved

        def finish():
            if state["reporter"] is not None:
                board.done(state["board_key"], state["reporter"])
                state["reporter"] = None

        evaluate.finish = finish
        return evaluate
