"""Shared run plumbing: the run context, host facts, the reference loop, RSS
readings and the closed-loop runner used by the in-process workloads."""
from __future__ import annotations

import functools
import gc
import math
import os
import platform
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

from stats import median
from tracing import Tracer, span_cost_seconds

#: BLAS/OpenMP thread pin applied to the benchmark and every process it starts
BLAS_PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: end-to-end metrics (untraced runs) and their units
END_TO_END = {"setup_s": "s", "query_p50_ms": "ms", "peak_rss_mb": "MB"}
#: milliseconds of ``ref_loop_ms()`` on the reference host: a 2-vCPU Xeon VM
#: with CPython 3.11, numpy 2.4 and scipy 1.17, where its median is ~5 ms
REF_NOMINAL_MS = 5.0
#: reference-loop samples taken at each probe (~50 ms); a single sample
#: varies by 25 %, so a run needs ~100 of them to know its host factor
REF_SAMPLES = 10

#: per-layer metrics (traced runs) and their units; a layer a workload
#: bypasses reports 0
PER_LAYER = {
    "dnamaca.parse_ms": "ms",
    "petri.explore_ms": "ms",
    "petri.states": "count",
    "smp.kernel_build_ms": "ms",
    "smp.kernel_nnz": "count",
    "api.resolve_ms": "ms",
    "api.build_job_ms": "ms",
    "api.points_required": "count",
    "api.points_solved": "count",
    "api.quantile_probes": "count",
    "api.quantile_points": "count",
    "smp.source_weights_ms": "ms",
    "smp.solve_ms": "ms",
    "smp.point_iters": "count",
    "smp.direct_solves": "count",
    "smp.ms_per_point_iter": "ms",
    "smp.spmv_ref_ms": "ms",
    "smp.roofline_ratio": "ratio",
    "smp.target_solves": "count",
    "laplace.invert_ms": "ms",
    "distributed.plane_export_ms": "ms",
    "distributed.plane_mb": "MB",
    "distributed.dispatch_ms": "ms",
    "distributed.blocks": "count",
    "distributed.retries": "count",
    "service.http_ms": "ms",
    "service.req_p95_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.points_computed": "count",
    "service.coalesced": "count",
    "service.generator_lag_ms": "ms",
    "jobs.submit_ms": "ms",
    "jobs.queue_wait_ms": "ms",
    "jobs.turnaround_ms": "ms",
    "obs.attributed_pct": "%",
    "obs.trace_overhead_pct": "%",
    "host.ref_loop_ms": "ms",
}


@dataclass
class Context:
    """One benchmark run: its arguments, scratch directory and tallies."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    root: Path
    workdir: Path
    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: sample counts and other facts printed beside the result
    info: dict = field(default_factory=dict)
    #: reference-loop samples (ms) taken between set-ups and between queries
    ref_setup: list[float] = field(default_factory=list)
    ref_loop: list[float] = field(default_factory=list)

    def rng(self, stream: int):
        """An independent ``numpy`` generator per input stream, all fixed by the seed."""
        import numpy as np

        return np.random.default_rng([self.seed, stream])

    def record(self, label: str, errors: list[str]) -> None:
        """Count one operation; a non-empty error list makes it a failure."""
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {'; '.join(errors)}")


@functools.lru_cache(maxsize=1)
def _ref_operands():
    """A fixed complex sparse matrix (20,000 states, ~12 entries a row) and vector."""
    import numpy as np
    from scipy import sparse

    n = 20_000
    rng = np.random.default_rng(12345)
    matrix = sparse.random(n, n, density=12 / n, format="csr", random_state=rng)
    return np.full(n, 1.0 + 1.0j), matrix.astype(complex)


def ref_loop_ms() -> float:
    """Milliseconds of a fixed reference workload: a probe of host speed.

    It mixes the two kinds of work the program's queries are made of: an
    interpreter-bound pure-Python loop and memory-bound complex sparse
    row-vector products.  A neighbour on the same core slows the first by
    up to 2x and the second by less.
    """
    x, matrix = _ref_operands()
    started = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += (i * i) % 7
    for _ in range(3):
        x @ matrix
    return (time.perf_counter() - started) * 1e3


def quietest_cpu(cpus) -> int:
    """The CPU among ``cpus`` on which the reference loop currently runs fastest."""
    timings = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = median([ref_loop_ms() for _ in range(5)])
    return min(timings, key=timings.get)


def ref_probe(into: list[float], samples: int = REF_SAMPLES) -> None:
    into.extend(ref_loop_ms() for _ in range(samples))


def host_factor(ref_loop: list[float]) -> float:
    """How much slower than the reference host this run's host ran.

    The shared host's speed drifts by tens of percent between minutes (a
    pure-Python loop's median moves 3.8 <-> 5.9 ms), and each CPU drifts on
    its own.  A run is pinned to one CPU (see run.py) and samples the loop
    on it between its set-ups and between its closed-loop queries; those
    timings are divided by this factor so that two sets of runs of the same
    code agree.  The loop runs no program code, so a slower program still
    shows as a slower time.
    """
    return median(ref_loop) / REF_NOMINAL_MS


def host_info(extra_env: dict | None = None) -> dict:
    """Facts that separate host drift from program change."""
    import numpy
    import scipy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        dep = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{dep.get('name', '?')} {dep.get('version', '')}".strip()
    except Exception:  # older numpy: no dict mode
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        **(extra_env or {}),
    }


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def repeat_setup(ctx: Context, reps: int, build) -> tuple[float, object]:
    """Median seconds of ``reps`` fresh set-ups; returns it and the last product."""
    times, product = [], None
    for rep in range(reps):
        ref_probe(ctx.ref_setup)
        if ctx.tracer is not None:
            ctx.tracer.query = f"setup{rep}"
        started = time.perf_counter()
        if ctx.tracer is not None:
            with ctx.tracer.span("setup"):
                product = build(rep)
        else:
            product = build(rep)
        times.append(time.perf_counter() - started)
        # Free the previous repetition's reference cycles now, not whenever
        # the collector next runs: otherwise the peak RSS depends on timing.
        gc.collect()
    if ctx.tracer is not None:
        ctx.tracer.query = None
    ctx.info["setup_samples"] = reps
    return median(times), product


def closed_loop(ctx: Context, make_query, run_query, check, *, warmup: int = 1):
    """One caller, one query at a time, until ``ctx.seconds`` of query time.

    Returns ``[(query_id, seconds, outcome)]`` for the timed queries; a
    failed query (an exception or a wrong answer) has no latency, so its
    seconds are +inf.  The reference loop runs between queries; oracle checks
    run after each query, outside its timing.
    """
    rng = ctx.rng(1)
    for w in range(warmup):
        query = make_query(rng)
        _timed(ctx, f"warmup{w}", run_query, query)
    samples = []
    measured = 0.0
    index = 0
    while measured < ctx.seconds:
        ref_probe(ctx.ref_loop)
        query = make_query(rng)
        seconds, outcome, error = _timed(ctx, index, run_query, query)
        if error:
            errors = [error]
        else:
            try:
                errors = check(query, outcome)
            except Exception as exc:  # an answer the oracle cannot check is wrong
                errors = [f"check failed: {type(exc).__name__}: {exc}"]
        ctx.record(f"query {index}", errors)
        samples.append((index, math.inf if errors else seconds, outcome))
        measured += seconds
        index += 1
    ctx.info["query_samples"] = len(samples)
    return samples


def _timed(ctx: Context, query_id, run_query, query):
    tracer = ctx.tracer
    if tracer is not None:
        tracer.query = query_id
    started = time.perf_counter()
    outcome, error = None, None
    try:
        if tracer is not None:
            with tracer.span("query"):
                outcome = run_query(query)
        else:
            outcome = run_query(query)
    except Exception as exc:  # a failed query is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    if tracer is not None:
        tracer.query = None
    return seconds, outcome, error


def layer_medians(ctx: Context, query_ids, mapping: dict[str, str]) -> dict[str, float]:
    """Median over queries of each span's per-query milliseconds.

    ``mapping`` is ``{metric name: span name}``.  Also fills
    ``obs.attributed_pct`` (median share of each query covered by layer
    spans) and ``obs.trace_overhead_pct`` (spans per query times the cost of
    one wrapped call, over the query time).
    """
    tracer = ctx.tracer
    per_metric = {name: [] for name in mapping}
    shares, overheads = [], []
    cost = span_cost_seconds()
    for qid in query_ids:
        spans = tracer.of_query(qid)
        roots = [s for s in spans if s["name"] == "query"]
        if not roots:
            continue
        root = roots[0]
        totals = tracer.totals(spans)
        for metric, span_name in mapping.items():
            per_metric[metric].append(totals.get(span_name, 0.0) * 1e3)
        shares.append(tracer.attributed_share(root, spans) * 100.0)
        overheads.append(100.0 * len(spans) * cost / max(tracer.duration(root), 1e-12))
    out = {m: median(v) if v else 0.0 for m, v in per_metric.items()}
    out["obs.attributed_pct"] = median(shares) if shares else 0.0
    out["obs.trace_overhead_pct"] = median(overheads) if overheads else 0.0
    return out


def spmv_ref_ms(kernel, s: complex, reps: int = 30) -> float:
    """Median milliseconds of one bare complex row-vector x U(s) product."""
    import numpy as np
    from scipy import sparse

    u = sparse.csr_matrix(kernel.u_matrix(s))
    x = np.full(kernel.n_states, (1.0 + 1.0j) / kernel.n_states)
    x @ u
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        x @ u
        times.append(time.perf_counter() - started)
    return median(times) * 1e3
