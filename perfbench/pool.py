"""The ``pool-factored`` workload: a high-fan-out service-pool kernel solved
through a one-worker ``MultiprocessingBackend``.

The kernel (3,000 states, ~137 successors each, 6 distinct sojourn
distributions) is built from seeded arrays, so the factored engine is
auto-selected.  Each query is a density on 3 seeded t-points: plan, evaluate
the s-grid on the pool (one worker, attached to the file-backed kernel
plane), invert.
"""
from __future__ import annotations

import time

import numpy as np

import oracle
from common import Context, closed_loop, layer_medians, peak_rss_mb, repeat_setup, spmv_ref_ms
from inline import jittered

N_STATES, DEGREE = 3000, 137
#: end-to-end timings reported in reference-host time (common.host_factor)
HOST_SCALED = ("setup_s", "query_p50_ms")
#: t-points in the density's smooth region.  Deterministic(0.5) puts an atom
#: at every multiple of 0.5 and the uniform and exponential sojourns jumps
#: beside them, so below t ~ 3 the density is rough and the Euler inversion
#: does not converge (the program's and the oracle's inversions differ by up
#: to 1e-3 there, and the program's reads negative).  From t ~ 3.5 on the two
#: agree to within 1e-6 of a density near 4e-4.
T_BASE = (4.0, 6.0, 8.0)
SETUP_REPS = 3
#: GMRES oracle tolerance; observed deviations on the seed code are ~1e-20
TRANSFORM_ATOL, TRANSFORM_RTOL = 1e-12, 1e-6
ORACLE_POINTS = 3


def service_pool_kernel(rng: np.random.Generator):
    """Every state hands off to its ring successor plus DEGREE random states."""
    from repro.distributions import Deterministic, Erlang, Exponential, Uniform, Weibull
    from repro.smp import SMPKernel

    dists = [Exponential(1.2), Erlang(2.0, 3), Uniform(0.2, 1.4),
             Deterministic(0.5), Weibull(1.3, 1.0), Exponential(4.0)]
    n = N_STATES
    src = np.repeat(np.arange(n), DEGREE + 1)
    dst = np.concatenate(
        [((np.arange(n) + 1) % n)[:, None], rng.integers(0, n, (n, DEGREE))], axis=1
    ).ravel()
    keys = np.unique((src * n + dst)[src != dst])
    src, dst = keys // n, keys % n
    weights = rng.random(src.size) + 0.05
    weights /= np.bincount(src, weights=weights, minlength=n)[src]
    return SMPKernel(n, src, dst, weights, rng.integers(0, len(dists), src.size), dists)


def run(ctx: Context) -> dict:
    import resource

    from repro.core.jobs import PassageTimeJob
    from repro.distributed import MultiprocessingBackend
    from repro.smp import PlaneStore, SPointPolicy

    tracer = ctx.tracer
    if ctx.traced:
        import repro.smp.plane as plane

        tracer.patch(plane.KernelPlane, "build", "distributed.plane_export")

    alpha = np.zeros(N_STATES)
    alpha[0] = 1.0
    targets = np.array([N_STATES - 1])

    kernel_ms: list[float] = []

    def build(rep):
        kernel_started = time.perf_counter()
        kernel = service_pool_kernel(ctx.rng(0))
        kernel_ms.append((time.perf_counter() - kernel_started) * 1e3)
        store = PlaneStore(ctx.workdir / f"planes{rep}")
        evaluator = kernel.evaluator()
        if SPointPolicy().resolve_engine(evaluator) != "factored":
            raise RuntimeError("the service-pool kernel no longer selects the factored engine")
        evaluator.factored().prewarm()
        evaluator.factored().col_structure()
        store.export(evaluator, include_factored=True)
        return kernel, store

    setup_s, (kernel, store) = repeat_setup(ctx, SETUP_REPS, build)
    job = PassageTimeJob(kernel=kernel, alpha=alpha, targets=targets)
    backend = MultiprocessingBackend(processes=1, plane_store=store)
    check_rng = ctx.rng(2)

    if ctx.traced:
        from repro.laplace.euler import EulerInverter
        from repro.api.plan import QueryPlan

        def pool_report(record, args, _result):
            be = args[0]
            blocks = (job.last_report or {}).get("blocks") or []
            busy = sum(w["busy_seconds"] for w in (be.last_worker_stats or {}).values())
            record.update(
                points=len(args[2]) if len(args) > 2 else 0,
                iterations=sum(b.get("iterations", 0) for b in blocks),
                direct_solves=sum(b.get("direct_solves", 0) for b in blocks),
                solve_seconds=sum(b.get("seconds", 0.0) for b in blocks),
                dispatch_seconds=max((be.last_wall_clock or 0.0) - busy, 0.0),
                blocks=len(blocks),
                retries=sum((be.last_retry_stats or {}).get("retries", {}).values()),
            )

        tracer.patch(QueryPlan, "derive", "api.plan")
        tracer.patch(MultiprocessingBackend, "evaluate", "distributed.evaluate",
                     after=pool_report)
        tracer.patch(EulerInverter, "invert_values", "laplace.invert")

    def make_query(rng):
        return jittered(rng, T_BASE)

    def run_query(t_points):
        from repro.api.plan import QueryPlan
        from repro.laplace.euler import EulerInverter
        from repro.laplace.inverter import canonical_s, expand_to_grid

        inverter = EulerInverter()
        plan = QueryPlan.derive(inverter, t_points)
        computed = backend.evaluate(job, plan.s_points)
        values = expand_to_grid(
            plan.required_s_points, {canonical_s(s): v for s, v in computed.items()}
        )
        return t_points, computed, inverter.invert_values(t_points, values)

    def check(_query, outcome) -> list[str]:
        _t, computed, density = outcome
        keys = list(computed)
        errors = []
        for i in check_rng.choice(len(keys), size=ORACLE_POINTS, replace=False):
            s = keys[int(i)]
            ref = oracle.passage_transform(kernel, alpha, targets, s)
            if not oracle.close(computed[s], ref, rtol=TRANSFORM_RTOL, atol=TRANSFORM_ATOL):
                errors.append(f"transform at s={s:.4g}: {computed[s]:.8g} vs oracle {ref:.8g}")
        return errors + oracle.sanity_errors(density=density)

    try:
        samples = closed_loop(ctx, make_query, run_query, check)
    finally:
        backend.close()

    if not ctx.traced:
        from stats import median

        # The worker process does the solving; its peak is the workload's.
        return {
            "setup_s": setup_s,
            "query_p50_ms": median([sec for _, sec, _ in samples]) * 1e3,
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        }

    tracer.restore()
    from stats import median

    ids = [qid for qid, _, _ in samples]
    out = layer_medians(ctx, ids, {"laplace.invert_ms": "laplace.invert"})
    rows = {k: [] for k in ("solve", "dispatch", "iters", "direct", "blocks", "retries", "points")}
    for qid in ids:
        for s in tracer.of_query(qid):
            if s["name"] == "distributed.evaluate":
                rows["solve"].append(s["solve_seconds"] * 1e3)
                rows["dispatch"].append(s["dispatch_seconds"] * 1e3)
                rows["iters"].append(s["iterations"])
                rows["direct"].append(s["direct_solves"])
                rows["blocks"].append(s["blocks"])
                rows["retries"].append(s["retries"])
                rows["points"].append(s["points"])
    med = {k: float(median(v)) if v else 0.0 for k, v in rows.items()}
    setup_exports = [
        tracer.duration(s) * 1e3 for s in tracer.spans
        if s["name"] == "distributed.plane_export" and str(s["query"]).startswith("setup")
    ]
    out.update({
        "smp.kernel_build_ms": median(kernel_ms),
        "smp.kernel_nnz": float(kernel.n_transitions),
        "api.points_required": med["points"],
        "api.points_solved": med["points"],
        "smp.solve_ms": med["solve"],
        "smp.point_iters": med["iters"],
        "smp.direct_solves": med["direct"],
        "distributed.dispatch_ms": med["dispatch"],
        "distributed.blocks": med["blocks"],
        "distributed.retries": med["retries"],
        "distributed.plane_export_ms": median(setup_exports) if setup_exports else 0.0,
        "distributed.plane_mb": store.size_bytes() / 2**20,
    })
    ref = spmv_ref_ms(kernel, complex(2.0, 1.0))
    out["smp.spmv_ref_ms"] = ref
    if med["iters"] > 0:
        out["smp.ms_per_point_iter"] = med["solve"] / med["iters"]
        out["smp.roofline_ratio"] = out["smp.ms_per_point_iter"] / ref
    return out
