"""The in-process workloads: ``voting-passage`` and ``voting-transient``.

Both run queries through the public facade (``Model.from_spec(...)`` and
``query.run()`` on the inline engine), one caller in a closed loop.
"""
from __future__ import annotations

import numpy as np

import oracle
from common import Context, closed_loop, layer_medians, peak_rss_mb, repeat_setup, spmv_ref_ms

SOURCE = "p1 == CC"

WORKLOADS = {
    # 2,098 states: the smallest voting net above the 2,000-state switch of
    # smp/embedded.py, so multi-source weights take the power-iteration path
    "voting-passage": dict(
        params=(20, 6, 3), kind="passage", target="p2 == CC",
        t_base=(20.0, 24.0, 28.0, 32.0, 36.0, 40.0), setup_reps=9,
    ),
    # 226 states; "p2 >= 2" has 168 target states, one passage-vector solve
    # each per s-point in the Eq. 7 transient form
    "voting-transient": dict(
        params=(8, 3, 2), kind="transient", target="p2 >= 2",
        t_base=(3.0, 6.0), setup_reps=15,
    ),
}

#: each query's t-points are the workload's base grid, each point scaled by
#: a seeded factor within +-JITTER: every s-point is fresh (nothing is served
#: from a cache) while the work per query, which depends on t through the
#: convergence rate, stays nearly the same from query to query and seed to seed
JITTER = 0.02

#: end-to-end timings reported in reference-host time (common.host_factor)
HOST_SCALED = ("setup_s", "query_p50_ms")

#: transform oracle tolerance: >= 100x the largest deviation seen on the
#: seed code (7e-10 passage, 2e-11 transient)
TRANSFORM_ATOL, TRANSFORM_RTOL = 1e-7, 1e-6
#: s-points of each query checked against the oracle
ORACLE_POINTS = 3


def jittered(rng, base) -> np.ndarray:
    base = np.asarray(base, dtype=float)
    return np.sort(base * rng.uniform(1.0 - JITTER, 1.0 + JITTER, size=base.size))


def _spec(params) -> str:
    from repro.models import voting_spec_text
    from repro.models.voting import VotingParameters

    return voting_spec_text(VotingParameters(*params))


def patch_setup_layers(tracer) -> None:
    import repro.service.registry as registry

    tracer.patch(registry, "parse_model", "dnamaca.parse")
    tracer.patch(registry, "load_model", "dnamaca.parse")
    tracer.patch(registry, "explore_vectorized", "petri.explore")
    tracer.patch(registry, "build_kernel", "smp.kernel_build")


def _patch_query_layers(tracer) -> None:
    import repro.api.engines as engines
    import repro.api.plan as plan
    import repro.smp.transient as transient
    from repro.api.plan import QueryPlan
    from repro.core.jobs import TransformJob
    from repro.laplace.euler import EulerInverter

    def solve_report(record, args, _result):
        blocks = (getattr(args[0], "last_report", None) or {}).get("blocks") or []
        record["iterations"] = sum(b.get("iterations", 0) for b in blocks)
        record["direct_solves"] = sum(b.get("direct_solves", 0) for b in blocks)

    tracer.patch(engines, "resolve_state_sets", "api.resolve")
    tracer.patch(engines, "build_job", "api.build_job")
    tracer.patch(plan, "source_weights", "smp.source_weights")
    tracer.patch(QueryPlan, "derive", "api.plan")
    tracer.patch(
        TransformJob, "evaluate_many", "smp.solve",
        attrs=lambda a, k: {"points": len(a[1])}, after=solve_report,
    )
    tracer.patch(
        transient, "passage_transform_vector_batch", "smp.target_solve",
        attrs=lambda a, k: {"points": int(np.size(a[2]))},
    )
    tracer.patch(
        EulerInverter, "invert_values", "laplace.invert",
        attrs=lambda a, k: {"n_t": int(np.size(a[1]))},
    )


def setup_layer_metrics(ctx: Context, kernel) -> dict:
    """Median set-up layer times over the traced set-up repetitions."""
    from stats import median

    names = {"dnamaca.parse_ms": "dnamaca.parse", "petri.explore_ms": "petri.explore",
             "smp.kernel_build_ms": "smp.kernel_build"}
    reps = sorted({s["query"] for s in ctx.tracer.spans if str(s["query"]).startswith("setup")})
    out = {}
    for metric, span in names.items():
        values = [ctx.tracer.totals(ctx.tracer.of_query(r)).get(span, 0.0) * 1e3 for r in reps]
        out[metric] = median(values) if values else 0.0
    out["petri.states"] = float(kernel.n_states)
    out["smp.kernel_nnz"] = float(kernel.n_transitions)
    return out


def run(ctx: Context) -> dict:
    from repro.api import Model
    from repro.service.registry import ModelRegistry

    cfg = WORKLOADS[ctx.workload]
    spec = _spec(cfg["params"])
    if ctx.traced:
        patch_setup_layers(ctx.tracer)

    def build(_rep):
        model = Model.from_spec(spec, registry=ModelRegistry())
        model.entry  # parse, explore, kernel and evaluator
        return model

    setup_s, model = repeat_setup(ctx, cfg["setup_reps"], build)
    kernel = model.kernel
    sources = model.states(SOURCE)
    targets = model.states(cfg["target"])
    alpha = oracle.stationary_weights(kernel, sources)
    kind = cfg["kind"]
    oracle_fn = oracle.passage_transform if kind == "passage" else oracle.transient_transform
    check_rng = ctx.rng(2)

    def make_query(rng):
        t = jittered(rng, cfg["t_base"])
        if kind == "passage":
            return model.passage(SOURCE, cfg["target"]).density(t).cdf().quantile(0.9)
        return model.transient(SOURCE, cfg["target"]).probability(t).without_steady_state()

    def check(query, result) -> list[str]:
        values = result.transform_values
        keys = list(values)
        picks = check_rng.choice(len(keys), size=min(ORACLE_POINTS, len(keys)), replace=False)
        errors = []
        for i in picks:
            s = keys[int(i)]
            ref = oracle_fn(kernel, alpha, targets, s)
            if not oracle.close(values[s], ref, rtol=TRANSFORM_RTOL, atol=TRANSFORM_ATOL):
                errors.append(f"transform at s={s:.4g}: {values[s]:.8g} vs oracle {ref:.8g}")
        if kind == "passage":
            errors += oracle.sanity_errors(density=result.density, cdf=result.cdf)
            q = result.quantiles.get(0.9)
            if q is None or not np.isfinite(q) or q <= 0:
                errors.append(f"quantile {q!r}")
        else:
            errors += oracle.sanity_errors(probability=result.probability)
        return errors

    if ctx.traced:
        ctx.tracer.restore()
        _patch_query_layers(ctx.tracer)
    samples = closed_loop(ctx, make_query, lambda q: q.run(), check)

    if not ctx.traced:
        from stats import median

        return {
            "setup_s": setup_s,
            "query_p50_ms": median([sec for _, sec, _ in samples]) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }

    ctx.tracer.restore()
    ids = [qid for qid, _, _ in samples]
    out = setup_layer_metrics(ctx, kernel)
    out.update(layer_medians(ctx, ids, {
        "api.resolve_ms": "api.resolve",
        "api.build_job_ms": "api.build_job",
        "smp.source_weights_ms": "smp.source_weights",
        "smp.solve_ms": "smp.solve",
        "laplace.invert_ms": "laplace.invert",
    }))
    out.update(_query_counts(ctx, samples))
    ref = spmv_ref_ms(kernel, complex(2.0, 1.0))
    out["smp.spmv_ref_ms"] = ref
    if out["smp.point_iters"] > 0:
        out["smp.ms_per_point_iter"] = out["smp.solve_ms"] / out["smp.point_iters"]
        out["smp.roofline_ratio"] = out["smp.ms_per_point_iter"] / ref
    return out


def _query_counts(ctx: Context, samples) -> dict:
    """Per-query work counts (medians over the traced queries)."""
    from stats import median

    rows = {k: [] for k in ("api.points_required", "api.points_solved", "api.quantile_probes",
                            "api.quantile_points", "smp.point_iters", "smp.direct_solves",
                            "smp.target_solves")}
    for qid, _, result in samples:
        if result is None:
            continue
        spans = ctx.tracer.of_query(qid)
        solves = sorted((s for s in spans if s["name"] == "smp.solve"), key=lambda s: s["start"])
        inverts = [s for s in spans if s["name"] == "laplace.invert"]
        n_t = int(np.size(result.t_points))
        rows["api.points_required"].append(result.statistics.get("s_points_required", 0))
        rows["api.points_solved"].append(result.statistics.get("s_points_computed", 0))
        rows["api.quantile_probes"].append(
            sum(1 for s in inverts if s.get("n_t") == 1) if n_t > 1 else 0
        )
        rows["api.quantile_points"].append(sum(s.get("points", 0) for s in solves[1:]))
        rows["smp.point_iters"].append(sum(s.get("iterations", 0) for s in solves))
        rows["smp.direct_solves"].append(sum(s.get("direct_solves", 0) for s in solves))
        rows["smp.target_solves"].append(
            sum(s.get("points", 0) for s in spans if s["name"] == "smp.target_solve")
        )
    return {k: float(median(v)) if v else 0.0 for k, v in rows.items()}
