"""Tests for transient state distributions (Pyke's relations, Eqs. 6-7)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import Exponential
from repro.laplace import EulerInverter
from repro.laplace.euler import euler_s_points
from repro.laplace.laguerre import LaguerreInverter
from repro.models import (
    SCALED_CONFIGURATIONS,
    alternating_renewal_kernel,
    birth_death_kernel,
    build_voting_kernel,
    cyclic_server_kernel,
    mg1_queue_kernel,
)
from repro.smp import (
    SMPBuilder,
    SPointPolicy,
    smp_steady_state,
    sojourn_lsts,
    source_weights,
    transient_transform_batch,
)
from tests.smp.eq7 import eq7_transient_transform, exact_transient_transform


def invert_transient(kernel, sources, targets, t_points, solver="iterative"):
    alpha = source_weights(kernel, sources)
    inv = EulerInverter()

    def transform(s_values):
        values, _ = transient_transform_batch(kernel, alpha, targets, s_values, solver=solver)
        return values

    return inv.invert(transform, t_points)


def _bundled_models():
    voting, _ = build_voting_kernel(SCALED_CONFIGURATIONS["tiny"])
    return {
        "alternating_renewal": alternating_renewal_kernel(),
        "birth_death": birth_death_kernel(6),
        "cyclic_server": cyclic_server_kernel(),
        "mg1_queue": mg1_queue_kernel(8),
        "voting_tiny": voting,
    }


MODELS = _bundled_models()
GRIDS = {
    "euler": np.concatenate([euler_s_points(t) for t in (0.8, 2.5)]),
    "laguerre": LaguerreInverter().required_s_points([1.0])[:24],
}
#: largest deviation allowed from the exact sparse solve, per solver
RENEWAL_ATOL = {"iterative": 1e-9, "direct": 1e-11}


@pytest.mark.parametrize("solver", ["iterative", "direct"])
@pytest.mark.parametrize("engine", ["batch", "factored"])
@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_renewal_form_matches_exact_solve_and_eq7(model, grid, engine, solver):
    """The renewal form against two independent references: an exact
    ``spsolve`` of ``(I - U) x = w`` and Eq. 7's per-target passage solves."""
    kernel = MODELS[model]
    n = kernel.n_states
    alpha = source_weights(kernel, [0])
    targets = [n - 1, n - 2]
    s_values = GRIDS[grid]
    report: dict = {}
    values, diags = transient_transform_batch(
        kernel, alpha, targets, s_values, solver=solver,
        policy=SPointPolicy(engine=engine), report=report,
    )
    atol = RENEWAL_ATOL[solver]
    exact = exact_transient_transform(kernel, alpha, targets, s_values)
    assert np.abs(values - exact).max() < atol
    eq7 = eq7_transient_transform(kernel, alpha, targets, s_values)
    assert np.abs(values - eq7).max() < atol
    assert report["engine"] == engine
    assert all(d.engine == engine and d.converged for d in diags)
    if solver == "direct":
        assert all(d.direct_solves == 1 and d.iterations == 0 for d in diags)
    else:
        assert all(d.solver == "iterative" and d.iterations > 0 for d in diags)
        assert all(0.0 < d.final_delta for d in diags)


class TestTwoStateCTMC:
    """P(Z(t)=down | up) = a/(a+b) (1 - e^{-(a+b)t}) for rates a=2, b=3."""

    def test_occupancy_of_other_state(self, ctmc_kernel):
        t = np.array([0.05, 0.2, 0.5, 1.0, 2.0])
        expected = 0.4 * (1.0 - np.exp(-5.0 * t))
        recovered = invert_transient(ctmc_kernel, [0], [1], t)
        assert np.max(np.abs(recovered - expected)) < 5e-8

    def test_occupancy_of_own_state(self, ctmc_kernel):
        t = np.array([0.05, 0.2, 0.5, 1.0, 2.0])
        expected = 0.6 + 0.4 * np.exp(-5.0 * t)
        recovered = invert_transient(ctmc_kernel, [0], [0], t)
        assert np.max(np.abs(recovered - expected)) < 5e-8

    def test_direct_solver_agrees(self, ctmc_kernel):
        t = np.array([0.1, 0.6, 1.5])
        a = invert_transient(ctmc_kernel, [0], [1], t, solver="iterative")
        b = invert_transient(ctmc_kernel, [0], [1], t, solver="direct")
        assert np.allclose(a, b, rtol=0.0, atol=1e-8)

    def test_complement_sums_to_one(self, ctmc_kernel):
        t = np.array([0.1, 0.7, 1.8])
        p_up = invert_transient(ctmc_kernel, [0], [0], t)
        p_down = invert_transient(ctmc_kernel, [0], [1], t)
        assert np.allclose(p_up + p_down, 1.0, rtol=0.0, atol=5e-8)


class TestThreeStateCTMC:
    """Cross-check against the matrix exponential of the CTMC generator."""

    @pytest.fixture
    def chain(self):
        b = SMPBuilder()
        rates = {(0, 1): 2.0, (0, 2): 1.0, (1, 0): 1.5, (1, 2): 0.5, (2, 0): 1.0, (2, 1): 3.0}
        total = {i: sum(r for (a, _), r in rates.items() if a == i) for i in range(3)}
        for (i, j), r in rates.items():
            b.add_transition(i, j, r / total[i], Exponential(total[i]))
        generator = np.zeros((3, 3))
        for (i, j), r in rates.items():
            generator[i, j] = r
        np.fill_diagonal(generator, -generator.sum(axis=1))
        return b.build(), generator

    @pytest.mark.parametrize("target", [0, 1, 2])
    def test_against_matrix_exponential(self, chain, target):
        from scipy.linalg import expm

        kernel, Q = chain
        t_points = np.array([0.1, 0.4, 1.0, 2.5])
        expected = np.array([expm(Q * t)[0, target] for t in t_points])
        recovered = invert_transient(kernel, [0], [target], t_points)
        assert np.max(np.abs(recovered - expected)) < 5e-8

    def test_target_set_additivity(self, chain):
        kernel, Q = chain
        t_points = np.array([0.2, 0.8, 2.0])
        combined = invert_transient(kernel, [0], [1, 2], t_points)
        separate = invert_transient(kernel, [0], [1], t_points) + invert_transient(
            kernel, [0], [2], t_points
        )
        assert np.allclose(combined, separate, rtol=0.0, atol=2e-12)

    def test_multiple_sources_weighting(self, chain):
        kernel, _ = chain
        t_points = np.array([0.3, 1.2])
        alpha = source_weights(kernel, [0, 1])
        combined = invert_transient(kernel, [0, 1], [2], t_points)
        separate = alpha[0] * invert_transient(kernel, [0], [2], t_points) + alpha[
            1
        ] * invert_transient(kernel, [1], [2], t_points)
        assert np.allclose(combined, separate, rtol=0.0, atol=5e-10)


class TestLongRunBehaviour:
    def test_transient_tends_to_steady_state(self, branching_kernel):
        pi = smp_steady_state(branching_kernel)
        targets = [3, 4]
        limit = pi[targets].sum()
        value = invert_transient(branching_kernel, [0], targets, np.array([200.0]))[0]
        assert value == pytest.approx(limit, abs=2e-8)

    def test_short_time_probability_near_indicator(self, branching_kernel):
        """At t ~ 0+ the chain is still in its initial state."""
        in_target = invert_transient(branching_kernel, [0], [0], np.array([1e-3]))[0]
        out_target = invert_transient(branching_kernel, [0], [4], np.array([1e-3]))[0]
        assert in_target == pytest.approx(1.0, abs=1e-3)
        assert out_target == pytest.approx(0.0, abs=1e-3)


class TestValidation:
    def test_sojourn_lsts_match_row_sums(self, branching_kernel):
        s = 0.9 + 2.2j
        h = sojourn_lsts(branching_kernel, s)
        U = branching_kernel.u_matrix(s).toarray()
        assert np.allclose(h, U.sum(axis=1))

    def test_zero_s_rejected(self, ctmc_kernel):
        alpha = source_weights(ctmc_kernel, [0])
        with pytest.raises(ValueError, match="pole"):
            transient_transform_batch(ctmc_kernel, alpha, [1], [0.0])

    def test_bad_solver_rejected(self, ctmc_kernel):
        alpha = source_weights(ctmc_kernel, [0])
        with pytest.raises(ValueError):
            transient_transform_batch(ctmc_kernel, alpha, [1], [1.0], solver="guess")

    def test_bad_targets_rejected(self, ctmc_kernel):
        alpha = source_weights(ctmc_kernel, [0])
        with pytest.raises(ValueError):
            transient_transform_batch(ctmc_kernel, alpha, [9], [1.0])


def test_transient_blocks_report_like_passage_blocks(monkeypatch):
    """Each transient s-block gets the shared ``s-block-solve`` span and one
    engine-labelled solve-block record with real iteration counts."""
    import repro.obs.metrics as metrics
    from repro.obs import get_tracer

    kernel = MODELS["mg1_queue"]
    alpha = source_weights(kernel, [0])
    noted = []
    monkeypatch.setattr(metrics, "note_solve_block", lambda **kw: noted.append(kw))
    tracer = get_tracer()
    tracer.clear()
    tracer.enable()
    try:
        report: dict = {}
        _, diags = transient_transform_batch(
            kernel, alpha, [8], GRIDS["euler"], report=report,
            policy=SPointPolicy(engine="batch", max_block_bytes=1 << 20),
        )
        spans = [s for s in tracer.spans() if s["name"] == "s-block-solve"]
    finally:
        tracer.disable()
        tracer.clear()
    assert len(noted) == len(report["blocks"]) == len(spans) >= 1
    assert all(record["engine"] == "batch" for record in noted)
    assert all(span["attributes"]["engine"] == "batch" for span in spans)
    assert sum(record["iterations"] for record in noted) == sum(d.iterations for d in diags) > 0
    assert sum(record["unconverged"] for record in noted) == 0
    assert all(d.final_delta > 0.0 for d in diags if d.solver == "iterative")
