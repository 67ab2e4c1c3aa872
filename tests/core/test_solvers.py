"""Tests for the high-level PassageTimeSolver / TransientSolver API."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import PassageTimeJob, PassageTimeSolver, TransientJob, TransientSolver
from repro.distributions import Convolution, Erlang, Exponential, Uniform
from repro.smp import PassageTimeOptions, SMPBuilder


@pytest.fixture
def erlang_target():
    """Two-state kernel whose 0 -> 1 passage time is exactly Erlang(2, 3)."""
    b = SMPBuilder()
    b.add_transition(0, 1, 1.0, Erlang(2.0, 3))
    b.add_transition(1, 0, 1.0, Uniform(1.0, 2.0))
    return b.build(), Erlang(2.0, 3)


class TestPassageTimeSolver:
    def test_density_and_cdf_match_closed_form(self, erlang_target, t_grid):
        kernel, dist = erlang_target
        solver = PassageTimeSolver(kernel, sources=[0], targets=[1])
        assert np.max(np.abs(solver.density(t_grid) - dist.pdf(t_grid))) < 1e-6
        assert np.max(np.abs(solver.cdf(t_grid) - dist.cdf(t_grid))) < 1e-6

    def test_solve_packages_everything(self, erlang_target, t_grid):
        kernel, dist = erlang_target
        solver = PassageTimeSolver(kernel, sources=[0], targets=[1])
        result = solver.solve(t_grid)
        assert np.allclose(result.density, dist.pdf(t_grid), atol=1e-6)
        assert np.allclose(result.cdf, dist.cdf(t_grid), atol=1e-6)
        assert result.method == "euler"
        assert result.statistics["s_point_evaluations"] == 33 * len(t_grid)
        assert result.statistics["wall_clock_seconds"] > 0
        # Quantile interpolation from the packaged CDF (grid-resolution accuracy).
        q = result.quantile(0.5)
        assert dist.cdf(q) == pytest.approx(0.5, abs=0.05)

    def test_quantile_root_find(self, erlang_target):
        kernel, dist = erlang_target
        solver = PassageTimeSolver(kernel, sources=[0], targets=[1])
        q90 = solver.quantile(0.9, 0.05, 12.0)
        assert dist.cdf(q90) == pytest.approx(0.9, abs=1e-5)
        with pytest.raises(ValueError):
            solver.quantile(1.5, 0.1, 10.0)
        with pytest.raises(ValueError):
            solver.quantile(0.9, 5.0, 1.0)
        with pytest.raises(ValueError):
            solver.quantile(0.999999, 0.1, 0.2)  # not bracketed

    def test_mean_and_moments(self, erlang_target):
        kernel, dist = erlang_target
        solver = PassageTimeSolver(kernel, sources=[0], targets=[1])
        assert solver.mean() == pytest.approx(dist.mean(), rel=1e-5)
        moments = solver.moments(2)
        assert moments[0] == pytest.approx(1.0, abs=1e-8)
        assert moments[2] == pytest.approx(dist.variance() + dist.mean() ** 2, rel=1e-3)

    def test_direct_method_matches_iterative(self, erlang_target, t_grid):
        kernel, _ = erlang_target
        it = PassageTimeSolver(kernel, sources=[0], targets=[1], method="iterative")
        di = PassageTimeSolver(kernel, sources=[0], targets=[1], method="direct")
        assert np.allclose(it.density(t_grid), di.density(t_grid), atol=1e-8)

    def test_laguerre_inversion_option(self, erlang_target, t_grid):
        kernel, dist = erlang_target
        solver = PassageTimeSolver(kernel, sources=[0], targets=[1], inversion="laguerre")
        assert np.max(np.abs(solver.density(t_grid) - dist.pdf(t_grid))) < 1e-5

    def test_cycle_time_through_source_in_targets(self):
        b = SMPBuilder()
        b.add_transition(0, 1, 1.0, Exponential(2.0))
        b.add_transition(1, 0, 1.0, Exponential(3.0))
        kernel = b.build()
        cycle = Convolution([Exponential(2.0), Exponential(3.0)])
        solver = PassageTimeSolver(kernel, sources=[0], targets=[0])
        ts = np.array([0.3, 0.8, 1.5, 3.0])
        recovered = solver.density(ts)
        expected = (
            6.0 * (np.exp(-2.0 * ts) - np.exp(-3.0 * ts))
        )  # closed-form hypoexponential density
        assert np.allclose(recovered, expected, atol=1e-6)
        assert solver.mean() == pytest.approx(cycle.mean(), rel=1e-5)

    def test_transform_cache_reused(self, erlang_target, t_grid):
        kernel, _ = erlang_target
        solver = PassageTimeSolver(kernel, sources=[0], targets=[1])
        solver.density(t_grid)
        cached = len(solver._cache)
        solver.cdf(t_grid)  # same s-points: no new evaluations
        assert len(solver._cache) == cached

    def test_multiple_sources_alpha_weighting(self, branching_kernel):
        t = np.array([0.5, 1.0, 2.0])
        combined = PassageTimeSolver(branching_kernel, sources=[0, 1], targets=[4]).density(t)
        from repro.smp import source_weights

        alpha = source_weights(branching_kernel, [0, 1])
        separate = (
            alpha[0] * PassageTimeSolver(branching_kernel, sources=[0], targets=[4]).density(t)
            + alpha[1] * PassageTimeSolver(branching_kernel, sources=[1], targets=[4]).density(t)
        )
        assert np.allclose(combined, separate, atol=1e-7)

    def test_invalid_inputs(self, erlang_target):
        kernel, _ = erlang_target
        with pytest.raises(TypeError):
            PassageTimeSolver("not a kernel", sources=[0], targets=[1])
        with pytest.raises(ValueError):
            PassageTimeSolver(kernel, sources=[0], targets=[1], alpha=np.ones(5))
        with pytest.raises(ValueError):
            PassageTimeSolver(kernel, sources=[0], targets=[1], method="nonsense")


class TestTransientSolver:
    def test_two_state_ctmc_occupancy(self, ctmc_kernel):
        solver = TransientSolver(ctmc_kernel, sources=[0], targets=[1])
        t = np.array([0.05, 0.2, 0.5, 1.0, 2.0])
        expected = 0.4 * (1.0 - np.exp(-5.0 * t))
        assert np.max(np.abs(solver.probability(t) - expected)) < 1e-6
        assert solver.steady_state() == pytest.approx(0.4)

    def test_solve_reports_convergence_gap(self, ctmc_kernel):
        solver = TransientSolver(ctmc_kernel, sources=[0], targets=[1])
        result = solver.solve(np.array([0.1, 0.5, 1.0, 3.0]))
        assert result.steady_state == pytest.approx(0.4)
        assert result.convergence_gap() < 1e-4
        table = result.as_table()
        assert len(table) == 4 and table[0][0] == pytest.approx(0.1)

    def test_jobs_expose_kind_and_digest(self, ctmc_kernel):
        p = PassageTimeSolver(ctmc_kernel, sources=[0], targets=[1]).job
        t = TransientSolver(ctmc_kernel, sources=[0], targets=[1]).job
        assert isinstance(p, PassageTimeJob) and p.kind() == "passage"
        assert isinstance(t, TransientJob) and t.kind() == "transient"
        assert p.digest() != t.digest()
        # Digest depends on the targets.
        other = PassageTimeSolver(ctmc_kernel, sources=[0], targets=[0]).job
        assert other.digest() != p.digest()

    def test_transient_digest_carries_the_numerical_form(self, ctmc_kernel):
        """Checkpoints keyed by a transient digest must not mix values of
        another numerical form (the per-target Eq. 7 solves) into the grid."""
        from repro.core.jobs import JobSpec

        class UntaggedTransientJob(TransientJob):
            form = ""

        job = TransientSolver(ctmc_kernel, sources=[0], targets=[1]).job
        untagged = UntaggedTransientJob(
            kernel=job.kernel, alpha=job.alpha, targets=job.targets
        )
        assert job.form == "renewal"
        assert job.digest() != untagged.digest()
        # the tag survives the worker round trip
        assert JobSpec.from_job(job).build(job.evaluator).digest() == job.digest()

    def test_transient_evaluate_is_a_one_point_batch(self, ctmc_kernel):
        job = TransientSolver(ctmc_kernel, sources=[0], targets=[1]).job
        s = 1.0 + 2.0j
        batch, _ = job.evaluate_batch([s, 3.0 - 1.0j])
        assert job.evaluate(s) == batch[0]
        assert job.last_report["blocks"][0]["points"] == 1

    def test_job_pickles_without_evaluator(self, ctmc_kernel):
        import pickle

        job = PassageTimeSolver(ctmc_kernel, sources=[0], targets=[1]).job
        _ = job.evaluator  # force lazy construction
        clone = pickle.loads(pickle.dumps(job))
        assert clone.evaluate(1.0 + 1j) == pytest.approx(job.evaluate(1.0 + 1j))

    def test_options_propagate(self, ctmc_kernel):
        opts = PassageTimeOptions(epsilon=1e-10, max_iterations=500)
        solver = TransientSolver(ctmc_kernel, sources=[0], targets=[1], options=opts)
        assert solver.job.options.epsilon == 1e-10
