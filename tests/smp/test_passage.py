"""Tests for the iterative passage-time algorithm and the direct baseline."""
from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import Convolution, Erlang, Exponential, Uniform
from repro.smp import (
    PassageTimeOptions,
    passage_transform,
    passage_transform_direct,
    source_weights,
)
from tests.smp.conftest import random_kernel, row_form_vector

S_POINTS = [0.5 + 0.0j, 0.3 + 2.1j, 4.0 - 1.5j, 0.05 + 9.0j]


class TestAgainstClosedForms:
    def test_single_hop_equals_sojourn_transform(self, two_state_kernel):
        """Passage 0 -> 1 in the two-state kernel is exactly the Erlang sojourn."""
        erlang = Erlang(2.0, 3)
        alpha = source_weights(two_state_kernel, [0])
        for s in S_POINTS:
            value, diag = passage_transform(two_state_kernel, alpha, [1], s)
            assert diag.converged
            assert value == pytest.approx(erlang.lst(s), rel=1e-8, abs=1e-10)

    def test_cycle_time_is_convolution(self, two_state_kernel):
        """Passage 0 -> 0 is the convolution of both sojourns (the initial U
        term of Eq. 9 is what makes cycle times non-zero)."""
        cycle = Convolution([Erlang(2.0, 3), Uniform(1.0, 2.0)])
        alpha = source_weights(two_state_kernel, [0])
        for s in S_POINTS:
            value, _ = passage_transform(two_state_kernel, alpha, [0], s)
            assert value == pytest.approx(cycle.lst(s), rel=1e-8, abs=1e-10)

    def test_ring_passage_is_convolution_of_segments(self, ring_kernel):
        """Passage p -> s around the deterministic ring is the convolution of
        the three intermediate sojourns."""
        conv = Convolution([Exponential(1.0), Erlang(2.0, 2), Uniform(0.25, 0.75)])
        alpha = source_weights(ring_kernel, [0])
        s = 0.8 + 1.3j
        value, _ = passage_transform(ring_kernel, alpha, [3], s)
        # p->q->r->s traverses Exponential, Erlang, Deterministic... note the
        # passage *into* s happens when the r -> s transition fires, so the
        # segments are the sojourns in p, q and r.
        conv = Convolution([Exponential(1.0), Erlang(2.0, 2), __import__("repro").distributions.Deterministic(0.5)])
        assert value == pytest.approx(conv.lst(s), rel=1e-8, abs=1e-10)

    def test_exponential_race_first_passage(self):
        """CTMC sanity check: 0 -> {2} through a probabilistic branch.

        From state 0 the chain moves to 2 directly with probability 0.4 or via
        state 1 with probability 0.6; all holding times are Exp(1).  The
        transform is 0.4/(1+s) + 0.6/(1+s)^2.
        """
        from repro.smp import SMPBuilder

        b = SMPBuilder()
        b.add_transition(0, 2, 0.4, Exponential(1.0))
        b.add_transition(0, 1, 0.6, Exponential(1.0))
        b.add_transition(1, 2, 1.0, Exponential(1.0))
        b.add_transition(2, 0, 1.0, Exponential(1.0))
        k = b.build()
        alpha = source_weights(k, [0])
        for s in S_POINTS:
            value, _ = passage_transform(k, alpha, [2], s)
            expected = 0.4 / (1 + s) + 0.6 / (1 + s) ** 2
            assert value == pytest.approx(expected, rel=1e-8, abs=1e-10)


class TestIterativeMatchesDirect:
    @pytest.mark.parametrize("s", S_POINTS)
    def test_vector_forms_agree(self, branching_kernel, s):
        iterative, converged = row_form_vector(branching_kernel, [4], s)
        direct = passage_transform_direct(branching_kernel, [4], s)
        assert converged
        assert np.allclose(iterative, direct, atol=1e-8)

    @pytest.mark.parametrize("targets", [[0], [2, 4], [1, 2, 3]])
    def test_multiple_targets_agree(self, branching_kernel, targets):
        s = 0.6 + 1.7j
        iterative, _ = row_form_vector(branching_kernel, targets, s)
        direct = passage_transform_direct(branching_kernel, targets, s)
        assert np.allclose(iterative, direct, atol=1e-8)

    def test_random_kernels_agree(self, rng):
        for n in (5, 12, 25):
            kernel = random_kernel(rng, n)
            targets = [int(rng.integers(0, n))]
            s = complex(rng.uniform(0.05, 2.0), rng.uniform(-5.0, 5.0))
            iterative, converged = row_form_vector(kernel, targets, s)
            direct = passage_transform_direct(kernel, targets, s)
            assert converged
            assert np.allclose(iterative, direct, atol=1e-7)

    def test_scalar_form_is_alpha_weighted_vector_form(self, branching_kernel):
        s = 0.4 + 0.9j
        alpha = source_weights(branching_kernel, [0, 1, 2])
        scalar, _ = passage_transform(branching_kernel, alpha, [4], s)
        vector = passage_transform_direct(branching_kernel, [4], s)
        assert scalar == pytest.approx(np.dot(alpha, vector), rel=1e-7)


class TestConvergenceControls:
    def test_tighter_epsilon_costs_more_iterations(self, branching_kernel):
        s = 0.05 + 0.3j
        alpha = source_weights(branching_kernel, [0])
        loose = PassageTimeOptions(epsilon=1e-4)
        tight = PassageTimeOptions(epsilon=1e-12)
        _, d_loose = passage_transform(branching_kernel, alpha, [4], s, loose)
        _, d_tight = passage_transform(branching_kernel, alpha, [4], s, tight)
        assert d_tight.iterations >= d_loose.iterations
        assert d_loose.converged and d_tight.converged

    def test_iteration_cap_reports_unconverged(self, branching_kernel):
        s = 0.001 + 0.01j
        alpha = source_weights(branching_kernel, [0])
        capped = PassageTimeOptions(epsilon=1e-14, max_iterations=3)
        _, diag = passage_transform(branching_kernel, alpha, [4], s, capped)
        assert not diag.converged
        assert diag.iterations == 3

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            PassageTimeOptions(epsilon=0.0)
        with pytest.raises(ValueError):
            PassageTimeOptions(max_iterations=0)
        with pytest.raises(ValueError):
            PassageTimeOptions(consecutive=0)

    def test_bad_alpha_rejected(self, branching_kernel):
        with pytest.raises(ValueError):
            passage_transform(branching_kernel, np.ones(5), [1], 1.0)
        with pytest.raises(ValueError):
            passage_transform(branching_kernel, np.ones(3) / 3, [1], 1.0)

    def test_bad_targets_rejected(self, branching_kernel):
        alpha = source_weights(branching_kernel, [0])
        with pytest.raises(ValueError):
            passage_transform(branching_kernel, alpha, [], 1.0)
        with pytest.raises(ValueError):
            passage_transform(branching_kernel, alpha, [77], 1.0)
        with pytest.raises(ValueError):
            passage_transform_direct(branching_kernel, [99], 1.0)


class TestTransformProperties:
    def test_transform_at_zero_is_reachability_probability(self, branching_kernel):
        """L(0) = P(target is ever reached) = 1 for an irreducible SMP."""
        value = passage_transform_direct(branching_kernel, [4], 1e-12)
        assert np.allclose(value, 1.0, atol=1e-6)

    def test_magnitude_never_exceeds_one(self, branching_kernel, rng):
        alpha = source_weights(branching_kernel, [0])
        for _ in range(10):
            s = complex(rng.uniform(0, 3), rng.uniform(-10, 10))
            value, _ = passage_transform(branching_kernel, alpha, [3], s)
            assert abs(value) <= 1.0 + 1e-9

    def test_conjugate_symmetry(self, branching_kernel):
        alpha = source_weights(branching_kernel, [1])
        s = 0.7 + 3.3j
        v1, _ = passage_transform(branching_kernel, alpha, [4], s)
        v2, _ = passage_transform(branching_kernel, alpha, [4], np.conj(s))
        assert v2 == pytest.approx(np.conj(v1), rel=1e-9)
