"""Hypothesis property tests on random SMP kernels."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.smp import (
    dtmc_steady_state,
    passage_transform_direct,
    smp_steady_state,
    source_weights,
)
from tests.smp.conftest import random_kernel, row_form_vector


kernel_seeds = st.integers(min_value=0, max_value=10_000)
sizes = st.integers(min_value=3, max_value=14)
s_values = st.tuples(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=-8.0, max_value=8.0),
).map(lambda t: complex(*t))


@given(seed=kernel_seeds, n=sizes, s=s_values)
@settings(max_examples=40, deadline=None)
def test_iterative_agrees_with_direct_solver(seed, n, s):
    """Core invariant of the reproduction: Eq. (10)'s truncated sum converges
    to the solution of the linear system of Eq. (2)."""
    kernel = random_kernel(np.random.default_rng(seed), n)
    target = [seed % n]
    iterative, converged = row_form_vector(kernel, target, s)
    direct = passage_transform_direct(kernel, target, s)
    assert converged
    assert np.allclose(iterative, direct, atol=1e-7)


@given(seed=kernel_seeds, n=sizes, s=s_values)
@settings(max_examples=40, deadline=None)
def test_passage_transform_magnitude_bounded(seed, n, s):
    """|L(s)| <= 1 on the right half plane — it is the transform of a density."""
    kernel = random_kernel(np.random.default_rng(seed), n)
    vec, _ = row_form_vector(kernel, [0], s)
    assert np.all(np.abs(vec) <= 1.0 + 1e-8)


@given(seed=kernel_seeds, n=sizes)
@settings(max_examples=30, deadline=None)
def test_embedded_steady_state_is_stationary(seed, n):
    kernel = random_kernel(np.random.default_rng(seed), n)
    P = kernel.embedded_matrix()
    pi = dtmc_steady_state(P)
    assert np.all(pi >= -1e-12)
    assert abs(pi.sum() - 1.0) < 1e-9
    assert np.allclose(pi @ P.toarray(), pi, atol=1e-8)


@given(seed=kernel_seeds, n=sizes)
@settings(max_examples=30, deadline=None)
def test_smp_steady_state_is_distribution(seed, n):
    kernel = random_kernel(np.random.default_rng(seed), n)
    pi = smp_steady_state(kernel)
    assert np.all(pi >= -1e-12)
    assert abs(pi.sum() - 1.0) < 1e-9


@given(seed=kernel_seeds, n=sizes)
@settings(max_examples=30, deadline=None)
def test_source_weights_supported_on_sources(seed, n):
    kernel = random_kernel(np.random.default_rng(seed), n)
    sources = sorted({0, n // 2, n - 1})
    alpha = source_weights(kernel, sources)
    assert abs(alpha.sum() - 1.0) < 1e-9
    support = np.where(alpha > 0)[0]
    assert set(support).issubset(set(sources))


@given(seed=kernel_seeds, n=sizes, s=s_values)
@settings(max_examples=30, deadline=None)
def test_reachability_probability_at_small_s(seed, n, s):
    """As s -> 0 the passage transform approaches 1 (target reached a.s.)."""
    kernel = random_kernel(np.random.default_rng(seed), n)
    vec = passage_transform_direct(kernel, [n - 1], 1e-10)
    assert np.allclose(vec, 1.0, atol=1e-5)
