"""Helpers shared by the smp test modules (the kernel fixtures live in tests/conftest.py)."""
from __future__ import annotations

import numpy as np

from repro.distributions import Deterministic, Erlang, Exponential, Uniform
from repro.smp import SMPBuilder


def random_kernel(rng: np.random.Generator, n_states: int, density: float = 0.35):
    """A random irreducible SMP used by property tests and ablations.

    A ring edge guarantees irreducibility; extra edges are sprinkled with the
    given density and each state's outgoing weights are normalised.
    """
    b = SMPBuilder()
    dists = [
        Exponential(float(rng.uniform(0.5, 4.0))),
        Erlang(float(rng.uniform(0.5, 3.0)), int(rng.integers(1, 4))),
        Uniform(float(rng.uniform(0.0, 1.0)), float(rng.uniform(1.5, 3.0))),
        Deterministic(float(rng.uniform(0.1, 2.0))),
    ]
    for i in range(n_states):
        b.add_state(f"n{i}")
    for i in range(n_states):
        successors = {(i + 1) % n_states}
        for j in range(n_states):
            if j != i and rng.random() < density:
                successors.add(j)
        weights = rng.random(len(successors)) + 0.1
        weights /= weights.sum()
        for w, j in zip(weights, sorted(successors)):
            b.add_transition(i, j, float(w), dists[int(rng.integers(0, len(dists)))])
    return b.build()


def row_form_vector(kernel, targets, s):
    """``(L_{1->j}(s), ..., L_{N->j}(s))`` by one row-form passage sum per source.

    Returns the vector and whether every sum converged.
    """
    from repro.smp import passage_transform

    evaluator = kernel.evaluator()
    n = kernel.n_states
    values = np.empty(n, dtype=complex)
    converged = True
    for i in range(n):
        unit = np.zeros(n)
        unit[i] = 1.0
        values[i], diag = passage_transform(evaluator, unit, targets, s)
        converged &= diag.converged
    return values, converged
