"""The independent oracle: closed forms, agreement with the program on a
small model, detection of a perturbed value, sanity checks; and the
benchmark's contract with ``BENCHMARK.json``.

    python -m pytest perfbench/tests -q
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def two_state_kernel(a: float, b: float):
    """State 0 -> 1 after Exp(a), state 1 -> 0 after Exp(b)."""
    from repro.distributions import Exponential
    from repro.smp import SMPKernel

    return SMPKernel(2, np.array([0, 1]), np.array([1, 0]), np.array([1.0, 1.0]),
                     np.array([0, 1]), [Exponential(a), Exponential(b)])


@pytest.mark.parametrize("s", [0.3 + 0.0j, 1.0 + 2.0j, 4.0 - 7.5j])
def test_passage_oracle_matches_the_exponential_closed_form(s):
    kernel = two_state_kernel(2.0, 5.0)
    value = oracle.passage_transform(kernel, np.array([1.0, 0.0]), [1], s)
    assert value == pytest.approx(2.0 / (2.0 + s), abs=1e-13)


@pytest.mark.parametrize("s", [0.3 + 0.0j, 1.0 + 2.0j, 4.0 - 7.5j])
def test_transient_oracle_matches_the_alternating_renewal_closed_form(s):
    # P(Z(t) = 1 | Z(0) = 0) = a/(a+b) (1 - e^{-(a+b)t})  <->  a / (s (s + a + b))
    a, b = 2.0, 5.0
    value = oracle.transient_transform(two_state_kernel(a, b), np.array([1.0, 0.0]), [1], s)
    assert value == pytest.approx(a / (s * (s + a + b)), abs=1e-13)


def test_euler_oracle_inverts_a_known_density():
    kernel = two_state_kernel(2.0, 5.0)
    measure = oracle.MeasureOracle(kernel, np.array([1.0, 0.0]), [1], "passage")
    for t in (0.1, 0.7, 2.0):
        density, cdf = measure.at(t)
        assert density == pytest.approx(2.0 * math.exp(-2.0 * t), abs=1e-7)
        assert cdf == pytest.approx(1.0 - math.exp(-2.0 * t), abs=1e-7)


@pytest.fixture(scope="module")
def small_voting():
    from repro.api import Model
    from repro.models import voting_spec_text
    from repro.models.voting import VotingParameters
    from repro.service.registry import ModelRegistry

    return Model.from_spec(voting_spec_text(VotingParameters(4, 2, 2)), registry=ModelRegistry())


@pytest.mark.parametrize("kind,target", [("passage", "p2 == CC"), ("transient", "p2 >= 2")])
def test_oracle_agrees_with_the_program_and_flags_a_perturbed_value(small_voting, kind, target):
    model = small_voting
    query = getattr(model, kind)("p1 == CC", target)
    query = query.density([2.0, 5.0]) if kind == "passage" else query.probability([2.0, 5.0])
    result = query.run()
    alpha = oracle.stationary_weights(model.kernel, model.states("p1 == CC"))
    targets = model.states(target)
    fn = oracle.passage_transform if kind == "passage" else oracle.transient_transform
    s = list(result.transform_values)[3]
    ref = fn(model.kernel, alpha, targets, s)
    value = result.transform_values[s]
    assert oracle.close(value, ref, rtol=1e-6, atol=1e-7)
    assert not oracle.close(value * (1 + 1e-3) + 1e-6, ref, rtol=1e-6, atol=1e-7)


def test_stationary_weights_match_the_program(small_voting):
    from repro.smp import source_weights

    sources = small_voting.states("p1 == CC")
    assert sources.size > 1
    ours = oracle.stationary_weights(small_voting.kernel, sources)
    assert np.allclose(ours, source_weights(small_voting.kernel, sources), atol=1e-10)


def test_sanity_checks_flag_impossible_answers():
    assert oracle.sanity_errors(density=[0.1, 0.0], cdf=[0.2, 0.9], probability=[0.5]) == []
    assert oracle.sanity_errors(density=[0.1, -1e-3])
    assert oracle.sanity_errors(cdf=[0.5, 0.4])
    assert oracle.sanity_errors(cdf=[0.5, 1.1])
    assert oracle.sanity_errors(probability=[-0.2])
    assert oracle.sanity_errors(density=[math.nan])


# ------------------------------------------------------------------ contract


def test_benchmark_json_names_the_metrics_the_runs_report():
    from common import END_TO_END, PER_LAYER
    from run import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert tuple(w["name"] for w in bench["workloads"]) == WORKLOADS
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_service_rates_are_the_constants_the_workloads_cite():
    from service import RATES

    why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    for name, rate in RATES.items():
        assert f"{rate:g} req/s" in why[name]


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "voting-transient", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
