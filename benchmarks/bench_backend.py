"""Benchmark: the blocked analysis kernels and the exact binomial draw.

Two claims are measured:

* **blocked kernels** — the batch engine's deterministic analysis half
  (``run_traces``: convergence-opportunity mask + worst-window deficit
  scan), whose kernels walk cache-sized blocks of whole trials, must beat
  an unblocked reference composition by >= 1.5x.  The reference, kept in
  this file, is :func:`repro.core.concat_chain.convergence_opportunity_mask`
  followed by the whole-run cumsum / ``maximum.accumulate`` drawdown, plus
  the same per-trial block totals ``run_traces`` reports.  Both produce
  identical per-trial tallies (asserted here and pinned by
  ``tests/test_blocked_kernels.py``).
* **blocked binomial draw** — :func:`repro.simulation.draw_mining_traces`,
  whose binomial draws go through the NumPy backend's threshold-table
  kernel, must beat a reference that calls ``Generator.binomial`` for the
  honest then the adversary tensor by >= 1.4x.  Both produce equal arrays
  (asserted here and pinned by ``tests/test_binomial_kernel.py``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import bench_scale, record_trajectory
from repro.backend import Workspace
from repro.core.concat_chain import convergence_opportunity_mask
from repro.params import parameters_from_c
from repro.simulation import BatchSimulation, ScenarioSimulation, draw_mining_traces

TRIALS = bench_scale(128, 256)
ROUNDS = bench_scale(4_000, 8_000)
REPEATS = bench_scale(10, 20)
PARAMS = parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.2)

#: Gate for the blocked ``run_traces`` over the unblocked reference.
BLOCKED_SPEEDUP_GATE = 1.5

#: Gate for ``draw_mining_traces`` over two ``Generator.binomial`` calls.
DRAW_SPEEDUP_GATE = 1.4


def _best_of(repeats, callable_):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _reference_analysis(honest, adversary, delta):
    """Unblocked reference for ``run_traces``: per-trial tallies and deficits."""
    mask = convergence_opportunity_mask(honest, delta)
    difference = np.cumsum(mask.astype(np.int64) - adversary, axis=1)
    padded = np.concatenate(
        [np.zeros((difference.shape[0], 1), dtype=np.int64), difference], axis=1
    )
    deficits = (np.maximum.accumulate(padded, axis=1) - padded).max(axis=1)
    return (
        mask.sum(axis=1),
        honest.sum(axis=1),
        adversary.sum(axis=1),
        deficits,
    )


def test_blocked_run_traces_beats_unblocked_reference():
    """The blocked analysis path must be >= 1.5x faster than the reference.

    Both sides analyse the *same* pre-drawn (trials, rounds) tensors, so the
    comparison isolates the deterministic kernels: the reference allocates
    whole-run intermediates, the engine streams cache-sized row blocks.
    """
    honest, adversary = draw_mining_traces(PARAMS, TRIALS, ROUNDS, rng=0)
    engine = BatchSimulation(PARAMS, rng=0)
    delta = PARAMS.delta

    result = engine.run_traces(honest, adversary)
    opportunities, honest_blocks, adversary_blocks, deficits = (
        _reference_analysis(honest, adversary, delta)
    )
    assert np.array_equal(result.convergence_opportunities, opportunities)
    assert np.array_equal(result.honest_blocks, honest_blocks)
    assert np.array_equal(result.adversary_blocks, adversary_blocks)
    assert np.array_equal(result.worst_deficits, deficits)

    reference_seconds = _best_of(
        REPEATS, lambda: _reference_analysis(honest, adversary, delta)
    )
    blocked_seconds = _best_of(
        REPEATS, lambda: engine.run_traces(honest, adversary)
    )
    speedup = reference_seconds / blocked_seconds
    print(
        f"\nBlocked analysis at {TRIALS} trials x {ROUNDS} rounds: "
        f"unblocked reference {reference_seconds * 1e3:.2f}ms, blocked "
        f"run_traces {blocked_seconds * 1e3:.2f}ms, {speedup:.2f}x"
    )
    assert speedup >= BLOCKED_SPEEDUP_GATE, (
        f"blocked run_traces only {speedup:.2f}x faster than the unblocked "
        "reference"
    )

    record_trajectory(
        "backend",
        {
            "trials": TRIALS,
            "rounds": ROUNDS,
            "repeats": REPEATS,
            "reference_seconds": reference_seconds,
            "blocked_seconds": blocked_seconds,
            "speedup": speedup,
            "gate": BLOCKED_SPEEDUP_GATE,
        },
    )


def _reference_draw(seed):
    """``Generator.binomial`` for the honest then the adversary tensor."""
    generator = np.random.default_rng(seed)
    honest = generator.binomial(
        int(round(PARAMS.honest_count)), PARAMS.p, size=(TRIALS, ROUNDS)
    )
    adversary = generator.binomial(
        int(round(PARAMS.adversary_count)), PARAMS.p, size=(TRIALS, ROUNDS)
    )
    return honest, adversary


def test_blocked_draw_beats_generator_binomial():
    """``draw_mining_traces`` must be >= 1.4x faster than the reference.

    Both sides draw the same two tensors from the same seed; the kernel
    replaces NumPy's per-sample inversion loop with blocked uniforms and a
    threshold table, so the arrays are equal.
    """
    drawn = draw_mining_traces(PARAMS, TRIALS, ROUNDS, rng=0)
    for kernel, reference in zip(drawn, _reference_draw(0)):
        assert np.array_equal(kernel, reference)

    reference_seconds = _best_of(REPEATS, lambda: _reference_draw(0))
    kernel_seconds = _best_of(
        REPEATS, lambda: draw_mining_traces(PARAMS, TRIALS, ROUNDS, rng=0)
    )
    speedup = reference_seconds / kernel_seconds
    print(
        f"\nBinomial draw at {TRIALS} trials x {ROUNDS} rounds: "
        f"Generator.binomial {reference_seconds * 1e3:.2f}ms, blocked "
        f"draw_mining_traces {kernel_seconds * 1e3:.2f}ms, {speedup:.2f}x"
    )
    assert speedup >= DRAW_SPEEDUP_GATE, (
        f"draw_mining_traces only {speedup:.2f}x faster than "
        "Generator.binomial"
    )

    record_trajectory(
        "backend_draw",
        {
            "trials": TRIALS,
            "rounds": ROUNDS,
            "repeats": REPEATS,
            "reference_seconds": reference_seconds,
            "kernel_seconds": kernel_seconds,
            "speedup": speedup,
            "gate": DRAW_SPEEDUP_GATE,
        },
    )


@pytest.mark.benchmark(group="backend")
def test_scenario_engine_workspace_throughput(benchmark):
    """Scenario-engine throughput with a persistent workspace (regression
    guard for the scan-state pooling)."""
    params = parameters_from_c(c=1.0, n=400, delta=3, nu=0.4)
    workspace = Workspace()
    trials = bench_scale(16, 32)
    rounds = bench_scale(800, 2_000)
    result = benchmark(
        lambda: ScenarioSimulation(
            params, "private_chain", rng=0, workspace=workspace
        ).run(trials, rounds)
    )
    assert result.trials == trials
