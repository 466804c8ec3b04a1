"""Block-boundary equivalence of the row-blocked mask and drawdown kernels.

The engines' fixed-Δ opportunity mask, delay-aware opportunity mask and
worst-window drawdown each walk blocks of whole trials
(:data:`~repro.backend.chunking.KERNEL_BLOCK_CELLS` cells per block).
These properties compare them with unblocked references on shapes chosen
to straddle block edges: trial counts on either side of a multiple of a
block's row count, the shortest traces that can hold an opportunity
(``2Δ`` and ``2Δ+1`` rounds), and traces longer than one block, where
every block holds a single trial.

The references are the reference fixed-Δ mask in :mod:`repro.core`, plus
test-local copies of the whole-run drawdown and delay-aware scans the
kernels replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import use_dtype_policy
from repro.backend.chunking import KERNEL_BLOCK_CELLS, chunk_trials
from repro.core.concat_chain import convergence_opportunity_mask
from repro.simulation.batch import (
    fixed_delta_opportunity_mask,
    worst_window_deficits,
)
from repro.simulation.topology import convergence_opportunity_mask_with_delays

DELTAS = (1, 2, 3, 5, 10)


def _unblocked_drawdown(mask, adversary):
    """Whole-run worst windowed deficit (the pre-blocking expression)."""
    difference = np.cumsum(mask.astype(np.int64) - adversary, axis=1)
    padded = np.concatenate(
        [np.zeros((difference.shape[0], 1), dtype=np.int64), difference], axis=1
    )
    return (np.maximum.accumulate(padded, axis=1) - padded).max(axis=1)


def _unblocked_delay_mask(honest, delays, delta):
    """Whole-run delay-aware scan (the pre-blocking expression)."""
    trials, rounds = honest.shape
    mask = np.zeros((trials, rounds), dtype=bool)
    index = np.arange(rounds)
    success = honest > 0
    arrival = np.where(success, index + delays, -1)
    previous_arrival = np.concatenate(
        [
            np.full((trials, 1), -1),
            np.maximum.accumulate(arrival, axis=1)[:, :-1],
        ],
        axis=1,
    )
    next_success = np.where(success, index, rounds)
    next_success = np.minimum.accumulate(next_success[:, ::-1], axis=1)[:, ::-1]
    next_success = np.concatenate(
        [next_success[:, 1:], np.full((trials, 1), rounds)], axis=1
    )
    completion = index + delays
    centre = (
        (honest == 1)
        & (previous_arrival < index)
        & (next_success > completion)
        & (index >= delta)
        & (completion <= rounds - 1)
    )
    rows, cols = np.nonzero(centre)
    mask[rows, completion[rows, cols]] = True
    return mask


@st.composite
def _cases(draw):
    """(delta, honest, adversary, delays, cap) straddling block edges."""
    delta = draw(st.sampled_from(DELTAS))
    rounds = draw(
        st.one_of(
            st.sampled_from([2 * delta, 2 * delta + 1]),
            st.integers(min_value=1, max_value=4_000),
        )
    )
    rows = chunk_trials(rounds, KERNEL_BLOCK_CELLS)
    trials = draw(
        st.one_of(
            st.integers(min_value=1, max_value=7),
            st.sampled_from([rows - 1, rows + 1, 2 * rows + 3]).filter(
                lambda count: count >= 1
            ),
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rate = draw(st.sampled_from([0.05, 0.3, 1.0]))
    cap = delta + draw(st.integers(min_value=0, max_value=3))
    rng = np.random.default_rng(seed)
    honest = rng.poisson(rate, size=(trials, rounds))
    adversary = rng.poisson(rate / 2, size=(trials, rounds))
    delays = rng.integers(0, cap + 1, size=(trials, rounds))
    return delta, honest, adversary, delays, cap


def _assert_kernels_match(delta, honest, adversary, delays, cap):
    mask = fixed_delta_opportunity_mask(honest, delta)
    reference = convergence_opportunity_mask(honest, delta)
    assert np.array_equal(mask, reference)
    assert np.array_equal(mask.sum(axis=1), reference.sum(axis=1))
    assert np.array_equal(
        worst_window_deficits(mask, adversary),
        _unblocked_drawdown(reference, adversary),
    )
    constant = convergence_opportunity_mask_with_delays(
        honest, np.full_like(honest, delta), delta
    )
    assert np.array_equal(constant, reference)
    delayed = convergence_opportunity_mask_with_delays(
        honest, delays, delta, max_delay=cap
    )
    expected = _unblocked_delay_mask(honest, delays, delta)
    assert np.array_equal(delayed, expected)
    assert np.array_equal(
        worst_window_deficits(delayed, adversary),
        _unblocked_drawdown(expected, adversary),
    )


@settings(max_examples=120, deadline=None)
@given(_cases())
def test_blocked_kernels_match_unblocked_references(case):
    _assert_kernels_match(*case)


@pytest.mark.parametrize("delta", DELTAS)
def test_rows_longer_than_a_block_are_one_row_per_block(delta):
    rounds = KERNEL_BLOCK_CELLS + 37
    assert chunk_trials(rounds, KERNEL_BLOCK_CELLS) == 1
    rng = np.random.default_rng(delta)
    honest = rng.poisson(0.3, size=(3, rounds))
    adversary = rng.poisson(0.15, size=(3, rounds))
    delays = rng.integers(0, delta + 1, size=(3, rounds))
    _assert_kernels_match(delta, honest, adversary, delays, delta)


def test_compact_policy_kernels_match_wide():
    rng = np.random.default_rng(7)
    honest = rng.poisson(0.3, size=(45, 3_001))
    adversary = rng.poisson(0.15, size=(45, 3_001))
    delays = rng.integers(0, 4, size=(45, 3_001))
    wide_mask = fixed_delta_opportunity_mask(honest, 3)
    wide_delayed = convergence_opportunity_mask_with_delays(honest, delays, 3)
    with use_dtype_policy("compact"):
        compact_mask = fixed_delta_opportunity_mask(honest, 3)
        compact_delayed = convergence_opportunity_mask_with_delays(
            honest, delays, 3
        )
        compact_deficits = worst_window_deficits(compact_mask, adversary)
    assert compact_mask.dtype == np.uint8
    assert np.array_equal(compact_mask.astype(bool), wide_mask)
    assert np.array_equal(compact_delayed.astype(bool), wide_delayed)
    assert np.array_equal(
        compact_deficits, worst_window_deficits(wide_mask, adversary)
    )
