"""Streaming trial engine: O(chunk) memory Monte Carlo with online accumulation.

The dense engines (:class:`~repro.simulation.batch.BatchSimulation`,
:class:`~repro.simulation.scenarios.ScenarioSimulation`) materialise the full
``(trials, rounds)`` success-count tensors before analysing them — at
``1e8`` trials and a few hundred rounds that is hundreds of gigabytes, far
past any single host.  This module keeps the dense kernels (they are the
audited, golden-pinned implementations) but drives them in fixed-size
*chunks* of trials through online accumulators, so the estimate for an
arbitrarily large trial count is produced while never holding more than
``chunk x rounds`` cells of trace data:

* **one chunk loop** — both streamed engines run on one seed-block
  loop: trials are drawn and analysed ``chunk_cells // rounds`` at a time
  (the shared :func:`repro.backend.chunking.resolve_chunk_cells` knob,
  overridable per engine); every seed block is drawn by the dense engines'
  own draw function, :func:`~repro.simulation.batch.draw_traces` (honest,
  adversarial, then the optional split or delay tensor), lands in chunk
  buffers (reused :class:`~repro.backend.Workspace` buffers when a
  workspace is given) and each chunk runs through the ordinary dense
  ``run_traces`` kernels, so the per-chunk math is exactly the materialised
  engine's math.  :class:`StreamingBatchSimulation` and
  :class:`StreamingScenarioSimulation` add only the dense engine, the
  accumulator and the result they build;
* **online accumulation** — integer tallies (convergence / adversary block
  totals, Lemma 1 satisfaction, violation hits per requested depth) are
  exact; rate means and confidence intervals stream through
  :class:`OnlineMoments` (Chan-merge Welford moments with a Kahan-compensated
  mean); the worst-deficit distribution lands in a bounded
  :class:`DeficitHistogram`;
* **chunk-invariant seeding** — randomness is organised in fixed *seed
  blocks* of :data:`SEED_BLOCK_CELLS` cells: block ``b`` always draws from
  the ``b``-th spawn of the run's :class:`numpy.random.SeedSequence`, and an
  execution chunk is a group of whole consecutive blocks.  Accumulator
  updates happen per seed block in block order, so the streamed summary is
  **bit-identical** for every chunk size and for serial vs sharded
  execution — the chunk knob is pure execution policy.

The streamed :meth:`StreamingBatchResult.summary` carries exactly the keys
of the dense :meth:`~repro.simulation.batch.BatchResult.summary` (and the
scenario variant those of
:meth:`~repro.simulation.scenarios.ScenarioResult.summary`).  Integer-backed
entries (trial counts, Lemma 1 fractions, Wilson intervals, worst-deficit
aggregates) match the dense numbers exactly; float moment entries (rate
means and normal-approximation intervals) agree within
:data:`STREAM_STAT_RTOL` — the online merge is algebraically the same mean
and variance, accumulated in a different (but fixed) association order.

The streamed seeding deliberately differs from the dense engines'
single-generator protocol (per-block spawned child generators instead of one
stream), so a streamed run is a *new* seeded experiment, not a re-execution
of a dense one; ``materialize_traces`` (one implementation, on both
streamed engines) exposes the streamed protocol's full tensors for audits
and equivalence tests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..backend import Workspace, get_backend, get_dtype_policy, resolve_chunk_cells
from ..backend.chunking import chunk_trials
from ..errors import SimulationError
from ..observability import (
    METRICS as _METRICS,
    TRACE as _TRACE,
    GridProgress,
    resolve_progress_sinks,
)
from ..params import ProtocolParameters
from .batch import (
    BatchResult,
    BatchSimulation,
    _third_draw,
    draw_traces,
    proportion_confidence_interval,
)
from .rng import SeedLike, derive_seed_sequence
from .scenarios import Scenario, ScenarioResult, ScenarioSimulation
from .topology import DelayModel, MiningPowerProfile

__all__ = [
    "SEED_BLOCK_CELLS",
    "STREAM_STAT_RTOL",
    "seed_block_trials",
    "OnlineMoments",
    "DeficitHistogram",
    "StreamingAccumulator",
    "ScenarioStreamingAccumulator",
    "StreamingBatchResult",
    "StreamingScenarioResult",
    "StreamingBatchSimulation",
    "StreamingScenarioSimulation",
]

#: Cells (trials x rounds) per seed block.  A *protocol constant*, not a
#: tuning knob: the chunk size groups whole blocks, so changing the chunk
#: never changes which child seed draws which trial.  Changing this constant
#: changes every streamed experiment's bit stream.
SEED_BLOCK_CELLS = 1 << 20

#: Documented relative tolerance between streamed float moment statistics
#: (rate means, normal-approximation CI bounds) and the dense engines'
#: materialised statistics.  Integer-backed summary entries match exactly.
STREAM_STAT_RTOL = 1e-9


def seed_block_trials(rounds: int) -> int:
    """Trials per seed block at ``rounds`` rounds (at least one)."""
    return max(SEED_BLOCK_CELLS // max(int(rounds), 1), 1)


def _spawn_block_seeds(
    sequence: np.random.SeedSequence, n_blocks: int
) -> List[np.random.SeedSequence]:
    """Child seed for every block, *stateless*.

    :meth:`numpy.random.SeedSequence.spawn` advances the parent's spawn
    counter, so calling it twice yields different children — a repeated
    ``run`` (or a ``materialize_traces`` audit after one) would silently
    reroll the experiment.  Constructing the children with explicit spawn
    keys reproduces exactly what a fresh sequence's first ``spawn`` returns,
    every time.
    """
    return [
        np.random.SeedSequence(
            entropy=sequence.entropy,
            spawn_key=tuple(sequence.spawn_key) + (index,),
        )
        for index in range(n_blocks)
    ]


class OnlineMoments:
    """Streaming mean / variance with Chan merging and a Kahan-compensated mean.

    Per-block sample moments are folded in with the parallel-variance
    combine of Chan, Golub & LeVeque; the running mean carries a Kahan
    compensation term so millions of tiny block updates do not drift.  The
    update order is fixed (seed-block order), which is what makes streamed
    statistics bit-identical across chunk sizes.
    """

    __slots__ = ("count", "mean", "m2", "_compensation")

    def __init__(self, count: int = 0, mean: float = 0.0, m2: float = 0.0):
        self.count = int(count)
        self.mean = float(mean)
        self.m2 = float(m2)
        self._compensation = 0.0

    def update(self, values) -> None:
        """Fold one block of observations (any array with ``.mean``/``.var``)."""
        count = int(values.size)
        if count == 0:
            return
        block_mean = float(values.mean())
        block_m2 = float(values.var()) * count
        self.combine(count, block_mean, block_m2)

    def combine(self, count: int, mean: float, m2: float) -> None:
        """Merge pre-computed block moments ``(count, mean, sum of squares)``."""
        count = int(count)
        if count <= 0:
            return
        if self.count == 0:
            self.count = count
            self.mean = float(mean)
            self.m2 = float(m2)
            self._compensation = 0.0
            return
        total = self.count + count
        delta = float(mean) - self.mean
        weight = count / total
        # Kahan-compensated mean update: the correction term re-captures the
        # low-order bits the running sum would otherwise shed.
        term = delta * weight - self._compensation
        updated = self.mean + term
        self._compensation = (updated - self.mean) - term
        self.m2 += float(m2) + delta * delta * self.count * weight
        self.mean = updated
        self.count = total

    def ci95(self) -> Tuple[float, float]:
        """Normal-approximation 95% CI, matching
        :func:`repro.simulation.batch._confidence_interval` semantics
        (``(nan, nan)`` below two observations)."""
        if self.count < 2:
            return (math.nan, math.nan)
        variance = self.m2 / (self.count - 1)
        std = math.sqrt(variance if variance > 0.0 else 0.0)
        half_width = 1.96 * std / math.sqrt(self.count)
        return (self.mean - half_width, self.mean + half_width)

    def payload(self) -> Dict[str, float]:
        return {"count": self.count, "mean": self.mean, "m2": self.m2}

    @classmethod
    def from_payload(cls, payload: Dict[str, float]) -> "OnlineMoments":
        return cls(
            count=int(payload["count"]),
            mean=float(payload["mean"]),
            m2=float(payload["m2"]),
        )


class DeficitHistogram:
    """Bounded histogram of per-trial worst windowed deficits.

    Bins ``0 .. bins-1`` hold exact counts; anything deeper lands in the
    ``overflow`` bucket (deficits beyond the bound are individually rare but
    their exact maximum is still tracked by the accumulator).  Memory is
    O(bins) regardless of trial count.
    """

    __slots__ = ("bins", "counts", "overflow")

    def __init__(
        self,
        bins: int = 64,
        counts: Optional[Sequence[int]] = None,
        overflow: int = 0,
    ):
        bins = int(bins)
        if bins < 1:
            raise SimulationError(f"bins must be positive, got {bins!r}")
        self.bins = bins
        self.counts: List[int] = (
            [0] * bins if counts is None else [int(value) for value in counts]
        )
        if len(self.counts) != bins:
            raise SimulationError(
                f"counts must have length {bins}, got {len(self.counts)}"
            )
        self.overflow = int(overflow)

    def update(self, deficits) -> None:
        """Fold one block of integer deficits (early exit once all counted)."""
        remaining = int(deficits.size)
        for value in range(self.bins):
            if remaining == 0:
                return
            hits = int((deficits == value).sum())
            self.counts[value] += hits
            remaining -= hits
        self.overflow += remaining

    @property
    def total(self) -> int:
        return sum(self.counts) + self.overflow

    def payload(self) -> Dict[str, object]:
        return {
            "bins": self.bins,
            "counts": list(self.counts),
            "overflow": self.overflow,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "DeficitHistogram":
        return cls(
            bins=int(payload["bins"]),
            counts=payload["counts"],
            overflow=int(payload["overflow"]),
        )


def _normalize_depths(depths: Optional[Iterable[int]]) -> Tuple[int, ...]:
    """Sorted unique non-negative violation depths."""
    if depths is None:
        return ()
    cleaned = sorted({int(depth) for depth in depths})
    if cleaned and cleaned[0] < 0:
        raise SimulationError(f"violation depths must be >= 0, got {cleaned[0]}")
    return tuple(cleaned)


class StreamingAccumulator:
    """Online tallies for a streamed batch run, updated one seed block at a time.

    Integer statistics are exact; rate moments stream through
    :class:`OnlineMoments`.  Updates must arrive in seed-block order — the
    engine guarantees this, and it is what pins streamed summaries
    bit-identical across chunk sizes.
    """

    def __init__(self, depths: Iterable[int] = (), histogram_bins: int = 64):
        self.depths = _normalize_depths(depths)
        self.trials = 0
        self.convergence_moments = OnlineMoments()
        self.adversary_moments = OnlineMoments()
        self.convergence_total = 0
        self.honest_total = 0
        self.adversary_total = 0
        self.lemma1_satisfied = 0
        self.worst_deficit_sum = 0
        self.max_worst_deficit = 0
        self.violation_hits: Dict[int, int] = {depth: 0 for depth in self.depths}
        self.deficit_histogram = DeficitHistogram(bins=histogram_bins)

    def update(self, result: BatchResult, lo: int, hi: int) -> None:
        """Fold the per-trial slice ``[lo:hi)`` of one chunk's dense result."""
        if hi <= lo:
            return
        rounds = result.rounds
        convergence = result.convergence_opportunities[lo:hi]
        adversary = result.adversary_blocks[lo:hi]
        deficits = result.worst_deficits[lo:hi]
        self.trials += hi - lo
        self.convergence_moments.update(convergence / rounds)
        self.adversary_moments.update(adversary / rounds)
        self.convergence_total += int(convergence.sum())
        self.honest_total += int(result.honest_blocks[lo:hi].sum())
        self.adversary_total += int(adversary.sum())
        self.lemma1_satisfied += int((convergence - adversary > 0).sum())
        self.worst_deficit_sum += int(deficits.sum())
        block_max = int(deficits.max())
        if block_max > self.max_worst_deficit:
            self.max_worst_deficit = block_max
        for depth in self.depths:
            self.violation_hits[depth] += int((deficits >= depth).sum())
        self.deficit_histogram.update(deficits)


class ScenarioStreamingAccumulator:
    """Online tallies for a streamed scenario run (one seed block at a time)."""

    def __init__(self, success_depth: int):
        self.success_depth = int(success_depth)
        self.trials = 0
        self.success_hits = 0
        self.fork_moments = OnlineMoments()
        self.max_deepest_fork = 0
        self.releases_sum = 0
        self.abandons_sum = 0
        self.orphaned_sum = 0
        self.final_height_sum = 0
        self.lemma1_satisfied = 0
        self.merge_depth_sum = 0
        self.has_merge_depths = False

    def update(self, result: ScenarioResult, lo: int, hi: int) -> None:
        """Fold the per-trial slice ``[lo:hi)`` of one chunk's dense result."""
        if hi <= lo:
            return
        forks = result.deepest_forks[lo:hi]
        self.trials += hi - lo
        self.success_hits += int((forks >= self.success_depth).sum())
        self.fork_moments.update(forks)
        block_max = int(forks.max())
        if block_max > self.max_deepest_fork:
            self.max_deepest_fork = block_max
        self.releases_sum += int(result.releases[lo:hi].sum())
        self.abandons_sum += int(result.abandons[lo:hi].sum())
        self.orphaned_sum += int(result.orphaned_honest[lo:hi].sum())
        self.final_height_sum += int(result.final_public_heights[lo:hi].sum())
        margins = (
            result.convergence_opportunities[lo:hi]
            - result.adversary_blocks[lo:hi]
        )
        self.lemma1_satisfied += int((margins > 0).sum())
        merge_depths = result.merge_depths
        if merge_depths is not None:
            self.has_merge_depths = True
            self.merge_depth_sum += int(merge_depths[lo:hi].sum())


@dataclass
class StreamingBatchResult:
    """Summary-only outcome of a streamed batch run (O(1) memory).

    Carries no per-trial arrays — every statistic the dense
    :meth:`~repro.simulation.batch.BatchResult.summary` reports is available
    (same keys, integer entries exact, float moments within
    :data:`STREAM_STAT_RTOL`), plus exact violation hit counts for every
    requested depth and the bounded worst-deficit histogram.
    """

    params: ProtocolParameters
    trials: int
    rounds: int
    draw_mode: str
    delay_model: str
    seed_block_trials: int
    n_chunks: int
    convergence_moments: OnlineMoments
    adversary_moments: OnlineMoments
    convergence_total: int
    honest_total: int
    adversary_total: int
    lemma1_satisfied: int
    worst_deficit_sum: int
    max_worst_deficit: int
    violation_hits: Dict[int, int]
    deficit_histogram: DeficitHistogram = field(repr=False)

    @property
    def mean_convergence_rate(self) -> float:
        return self.convergence_moments.mean

    @property
    def convergence_rate_ci95(self) -> Tuple[float, float]:
        return self.convergence_moments.ci95()

    @property
    def mean_adversary_rate(self) -> float:
        return self.adversary_moments.mean

    @property
    def adversary_rate_ci95(self) -> Tuple[float, float]:
        return self.adversary_moments.ci95()

    @property
    def lemma1_fraction(self) -> float:
        return self.lemma1_satisfied / self.trials

    @property
    def mean_worst_deficit(self) -> float:
        return self.worst_deficit_sum / self.trials

    @property
    def theoretical_convergence_rate(self) -> float:
        return self.params.convergence_opportunity_probability

    @property
    def theoretical_adversary_rate(self) -> float:
        return self.params.beta

    @property
    def depths(self) -> Tuple[int, ...]:
        """The violation depths this run tracked exact hit counts for."""
        return tuple(sorted(self.violation_hits))

    def violation_probability(self, depth: int) -> float:
        """Fraction of trials whose worst windowed deficit reached ``depth``."""
        return self._hits(depth) / self.trials

    def violation_ci95(self, depth: int) -> Tuple[float, float]:
        """Wilson score 95% interval for the depth-``depth`` violation rate."""
        return proportion_confidence_interval(self._hits(depth), self.trials)

    def _hits(self, depth: int) -> int:
        depth = int(depth)
        if depth not in self.violation_hits:
            raise SimulationError(
                f"depth {depth} was not tracked by this streamed run; "
                f"tracked depths: {sorted(self.violation_hits)}"
            )
        return self.violation_hits[depth]

    def summary(self) -> Dict[str, object]:
        """Same keys as :meth:`repro.simulation.batch.BatchResult.summary`."""
        convergence_ci = self.convergence_rate_ci95
        adversary_ci = self.adversary_rate_ci95
        return {
            "trials": self.trials,
            "rounds": self.rounds,
            "c": self.params.c,
            "nu": self.params.nu,
            "delta": self.params.delta,
            "mean_convergence_rate": self.mean_convergence_rate,
            "convergence_rate_ci95_low": convergence_ci[0],
            "convergence_rate_ci95_high": convergence_ci[1],
            "theoretical_convergence_rate": self.theoretical_convergence_rate,
            "mean_adversary_rate": self.mean_adversary_rate,
            "adversary_rate_ci95_low": adversary_ci[0],
            "adversary_rate_ci95_high": adversary_ci[1],
            "theoretical_adversary_rate": self.theoretical_adversary_rate,
            "lemma1_fraction": self.lemma1_fraction,
            "mean_worst_deficit": self.mean_worst_deficit,
            "max_worst_deficit": int(self.max_worst_deficit),
            "delay_model": self.delay_model,
        }

    def payload(self) -> Dict[str, object]:
        """The statistical state as JSON-serialisable scalars (no params)."""
        return {
            "trials": self.trials,
            "rounds": self.rounds,
            "draw_mode": self.draw_mode,
            "delay_model": self.delay_model,
            "seed_block_trials": self.seed_block_trials,
            "n_chunks": self.n_chunks,
            "convergence_moments": self.convergence_moments.payload(),
            "adversary_moments": self.adversary_moments.payload(),
            "convergence_total": self.convergence_total,
            "honest_total": self.honest_total,
            "adversary_total": self.adversary_total,
            "lemma1_satisfied": self.lemma1_satisfied,
            "worst_deficit_sum": self.worst_deficit_sum,
            "max_worst_deficit": self.max_worst_deficit,
            "violation_hits": {
                str(depth): hits for depth, hits in self.violation_hits.items()
            },
            "deficit_histogram": self.deficit_histogram.payload(),
        }

    @classmethod
    def from_payload(
        cls, payload: Dict[str, object], params: ProtocolParameters
    ) -> "StreamingBatchResult":
        return cls(
            params=params,
            trials=int(payload["trials"]),
            rounds=int(payload["rounds"]),
            draw_mode=str(payload["draw_mode"]),
            delay_model=str(payload["delay_model"]),
            seed_block_trials=int(payload["seed_block_trials"]),
            n_chunks=int(payload["n_chunks"]),
            convergence_moments=OnlineMoments.from_payload(
                payload["convergence_moments"]
            ),
            adversary_moments=OnlineMoments.from_payload(
                payload["adversary_moments"]
            ),
            convergence_total=int(payload["convergence_total"]),
            honest_total=int(payload["honest_total"]),
            adversary_total=int(payload["adversary_total"]),
            lemma1_satisfied=int(payload["lemma1_satisfied"]),
            worst_deficit_sum=int(payload["worst_deficit_sum"]),
            max_worst_deficit=int(payload["max_worst_deficit"]),
            violation_hits={
                int(depth): int(hits)
                for depth, hits in payload["violation_hits"].items()
            },
            deficit_histogram=DeficitHistogram.from_payload(
                payload["deficit_histogram"]
            ),
        )


@dataclass
class StreamingScenarioResult:
    """Summary-only outcome of a streamed scenario run (O(1) memory)."""

    params: ProtocolParameters
    scenario: Scenario
    trials: int
    rounds: int
    draw_mode: str
    honest_delay: int
    delay_model: Optional[str]
    release_delay: int
    seed_block_trials: int
    n_chunks: int
    success_hits: int
    fork_moments: OnlineMoments
    max_deepest_fork: int
    releases_sum: int
    abandons_sum: int
    orphaned_sum: int
    final_height_sum: int
    lemma1_satisfied: int
    merge_depth_sum: int
    has_merge_depths: bool

    @property
    def attack_success_probability(self) -> float:
        return self.success_hits / self.trials

    @property
    def attack_success_ci95(self) -> Tuple[float, float]:
        return proportion_confidence_interval(self.success_hits, self.trials)

    @property
    def mean_deepest_fork(self) -> float:
        return self.fork_moments.mean

    @property
    def deepest_fork_ci95(self) -> Tuple[float, float]:
        return self.fork_moments.ci95()

    @property
    def lemma1_fraction(self) -> float:
        return self.lemma1_satisfied / self.trials

    @property
    def mean_growth_rate(self) -> float:
        return self.final_height_sum / (self.trials * self.rounds)

    @property
    def mean_merge_depth(self) -> float:
        if not self.has_merge_depths:
            return 0.0
        return self.merge_depth_sum / self.trials

    def summary(self) -> Dict[str, object]:
        """Same keys as :meth:`repro.simulation.scenarios.ScenarioResult.summary`."""
        success_ci = self.attack_success_ci95
        fork_ci = self.deepest_fork_ci95
        return {
            "scenario": self.scenario.name,
            "trials": self.trials,
            "rounds": self.rounds,
            "c": self.params.c,
            "nu": self.params.nu,
            "delta": self.params.delta,
            "honest_delay": self.honest_delay,
            "attack_success_probability": self.attack_success_probability,
            "attack_success_ci95_low": success_ci[0],
            "attack_success_ci95_high": success_ci[1],
            "mean_deepest_fork": self.mean_deepest_fork,
            "deepest_fork_ci95_low": fork_ci[0],
            "deepest_fork_ci95_high": fork_ci[1],
            "max_deepest_fork": int(self.max_deepest_fork),
            "mean_releases": self.releases_sum / self.trials,
            "mean_abandons": self.abandons_sum / self.trials,
            "mean_orphaned_honest": self.orphaned_sum / self.trials,
            "mean_growth_rate": self.mean_growth_rate,
            "lemma1_fraction": self.lemma1_fraction,
            "delay_model": self.delay_model,
            "release_delay": self.release_delay,
            "mean_merge_depth": self.mean_merge_depth,
        }

    def payload(self) -> Dict[str, object]:
        """The statistical state as JSON-serialisable scalars (no params/scenario)."""
        return {
            "trials": self.trials,
            "rounds": self.rounds,
            "draw_mode": self.draw_mode,
            "honest_delay": self.honest_delay,
            "delay_model": self.delay_model,
            "release_delay": self.release_delay,
            "seed_block_trials": self.seed_block_trials,
            "n_chunks": self.n_chunks,
            "success_hits": self.success_hits,
            "fork_moments": self.fork_moments.payload(),
            "max_deepest_fork": self.max_deepest_fork,
            "releases_sum": self.releases_sum,
            "abandons_sum": self.abandons_sum,
            "orphaned_sum": self.orphaned_sum,
            "final_height_sum": self.final_height_sum,
            "lemma1_satisfied": self.lemma1_satisfied,
            "merge_depth_sum": self.merge_depth_sum,
            "has_merge_depths": self.has_merge_depths,
        }

    @classmethod
    def from_payload(
        cls,
        payload: Dict[str, object],
        params: ProtocolParameters,
        scenario: Scenario,
    ) -> "StreamingScenarioResult":
        delay_model = payload["delay_model"]
        return cls(
            params=params,
            scenario=scenario,
            trials=int(payload["trials"]),
            rounds=int(payload["rounds"]),
            draw_mode=str(payload["draw_mode"]),
            honest_delay=int(payload["honest_delay"]),
            delay_model=None if delay_model is None else str(delay_model),
            release_delay=int(payload["release_delay"]),
            seed_block_trials=int(payload["seed_block_trials"]),
            n_chunks=int(payload["n_chunks"]),
            success_hits=int(payload["success_hits"]),
            fork_moments=OnlineMoments.from_payload(payload["fork_moments"]),
            max_deepest_fork=int(payload["max_deepest_fork"]),
            releases_sum=int(payload["releases_sum"]),
            abandons_sum=int(payload["abandons_sum"]),
            orphaned_sum=int(payload["orphaned_sum"]),
            final_height_sum=int(payload["final_height_sum"]),
            lemma1_satisfied=int(payload["lemma1_satisfied"]),
            merge_depth_sum=int(payload["merge_depth_sum"]),
            has_merge_depths=bool(payload["has_merge_depths"]),
        )


# ----------------------------------------------------------------------
# The chunked execution spine
# ----------------------------------------------------------------------
def _plan_blocks(
    trials: int, rounds: int, chunk_cells: Optional[int]
) -> Tuple[int, int, int]:
    """``(block, n_blocks, blocks_per_chunk)`` for one streamed run.

    The seed block size depends only on ``rounds`` (a protocol constant);
    the chunk groups whole consecutive blocks, at least one per chunk, so
    any ``chunk_cells`` setting executes the identical per-block draws.
    """
    block = seed_block_trials(rounds)
    n_blocks = -(-trials // block)
    per_chunk = max(chunk_trials(rounds, resolve_chunk_cells(chunk_cells)) // block, 1)
    return block, n_blocks, per_chunk


def _validate_shape(trials: int, rounds: int) -> Tuple[int, int]:
    trials = int(trials)
    rounds = int(rounds)
    if trials < 1:
        raise SimulationError(f"trials must be positive, got {trials!r}")
    if rounds < 1:
        raise SimulationError(f"rounds must be positive, got {rounds!r}")
    return trials, rounds


class _SeedBlockStream:
    """The seed-block chunk loop both streamed engines run on.

    A subclass binds a dense ``engine`` (anything with ``run_traces`` and
    the draw settings ``draw_mode`` / ``power`` / ``delay_model``) and, for
    partial-cut scenarios, the ``_cut_fraction`` its draw takes.  Every seed
    block is drawn through :func:`~repro.simulation.batch.draw_traces` from
    its own spawned child seed, copied into the chunk buffers, and each
    chunk of whole blocks runs through ``engine.run_traces``.
    """

    _cut_fraction: Optional[float] = None

    def __init__(
        self,
        params: ProtocolParameters,
        seed: SeedLike,
        workspace: Optional[Workspace],
        chunk_cells: Optional[int],
    ):
        self.params = params
        self.seed_sequence = derive_seed_sequence(seed)
        self.chunk_cells = (
            None if chunk_cells is None else resolve_chunk_cells(chunk_cells)
        )
        self.workspace = workspace

    @property
    def draw_mode(self) -> str:
        return self.engine.draw_mode

    def _draw_block(self, size: int, rounds: int, child):
        """One seed block's traces, drawn from its own child seed."""
        engine = self.engine
        return draw_traces(
            self.params,
            size,
            rounds,
            np.random.default_rng(child),
            engine.draw_mode,
            power=engine.power,
            delay_model=engine.delay_model,
            cut_fraction=self._cut_fraction,
            backend=engine.backend,
            policy=engine.policy,
        )

    def _stream(
        self,
        accumulator,
        trials: int,
        rounds: int,
        progress,
        span: str,
        label: str,
        **attributes,
    ) -> Tuple[int, int, int, int]:
        """Fold ``trials`` streamed trials into ``accumulator``, block by block.

        The hot path: handle-free, backend-only tensor math.  Returns
        ``(trials, rounds, seed_block_trials, n_chunks)`` with the shape
        validated.
        """
        trials, rounds = _validate_shape(trials, rounds)
        engine = self.engine
        engine.policy.check_rounds(rounds)
        block, n_blocks, per_chunk = _plan_blocks(trials, rounds, self.chunk_cells)
        n_chunks = -(-n_blocks // per_chunk)
        children = _spawn_block_seeds(self.seed_sequence, n_blocks)
        capacity = min(per_chunk * block, trials)
        xp = engine.backend
        index_dtype = engine.policy.index_dtype(xp)
        third = _third_draw(engine.delay_model, self._cut_fraction)
        # Every chunk buffer exists before the first block is drawn, so no
        # block's draws are alive while a buffer is allocated.
        buffers = [
            self._buffer(f"stream.{name}", (capacity, rounds), index_dtype)
            for name in ("honest", "adversary", third)
            if name is not None
        ]
        sinks = resolve_progress_sinks(progress)
        reporter = GridProgress(label, n_chunks, sinks) if sinks else None
        clock = time.perf_counter
        with _TRACE.span(
            span,
            **attributes,
            trials=trials,
            rounds=rounds,
            chunks=n_chunks,
            blocks=n_blocks,
        ):
            for first in range(0, n_blocks, per_chunk):
                started = clock()
                blocks = range(first, min(first + per_chunk, n_blocks))
                sizes = [min(block, trials - index * block) for index in blocks]
                offset = 0
                for index, size in zip(blocks, sizes):
                    honest, adversary, extra = self._draw_block(
                        size, rounds, children[index]
                    )
                    drawn = (honest, adversary, extra.pop(third, None))
                    for buffer, values in zip(buffers, drawn):
                        buffer[offset : offset + size] = values
                    offset += size
                    del honest, adversary, drawn, values  # free before the next draw
                # ``extra`` keeps the block-independent keywords (max_delay).
                tensors = [buffer[:offset] for buffer in buffers]
                if third is not None:
                    extra[third] = tensors.pop()
                result = engine.run_traces(*tensors, **extra)
                lo = 0
                for size in sizes:
                    accumulator.update(result, lo, lo + size)
                    lo += size
                if reporter is not None:
                    reporter.point_done(clock() - started)
        _METRICS.increment("engine.stream.chunks", n_chunks)
        _METRICS.increment("engine.stream.blocks", n_blocks)
        _METRICS.increment("engine.stream.trials", trials)
        _METRICS.increment("engine.stream.cells", trials * rounds)
        return trials, rounds, block, n_chunks

    def _buffer(self, tag: str, shape, dtype):
        if self.workspace is not None:
            return self.workspace.empty(tag, shape, dtype)
        return self.engine.backend.empty(shape, dtype=dtype)

    def materialize_traces(self, trials: int, rounds: int):
        """Full host tensors under the *streamed* draw protocol (audit helper).

        Materialises exactly the per-block draws a streamed run would
        consume, concatenated — O(trials x rounds) memory, so this is for
        equivalence tests and audits at modest sizes, not production runs.
        Returns ``(honest, adversary, third)`` where ``third`` is the
        minority-split tensor (partial-cut scenarios), the delay tensor
        (non-trivial delay models) or ``None``.
        """
        trials, rounds = _validate_shape(trials, rounds)
        block, n_blocks, _ = _plan_blocks(trials, rounds, self.chunk_cells)
        children = _spawn_block_seeds(self.seed_sequence, n_blocks)
        to_host = self.engine.backend.to_host
        third = _third_draw(self.engine.delay_model, self._cut_fraction)
        columns = ([], [], [])
        for index, child in enumerate(children):
            size = min(block, trials - index * block)
            honest, adversary, extra = self._draw_block(size, rounds, child)
            for column, values in zip(columns, (honest, adversary, extra.get(third))):
                if values is not None:
                    column.append(to_host(values))
        return tuple(
            np.concatenate(column, axis=0) if column else None for column in columns
        )


class StreamingBatchSimulation(_SeedBlockStream):
    """Chunked, constant-memory execution of the batch Monte Carlo engine.

    Parameters
    ----------
    params:
        Protocol parameters (``p``, ``n``, ``Δ``, ``nu``).
    seed:
        An integer, :class:`numpy.random.SeedSequence` or ``None`` (seed 0).
        A live :class:`numpy.random.Generator` is **rejected** — the
        chunk-invariance contract needs a spawnable seed, not a stateful
        stream (:func:`~repro.simulation.rng.derive_seed_sequence`).
    draw_mode / delay_model / power:
        Forwarded to the underlying dense
        :class:`~repro.simulation.batch.BatchSimulation`, whose kernels
        analyse each chunk.
    workspace:
        Optional :class:`~repro.backend.Workspace` holding the per-chunk
        trace buffers, reused across chunks and runs.
    chunk_cells:
        Execution chunk budget in cells; ``None`` defers to the shared
        :func:`repro.backend.chunking.resolve_chunk_cells` configuration
        (``REPRO_CHUNK_CELLS``).  Pure execution policy — results are
        bit-identical for every setting.

    Examples
    --------
    >>> from repro.params import parameters_from_c
    >>> params = parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.2)
    >>> streamed = StreamingBatchSimulation(params, seed=7)
    >>> result = streamed.run(trials=200, rounds=500, depths=(1,))
    >>> result.trials
    200
    >>> sorted(result.summary()) == sorted(
    ...     BatchSimulation(params, rng=7).run(200, 500).summary()
    ... )
    True
    """

    def __init__(
        self,
        params: ProtocolParameters,
        seed: SeedLike = None,
        draw_mode: str = "binomial",
        delay_model: Union[None, str, DelayModel] = None,
        power: Optional[MiningPowerProfile] = None,
        workspace: Optional[Workspace] = None,
        chunk_cells: Optional[int] = None,
    ):
        super().__init__(params, seed, workspace, chunk_cells)
        self.engine = BatchSimulation(
            params,
            rng=0,
            draw_mode=draw_mode,
            delay_model=delay_model,
            power=power,
        )

    def run(
        self,
        trials: int,
        rounds: int,
        depths: Iterable[int] = (),
        progress=None,
    ) -> StreamingBatchResult:
        """Stream ``trials`` independent runs through the dense kernels.

        ``depths`` requests exact violation hit counts (worst windowed
        deficit ``>= depth``) accumulated per chunk.  ``progress`` configures
        chunk-level :class:`~repro.observability.GridProgress` events
        (resolved like the runner's grid progress; ``None`` consults
        ``REPRO_PROGRESS``).
        """
        accumulator = StreamingAccumulator(depths=depths)
        trials, rounds, block, n_chunks = self._stream(
            accumulator,
            trials,
            rounds,
            progress,
            "stream.run",
            "stream.batch",
            draw_mode=self.draw_mode,
        )
        return StreamingBatchResult(
            params=self.params,
            trials=trials,
            rounds=rounds,
            draw_mode=self.draw_mode,
            delay_model=self.engine._delay_model_name,
            seed_block_trials=block,
            n_chunks=n_chunks,
            convergence_moments=accumulator.convergence_moments,
            adversary_moments=accumulator.adversary_moments,
            convergence_total=accumulator.convergence_total,
            honest_total=accumulator.honest_total,
            adversary_total=accumulator.adversary_total,
            lemma1_satisfied=accumulator.lemma1_satisfied,
            worst_deficit_sum=accumulator.worst_deficit_sum,
            max_worst_deficit=accumulator.max_worst_deficit,
            violation_hits=dict(accumulator.violation_hits),
            deficit_histogram=accumulator.deficit_histogram,
        )


class StreamingScenarioSimulation(_SeedBlockStream):
    """Chunked, constant-memory execution of one adversarial scenario.

    Mirrors :class:`StreamingBatchSimulation` over the dense
    :class:`~repro.simulation.scenarios.ScenarioSimulation` kernels: each
    seed block is drawn by :func:`~repro.simulation.batch.draw_traces` —
    honest tensor, adversarial tensor, then the scenario's third draw (the
    minority-split tensor for partial-cut scenarios, the delay tensor for
    non-trivial delay models, nothing otherwise) — from its own spawned
    child seed.
    """

    def __init__(
        self,
        params: ProtocolParameters,
        scenario: Union[str, Scenario] = "passive",
        seed: SeedLike = None,
        draw_mode: str = "binomial",
        delay_model: Union[None, str, DelayModel] = None,
        power: Optional[MiningPowerProfile] = None,
        placement=None,
        workspace: Optional[Workspace] = None,
        chunk_cells: Optional[int] = None,
    ):
        super().__init__(params, seed, workspace, chunk_cells)
        self.engine = ScenarioSimulation(
            params,
            scenario,
            rng=0,
            draw_mode=draw_mode,
            delay_model=delay_model,
            power=power,
            placement=placement,
            workspace=workspace,
        )
        self.scenario = self.engine.scenario
        self._cut_fraction = self.engine._cut_fraction

    def run(
        self, trials: int, rounds: int, progress=None
    ) -> StreamingScenarioResult:
        """Stream ``trials`` independent attack trials through the dense scan."""
        engine = self.engine
        accumulator = ScenarioStreamingAccumulator(self.scenario.success_depth)
        trials, rounds, block, n_chunks = self._stream(
            accumulator,
            trials,
            rounds,
            progress,
            "stream.scenario_run",
            "stream.scenario",
            scenario=self.scenario.name,
        )
        return StreamingScenarioResult(
            params=self.params,
            scenario=self.scenario,
            trials=trials,
            rounds=rounds,
            draw_mode=self.draw_mode,
            honest_delay=engine.honest_delay,
            delay_model=(
                None if engine.delay_model is None else engine.delay_model.name
            ),
            release_delay=engine.release_delay,
            seed_block_trials=block,
            n_chunks=n_chunks,
            success_hits=accumulator.success_hits,
            fork_moments=accumulator.fork_moments,
            max_deepest_fork=accumulator.max_deepest_fork,
            releases_sum=accumulator.releases_sum,
            abandons_sum=accumulator.abandons_sum,
            orphaned_sum=accumulator.orphaned_sum,
            final_height_sum=accumulator.final_height_sum,
            lemma1_satisfied=accumulator.lemma1_satisfied,
            merge_depth_sum=accumulator.merge_depth_sum,
            has_merge_depths=accumulator.has_merge_depths,
        )
