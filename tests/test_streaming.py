"""Streaming trial engine: chunk-invariant, O(chunk)-memory Monte Carlo.

The contract under test (see :mod:`repro.simulation.streaming`):

* **bit-identical across chunk sizes** — any ``chunk_cells`` setting
  (one cell, bigger than the whole run, anything between) produces the
  same streamed summary bit for bit, because draws happen per fixed-size
  seed block, never per execution chunk;
* **dense equivalence** — streaming the engine over the exact traces a
  dense run would consume reproduces the dense ``summary()``: integer
  statistics exactly, float moments within ``STREAM_STAT_RTOL``;
* **runner integration** — streamed points cache by statistical identity
  (``chunk_cells`` excluded), shard bit-identically, and reject
  configurations that cannot be honoured.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.params import parameters_from_c
from repro.simulation import streaming
from repro.simulation.batch import (
    BatchSimulation,
    proportion_confidence_interval,
)
from repro.simulation.dynamics import PartitionScenario
from repro.simulation.runner import ExperimentRunner
from repro.simulation.scenarios import ScenarioSimulation
from repro.simulation.streaming import (
    SEED_BLOCK_CELLS,
    STREAM_STAT_RTOL,
    DeficitHistogram,
    OnlineMoments,
    StreamingBatchResult,
    StreamingBatchSimulation,
    StreamingScenarioSimulation,
    _spawn_block_seeds,
    seed_block_trials,
)

PARAMS = parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.2)

#: The pinned seed of the equivalence grid, matching the golden suites.
BASE_SEED = 2026


def _state(result) -> dict:
    """The statistical payload, minus execution metadata (``n_chunks``)."""
    payload = result.payload()
    payload.pop("n_chunks")
    return payload


@contextlib.contextmanager
def _seed_block_cells(cells: int):
    """Temporarily shrink the seed-block protocol constant.

    Real block sizes (2^20 cells) would need million-cell runs to exercise
    multi-block execution; shrinking the constant keeps the property tests
    fast.  Within a patched world the chunk-invariance contract is the
    same — both runs under comparison always use the same constant.
    """
    original = streaming.SEED_BLOCK_CELLS
    streaming.SEED_BLOCK_CELLS = int(cells)
    try:
        yield
    finally:
        streaming.SEED_BLOCK_CELLS = original


class TestOnlineMoments:
    def test_matches_numpy_single_block(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=1000)
        moments = OnlineMoments()
        moments.update(values)
        assert moments.count == 1000
        assert moments.mean == pytest.approx(float(values.mean()), rel=1e-12)
        assert moments.m2 == pytest.approx(
            float(values.var()) * 1000, rel=1e-12
        )
        low, high = moments.ci95()
        std = float(values.std(ddof=1))
        half = 1.96 * std / math.sqrt(1000)
        assert low == pytest.approx(float(values.mean()) - half, rel=1e-9)
        assert high == pytest.approx(float(values.mean()) + half, rel=1e-9)

    def test_blockwise_matches_oneshot(self):
        rng = np.random.default_rng(1)
        values = rng.exponential(size=4096)
        oneshot = OnlineMoments()
        oneshot.update(values)
        blockwise = OnlineMoments()
        for start in range(0, 4096, 97):
            blockwise.update(values[start : start + 97])
        assert blockwise.count == oneshot.count
        assert blockwise.mean == pytest.approx(oneshot.mean, rel=1e-12)
        assert blockwise.m2 == pytest.approx(oneshot.m2, rel=1e-10)

    def test_fixed_block_order_is_deterministic(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=300)
        first, second = OnlineMoments(), OnlineMoments()
        for accumulator in (first, second):
            for start in range(0, 300, 13):
                accumulator.update(values[start : start + 13])
        assert first.payload() == second.payload()

    def test_below_two_observations_ci_is_nan(self):
        moments = OnlineMoments()
        assert all(math.isnan(edge) for edge in moments.ci95())
        moments.update(np.asarray([1.5]))
        assert all(math.isnan(edge) for edge in moments.ci95())

    def test_empty_update_is_noop(self):
        moments = OnlineMoments()
        moments.update(np.asarray([]))
        assert moments.count == 0

    def test_payload_round_trip(self):
        moments = OnlineMoments()
        moments.update(np.asarray([1.0, 2.0, 4.0]))
        restored = OnlineMoments.from_payload(moments.payload())
        assert restored.payload() == moments.payload()
        assert restored.ci95() == moments.ci95()


class TestDeficitHistogram:
    def test_exact_counts_and_overflow(self):
        histogram = DeficitHistogram(bins=4)
        histogram.update(np.asarray([0, 0, 1, 3, 3, 9, 100]))
        assert histogram.counts == [2, 1, 0, 2]
        assert histogram.overflow == 2
        assert histogram.total == 7

    def test_incremental_equals_oneshot(self):
        rng = np.random.default_rng(3)
        deficits = rng.integers(0, 80, size=500)
        oneshot = DeficitHistogram()
        oneshot.update(deficits)
        incremental = DeficitHistogram()
        for start in range(0, 500, 41):
            incremental.update(deficits[start : start + 41])
        assert incremental.payload() == oneshot.payload()

    def test_payload_round_trip(self):
        histogram = DeficitHistogram(bins=8)
        histogram.update(np.asarray([1, 2, 300]))
        restored = DeficitHistogram.from_payload(histogram.payload())
        assert restored.payload() == histogram.payload()

    def test_rejects_non_positive_bins(self):
        with pytest.raises(SimulationError, match="bins"):
            DeficitHistogram(bins=0)


class TestSeedBlocks:
    def test_block_size_floors_at_one_trial(self):
        assert seed_block_trials(1) == SEED_BLOCK_CELLS
        assert seed_block_trials(SEED_BLOCK_CELLS * 10) == 1

    def test_spawn_is_stateless(self):
        """Repeated spawning must reproduce a fresh sequence's first spawn —
        ``SeedSequence.spawn`` itself is stateful and would reroll."""
        root = np.random.SeedSequence(77)
        first = _spawn_block_seeds(root, 4)
        second = _spawn_block_seeds(root, 4)
        fresh = np.random.SeedSequence(77).spawn(4)
        for a, b, c in zip(first, second, fresh):
            assert a.generate_state(4).tolist() == b.generate_state(4).tolist()
            assert a.generate_state(4).tolist() == c.generate_state(4).tolist()


def _third_draw_engines(partition_start: int, partition_duration: int) -> dict:
    """Streamed engines whose draw takes a third tensor after the two mining
    tensors: the delays of a non-trivial delay model (an explicit one, or the
    time-varying model a full-eclipse PartitionScenario builds) or the
    minority split of a partial cut.  Each value is ``(engine factory taking
    chunk_cells, run kwargs)``; the partitions cut the given window."""

    def partition(name, target_depth, cut_fraction=None):
        return PartitionScenario(
            name=name,
            kind="private_chain",
            target_depth=target_depth,
            partition_start=partition_start,
            partition_duration=partition_duration,
            cut_fraction=cut_fraction,
        )

    return {
        "uniform_delay_batch": (
            lambda chunk: StreamingBatchSimulation(
                PARAMS, seed=BASE_SEED, delay_model="uniform", chunk_cells=chunk
            ),
            {"depths": (1, 2)},
        ),
        "uniform_delay_private_chain": (
            lambda chunk: StreamingScenarioSimulation(
                PARAMS,
                "private_chain",
                seed=BASE_SEED,
                delay_model="uniform",
                chunk_cells=chunk,
            ),
            {},
        ),
        "eclipse_partition": (
            lambda chunk: StreamingScenarioSimulation(
                PARAMS,
                partition("eclipse_stream", 1),
                seed=BASE_SEED,
                chunk_cells=chunk,
            ),
            {},
        ),
        "partial_cut_partition": (
            lambda chunk: StreamingScenarioSimulation(
                PARAMS,
                partition("cut_stream", 2, cut_fraction=0.3),
                seed=BASE_SEED,
                chunk_cells=chunk,
            ),
            {},
        ),
    }


THIRD_DRAW_CONFIGS = _third_draw_engines(partition_start=50, partition_duration=40)

#: Every streamed engine shape the chunk-invariance property covers: plain
#: batch and scenario runs plus each third-draw variant, with the cut
#: window inside the property's short runs.
CHUNK_INVARIANCE_ENGINES = {
    "batch": (
        lambda chunk: StreamingBatchSimulation(
            PARAMS, seed=BASE_SEED, chunk_cells=chunk
        ),
        {"depths": (1,)},
    ),
    "private_chain": (
        lambda chunk: StreamingScenarioSimulation(
            PARAMS, "private_chain", seed=BASE_SEED, chunk_cells=chunk
        ),
        {},
    ),
    **_third_draw_engines(partition_start=4, partition_duration=8),
}


class TestChunkInvariance:
    @pytest.mark.parametrize("engine", sorted(CHUNK_INVARIANCE_ENGINES))
    @given(
        trials=st.integers(min_value=1, max_value=50),
        rounds=st.integers(min_value=1, max_value=24),
        chunk_cells=st.one_of(
            st.just(1),
            st.integers(min_value=2, max_value=400),
            st.just(10**9),
        ),
        block_cells=st.sampled_from([16, 64, 256]),
    )
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_chunk_splits_are_bit_identical(
        self, engine, trials, rounds, chunk_cells, block_cells
    ):
        """Property: chunk=1 cell, chunk>run, anything between — the streamed
        summary is bit-identical to the single-chunk reference, for every
        engine and third draw."""
        factory, kwargs = CHUNK_INVARIANCE_ENGINES[engine]
        with _seed_block_cells(block_cells):
            reference = factory(10**9).run(trials, rounds, **kwargs)
            streamed = factory(chunk_cells).run(trials, rounds, **kwargs)
        assert _state(streamed) == _state(reference)
        assert streamed.summary() == reference.summary()

    def test_real_protocol_multi_block_invariance(self):
        """Unpatched protocol constant: rounds > 2^19 makes every trial its
        own seed block, so chunked and single-chunk runs genuinely split."""
        rounds = SEED_BLOCK_CELLS // 2 + 1
        chunked = StreamingBatchSimulation(
            PARAMS, seed=BASE_SEED, chunk_cells=rounds
        ).run(6, rounds, depths=(1,))
        monolithic = StreamingBatchSimulation(PARAMS, seed=BASE_SEED).run(
            6, rounds, depths=(1,)
        )
        assert chunked.seed_block_trials == 1
        assert chunked.n_chunks == 6
        assert monolithic.n_chunks == 1
        assert _state(chunked) == _state(monolithic)
        assert chunked.summary() == monolithic.summary()

    def test_repeat_runs_and_audits_do_not_reroll(self):
        simulation = StreamingBatchSimulation(PARAMS, seed=5, chunk_cells=4000)
        first = simulation.run(300, 200, depths=(1,))
        simulation.materialize_traces(300, 200)
        second = simulation.run(300, 200, depths=(1,))
        assert first.payload() == second.payload()


#: sha256 of each configuration's streamed payload (minus ``n_chunks``) at
#: 300 trials x 200 rounds in 81-trial seed blocks.  Any change to the
#: streamed draw order, the per-block seeding or the accumulators moves these.
THIRD_DRAW_DIGESTS = {
    "eclipse_partition": "7e642315768d815d10c2567bee8f7bcda63422d5d43aa97b3196c44bf201d698",
    "partial_cut_partition": "07a90222cdb8020825d47274784bb4202f618d884d6fd1366279569a035ef4d1",
    "uniform_delay_batch": "267fdbdd2be89dca30adf327b9951ea7075ff88447a62616b333671d624878bb",
    "uniform_delay_private_chain": "c5bdd03d9f14f2e0aadfeb69c065fde35b69744330c650bf65df3185e0840e5f",
}


class TestStreamedDigests:
    """Golden pins for the streamed runs that take a third draw."""

    @pytest.mark.parametrize("chunk_cells", [1, 5_000, 10**9])
    @pytest.mark.parametrize("name", sorted(THIRD_DRAW_CONFIGS))
    def test_payload_digest_is_pinned(self, name, chunk_cells):
        factory, kwargs = THIRD_DRAW_CONFIGS[name]
        with _seed_block_cells(16_384):
            result = factory(chunk_cells).run(300, 200, **kwargs)
        digest = hashlib.sha256(
            json.dumps(_state(result), sort_keys=True).encode()
        ).hexdigest()
        assert digest == THIRD_DRAW_DIGESTS[name]


class TestDenseEquivalence:
    """Streamed summaries vs the dense engine on the materialized traces."""

    @pytest.mark.parametrize("nu", [0.1, 0.25])
    @pytest.mark.parametrize("delta", [2, 4])
    def test_batch_grid(self, nu, delta):
        params = parameters_from_c(c=4.0, n=1_000, delta=delta, nu=nu)
        simulation = StreamingBatchSimulation(
            params, seed=BASE_SEED, chunk_cells=20_000
        )
        streamed = simulation.run(400, 250, depths=(1, 2))
        honest, adversary, delays = simulation.materialize_traces(400, 250)
        assert delays is None
        dense = BatchSimulation(params, rng=0).run_traces(honest, adversary)
        self._assert_summaries_match(streamed.summary(), dense.summary())
        # Exact integer cross-checks beyond the summary keys.
        assert streamed.max_worst_deficit == int(dense.worst_deficits.max())
        for depth in (1, 2):
            hits = int((dense.worst_deficits >= depth).sum())
            assert streamed.violation_probability(depth) == hits / 400
            assert streamed.violation_ci95(depth) == (
                proportion_confidence_interval(hits, 400)
            )
        assert streamed.deficit_histogram.total == 400

    @pytest.mark.parametrize("strategy", ["private_chain", "selfish_mining"])
    @pytest.mark.parametrize("nu", [0.1, 0.25])
    def test_scenario_grid(self, strategy, nu):
        params = parameters_from_c(c=4.0, n=1_000, delta=3, nu=nu)
        simulation = StreamingScenarioSimulation(
            params, strategy, seed=BASE_SEED, chunk_cells=15_000
        )
        streamed = simulation.run(300, 200)
        honest, adversary, third = simulation.materialize_traces(300, 200)
        assert third is None
        dense = ScenarioSimulation(params, strategy, rng=0).run_traces(
            honest, adversary
        )
        self._assert_summaries_match(streamed.summary(), dense.summary())

    def test_uniform_delay_model_batch(self):
        simulation = StreamingBatchSimulation(
            PARAMS, seed=9, delay_model="uniform", chunk_cells=3_000
        )
        streamed = simulation.run(300, 200)
        honest, adversary, delays = simulation.materialize_traces(300, 200)
        assert delays is not None
        dense = BatchSimulation(PARAMS, rng=0, delay_model="uniform").run_traces(
            honest, adversary, delays=delays
        )
        self._assert_summaries_match(streamed.summary(), dense.summary())

    def test_partition_cut_scenario(self):
        cut = PartitionScenario(
            name="cut_stream",
            kind="private_chain",
            target_depth=2,
            partition_start=50,
            partition_duration=40,
            cut_fraction=0.3,
        )
        simulation = StreamingScenarioSimulation(
            PARAMS, cut, seed=BASE_SEED, chunk_cells=8_000
        )
        streamed = simulation.run(300, 200)
        honest, adversary, split = simulation.materialize_traces(300, 200)
        assert split is not None
        dense = ScenarioSimulation(PARAMS, cut, rng=0).run_traces(
            honest, adversary, split_counts=split
        )
        self._assert_summaries_match(streamed.summary(), dense.summary())
        assert streamed.summary()["mean_merge_depth"] == pytest.approx(
            dense.summary()["mean_merge_depth"], rel=STREAM_STAT_RTOL
        )

    @staticmethod
    def _assert_summaries_match(streamed: dict, dense: dict) -> None:
        assert sorted(streamed) == sorted(dense)
        for key, expected in dense.items():
            actual = streamed[key]
            if isinstance(expected, str) or expected is None:
                assert actual == expected, key
            elif isinstance(expected, (int, np.integer)) and not isinstance(
                expected, bool
            ):
                assert actual == expected, key
            else:
                assert actual == pytest.approx(
                    expected, rel=STREAM_STAT_RTOL, abs=1e-12, nan_ok=True
                ), key


class TestValidationAndResults:
    def test_generator_seed_rejected(self):
        with pytest.raises(TypeError, match="Generator"):
            StreamingBatchSimulation(PARAMS, seed=np.random.default_rng(0))
        with pytest.raises(TypeError, match="Generator"):
            StreamingScenarioSimulation(
                PARAMS, "private_chain", seed=np.random.default_rng(0)
            )

    def test_negative_depth_rejected(self):
        with pytest.raises(SimulationError, match=">= 0"):
            StreamingBatchSimulation(PARAMS, seed=0).run(10, 10, depths=(-1,))

    def test_untracked_depth_raises(self):
        result = StreamingBatchSimulation(PARAMS, seed=0).run(
            20, 20, depths=(1,)
        )
        assert result.depths == (1,)
        with pytest.raises(SimulationError, match="not tracked"):
            result.violation_probability(5)

    def test_invalid_shapes_rejected(self):
        simulation = StreamingBatchSimulation(PARAMS, seed=0)
        with pytest.raises(SimulationError, match="trials"):
            simulation.run(0, 10)
        with pytest.raises(SimulationError, match="rounds"):
            simulation.run(10, 0)

    def test_batch_result_payload_round_trip(self):
        result = StreamingBatchSimulation(PARAMS, seed=4, chunk_cells=500).run(
            60, 40, depths=(1, 3)
        )
        restored = StreamingBatchResult.from_payload(result.payload(), PARAMS)
        assert restored.payload() == result.payload()
        assert restored.summary() == result.summary()
        assert restored.violation_ci95(3) == result.violation_ci95(3)

    def test_streamed_memory_stays_chunk_bounded(self):
        """With every trial its own seed block, a chunked run's workspace
        high-water mark stays well under the dense trace footprint."""
        from repro.backend import Workspace

        rounds = SEED_BLOCK_CELLS + 1
        trials = 24
        per_chunk = 2
        workspace = Workspace()
        simulation = StreamingBatchSimulation(
            PARAMS,
            seed=1,
            workspace=workspace,
            chunk_cells=per_chunk * rounds,
        )
        simulation.run(trials, rounds)
        dense_trace_bytes = 2 * trials * rounds * 8
        assert workspace.high_water_bytes < dense_trace_bytes / 2


class _CaptureSink:
    def __init__(self):
        self.events = []

    def emit(self, event: dict) -> None:
        self.events.append(event)


class TestRunnerIntegration:
    def test_cache_round_trip_and_chunk_key_exclusion(self, tmp_path):
        runner = ExperimentRunner(base_seed=BASE_SEED, cache_dir=str(tmp_path))
        first = runner.run_streaming_point(PARAMS, 200, 150, depths=(1,))
        assert runner.cache_misses == 1
        second = runner.run_streaming_point(PARAMS, 200, 150, depths=(1,))
        assert runner.cache_hits == 1
        assert second.payload() == first.payload()
        # chunk_cells is execution policy: a different setting must *hit*.
        third = runner.run_streaming_point(
            PARAMS, 200, 150, depths=(1,), chunk_cells=1
        )
        assert runner.cache_hits == 2
        assert third.payload() == first.payload()
        assert any(
            name.startswith("stream_") for name in os.listdir(tmp_path)
        )

    def test_scenario_cache_round_trip(self, tmp_path):
        runner = ExperimentRunner(base_seed=BASE_SEED, cache_dir=str(tmp_path))
        first = runner.run_streaming_point(
            PARAMS, 150, 120, scenario="selfish_mining"
        )
        second = runner.run_streaming_point(
            PARAMS, 150, 120, scenario="selfish_mining"
        )
        assert runner.cache_hits == 1
        assert second.summary() == first.summary()
        assert second.scenario.name == "selfish_mining"

    def test_depths_are_part_of_the_statistical_identity(self, tmp_path):
        runner = ExperimentRunner(base_seed=BASE_SEED, cache_dir=str(tmp_path))
        runner.run_streaming_point(PARAMS, 100, 80, depths=(1,))
        runner.run_streaming_point(PARAMS, 100, 80, depths=(1, 2))
        assert runner.cache_misses == 2

    def test_depths_with_scenario_rejected(self):
        runner = ExperimentRunner(base_seed=0)
        with pytest.raises(SimulationError, match="batch statistic"):
            runner.run_streaming_point(
                PARAMS, 50, 50, depths=(1,), scenario="private_chain"
            )

    def test_serial_and_sharded_grids_are_bit_identical(self):
        points = [
            PARAMS,
            parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.25),
            parameters_from_c(c=4.0, n=1_000, delta=2, nu=0.1),
        ]
        serial = ExperimentRunner(base_seed=7).run_streaming_grid(
            points, 200, 120, depths=(1,)
        )
        sharded = ExperimentRunner(base_seed=7, processes=2).run_streaming_grid(
            points, 200, 120, depths=(1,), chunk_cells=5_000
        )
        assert len(serial) == len(sharded) == 3
        for a, b in zip(serial, sharded):
            assert _state(a) == _state(b)
            assert a.summary() == b.summary()

    def test_streamed_point_is_independent_of_dense_point(self, tmp_path):
        """A streamed point is a new seeded experiment with its own cache
        slot — running both never collides or cross-fills."""
        runner = ExperimentRunner(base_seed=BASE_SEED, cache_dir=str(tmp_path))
        runner.run_point(PARAMS, 100, 80)
        runner.run_streaming_point(PARAMS, 100, 80)
        assert runner.cache_misses == 2
        assert runner.cache_hits == 0

    def test_chunk_progress_events(self):
        """Chunk-level progress: one event per chunk, schema-shaped."""
        sink = _CaptureSink()
        with _seed_block_cells(16):
            simulation = StreamingBatchSimulation(
                PARAMS, seed=0, chunk_cells=32
            )
            simulation.run(16, 8, progress=[sink])
        assert len(sink.events) == 4
        assert sink.events[-1]["completed"] == sink.events[-1]["total"] == 4
        assert sink.events[0]["label"] == "stream.batch"

    def test_stream_metrics_counters(self):
        from repro.observability import use_metrics

        with use_metrics() as metrics:
            StreamingBatchSimulation(PARAMS, seed=0, chunk_cells=100).run(
                30, 20
            )
        assert metrics.counter("engine.stream.trials") == 30
        assert metrics.counter("engine.stream.cells") == 600
        assert metrics.counter("engine.stream.chunks") >= 1
