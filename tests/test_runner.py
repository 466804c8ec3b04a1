"""Tests for the ExperimentRunner: seeding, caching, sharding."""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.observability import use_metrics, use_tracer
from repro.params import parameters_from_c
from repro.simulation import (
    AdversaryPlacement,
    DynamicsSchedule,
    Experiment,
    ExperimentRunner,
    PartitionEvent,
    PeerGraphTopology,
    RareEvent,
    TimeVaryingDelayModel,
)

PARAMS = parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.2)
OTHER = parameters_from_c(c=2.0, n=1_000, delta=3, nu=0.3)


def _rewrite(path, change):
    with open(path, "rb") as source:
        data = bytearray(source.read())
    with open(path, "wb") as sink:
        sink.write(bytes(change(data)))


def _flip_bit(data):
    data[len(data) // 2] ^= 0x01
    return data


def _sidecar_not_object(npz, sidecar):
    os.remove(npz)
    with open(sidecar, "w", encoding="utf-8") as sink:
        sink.write("[1, 2]")


#: Ways a cache entry gets damaged: ``(npz path, sidecar path) -> None``.
DAMAGE = {
    "truncated_npz": lambda npz, _: _rewrite(npz, lambda d: d[: len(d) // 2]),
    "flipped_bit": lambda npz, _: _rewrite(npz, _flip_bit),
    "foreign_schema_npz": lambda npz, _: np.savez(npz, other=np.arange(3)),
    "sidecar_not_object": _sidecar_not_object,
}


class TestSeeding:
    def test_same_base_seed_reproduces_results(self):
        first = ExperimentRunner(base_seed=5).run_point(PARAMS, trials=6, rounds=800)
        second = ExperimentRunner(base_seed=5).run_point(PARAMS, trials=6, rounds=800)
        assert np.array_equal(
            first.convergence_opportunities, second.convergence_opportunities
        )
        assert np.array_equal(first.adversary_blocks, second.adversary_blocks)

    def test_different_base_seed_changes_results(self):
        first = ExperimentRunner(base_seed=5).run_point(PARAMS, trials=6, rounds=800)
        third = ExperimentRunner(base_seed=6).run_point(PARAMS, trials=6, rounds=800)
        assert not np.array_equal(first.honest_blocks, third.honest_blocks)

    def test_point_results_independent_of_grid_composition(self):
        """A point's stream is a pure function of (params, shape, seed)."""
        runner = ExperimentRunner(base_seed=9)
        solo = runner.run_point(PARAMS, trials=4, rounds=600)
        grid = ExperimentRunner(base_seed=9).run_grid(
            [OTHER, PARAMS], trials=4, rounds=600
        )
        assert np.array_equal(
            solo.convergence_opportunities, grid[1].convergence_opportunities
        )
        assert np.array_equal(solo.honest_blocks, grid[1].honest_blocks)

    def test_cache_key_separates_configurations(self):
        runner = ExperimentRunner(base_seed=0)
        baseline = runner.cache_key(PARAMS, 4, 100)
        assert runner.cache_key(PARAMS, 5, 100) != baseline
        assert runner.cache_key(PARAMS, 4, 101) != baseline
        assert runner.cache_key(OTHER, 4, 100) != baseline
        assert ExperimentRunner(base_seed=1).cache_key(PARAMS, 4, 100) != baseline


class TestCache:
    def test_roundtrip_hit_returns_identical_result(self, tmp_path):
        runner = ExperimentRunner(base_seed=3, cache_dir=str(tmp_path))
        cold = runner.run_point(PARAMS, trials=5, rounds=500)
        assert runner.cache_misses == 1 and runner.cache_hits == 0
        files = [name for name in os.listdir(tmp_path) if name.endswith(".npz")]
        assert len(files) == 1

        warm = runner.run_point(PARAMS, trials=5, rounds=500)
        assert runner.cache_hits == 1
        assert np.array_equal(
            cold.convergence_opportunities, warm.convergence_opportunities
        )
        assert np.array_equal(cold.worst_deficits, warm.worst_deficits)
        assert warm.params == PARAMS
        assert warm.trials == 5 and warm.rounds == 500

    def test_cache_shared_across_runner_instances(self, tmp_path):
        first = ExperimentRunner(base_seed=3, cache_dir=str(tmp_path))
        cold = first.run_point(PARAMS, trials=4, rounds=400)
        second = ExperimentRunner(base_seed=3, cache_dir=str(tmp_path))
        warm = second.run_point(PARAMS, trials=4, rounds=400)
        assert second.cache_hits == 1 and second.cache_misses == 0
        assert np.array_equal(cold.honest_blocks, warm.honest_blocks)

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_entry_is_a_logged_miss_and_is_overwritten(
        self, tmp_path, caplog, damage
    ):
        runner = ExperimentRunner(base_seed=3, cache_dir=str(tmp_path))
        clean = runner.run_point(PARAMS, trials=4, rounds=300)
        (npz,) = glob.glob(os.path.join(tmp_path, "*.npz"))
        (sidecar,) = glob.glob(os.path.join(tmp_path, "*.latest.json"))
        DAMAGE[damage](npz, sidecar)

        with use_metrics() as metrics, caplog.at_level(
            "WARNING", logger="repro.simulation.runner"
        ):
            again = runner.run_point(PARAMS, trials=4, rounds=300)
        assert (runner.cache_hits, runner.cache_misses) == (0, 2)
        assert metrics.counter("runner.run_point.cache_corrupt") == 1
        damaged = sidecar if damage == "sidecar_not_object" else npz
        assert any(os.path.basename(damaged) in line for line in caplog.messages)
        assert np.array_equal(clean.worst_deficits, again.worst_deficits)
        assert np.array_equal(clean.honest_blocks, again.honest_blocks)
        # The recomputed entry replaced the damaged one: the next call hits.
        runner.run_point(PARAMS, trials=4, rounds=300)
        assert runner.cache_hits == 1

    def test_no_cache_dir_never_touches_disk(self):
        runner = ExperimentRunner(base_seed=0, cache_dir=None)
        runner.run_point(PARAMS, trials=2, rounds=200)
        runner.run_point(PARAMS, trials=2, rounds=200)
        assert runner.cache_hits == 0 and runner.cache_misses == 2


class TestGrid:
    def test_serial_grid_preserves_point_order(self):
        results = ExperimentRunner(base_seed=1).run_grid(
            [PARAMS, OTHER], trials=3, rounds=300
        )
        assert [result.params for result in results] == [PARAMS, OTHER]

    def test_empty_grid(self):
        assert ExperimentRunner().run_grid([], trials=3, rounds=300) == []

    @pytest.mark.parametrize(
        "method, extra, options",
        [
            ("run_grid", (), {}),
            ("run_topology_grid", ("uniform",), {}),
            (
                "run_dynamics_grid",
                (DynamicsSchedule([PartitionEvent(100, 80, nodes=(0, 1, 2))]),),
                {"topology": PeerGraphTopology.ring(8)},
            ),
            (
                "run_dynamics_grid",
                (DynamicsSchedule([PartitionEvent(100, 80)]),),
                {"scenario": "private_chain"},
            ),
        ],
        ids=["batch", "topology", "dynamics", "dynamics_scenario"],
    )
    def test_multiprocess_grid_matches_serial(self, tmp_path, method, extra, options):
        def grid(runner):
            return getattr(runner, method)(
                [PARAMS, OTHER], 3, 400, *extra, **options
            )

        serial = grid(ExperimentRunner(base_seed=4))
        sharded_runner = ExperimentRunner(
            base_seed=4, processes=2, cache_dir=str(tmp_path)
        )
        sharded = grid(sharded_runner)
        for left, right in zip(serial, sharded):
            assert np.array_equal(
                left.convergence_opportunities, right.convergence_opportunities
            )
            assert np.array_equal(left.adversary_blocks, right.adversary_blocks)
            assert left.params == right.params
        # Worker-side cache accounting folds back into the parent runner.
        assert sharded_runner.cache_misses == 2 and sharded_runner.cache_hits == 0
        grid(sharded_runner)
        assert sharded_runner.cache_hits == 2

    def test_run_many_runs_a_mixed_engine_list(self):
        specs = [
            Experiment(PARAMS, 3, 300),
            Experiment(OTHER, 3, 300, scenario="private_chain"),
            Experiment(PARAMS, 40, 300, depths=(2,)),
            Experiment(OTHER, 64, 300, rare=RareEvent(3, method="plain")),
        ]
        with use_tracer() as tracer:
            mixed = ExperimentRunner(base_seed=4, processes=2).run_many(specs)
        (root,) = tracer.roots
        assert root.name == "runner.run_many"
        assert root.attributes["sharded"] is True
        alone = ExperimentRunner(base_seed=4)
        assert np.array_equal(
            mixed[0].worst_deficits, alone.run_point(PARAMS, 3, 300).worst_deficits
        )
        assert np.array_equal(
            mixed[1].deepest_forks,
            alone.run_scenario_point(OTHER, "private_chain", 3, 300).deepest_forks,
        )
        streamed = alone.run_streaming_point(PARAMS, 40, 300, depths=(2,))
        assert mixed[2].payload() == streamed.payload()
        rare = alone.run_rare_event_point(OTHER, 64, 300, 3, method="plain")
        assert (mixed[3].probability, mixed[3].hits) == (rare.probability, rare.hits)

    def test_single_method_lists_keep_the_wrapper_grid_span(self):
        with use_tracer() as tracer:
            ExperimentRunner().run_many(
                [Experiment(PARAMS, 2, 100), Experiment(OTHER, 2, 100)]
            )
        (root,) = tracer.roots
        assert root.name == "runner.run_grid"
        assert [child.name for child in root.children] == ["runner.run_point"] * 2


class TestWorkerFailure:
    """Fault injection: one grid point raises inside a 2-process pool."""

    SPECS = [
        Experiment(PARAMS, 3, 300),
        Experiment(PARAMS, 5, 300),
        Experiment(OTHER, 3, 300),
    ]

    @staticmethod
    def _inject(monkeypatch, error):
        compute = ExperimentRunner._compute

        def faulty(self, spec, seed):
            if spec.trials == 5:
                raise error
            return compute(self, spec, seed)

        # Pool workers fork from this process and inherit the patch.
        monkeypatch.setattr(ExperimentRunner, "_compute", faulty)

    def test_failing_point_is_named_and_completed_telemetry_kept(
        self, monkeypatch, tmp_path
    ):
        self._inject(monkeypatch, ValueError("injected fault"))
        runner = ExperimentRunner(
            base_seed=4, processes=2, cache_dir=str(tmp_path / "grid")
        )
        with use_metrics() as metrics, pytest.raises(SimulationError) as caught:
            runner.run_many(self.SPECS)
        monkeypatch.undo()
        message = str(caught.value)
        assert "grid point 1 (run_point" in message
        assert "ValueError: injected fault" in message
        assert isinstance(caught.value.__cause__, ValueError)
        # The identity is the digest that names the point's cache sidecar.
        alone = tmp_path / "alone"
        ExperimentRunner(base_seed=4, cache_dir=str(alone)).run(self.SPECS[1])
        (sidecar,) = glob.glob(str(alone / "*.latest.json"))
        identity = os.path.basename(sidecar)[: -len(".latest.json")]
        assert identity.rsplit("_", 1)[1] in message
        # The two completed points were folded in before the raise.
        assert runner.cache_misses == 2
        counters = metrics.snapshot()["counters"]
        assert counters["runner.run_point.cache_misses"] == 2
        assert len(glob.glob(str(tmp_path / "grid" / "*.latest.json"))) == 2

    def test_unpicklable_error_crosses_the_pool_by_name(self, monkeypatch):
        class LocalFault(Exception):
            """Defined in a function, so it cannot be pickled."""

        self._inject(monkeypatch, LocalFault("cannot travel"))
        with pytest.raises(SimulationError) as caught:
            ExperimentRunner(base_seed=4, processes=2).run_many(self.SPECS)
        assert "LocalFault: cannot travel" in str(caught.value)


class TestValidation:
    def test_invalid_configuration_raises(self):
        with pytest.raises(SimulationError):
            ExperimentRunner(draw_mode="quantum")
        with pytest.raises(SimulationError):
            ExperimentRunner(processes=0)


class TestExperimentSpec:
    def test_fields_pick_prefix_and_method(self):
        schedule = DynamicsSchedule([PartitionEvent(10, 5)])
        cases = [
            (Experiment(PARAMS, 2, 50), "batch", "run_point"),
            (
                Experiment(PARAMS, 2, 50, scenario="private_chain"),
                "scenario",
                "run_scenario_point",
            ),
            (
                Experiment(PARAMS, 2, 50, delay_model="uniform"),
                "topology",
                "run_topology_point",
            ),
            (
                Experiment(
                    PARAMS, 2, 50, delay_model=TimeVaryingDelayModel(schedule)
                ),
                "dynamics",
                "run_dynamics_point",
            ),
            (
                Experiment(
                    PARAMS,
                    2,
                    50,
                    scenario="private_chain",
                    delay_model=TimeVaryingDelayModel(schedule),
                ),
                "dynamics_scenario",
                "run_dynamics_point",
            ),
            (
                Experiment(PARAMS, 2, 50, rare=RareEvent(3)),
                "rare",
                "run_rare_event_point",
            ),
            (Experiment(PARAMS, 2, 50, depths=()), "stream", "run_streaming_point"),
            (
                Experiment(PARAMS, 2, 50, scenario="selfish_mining", depths=()),
                "stream_scenario",
                "run_streaming_point",
            ),
        ]
        for spec, prefix, method in cases:
            assert (spec.prefix, spec.method) == (prefix, method)

    def test_chunk_cells_stays_out_of_the_identity(self):
        small = Experiment(PARAMS, 2, 50, depths=(3, 1, 3), chunk_cells=100)
        large = Experiment(PARAMS, 2, 50, depths=(1, 3), chunk_cells=10_000)
        assert small == large
        assert small.payload() == large.payload()
        assert small.payload()["streaming"] == {"depths": [1, 3]}

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"placement": AdversaryPlacement("leaf")}, "placement needs"),
            ({"rare": RareEvent(3), "scenario": "private_chain"}, "rare-event"),
            ({"depths": (), "delay_model": "uniform"}, "streamed"),
            ({"depths": (2,), "scenario": "private_chain"}, "depths"),
            (
                {"scenario": "private_chain", "delay_model": "uniform"},
                "TimeVaryingDelayModel",
            ),
        ],
    )
    def test_unrunnable_combinations_are_rejected(self, fields, message):
        with pytest.raises(SimulationError, match=message):
            Experiment(PARAMS, 2, 50, **fields)

    def test_rare_event_spec_validates_its_method(self):
        with pytest.raises(SimulationError, match="method"):
            RareEvent(3, method="bogus")

    def test_rare_draw_mode_is_checked_by_the_runner(self):
        runner = ExperimentRunner(draw_mode="bernoulli")
        with pytest.raises(SimulationError, match="binomial"):
            runner.run(Experiment(PARAMS, 2, 50, rare=RareEvent(3)))
