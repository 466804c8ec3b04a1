"""The benchmark's workloads, built only from the public ``repro`` API.

A workload is a list of public ``ExperimentRunner`` calls (one measured
pass) plus the grid points those calls produce.  The harness makes the
calls into a fresh cache directory and, after each call, re-issues its
points as warm lookups through a second runner on the same directory.
``cache-replay`` is the exception: its calls fill the cache once during
set-up and each pass is warm lookups only.

The workload seed is the runner's ``base_seed``: it draws every Monte
Carlo stream.  The peer graphs are fixed, so every seed does the same
amount of work.  The analytic layers (``core``, ``markov``) only place the
points: each ``c`` is a multiple of ``c* = core.bounds.c_threshold_neat(nu)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.bounds import c_threshold_neat
from repro.params import parameters_from_c
from repro.simulation import (
    SEED_BLOCK_CELLS,
    DynamicsSchedule,
    PartitionEvent,
    PartitionScenario,
    PeerGraphTopology,
    TimeVaryingDelayModel,
    get_delay_model,
    get_scenario,
)

#: Seed at which every point's summary digest is pinned (``digests.json``).
DEFAULT_SEED = 2026

#: Seed of the peer graphs (not the workload seed: see the module doc).
GRAPH_SEED = 0

WORKLOAD_NAMES = ("sweep-cold", "attack-grid", "stream-tail", "cache-replay")

#: Per-workload shapes.  ``full`` is what the benchmark measures; ``smoke``
#: is a tiny variant for the harness self-tests.
SHAPES: Dict[str, Dict[str, dict]] = {
    "sweep-cold": {
        "full": {"trials": 64, "rounds": 20_000, "replays": 45},
        "smoke": {"trials": 4, "rounds": 400, "replays": 2},
    },
    "attack-grid": {
        "full": {"trials": 128, "rounds": 2_000, "peers": 32, "replays": 45},
        "smoke": {"trials": 4, "rounds": 200, "peers": 8, "replays": 2},
    },
    "stream-tail": {
        "full": {
            "stream_trials": 50_000,
            "stream_rounds": 200,
            "chunk_cells": 2 * SEED_BLOCK_CELLS,
            "tilted_trials": 3_000,
            "splitting_trials": 1_500,
            "rare_rounds": 400,
            "depth": 10,
            "replays": 250,
        },
        "smoke": {
            "stream_trials": 600,
            "stream_rounds": 100,
            "chunk_cells": 20_000,
            "tilted_trials": 300,
            "splitting_trials": 200,
            "rare_rounds": 100,
            "depth": 4,
            "replays": 2,
        },
    },
    "cache-replay": {
        "full": {
            "trials": 32,
            "rounds": 2_000,
            "stream_trials": 2_000,
            "rare_trials": 400,
            "depth": 6,
            "replays": 40,
        },
        "smoke": {
            "trials": 4,
            "rounds": 200,
            "stream_trials": 200,
            "rare_trials": 100,
            "depth": 3,
            "replays": 2,
        },
    },
}

@dataclass(frozen=True)
class Point:
    """One grid point, re-issued through ``runner.<method>`` as a lookup."""

    label: str
    method: str
    args: tuple
    kwargs: dict
    trials: int
    rounds: int
    #: Keyword arguments of ``ExperimentRunner.cache_key`` for this point.
    key_kwargs: dict

    @property
    def params(self):
        return self.args[0]

    @property
    def cells(self) -> int:
        return self.trials * self.rounds

    def lookup(self, runner):
        return getattr(runner, self.method)(*self.args, **self.kwargs)

    def cache_key(self, runner) -> str:
        return runner.cache_key(
            self.params, self.trials, self.rounds, **self.key_kwargs
        )


@dataclass(frozen=True)
class Call:
    """One public runner call of a measured pass and the points it yields."""

    method: str
    args: tuple
    kwargs: dict
    points: List[Point]

    def run(self, runner) -> list:
        results = getattr(runner, self.method)(*self.args, **self.kwargs)
        return list(results) if isinstance(results, list) else [results]


@dataclass
class Workload:
    name: str
    calls: List[Call]
    #: Warm replays of every point per pass (the whole pass on cache-replay).
    replays: int
    processes: Optional[int] = None
    #: ``True`` when the calls fill the cache once in set-up (cache-replay).
    prefill: bool = False
    #: ``check(results by label) -> {label: message}`` beyond the generic ones.
    check: Callable[[dict], Dict[str, str]] = field(
        default=lambda results: {}
    )
    #: Streaming shape ``(params, trials, rounds, chunk_cells)`` when any.
    stream: Optional[tuple] = None

    @property
    def points(self) -> List[Point]:
        return [point for call in self.calls for point in call.points]

    @property
    def cold_cells(self) -> int:
        return sum(point.cells for point in self.points)


def neat_point(nu: float, factor: float, delta: int, n: int = 1000):
    """Parameters at ``c = factor * c*(nu)``, ``c*`` the paper's neat bound."""
    return parameters_from_c(
        c=factor * c_threshold_neat(nu), n=n, delta=delta, nu=nu
    )


def _label(kind: str, params, factor: float, extra: str = "") -> str:
    return (
        f"{kind}[nu={params.nu:g},delta={params.delta},c={factor:g}c*"
        f"{extra}]"
    )


def _grid(nus, factors, delta):
    """``(factor, params)`` for every ``nu`` and multiple of ``c*``."""
    return [
        (factor, neat_point(nu, factor, delta)) for nu in nus for factor in factors
    ]


def _point(label, method, params, trials, rounds, rest=(), kwargs=None, key=None):
    return Point(
        label=label,
        method=method,
        args=(params, *_shape_args(method, trials, rounds, rest)),
        kwargs=dict(kwargs or {}),
        trials=int(trials),
        rounds=int(rounds),
        key_kwargs=dict(key or {}),
    )


def _shape_args(method, trials, rounds, rest):
    # run_scenario_point takes the scenario before the shape.
    if method == "run_scenario_point":
        return (*rest, trials, rounds)
    return (trials, rounds, *rest)


def _batch_points(grid, trials, rounds):
    return [
        _point(_label("batch", params, factor), "run_point", params, trials, rounds)
        for factor, params in grid
    ]


def partial_cut(rounds: int) -> PartitionScenario:
    """Equivocation under a half-strength cut over the middle half of a run."""
    return PartitionScenario(
        name="partial_cut_equivocation",
        kind="equivocation",
        partition_start=rounds // 4,
        partition_duration=rounds // 2,
        cut_fraction=0.5,
    )


def peer_graph(peers: int) -> PeerGraphTopology:
    """A fixed random-regular peer graph of degree 4."""
    topology = PeerGraphTopology.random_regular(peers, 4, rng=GRAPH_SEED)
    # The all-pairs distances are cached on the graph: compute them in
    # set-up so every measured pass does the same work.
    topology.distances()
    return topology


def half_cut(peers: int, rounds: int) -> DynamicsSchedule:
    """Cut half the peers off over the middle half of the run."""
    return DynamicsSchedule(
        [PartitionEvent(rounds // 4, rounds // 2, nodes=tuple(range(peers // 2)))]
    )


# ----------------------------------------------------------------------
# Workload factories
# ----------------------------------------------------------------------
def _sweep_cold(shape: dict) -> Workload:
    trials, rounds = shape["trials"], shape["rounds"]
    grid = [
        item
        for delta in (3, 10)
        for item in _grid((0.2, 0.3), (0.75, 1.5), delta)
    ]
    batch = _batch_points(grid, trials, rounds)
    uniform = get_delay_model("uniform")
    topo_grid = _grid((0.2,), (0.75, 1.5), 3)
    topo = [
        _point(
            _label("uniform", params, factor),
            "run_topology_point",
            params,
            trials,
            rounds,
            rest=(uniform,),
            key={"delay_model": uniform},
        )
        for factor, params in topo_grid
    ]
    return Workload(
        name="sweep-cold",
        calls=[
            Call("run_grid", ([p for _, p in grid], trials, rounds), {}, batch),
            Call(
                "run_topology_grid",
                ([p for _, p in topo_grid], trials, rounds, uniform),
                {},
                topo,
            ),
        ],
        replays=shape["replays"],
    )


def _attack_grid(shape: dict) -> Workload:
    trials, rounds = shape["trials"], shape["rounds"]
    grid = _grid((0.2, 0.3), (0.75, 1.5), 3)
    params = [p for _, p in grid]
    calls = []
    for scenario in (
        get_scenario("private_chain"),
        get_scenario("selfish_mining"),
        partial_cut(rounds),
    ):
        points = [
            _point(
                _label(scenario.name, p, factor),
                "run_scenario_point",
                p,
                trials,
                rounds,
                rest=(scenario,),
                key={"scenario": scenario},
            )
            for factor, p in grid
        ]
        calls.append(
            Call("run_scenario_grid", (params, scenario, trials, rounds), {}, points)
        )
    topology = peer_graph(shape["peers"])
    schedule = half_cut(shape["peers"], rounds)
    dynamics_grid = grid[:2]
    model = TimeVaryingDelayModel(schedule, topology=topology)
    calls.append(
        Call(
            "run_dynamics_grid",
            ([p for _, p in dynamics_grid], trials, rounds, schedule),
            {"topology": topology},
            [
                _point(
                    _label("dynamics", p, factor),
                    "run_dynamics_point",
                    p,
                    trials,
                    rounds,
                    rest=(schedule,),
                    kwargs={"topology": topology},
                    key={"delay_model": model},
                )
                for factor, p in dynamics_grid
            ],
        )
    )
    return Workload(
        name="attack-grid",
        calls=calls,
        replays=shape["replays"],
        processes=2,
    )


#: The streaming / rare-event anchor point.
def anchor_point():
    return parameters_from_c(c=4.0, n=1000, delta=3, nu=0.2)


def tails_agree(tilted, splitting, sigmas: float = 3.0) -> bool:
    """Whether two estimates agree within ``sigmas`` combined standard errors.

    Each standard error is read off the estimate's 95% interval as
    ``(high - low) / (2 * 1.96)``.
    """
    errors = [
        (result.ci_high - result.ci_low) / (2 * 1.96)
        for result in (tilted, splitting)
    ]
    if not all(math.isfinite(error) for error in errors):
        return False
    gap = abs(tilted.probability - splitting.probability)
    return gap <= sigmas * math.hypot(*errors)


def _stream_tail(shape: dict) -> Workload:
    params = anchor_point()
    depth = shape["depth"]
    stream_trials, stream_rounds = shape["stream_trials"], shape["stream_rounds"]
    chunk_cells = shape["chunk_cells"]
    stream = _point(
        "stream[nu=0.2,c=4,depths=6+10]",
        "run_streaming_point",
        params,
        stream_trials,
        stream_rounds,
        kwargs={"depths": (6, 10), "chunk_cells": chunk_cells},
    )
    rare_rounds = shape["rare_rounds"]
    rare = {
        method: _point(
            f"rare[{method},depth={depth}]",
            "run_rare_event_point",
            params,
            shape[f"{method}_trials"],
            rare_rounds,
            rest=(depth,),
            kwargs={"method": method},
            key={"rare_event": {"depth": depth, "method": method}},
        )
        for method in ("tilted", "splitting")
    }

    def check(results: dict) -> Dict[str, str]:
        tilted = results.get(rare["tilted"].label)
        splitting = results.get(rare["splitting"].label)
        if tilted is None or splitting is None:
            return {}
        if tails_agree(tilted, splitting):
            return {}
        message = (
            f"tilted {tilted.probability:.3e} and splitting "
            f"{splitting.probability:.3e} disagree beyond 3 sigma"
        )
        return {rare["tilted"].label: message, rare["splitting"].label: message}

    return Workload(
        name="stream-tail",
        calls=[
            Call(point.method, point.args, point.kwargs, [point])
            for point in (stream, rare["tilted"], rare["splitting"])
        ],
        replays=shape["replays"],
        check=check,
        stream=(params, stream_trials, stream_rounds, chunk_cells),
    )


def _cache_replay(shape: dict) -> Workload:
    trials, rounds = shape["trials"], shape["rounds"]
    grid = _grid((0.2, 0.3), (0.75, 1.5), 3)
    anchor = anchor_point()
    uniform = get_delay_model("uniform")
    cut = partial_cut(rounds)
    private = get_scenario("private_chain")
    peers = 16
    topology = peer_graph(peers)
    schedule = half_cut(peers, rounds)
    dynamics_model = TimeVaryingDelayModel(schedule, topology=topology)
    low, high = grid[0][1], grid[1][1]
    points = _batch_points(grid, trials, rounds)
    points += [
        _point(
            _label(scenario.name, p, factor),
            "run_scenario_point",
            p,
            trials,
            rounds,
            rest=(scenario,),
            key={"scenario": scenario},
        )
        for scenario, (factor, p) in (
            (private, grid[0]),
            (private, grid[3]),
            (cut, grid[2]),
        )
    ]
    points += [
        _point(
            _label("uniform", p, factor),
            "run_topology_point",
            p,
            trials,
            rounds,
            rest=(uniform,),
            key={"delay_model": uniform},
        )
        for factor, p in grid[:2]
    ]
    points += [
        _point(
            _label("dynamics", low, 0.75),
            "run_dynamics_point",
            low,
            trials,
            rounds,
            rest=(schedule,),
            kwargs={"topology": topology},
            key={"delay_model": dynamics_model},
        ),
        _point(
            _label("dynamics", high, 1.5, ",partial_cut"),
            "run_dynamics_point",
            high,
            trials,
            rounds,
            kwargs={"scenario": cut},
            key={"scenario": cut},
        ),
    ]
    points += [
        _point(
            f"stream[nu={p.nu:g},c={p.c:.3g}]",
            "run_streaming_point",
            p,
            shape["stream_trials"],
            200,
            kwargs={"depths": (shape["depth"],)},
        )
        for p in (anchor, low)
    ]
    points += [
        _point(
            f"rare[{method},depth={shape['depth']}]",
            "run_rare_event_point",
            anchor,
            shape["rare_trials"],
            rounds // 5,
            rest=(shape["depth"],),
            kwargs={"method": method},
            key={"rare_event": {"depth": shape["depth"], "method": method}},
        )
        for method in ("tilted", "splitting")
    ]
    return Workload(
        name="cache-replay",
        calls=[
            Call(point.method, point.args, point.kwargs, [point])
            for point in points
        ],
        replays=shape["replays"],
        prefill=True,
    )


_FACTORIES = {
    "sweep-cold": _sweep_cold,
    "attack-grid": _attack_grid,
    "stream-tail": _stream_tail,
    "cache-replay": _cache_replay,
}


def build(name: str, shape: str = "full") -> Workload:
    """Make the named workload's inputs (the seed goes to the runner)."""
    if name not in _FACTORIES:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")
    return _FACTORIES[name](SHAPES[name][shape])
