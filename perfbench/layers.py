"""Per-layer metrics of the traced run.

The traced run installs ``repro.observability.use_tracer()`` and
``use_metrics()`` for each pass, so it sees the spans and counters the
package already emits (pool workers' telemetry included, grafted under the
grid span with a ``shard`` attribute).  The benchmark adds only its own
``bench.*`` spans around the public calls it makes.  This module rolls a
pass's spans up into self time by span name, maps span names onto the
package's modules, and writes the spans as Chrome trace-event JSON.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from repro.simulation import (
    BatchSimulation,
    StreamingAccumulator,
    draw_mining_traces,
    seed_block_trials,
)

#: ``(name, unit)`` of every per-layer metric, in print order.
PER_LAYER = (
    ("batch.draw_s", "s"),
    ("batch.mask_s", "s"),
    ("batch.deficits_s", "s"),
    ("batch.mcells", "Mcells"),
    ("topology.mask_s", "s"),
    ("scenarios.scan_s", "s"),
    ("scenarios.scan_partition_s", "s"),
    ("scenarios.draw_s", "s"),
    ("scenarios.mask_s", "s"),
    ("scenarios.deficits_s", "s"),
    ("dynamics.compile_s", "s"),
    ("dynamics.compilations", "count"),
    ("runner.serial_s", "s"),
    ("runner.pool_busy_frac", "ratio"),
    ("streaming.self_s", "s"),
    ("streaming.chunks", "count"),
    ("streaming.blocks", "count"),
    ("streaming.block_draw_s", "s"),
    ("streaming.accumulate_s", "s"),
    ("rare_events.pilot_s", "s"),
    ("rare_events.tilted_s", "s"),
    ("rare_events.splitting_s", "s"),
    ("rare_events.pilot_iterations", "count"),
    ("rare_events.ess_ratio", "ratio"),
    ("runner.self_s", "s"),
    ("runner.cache_hits", "count"),
    ("runner.cache_misses", "count"),
    ("runner.key_us", "us"),
    ("backend.workspace_high_water_mb", "MB"),
    ("backend.workspace_reuse_ratio", "ratio"),
    ("observability.trace_overhead_frac", "ratio"),
    ("observability.layer_coverage_frac", "ratio"),
)

#: Span-name prefix -> the package module that emits it.
LAYER_OF_PREFIX = {
    "batch.": "simulation.batch",
    "topology.": "simulation.topology",
    "scenario.": "simulation.scenarios",
    "dynamics.": "simulation.dynamics",
    "stream.": "simulation.streaming",
    "rare.": "simulation.rare_events",
    "runner.": "simulation.runner",
}


def layer_of(name: str):
    """The module a span belongs to, or ``None`` for the benchmark's own."""
    for prefix, layer in LAYER_OF_PREFIX.items():
        if name.startswith(prefix):
            return layer
    return None


def walk(roots) -> Iterator[Tuple[object, Tuple[object, ...]]]:
    """Every span with its ancestors, depth-first."""
    stack = [(root, ()) for root in reversed(list(roots))]
    while stack:
        span, ancestors = stack.pop()
        yield span, ancestors
        below = ancestors + (span,)
        stack.extend((child, below) for child in reversed(span.children))


def self_times(roots) -> Dict[str, float]:
    """Self time summed by span name."""
    totals: Dict[str, float] = defaultdict(float)
    for span, _ in walk(roots):
        totals[span.name] += span.self_time
    return dict(totals)


def _counters(metrics, suffix: str) -> float:
    counters = metrics.snapshot()["counters"]
    return float(
        sum(
            value
            for name, value in counters.items()
            if name.startswith("runner.") and name.endswith(suffix)
        )
    )


def _grid_spans(roots, processes):
    """``(serial_s, pool busy, pool wall)`` over the grids of one pass."""
    serial = busy = wall = 0.0
    for span, _ in walk(roots):
        if not (span.name.startswith("bench.") and span.name.endswith("_grid")):
            continue
        for child in span.children:
            if not child.name.startswith("runner."):
                continue
            if child.attributes.get("sharded"):
                wall += child.duration
                busy += sum(
                    grafted.duration
                    for grafted in child.children
                    if "shard" in grafted.attributes
                )
            elif processes and processes > 1:
                serial += span.duration
    return serial, busy, wall


def pass_layers(tracer, metrics, record, workload) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (``record`` is its PassRecord)."""
    roots = tracer.roots
    own = self_times(roots)
    get = lambda name: own.get(name, 0.0)  # noqa: E731
    counter = metrics.counter
    topology_mask = sum(
        span.self_time
        for span, ancestors in walk(roots)
        if span.name == "batch.mask"
        and any(a.name == "runner.run_topology_point" for a in ancestors)
    )
    serial, busy, wall = _grid_spans(roots, workload.processes)
    total = sum(own.values())
    named = sum(value for name, value in own.items() if layer_of(name))
    tilted = [
        p.trials for p in workload.points if p.kwargs.get("method") == "tilted"
    ]
    gauges = record.cold_gauges
    ess = gauges.get("rare_events.effective_sample_size", 0.0)
    allocated = counter("workspace.allocated")
    reused = counter("workspace.reused")
    return {
        "batch.draw_s": get("batch.draw"),
        "batch.mask_s": get("batch.mask"),
        "batch.deficits_s": get("batch.deficits"),
        "batch.mcells": counter("engine.batch.rounds") / 1e6,
        "topology.mask_s": topology_mask,
        "scenarios.scan_s": get("scenario.scan"),
        "scenarios.scan_partition_s": get("scenario.scan_partition"),
        "scenarios.draw_s": get("scenario.draw"),
        "scenarios.mask_s": get("scenario.mask"),
        "scenarios.deficits_s": get("scenario.deficits"),
        "dynamics.compile_s": get("dynamics.compile"),
        "dynamics.compilations": counter("engine.dynamics.schedule_compilations"),
        "runner.serial_s": serial,
        "runner.pool_busy_frac": (
            busy / (workload.processes * wall) if wall and workload.processes else 0.0
        ),
        "streaming.self_s": get("stream.run") + get("stream.scenario_run"),
        "streaming.chunks": counter("engine.stream.chunks"),
        "streaming.blocks": counter("engine.stream.blocks"),
        "rare_events.pilot_s": get("rare.pilot"),
        "rare_events.tilted_s": get("rare.tilted"),
        "rare_events.splitting_s": get("rare.splitting"),
        "rare_events.pilot_iterations": counter("rare_events.pilot_iterations"),
        "rare_events.ess_ratio": ess / tilted[0] if tilted and ess else 0.0,
        "runner.self_s": sum(v for k, v in own.items() if k.startswith("runner.")),
        "runner.cache_hits": _counters(metrics, ".cache_hits"),
        "runner.cache_misses": _counters(metrics, ".cache_misses"),
        "backend.workspace_high_water_mb": (
            gauges.get("resource.workspace_high_water_bytes", 0) / 1e6
        ),
        "backend.workspace_reuse_ratio": (
            reused / (allocated + reused) if allocated + reused else 0.0
        ),
        "observability.layer_coverage_frac": named / total if total else 0.0,
    }


def layer_shares(tracers) -> Dict[str, float]:
    """Share of traced self time per module (``None`` = the benchmark's own)."""
    totals: Dict[str, float] = defaultdict(float)
    for tracer in tracers:
        for name, value in self_times(tracer.roots).items():
            totals[layer_of(name) or "bench"] += value
    grand = sum(totals.values())
    return {k: v / grand for k, v in sorted(totals.items())} if grand else {}


# ----------------------------------------------------------------------
# Stages timed from outside the package
# ----------------------------------------------------------------------
def _best_of(function, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        times.append(time.perf_counter() - started)
    return sorted(times)[len(times) // 2]


def streaming_stages(stream, repeats: int = 5) -> Tuple[float, float]:
    """``(block draw, accumulate)`` seconds for one streamed point.

    Times ``draw_mining_traces`` at the seed-block shape and one
    ``StreamingAccumulator.update`` over a block-sized dense result, each
    multiplied by the point's block count.
    """
    if stream is None:
        return 0.0, 0.0
    params, trials, rounds, _ = stream
    block = min(seed_block_trials(rounds), trials)
    blocks = math.ceil(trials / block)
    rng = np.random.default_rng(0)
    draw = _best_of(lambda: draw_mining_traces(params, block, rounds, rng), repeats)
    result = BatchSimulation(params, rng=1).run(block, rounds)
    accumulator = StreamingAccumulator(depths=(6, 10))
    fold = _best_of(lambda: accumulator.update(result, 0, block), repeats)
    return draw * blocks, fold * blocks


def cache_key_us(points, runner, rounds_of_calls: int = 20) -> float:
    """Median microseconds of one ``ExperimentRunner.cache_key`` call."""
    samples = []
    for _ in range(rounds_of_calls):
        for point in points:
            started = time.perf_counter()
            point.cache_key(runner)
            samples.append(time.perf_counter() - started)
    return sorted(samples)[len(samples) // 2] * 1e6


# ----------------------------------------------------------------------
# Span file
# ----------------------------------------------------------------------
def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def trace_events(tracers: Iterable, metadata: dict) -> dict:
    """Chrome trace-event JSON (viewable in Perfetto) of every traced pass.

    Spans grafted from pool workers go to process ``1 + shard``.
    """
    roots: List[object] = [root for tracer in tracers for root in tracer.roots]
    origin = min((root.start for root in roots), default=0.0)
    events = []
    for span, ancestors in walk(roots):
        shards = [a.attributes["shard"] for a in ancestors + (span,) if "shard" in a.attributes]
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1 + int(shards[-1]) if shards else 0,
                "tid": 0,
                "args": {k: _jsonable(v) for k, v in span.attributes.items()},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata}


def write_trace(path: str, tracers, metadata: dict) -> None:
    with open(path, "w", encoding="utf-8") as sink:
        json.dump(trace_events(tracers, metadata), sink)
