"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 2026 --seconds 10 --trace 0

``--trace 0`` is the measured run: tracing off, every end-to-end metric.
``--trace 1`` is the traced run of the same workload: its passes alternate
untraced and traced, and it prints every per-layer metric.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run records and
span files go to ``.perfbench_runs/out/`` in the checkout.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the run exits with an error and prints no result.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
DIGESTS = os.path.join(HERE, "digests.json")

#: Environment knobs that would change what is measured; the benchmark
#: always measures the package's default configuration.
_KNOBS = (
    "REPRO_TRACE",
    "REPRO_RUN_LOG",
    "REPRO_PROGRESS",
    "REPRO_CHUNK_CELLS",
    "REPRO_BACKEND",
    "REPRO_DTYPE_POLICY",
)
SETUP_PROBES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--shape",
        choices=("full", "smoke"),
        default="full",
        help="'smoke' runs tiny shapes (harness self-tests only)",
    )
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no package source under {SRC}")
    for knob in _KNOBS:
        os.environ.pop(knob, None)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _pinned(workload: str, seed: int, shape: str) -> dict:
    from workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED or shape != "full" or not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, "r", encoding="utf-8") as source:
        return json.load(source).get(workload, {})


@contextlib.contextmanager
def _traced():
    """A fresh tracer and metrics registry, installed for one pass."""
    from repro.observability import Metrics, Tracer, use_metrics, use_tracer

    with use_tracer(Tracer()) as tracer, use_metrics(Metrics()) as metrics:
        yield tracer, metrics


def _print_metric(name, value, unit, note="") -> None:
    print(f"{name:<36} {value!r} {unit}" + (f"  ({note})" if note else ""))


def probe(args) -> int:
    """Set-up only, timed by the parent: build inputs and runner, then exit."""
    from harness import Bench
    from workloads import build

    workload = build(args.workload, args.shape)
    bench = Bench(workload, args.seed, args.setup_probe)
    bench.runner(args.setup_probe)
    if workload.prefill:
        bench.prefill()
    print("ready", flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    if args.setup_probe:
        return probe(args)

    import harness
    import layers
    from repro import __version__
    from repro.observability import machine_info
    from workloads import WORKLOAD_NAMES, build

    if args.workload not in WORKLOAD_NAMES:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; {WORKLOAD_NAMES}")
    work = os.path.join(RUNS, "work")
    out = os.path.join(RUNS, "out")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    work_root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work)
    try:
        probing = time.perf_counter()
        setups = harness.probe_setup(
            [os.path.abspath(__file__), "--workload", args.workload]
            + ["--seed", str(args.seed), "--shape", args.shape],
            work_root,
            SETUP_PROBES,
        )
        probing = time.perf_counter() - probing
        workload = build(args.workload, args.shape)
        bench = harness.Bench(
            workload,
            args.seed,
            work_root,
            pinned=_pinned(args.workload, args.seed, args.shape),
        )
        if workload.prefill:
            bench.prefill()
        # This process's own set-up, without the time spent in the probes.
        own_setup = time.perf_counter() - _STARTED - probing

        passes, traced, contexts = harness.measure(
            bench,
            args.seconds,
            2 if args.trace else 3,
            _traced if args.trace else None,
        )
        top_up = bench.top_up(passes)
        lookups = [t for r in passes + [top_up] for t in r.latencies]

        # Aggregates over the whole measured phase: on a host whose speed
        # switches between states every few seconds they move smoothly with
        # the share of time spent in each state, where a median of pass
        # times would jump between the states.
        wall = statistics.fmean(r.wall_s for r in passes)
        lookup_s = sum(r.warm_s for r in passes)
        end_to_end = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "mcells_per_s": sum(r.mcells for r in passes) / sum(r.wall_s for r in passes),
            "hit_p50_us": statistics.fmean(
                statistics.median(r.latencies) for r in passes
            )
            * 1e6,
            "hit_p99_us": harness.block_percentile(lookups, 99, harness.P99_BLOCK)
            * 1e6,
            "lookups_per_s": sum(len(r.latencies) for r in passes) / lookup_s,
            "peak_rss_mb": harness.peak_rss_mb(),
        }
        notes = {
            "setup_s": f"median of {len(setups)} fresh processes; "
            f"this process {own_setup:.3f} s",
            "wall_s": f"mean of {len(passes)} passes",
            "mcells_per_s": f"over {len(passes)} passes",
            "hit_p50_us": f"mean of {len(passes)} per-pass medians",
            "hit_p99_us": f"median over {len(lookups) // harness.P99_BLOCK} "
            f"blocks of {harness.P99_BLOCK} of {len(lookups)} warm lookups; "
            f"highest percentile with 10 beyond per block: "
            f"p{harness.highest_percentile(harness.P99_BLOCK)}",
            "lookups_per_s": f"{sum(len(r.latencies) for r in passes)} "
            "lookups over their own time",
            "peak_rss_mb": "max of self and children",
        }
        per_layer = {}
        if args.trace:
            rolled = [
                layers.pass_layers(tracer, metrics, record, workload)
                for (tracer, metrics), record in zip(contexts, traced)
            ]
            per_layer = {
                name: statistics.median(r[name] for r in rolled)
                for name in rolled[0]
            }
            draw, fold = layers.streaming_stages(workload.stream)
            per_layer["streaming.block_draw_s"] = draw
            per_layer["streaming.accumulate_s"] = fold
            per_layer["runner.key_us"] = layers.cache_key_us(
                workload.points, bench.runner(None)
            )
            per_layer["observability.trace_overhead_frac"] = (
                statistics.fmean(r.wall_s for r in traced) / wall - 1.0
            )
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    attempted, failed = bench.attempted, bench.failed
    correct = failed == 0
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "shape": args.shape,
        "package_version": __version__,
        "machine": machine_info(),
        "samples": {
            "passes": len(passes),
            "traced_passes": len(traced),
            "warm_lookups": len(lookups),
            "setup_probes": len(setups),
        },
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    units = dict(harness.END_TO_END + harness.PRINTED_ONLY)
    for name, unit in harness.END_TO_END + harness.PRINTED_ONLY:
        _print_metric(name, end_to_end[name], unit, notes[name])
    _print_metric(
        "failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} points"
    )
    if args.trace:
        for name, unit in layers.PER_LAYER:
            _print_metric(name, per_layer[name], unit, "median of traced passes")
        shares = layers.layer_shares(tracer for tracer, _ in contexts)
        print("traced self-time shares: " + json.dumps(shares, sort_keys=True))
    for message in bench.failures[:10]:
        print(f"FAILED {message}")
    print("provenance " + json.dumps(provenance, sort_keys=True))

    stem = os.path.join(out, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = dict(provenance)
    record.update(
        correct=correct,
        attempted=attempted,
        failed=failed,
        end_to_end={k: {"value": v, "unit": units[k]} for k, v in end_to_end.items()},
        per_layer={
            k: {"value": per_layer[k], "unit": u}
            for k, u in layers.PER_LAYER
            if k in per_layer
        },
        pass_wall_s=[r.wall_s for r in passes],
        failures=bench.failures,
    )
    with open(stem + ".json", "w", encoding="utf-8") as sink:
        json.dump(record, sink, indent=1, sort_keys=True)
    if args.trace:
        layers.write_trace(stem + ".trace.json", (t for t, _ in contexts), provenance)

    metrics = (
        {name: (per_layer[name], unit) for name, unit in layers.PER_LAYER}
        if args.trace
        else {name: (end_to_end[name], unit) for name, unit in harness.END_TO_END}
    )
    sys.stdout.flush()
    print(harness.result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
