"""Measurement loop, statistics and output for the benchmark.

Only the public ``repro`` API is driven.  A run is a closed loop with one
client: each pass starts when the previous one has finished, and each
pass of a compute workload writes into a fresh, empty cache directory.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.observability import METRICS
from repro.simulation import ExperimentRunner

#: Percentiles tried, highest last, by :func:`highest_percentile`.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
#: Samples a percentile needs beyond it before it is reported.
MIN_TAIL = 10
#: ``hit_p99_us`` is taken per block of this many lookups, so each block
#: has ``MIN_TAIL`` samples beyond its 99th percentile.
P99_BLOCK = 1000
#: Warm-lookup samples a run collects at least: five p99 blocks.
MIN_LOOKUPS = 5 * P99_BLOCK
NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")

#: ``(name, unit)`` of every end-to-end metric in the result line, in
#: print order.  These are the ones steady enough to gate a change.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("mcells_per_s", "Mcells/s"),
    ("peak_rss_mb", "MB"),
)
#: End-to-end metrics that are printed and recorded but left out of the
#: result line: warm-lookup latency, whose run-to-run spread on a shared
#: 2-core host exceeds any bound a gate may use.
PRINTED_ONLY = (
    ("hit_p50_us", "us"),
    ("hit_p99_us", "us"),
    ("lookups_per_s", "1/s"),
)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (the smallest value with at least
    ``q`` percent of the samples at or below it)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {q!r}")
    rank = math.ceil(q / 100.0 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def block_percentile(values, q: float, block: int) -> float:
    """Median of the nearest-rank ``q``-th percentiles of consecutive blocks.

    ``values`` is in the order it was measured; a last, partial block is
    left out.  A tail percentile pooled over a whole run jumps when the
    machine's slow spells pass a share of the run, and one stalled block
    would drag a mean of blocks; the median of blocks does neither.
    """
    blocks = [values[i : i + block] for i in range(0, len(values) - block + 1, block)]
    if not blocks:
        raise ValueError(f"need at least {block} values, got {len(values)}")
    tails = sorted(percentile(b, q) for b in blocks)
    middle = len(tails) // 2
    return tails[middle] if len(tails) % 2 else (tails[middle - 1] + tails[middle]) / 2


def highest_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with at least ``MIN_TAIL`` samples beyond it."""
    best = None
    for q in PERCENTILE_LADDER:
        if count * (100.0 - q) / 100.0 >= MIN_TAIL - 1e-9:
            best = q
    return best


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ``ValueError``."""
    if not isinstance(name, str) or not NAME_PATTERN.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def peak_rss_mb() -> float:
    """The larger of this process's and its reaped children's peak RSS, in MB."""
    peaks = [
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ]
    scale = 1 if sys.platform == "darwin" else 1024
    return max(peaks) * scale / 1e6


def _plain(value):
    item = getattr(value, "item", None)
    return item() if callable(item) else str(value)


def summary_digest(result) -> str:
    """SHA-256 of a result's ``summary()`` (plus streamed violation hits)."""
    payload = {"summary": result.summary()}
    hits = getattr(result, "violation_hits", None)
    if hits is not None:
        payload["violation_hits"] = {str(k): int(v) for k, v in hits.items()}
    blob = json.dumps(payload, sort_keys=True, default=_plain)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
@dataclass
class PassRecord:
    """What one measured pass did and how long it took."""

    cold_s: float = 0.0
    warm_s: float = 0.0
    cells: int = 0
    latencies: List[float] = field(default_factory=list)
    replayed_cells: int = 0
    attempted: int = 0
    failed: int = 0
    #: Metric gauges right after the measured calls (traced passes only):
    #: the warm lookups that follow would overwrite them.
    cold_gauges: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """Wall time of the pass's measured calls (the replay on cache-replay)."""
        return self.cold_s if self.cells else self.warm_s

    @property
    def mcells(self) -> float:
        """Million trial x rounds of the measured calls' results."""
        return (self.cells or self.replayed_cells) / 1e6


def _span(tracer, name: str, **attributes):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, **attributes)


@dataclass
class Bench:
    """Runs passes of one workload and checks every result they return."""

    workload: object
    seed: int
    work_root: str
    #: Pinned ``label -> digest`` at the default seed (empty elsewhere).
    pinned: Dict[str, str] = field(default_factory=dict)
    #: ``label -> digest`` of the first result seen for each point.
    reference: Dict[str, str] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    cache_dir: Optional[str] = None

    def runner(self, cache_dir: str) -> ExperimentRunner:
        return ExperimentRunner(
            base_seed=self.seed,
            cache_dir=cache_dir,
            processes=self.workload.processes,
        )

    def _fail(self, record: PassRecord, message: str) -> None:
        record.failed += 1
        self.failed += 1
        if len(self.failures) < 50:
            self.failures.append(message)

    def _attempt(self, record: PassRecord) -> None:
        record.attempted += 1
        self.attempted += 1

    def _check_result(self, record: PassRecord, point, result, message) -> None:
        if message is None and (
            int(result.trials) != point.trials or int(result.rounds) != point.rounds
        ):
            message = (
                f"shape {result.trials}x{result.rounds}, expected "
                f"{point.trials}x{point.rounds}"
            )
        if message is None:
            digest = summary_digest(result)
            first = self.reference.setdefault(point.label, digest)
            pinned = self.pinned.get(point.label)
            if pinned is not None and digest != pinned:
                message = f"summary digest {digest[:12]} != pinned {pinned[:12]}"
            elif digest != first:
                message = f"summary digest {digest[:12]} != first run {first[:12]}"
        if message is not None:
            self._fail(record, f"{point.label}: {message}")

    def call(self, record: PassRecord, call, runner, tracer=None) -> dict:
        """Make one public call; returns ``label -> result``."""
        results = {}
        error = "returned too few results"
        with _span(tracer, f"bench.{call.method}", points=len(call.points)):
            try:
                outputs = call.run(runner)
            except Exception:  # a failed grid fails all its points
                outputs = []
                error = "raised " + traceback.format_exc().strip().splitlines()[-1]
        for index, point in enumerate(call.points):
            self._attempt(record)
            if index >= len(outputs):
                self._fail(record, f"{point.label}: {error}")
            else:
                results[point.label] = outputs[index]
        return results

    def check(self, record: PassRecord, results: dict) -> None:
        """Check every result of one pass's calls."""
        extra = self.workload.check(results)
        for point in self.workload.points:
            if point.label in results:
                self._check_result(
                    record, point, results[point.label], extra.get(point.label)
                )

    def prefill(self) -> None:
        """Fill the cache once (cache-replay set-up) and check its results."""
        self.cache_dir = tempfile.mkdtemp(prefix="prefill-", dir=self.work_root)
        runner = self.runner(self.cache_dir)
        record, results = PassRecord(), {}
        for call in self.workload.calls:
            results.update(self.call(record, call, runner))
        self.check(record, results)

    def warm(self, record: PassRecord, runner, points, replays: int, tracer=None):
        """Re-issue ``points`` ``replays`` times through ``runner``.

        Only the lookups are timed; returns ``(point, result, error,
        missed)`` per lookup for :meth:`check_warm`, which runs after.
        """
        clock = time.perf_counter
        outcomes = []
        gc.collect()  # the benchmark's own garbage is not the lookups' cost
        with _span(tracer, "bench.warm", lookups=replays * len(points)):
            for _ in range(replays):
                for point in points:
                    misses = runner.cache_misses
                    begin = clock()
                    try:
                        result, error = point.lookup(runner), None
                    except Exception as raised:  # counted, never fatal
                        result, error = None, raised
                    elapsed = clock() - begin
                    record.latencies.append(elapsed)
                    record.warm_s += elapsed
                    outcomes.append(
                        (point, result, error, runner.cache_misses != misses)
                    )
        return outcomes

    def check_warm(self, record: PassRecord, outcomes) -> None:
        """Each lookup must hit and return the point's first summary."""
        for point, result, error, missed in outcomes:
            record.replayed_cells += point.cells
            self._attempt(record)
            if error is not None:
                self._fail(record, f"{point.label}: warm lookup raised {error!r}")
            elif missed:
                self._fail(record, f"{point.label}: warm lookup missed")
            elif summary_digest(result) != self.reference.get(point.label):
                self._fail(record, f"{point.label}: warm summary differs")

    def run_pass(self, tracer=None) -> PassRecord:
        """One pass.

        Each public call is followed by warm lookups of the points it made,
        through a second runner on the same cache, so the lookups sample the
        machine all along the pass.  Only the calls and the lookups are
        timed or traced; cache set-up and output checks stay outside.
        """
        record = PassRecord()
        replays = self.workload.replays
        if self.workload.prefill:
            runner = self.runner(self.cache_dir)
            outcomes = self.warm(record, runner, self.workload.points, replays, tracer)
            self.check_warm(record, outcomes)
            return record
        # A fresh, empty cache per pass; the previous pass's cache is kept
        # until now for ``top_up``.
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir = tempfile.mkdtemp(prefix="pass-", dir=self.work_root)
        runner, lookups = self.runner(self.cache_dir), self.runner(self.cache_dir)
        results, outcomes = {}, []
        for call in self.workload.calls:
            gc.collect()
            started = time.perf_counter()
            results.update(self.call(record, call, runner, tracer))
            record.cold_s += time.perf_counter() - started
            if METRICS.enabled:
                # Read before the lookups, whose runner has an empty workspace.
                record.cold_gauges.update(METRICS.active.snapshot()["gauges"])
            outcomes += self.warm(record, lookups, call.points, replays, tracer)
        record.cells = self.workload.cold_cells
        self.check(record, results)
        self.check_warm(record, outcomes)
        return record

    def top_up(self, records: List[PassRecord]) -> PassRecord:
        """Warm lookups that bring the run to ``MIN_LOOKUPS`` samples."""
        record = PassRecord()
        have = sum(len(r.latencies) for r in records)
        if have < MIN_LOOKUPS:
            points = self.workload.points
            replays = math.ceil((MIN_LOOKUPS - have) / len(points))
            runner = self.runner(self.cache_dir)
            self.check_warm(record, self.warm(record, runner, points, replays))
        return record


def measure(bench: Bench, seconds: float, min_passes: int, tracing=None):
    """Run passes until the next one would end past ``seconds``.

    One untimed warm-up pass goes first, so first-call costs inside the
    package and NumPy do not land in the first measured pass.

    With ``tracing`` (a context manager factory yielding ``(tracer,
    metrics)``), every second pass runs traced, so the untraced and traced
    passes see the same machine conditions.  Returns the untraced records,
    the traced records and each traced pass's ``(tracer, metrics)``.
    """
    bench.run_pass()  # warm-up: checked, not timed
    plain, traced, contexts = [], [], []
    started = time.perf_counter()
    while True:
        if tracing is not None and len(plain) > len(traced):
            with tracing() as (tracer, metrics):
                traced.append(bench.run_pass(tracer))
            contexts.append((tracer, metrics))
        else:
            plain.append(bench.run_pass())
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - started
        enough = len(plain) >= min_passes and (
            tracing is None or len(traced) >= min_passes
        )
        if enough and elapsed + elapsed / done > seconds:
            return plain, traced, contexts


# ----------------------------------------------------------------------
# Set-up probes
# ----------------------------------------------------------------------
def probe_setup(command: List[str], work_root: str, count: int) -> List[float]:
    """Time ``count`` fresh processes from spawn to the end of set-up.

    Each child runs ``command`` plus ``--setup-probe DIR``: it imports the
    package, builds the runner and the workload's inputs (and fills a
    cache on cache-replay), prints ``ready`` and exits.
    """
    samples = []
    for _ in range(count):
        probe_dir = tempfile.mkdtemp(prefix="probe-", dir=work_root)
        argv = [sys.executable, *command, "--setup-probe", probe_dir]
        started = time.perf_counter()
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.communicate(timeout=120)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            shutil.rmtree(probe_dir, ignore_errors=True)
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(
                f"set-up probe exited with {child.returncode}: {line.strip()!r}"
            )
        samples.append(ready - started)
    return samples


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The final JSON line: ``metrics`` maps name -> ``(value, unit)``."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                check_name(name): {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
