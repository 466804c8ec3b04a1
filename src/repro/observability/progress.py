"""Live grid progress: per-point completion events to pluggable sinks.

A grid of experiment points can run for minutes (or, sharded, saturate every
core for hours) with nothing on the terminal until the final list comes
back.  :class:`GridProgress` closes that gap: the runner's grid loop — both
the serial path and the process-pool fan-out, which completes points out of
order via ``imap_unordered`` callbacks — reports each finished point, and
the reporter emits one event per completion carrying

* ``completed`` / ``total`` and the grid ``label`` (``runner.run_grid``,
  ``runner.run_scenario_grid``, ...),
* the finished point's wall-clock ``duration_s`` and the shard that ran it
  (``None`` on the serial path),
* ``elapsed_s`` and a naive ``eta_s`` (mean wall time per completed point
  times the points remaining — already parallelism-aware, since elapsed
  wall time is divided by *completions*, not work),
* the ``cache_hit_ratio`` running over every point seen so far (``None``
  until a point touches the cache accounting).

Events go to *sinks*: :class:`StderrProgressSink` rewrites a single status
line (a trailing newline once the grid finishes), and
:class:`JsonlProgressSink` appends one JSON object per event for machine
consumers.  Everything is **off by default** — the runner builds a reporter
only when sinks are configured, so an unconfigured grid pays nothing.
Configuration is one environment variable, ``REPRO_PROGRESS``: the value
``stderr`` (or ``-``) selects the status line, any other non-empty value is
treated as a JSONL path.  ``ExperimentRunner(progress=...)`` accepts the
same strings, a ready sink (anything with ``emit(event)``), or a list of
sinks.

Progress reporting lives at the grid loop, one dispatch per *point*; the
AST hygiene guard's no-hot-loop rule keeps instrumentation (this module
included — it never touches the ``_TRACE``/``_METRICS`` handles) out of the
engines' per-round kernels.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Union

from ..errors import ObservabilityError

__all__ = [
    "PROGRESS_ENV_VAR",
    "PROGRESS_SCHEMA",
    "GridProgress",
    "StderrProgressSink",
    "JsonlProgressSink",
    "resolve_progress_sinks",
]

#: Environment variable configuring grid-progress sinks (unset/empty: off;
#: ``stderr`` or ``-``: a status line; anything else: a JSONL file path).
PROGRESS_ENV_VAR = "REPRO_PROGRESS"

#: Schema identifier stamped into every progress event.
PROGRESS_SCHEMA = "repro.grid_progress"


class StderrProgressSink:
    """One self-overwriting status line (carriage return between events).

    The stream is resolved lazily so tests can capture ``sys.stderr`` and a
    long-lived runner keeps following redirections.
    """

    def __init__(self, stream=None):
        self._stream = stream

    def emit(self, event: dict) -> None:
        stream = sys.stderr if self._stream is None else self._stream
        ratio = event["cache_hit_ratio"]
        line = (
            f"[{event['label']}] {event['completed']}/{event['total']} points"
            f" | last {event['duration_s']:.2f}s"
            f" | eta {event['eta_s']:.1f}s"
            f" | cache {'n/a' if ratio is None else format(ratio, '.0%')}"
        )
        end = "\n" if event["completed"] >= event["total"] else "\r"
        stream.write(line + end)
        stream.flush()


class JsonlProgressSink:
    """Append one JSON object per event to a file.

    The file and its directory are created when the sink is built, so a
    path that cannot be written fails at once — before a grid computes any
    point — with an :class:`~repro.errors.ObservabilityError` naming it.
    """

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = os.fspath(path)
        try:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            with open(self.path, "a", encoding="utf-8"):
                pass
        except OSError as error:
            raise ObservabilityError(
                f"cannot write grid progress to {self.path!r} (set by "
                f"{PROGRESS_ENV_VAR} or progress=): {error}"
            ) from error

    def emit(self, event: dict) -> None:
        with open(self.path, "a", encoding="utf-8") as sink:
            sink.write(json.dumps(event, sort_keys=True) + "\n")


def resolve_progress_sinks(
    progress=None, environ=None
) -> List[object]:
    """Resolve a progress configuration into a (possibly empty) sink list.

    ``None`` consults ``REPRO_PROGRESS`` (unset/empty means no reporting);
    a string is parsed like the environment value (``stderr``/``-`` or a
    JSONL path); a sequence passes through as the sink list; anything else
    is assumed to be a single sink object exposing ``emit(event)``.
    """
    if progress is None:
        environ = os.environ if environ is None else environ
        progress = environ.get(PROGRESS_ENV_VAR, "")
    if not progress:
        return []
    if isinstance(progress, str):
        if progress in ("stderr", "-"):
            return [StderrProgressSink()]
        return [JsonlProgressSink(progress)]
    if isinstance(progress, (list, tuple)):
        return list(progress)
    return [progress]


class GridProgress:
    """Per-completion progress accounting for one grid run.

    Fed by the runner's grid loop (serial) or pool completion callbacks
    (sharded, completion order arbitrary); every :meth:`point_done` call
    updates the running totals and emits one event dict to each sink.
    """

    def __init__(
        self,
        label: str,
        total: int,
        sinks: Sequence[object],
        clock=time.monotonic,
    ):
        self.label = str(label)
        self.total = int(total)
        self.sinks = list(sinks)
        self.completed = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._clock = clock
        self._start = clock()

    def point_done(
        self,
        duration_s: float,
        cache_hits: int = 0,
        cache_misses: int = 0,
        shard: Optional[int] = None,
    ) -> dict:
        """Record one finished point and emit the resulting event."""
        self.completed += 1
        self.cache_hits += int(cache_hits)
        self.cache_misses += int(cache_misses)
        elapsed = self._clock() - self._start
        remaining = max(self.total - self.completed, 0)
        seen = self.cache_hits + self.cache_misses
        event: Dict[str, object] = {
            "schema": PROGRESS_SCHEMA,
            "label": self.label,
            "completed": self.completed,
            "total": self.total,
            "duration_s": float(duration_s),
            "elapsed_s": elapsed,
            "eta_s": elapsed / self.completed * remaining,
            "cache_hit_ratio": self.cache_hits / seen if seen else None,
            "shard": None if shard is None else int(shard),
        }
        for sink in self.sinks:
            sink.emit(event)
        return event
