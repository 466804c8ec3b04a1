"""Grid-progress reporting: accounting, sinks, resolution, runner wiring."""

from __future__ import annotations

import io
import json

import pytest

from repro.errors import ObservabilityError
from repro.observability import (
    PROGRESS_ENV_VAR,
    PROGRESS_SCHEMA,
    GridProgress,
    JsonlProgressSink,
    StderrProgressSink,
    resolve_progress_sinks,
)
from repro.params import parameters_from_c
from repro.simulation import ExperimentRunner

POINTS = [
    parameters_from_c(c=2.0, n=300, delta=delta, nu=0.25) for delta in (3, 4)
]


class RecordingSink:
    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


# ----------------------------------------------------------------------
# GridProgress accounting
# ----------------------------------------------------------------------
class TestGridProgress:
    def test_counts_eta_and_cache_ratio(self):
        ticks = iter([0.0, 2.0, 4.0, 6.0])
        sink = RecordingSink()
        progress = GridProgress(
            "runner.run_grid", 3, [sink], clock=lambda: next(ticks)
        )
        first = progress.point_done(2.0, cache_misses=1)
        assert first["schema"] == PROGRESS_SCHEMA
        assert (first["completed"], first["total"]) == (1, 3)
        # 2s elapsed for 1 point -> 2 remaining cost 4s.
        assert first["eta_s"] == pytest.approx(4.0)
        assert first["cache_hit_ratio"] == pytest.approx(0.0)
        second = progress.point_done(2.0, cache_hits=1, shard=1)
        assert second["eta_s"] == pytest.approx(2.0)
        assert second["cache_hit_ratio"] == pytest.approx(0.5)
        assert second["shard"] == 1
        final = progress.point_done(2.0)
        assert final["eta_s"] == pytest.approx(0.0)
        assert len(sink.events) == 3

    def test_ratio_is_none_until_cache_activity(self):
        progress = GridProgress("g", 2, [])
        event = progress.point_done(0.1)
        assert event["cache_hit_ratio"] is None
        assert event["shard"] is None


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class TestSinks:
    def test_stderr_sink_rewrites_line_and_finishes_with_newline(self):
        buffer = io.StringIO()
        sink = StderrProgressSink(stream=buffer)
        progress = GridProgress("runner.run_grid", 2, [sink])
        progress.point_done(0.25, cache_hits=1)
        progress.point_done(0.25, cache_misses=1)
        output = buffer.getvalue()
        assert "[runner.run_grid] 1/2 points" in output
        assert "cache 100%" in output
        assert output.count("\r") == 1
        assert output.endswith("2/2 points | last 0.25s | eta 0.0s | cache 50%\n")

    def test_jsonl_sink_appends_one_object_per_event(self, tmp_path):
        path = tmp_path / "sub" / "progress.jsonl"
        sink = JsonlProgressSink(path)
        progress = GridProgress("g", 2, [sink])
        progress.point_done(0.1)
        progress.point_done(0.2, shard=1)
        lines = path.read_text().strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert [event["completed"] for event in events] == [1, 2]
        assert events[1]["shard"] == 1


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
class TestResolveProgressSinks:
    def test_unset_environment_means_off(self):
        assert resolve_progress_sinks(environ={}) == []

    def test_env_var_selects_stderr_or_jsonl(self, tmp_path):
        (sink,) = resolve_progress_sinks(environ={PROGRESS_ENV_VAR: "stderr"})
        assert isinstance(sink, StderrProgressSink)
        (sink,) = resolve_progress_sinks(environ={PROGRESS_ENV_VAR: "-"})
        assert isinstance(sink, StderrProgressSink)
        path = str(tmp_path / "events.jsonl")
        (sink,) = resolve_progress_sinks(environ={PROGRESS_ENV_VAR: path})
        assert isinstance(sink, JsonlProgressSink)
        assert sink.path == path

    def test_explicit_argument_beats_environment(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        (sink,) = resolve_progress_sinks(
            path, environ={PROGRESS_ENV_VAR: "stderr"}
        )
        assert isinstance(sink, JsonlProgressSink)

    def test_sink_objects_and_sequences_pass_through(self):
        sink = RecordingSink()
        assert resolve_progress_sinks(sink) == [sink]
        assert resolve_progress_sinks([sink, sink]) == [sink, sink]
        assert resolve_progress_sinks(()) == []


# ----------------------------------------------------------------------
# Runner wiring
# ----------------------------------------------------------------------
class TestRunnerProgress:
    def test_serial_grid_reports_each_point(self, tmp_path):
        sink = RecordingSink()
        runner = ExperimentRunner(
            base_seed=1, cache_dir=str(tmp_path / "c"), progress=sink
        )
        runner.run_grid(POINTS, 4, 100)
        assert [event["completed"] for event in sink.events] == [1, 2]
        assert sink.events[0]["label"] == "runner.run_grid"
        assert sink.events[0]["cache_hit_ratio"] == pytest.approx(0.0)
        # Rerun from warm cache: ratio flips to all-hit.
        rerun = ExperimentRunner(
            base_seed=1, cache_dir=str(tmp_path / "c"), progress=sink
        )
        sink.events.clear()
        rerun.run_grid(POINTS, 4, 100)
        assert sink.events[-1]["cache_hit_ratio"] == pytest.approx(1.0)

    def test_sharded_grid_reports_with_shard_indices(self, tmp_path):
        sink = RecordingSink()
        runner = ExperimentRunner(
            base_seed=1,
            cache_dir=str(tmp_path / "c"),
            processes=2,
            progress=sink,
        )
        runner.run_grid(POINTS, 4, 100)
        assert len(sink.events) == len(POINTS)
        assert sorted(event["shard"] for event in sink.events) == [0, 1]
        assert {event["total"] for event in sink.events} == {2}

    def test_env_var_activates_jsonl_progress(self, tmp_path, monkeypatch):
        path = tmp_path / "progress.jsonl"
        monkeypatch.setenv(PROGRESS_ENV_VAR, str(path))
        runner = ExperimentRunner(base_seed=1)
        runner.run_rare_event_grid(POINTS, 32, 100, depth=3, method="plain")
        events = [
            json.loads(line)
            for line in path.read_text().strip().splitlines()
        ]
        assert [event["completed"] for event in events] == [1, 2]
        assert events[0]["label"] == "runner.run_rare_event_grid"

    @pytest.mark.parametrize("processes", [1, 2])
    def test_unwritable_env_path_fails_before_any_point(
        self, tmp_path, monkeypatch, processes
    ):
        """A REPRO_PROGRESS path under a regular file is refused by name when
        the runner is built, so no point is computed or cached."""
        blocker = tmp_path / "not_a_directory"
        blocker.write_text("")
        path = blocker / "progress.jsonl"
        monkeypatch.setenv(PROGRESS_ENV_VAR, str(path))
        cache = tmp_path / "cache"
        with pytest.raises(ObservabilityError, match=PROGRESS_ENV_VAR) as caught:
            ExperimentRunner(
                base_seed=1, cache_dir=str(cache), processes=processes
            ).run_grid(POINTS, 4, 100)
        assert str(path) in str(caught.value)
        assert not cache.exists() or not any(cache.iterdir())

    def test_no_sinks_means_no_reporter(self):
        runner = ExperimentRunner(base_seed=1)
        assert runner.progress_sinks == []
