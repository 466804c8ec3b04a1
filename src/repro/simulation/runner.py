"""Experiment orchestration on top of the Monte Carlo engines.

Every point :class:`ExperimentRunner` executes is one frozen
:class:`~repro.simulation.experiment.Experiment` spec, and every point runs
through one spine, :meth:`ExperimentRunner.run`; every grid is a list of
specs run through :meth:`ExperimentRunner.run_many`.  The spec's fields
pick the engine (batch, scenario, topology, dynamics, rare-event or
streaming), the cache prefix and the manifest method name; the spine adds:

* **deterministic seeding** — every spec gets its own
  :class:`numpy.random.SeedSequence` derived from the runner's base seed
  and the spec's version-free identity digest, so a point's result is
  identical whether it is run alone, inside a grid, serially or sharded
  across processes;
* **on-disk caching** — results are persisted as ``.npz`` files (a JSON
  ``meta`` entry plus named arrays) keyed by a digest of the identity plus
  the package version, so repeated sweeps only pay for new points.  Scenario
  results cache their per-trial aggregates (per-round record tensors are
  never persisted) and streamed results their accumulator state.  An
  unreadable entry is a miss: it is recomputed and overwritten, with a
  WARNING naming the file and a ``runner.<method>.cache_corrupt`` count;
* **multiprocessing sharding** — :meth:`~ExperimentRunner.run_many` fans
  specs out over a :mod:`multiprocessing` pool, one pickled spec per task,
  for every kind of point (topology and dynamics grids included).  Serial
  and sharded grids run under one grid-level tracer span and report
  per-point progress to the optional
  :class:`~repro.observability.GridProgress` sinks; the sharded path ships
  each worker's spans / metrics / manifest records back with its result and
  merges them into the parent's observability state (see
  :mod:`repro.observability.distributed`), so a sharded grid reports
  exactly like a sequential one.  A point that raises in a worker does not
  discard the others: the grid finishes, the completed points' telemetry
  is merged, and a :class:`~repro.errors.SimulationError` naming the
  failing point's index and identity is raised from the original error.

The ``run_*`` / ``run_*_grid`` methods are thin wrappers that build specs.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import time
import traceback
import zipfile
from dataclasses import dataclass, fields
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import _version
from ..backend import (
    DEFAULT_BACKEND,
    WIDE_POLICY,
    Workspace,
    get_backend,
    get_dtype_policy,
)
from ..errors import ReproError, SimulationError
from ..observability import (
    METRICS as _METRICS,
    TRACE as _TRACE,
    GridProgress,
    RunLog,
    WorkerTelemetry,
    capture_worker_telemetry,
    digest_arrays,
    manifest_record,
    merge_worker_telemetry,
    resolve_progress_sinks,
    resolve_run_log,
    sample_resource_gauges,
)
from ..params import ProtocolParameters
from .batch import DRAW_MODES, BatchResult, BatchSimulation
from .dynamics import (
    AdversaryPlacement,
    DynamicsSchedule,
    PartitionScenario,
    TimeVaryingDelayModel,
)
from .experiment import Experiment, RareEvent, params_payload
from .rare_events import ExponentialTilt, RareEventResult, RareEventSimulation
from .scenarios import Scenario, ScenarioResult, ScenarioSimulation, get_scenario
from .streaming import (
    StreamingBatchResult,
    StreamingBatchSimulation,
    StreamingScenarioResult,
    StreamingScenarioSimulation,
)
from .topology import (
    DelayModel,
    MiningPowerProfile,
    PeerGraphTopology,
    resolve_delay_model,
)

__all__ = ["ENGINE_VERSION", "ExperimentRunner"]

_LOGGER = logging.getLogger(__name__)

#: Bumped whenever the batch engine's draw protocol or statistics change, so
#: stale cache entries are never reused across incompatible versions.  The
#: package version (:mod:`repro._version`) is *also* mixed into every cache
#: key, so even engine changes that forget to bump this constant can never
#: silently reuse a cache written by an older release.
ENGINE_VERSION = 1

#: Cache prefix -> the result type its entries decode into.
_RESULT_TYPES = {
    "batch": BatchResult,
    "topology": BatchResult,
    "dynamics": BatchResult,
    "scenario": ScenarioResult,
    "dynamics_scenario": ScenarioResult,
    "rare": RareEventResult,
    "stream": StreamingBatchResult,
    "stream_scenario": StreamingScenarioResult,
}

_STREAMED = (StreamingBatchResult, StreamingScenarioResult)

#: What reading a damaged, truncated or foreign cache entry can raise.
_UNREADABLE = (
    OSError,
    EOFError,
    ValueError,
    KeyError,
    TypeError,
    AttributeError,
    zipfile.BadZipFile,
    ReproError,
)


def _scenario_from_payload(payload: dict) -> Scenario:
    kind = PartitionScenario if "partition_start" in payload else Scenario
    return kind(**payload)


#: Decoders of the result fields a cache entry stores as JSON payloads.
_FIELD_DECODERS = {
    "params": lambda payload: ProtocolParameters(**payload),
    "scenario": _scenario_from_payload,
    "tilt": lambda payload: None if payload is None else ExponentialTilt(**payload),
}


def _encode(result) -> Tuple[dict, dict]:
    """``(meta, arrays)``: one result as JSON metadata plus named arrays.

    Streamed results are summary-only and store their accumulator state;
    every other result stores each array field as a named array and every
    other field in the metadata (parameters, scenario and tilt as their
    payloads).
    """
    if isinstance(result, _STREAMED):
        values = {"params": result.params, "state": result.payload()}
        if isinstance(result, StreamingScenarioResult):
            values["scenario"] = result.scenario
    else:
        values = {item.name: getattr(result, item.name) for item in fields(result)}
    meta, arrays = {}, {}
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            arrays[name] = value
        elif name == "params":
            meta[name] = params_payload(value)
        else:
            meta[name] = value.payload() if hasattr(value, "payload") else value
    return meta, arrays


def _decode(result_type, meta: dict, archive):
    """The inverse of :func:`_encode` for one cache entry's contents."""
    names = {item.name for item in fields(result_type)}
    values = {}
    for name in names & set(archive.files):
        array = archive[name]
        # Entries written before optional arrays were omitted stored
        # ``None`` as an empty array; no persisted array is otherwise empty.
        values[name] = array if array.size else None
    for name in names & set(meta):
        decode = _FIELD_DECODERS.get(name)
        values[name] = meta[name] if decode is None else decode(meta[name])
    if "state" in meta:
        return result_type.from_payload(meta["state"], **values)
    return result_type(**values)


def _result_digest(result) -> str:
    """The manifest digest of a result.

    Per-trial results digest their persisted arrays; streamed results their
    full accumulator state; rare-event estimates their headline numbers.
    """
    if isinstance(result, _STREAMED):
        blob = result.payload()
    elif isinstance(result, RareEventResult):
        blob = {
            "probability": result.probability,
            "ci_low": result.ci_low,
            "ci_high": result.ci_high,
            "relative_error": result.relative_error,
            "effective_sample_size": result.effective_sample_size,
            "hits": result.hits,
            "pilot_iterations": result.pilot_iterations,
            "tilt": None if result.tilt is None else result.tilt.payload(),
        }
    else:
        return digest_arrays(**_encode(result)[1])
    return _digest(blob)


def _digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class _WorkerOutcome:
    """One grid point's result plus worker-side accounting, pool-shipped.

    ``telemetry`` carries the worker's captured spans / metrics snapshot /
    buffered manifest records (``None`` when the parent requested no
    capture); the scalar counters always travel so the parent's
    ``cache_hits`` / ``cache_misses`` / ``version_skips`` attributes stay
    correct even with observability off.
    """

    result: object
    cache_hits: int
    cache_misses: int
    version_skips: int
    duration_s: float
    telemetry: Optional[WorkerTelemetry]


@dataclass
class _WorkerFailure:
    """A grid point whose worker raised: the error and its traceback text."""

    error: BaseException
    traceback: str


def _portable(error: BaseException) -> BaseException:
    """``error`` if it survives a pickle round trip, else a stand-in.

    An exception whose constructor cannot be re-called from its ``args``
    would fail to unpickle in the parent's result thread; it crosses the
    pool as a :class:`SimulationError` carrying its type and message.
    """
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:
        return SimulationError(f"{type(error).__name__}: {error}")
    return error


def _run_task(task: tuple) -> tuple:
    """Pool worker: run one pickled spec, return ``(index, outcome)``.

    The outcome is a :class:`_WorkerOutcome`, or a :class:`_WorkerFailure`
    when the point raised, so one failing point never aborts the pool.  The
    index lets the parent reorder ``imap_unordered`` completions
    deterministically, and the capture flags (computed by the *parent* from
    its own observability state) scope a tracer / metrics registry /
    buffering run log around the point so spans, counters and manifest
    records survive the pool boundary instead of dying with the worker.
    """
    index, flags, spec, base_seed, draw_mode, cache_dir = task
    started = time.perf_counter()
    try:
        with capture_worker_telemetry(**flags) as capture:
            runner = ExperimentRunner(
                base_seed=base_seed,
                cache_dir=cache_dir,
                draw_mode=draw_mode,
                run_log=capture.run_log,
                progress=(),
            )
            result = runner.run(spec)
    except Exception as error:
        return index, _WorkerFailure(_portable(error), traceback.format_exc())
    return index, _WorkerOutcome(
        result=result,
        cache_hits=runner.cache_hits,
        cache_misses=runner.cache_misses,
        version_skips=runner.version_skips,
        duration_s=time.perf_counter() - started,
        telemetry=capture.telemetry(),
    )


def _topology_spec(params, trials, rounds, delay_model, power) -> Experiment:
    model = resolve_delay_model(delay_model)
    if model is None:
        raise SimulationError(
            "run_topology_point requires a delay model; use run_point for "
            "the fixed-delta default"
        )
    return Experiment(params, trials, rounds, delay_model=model, power=power)


def _dynamics_fields(
    schedule: Optional[DynamicsSchedule],
    topology: Optional[PeerGraphTopology],
    scenario: Union[None, str, Scenario],
    power: Optional[MiningPowerProfile],
    placement: Optional[AdversaryPlacement],
) -> dict:
    """Spec fields of a dynamics point: the schedule wrapped as a delay model.

    ``schedule`` defaults to the scenario's own cut when it is a
    :class:`~repro.simulation.dynamics.PartitionScenario`, else empty.
    """
    if scenario is not None:
        scenario = get_scenario(scenario)
    if schedule is None:
        schedule = (
            scenario.dynamics_schedule()
            if isinstance(scenario, PartitionScenario)
            else DynamicsSchedule()
        )
    return dict(
        scenario=scenario,
        delay_model=TimeVaryingDelayModel(schedule, topology=topology),
        power=power,
        placement=placement,
    )


class ExperimentRunner:
    """Seeded, cached, optionally parallel experiments.

    Parameters
    ----------
    base_seed:
        Root of all randomness: combined with each point's identity digest
        to derive that point's :class:`~numpy.random.SeedSequence`.
    cache_dir:
        Directory for on-disk result caching; ``None`` disables caching.
    processes:
        Number of worker processes for grids; ``None`` or ``1`` runs
        serially in-process.
    draw_mode:
        Forwarded to the engines (see
        :class:`~repro.simulation.batch.BatchSimulation`).
    run_log:
        Where to append one JSONL run-manifest record per point: a path, an
        open :class:`~repro.observability.RunLog`, or ``None`` to consult
        the ``REPRO_RUN_LOG`` environment variable (unset means no
        logging).  The conventional location is ``<cache_dir>/run_log.jsonl``
        next to the npz cache.
    progress:
        Grid-progress configuration, resolved by
        :func:`~repro.observability.resolve_progress_sinks`: ``None``
        consults ``REPRO_PROGRESS`` (unset means no reporting, the
        default), ``"stderr"``/``"-"`` selects a status line, any other
        string a JSONL path, and a sink object (or list of sinks) passes
        through.  Grids emit one event per completed point.
    """

    def __init__(
        self,
        base_seed: int = 0,
        cache_dir: Optional[str] = None,
        processes: Optional[int] = None,
        draw_mode: str = "binomial",
        run_log: Union[None, str, os.PathLike, RunLog] = None,
        progress=None,
    ):
        if draw_mode not in DRAW_MODES:
            raise SimulationError(
                f"draw_mode must be one of {DRAW_MODES}, got {draw_mode!r}"
            )
        if processes is not None and processes < 1:
            raise SimulationError(f"processes must be >= 1, got {processes!r}")
        self.base_seed = int(base_seed)
        self.cache_dir = cache_dir
        self.processes = processes
        self.draw_mode = draw_mode
        self.run_log = resolve_run_log(run_log)
        self.progress_sinks = resolve_progress_sinks(progress)
        self.cache_hits = 0
        self.cache_misses = 0
        # Warm cache entries skipped because they were written by a different
        # package release (counted by run() via the sidecar index).
        self.version_skips = 0
        # One scratch workspace shared across every point this runner
        # executes in-process: repeated grid points reuse the scenario
        # scan's state vectors and the streaming engines' chunk buffers
        # instead of re-allocating them.  The batch mask and drawdown
        # kernels need none (their scratch is cache-sized per row block).
        # (Process-pool workers each build their own runner and workspace;
        # results never alias workspace memory, so sharing is safe.)
        self.workspace = Workspace()

    # ------------------------------------------------------------------
    # Keys and seeds
    # ------------------------------------------------------------------
    def _keys(self, payload: dict) -> Tuple[str, str]:
        """``(identity, key)`` digests for one spec payload.

        The *identity* hashes the version-free point description — the
        digest that seeds the point and names its sidecar index file — while
        the *key* additionally folds in the package version and any
        non-default backend / dtype-policy, exactly as :meth:`cache_key`
        documents.
        """
        payload = dict(
            payload,
            engine_version=ENGINE_VERSION,
            draw_mode=self.draw_mode,
            base_seed=self.base_seed,
        )
        identity = _digest(payload)
        payload["package_version"] = _version.__version__
        # Non-default backends and dtype policies get their own cache slots
        # (compact float statistics differ within a documented tolerance,
        # and another backend's kernels need not be bit-reproducible).
        # Default-configuration keys are unchanged, so warm caches and the
        # base_seed=2026 goldens survive this layer.  Seeds deliberately
        # ignore both: the host-seeded RNG bridge makes one seed produce one
        # bit stream on every backend (see seed_sequence_for).
        backend = get_backend()
        if backend.name != DEFAULT_BACKEND:
            payload["backend"] = backend.payload()
        policy = get_dtype_policy()
        if policy.name != WIDE_POLICY.name:
            payload["dtype_policy"] = policy.payload()
        return identity, _digest(payload)

    def _seed_from_identity(self, identity: str) -> np.random.SeedSequence:
        """Base seed plus entropy words sliced from the identity digest."""
        words = [
            int(identity[index : index + 8], 16) for index in range(0, 32, 8)
        ]
        return np.random.SeedSequence([self.base_seed, *words])

    @staticmethod
    def _key_spec(
        params, trials, rounds, scenario, delay_model, power, placement, rare_event
    ) -> Experiment:
        if rare_event is not None and not isinstance(rare_event, RareEvent):
            rare_event = RareEvent(**rare_event)
        return Experiment(
            params,
            trials,
            rounds,
            scenario=scenario,
            delay_model=delay_model,
            power=power,
            placement=placement,
            rare=rare_event,
        )

    def cache_key(
        self,
        params: ProtocolParameters,
        trials: int,
        rounds: int,
        scenario: Optional[Union[str, Scenario]] = None,
        delay_model: Union[None, str, DelayModel] = None,
        power: Optional[MiningPowerProfile] = None,
        placement: Optional[AdversaryPlacement] = None,
        rare_event: Union[None, dict, RareEvent] = None,
    ) -> str:
        """Hex digest identifying one (version, engine, params, shape, seed, …) result.

        Passive fixed-delta batch runs omit the scenario / delay-model /
        power / placement / rare-event fields entirely.  Dynamics runs fold
        the whole schedule payload (event list, and the topology digest when
        one is wired) into the key, so two runs differing only in when a
        partition heals never collide; rare-event runs fold the full
        estimator spec (depth, method, explicit tilt, pilot knobs; a dict
        is read as :class:`RareEvent` keyword arguments), so two estimates
        differing only in pilot configuration never collide.  The package
        version is always included, so a cache written by an older release
        (whose engine semantics may have since changed) is never silently
        reused — an upgrade simply recomputes and re-stores under the new
        key.
        """
        spec = self._key_spec(
            params, trials, rounds, scenario, delay_model, power, placement, rare_event
        )
        return self._keys(spec.payload())[1]

    def seed_sequence_for(
        self,
        params: ProtocolParameters,
        trials: int,
        rounds: int,
        scenario: Optional[Union[str, Scenario]] = None,
        delay_model: Union[None, str, DelayModel] = None,
        power: Optional[MiningPowerProfile] = None,
        placement: Optional[AdversaryPlacement] = None,
        rare_event: Union[None, dict, RareEvent] = None,
    ) -> np.random.SeedSequence:
        """The point's seed sequence: base seed plus point-digest entropy words.

        Deriving the entropy from the point description makes the stream a
        pure function of (engine version, parameters, shape, draw mode,
        base seed, scenario, delay model, power, placement, rare-event
        spec) — independent of grid composition and execution order.  The
        *package* version is deliberately excluded: upgrading the library
        invalidates caches but must not silently reroll every seeded
        experiment.
        """
        spec = self._key_spec(
            params, trials, rounds, scenario, delay_model, power, placement, rare_event
        )
        return self._seed_from_identity(self._keys(spec.payload())[0])

    # ------------------------------------------------------------------
    # Cache persistence
    # ------------------------------------------------------------------
    def _cache_path(self, key: str, prefix: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, f"{prefix}_{key}.npz")

    def _cache_index_path(self, prefix: str, identity: str) -> Optional[str]:
        """The sidecar file recording the last key written for one identity.

        The identity digest is version-free (the same digest that seeds the
        point), so the sidecar survives package upgrades — which is exactly
        what lets a miss be classified as *stale by version* rather than
        merely cold.
        """
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, f"{prefix}_{identity}.latest.json")

    @staticmethod
    def _unreadable(path: str, method: str, error: Exception) -> None:
        _LOGGER.warning(
            "cache file %s is unreadable (%s: %s); recomputing it",
            path,
            type(error).__name__,
            error,
        )
        _METRICS.increment(f"runner.{method}.cache_corrupt")

    def _stale_cache_version(
        self, prefix: str, identity: str, method: str
    ) -> Optional[str]:
        """The writer version of a warm-but-unusable cache slot, if any.

        Returns the package version recorded by the last writer of this
        point's sidecar index when it differs from the running version —
        i.e. the miss about to be recomputed had a warm entry that a release
        bump invalidated.  A missing sidecar means a plain cold miss
        (``None``); an unreadable one is reported like a damaged entry.
        """
        path = self._cache_index_path(prefix, identity)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as source:
                version = json.load(source)["package_version"]
        except _UNREADABLE as error:
            self._unreadable(path, method, error)
            return None
        if version is not None and str(version) != _version.__version__:
            return str(version)
        return None

    def _write_cache_index(self, prefix: str, identity: str, key: str) -> None:
        path = self._cache_index_path(prefix, identity)
        temporary = f"{path}.tmp.{os.getpid()}"
        with open(temporary, "w", encoding="utf-8") as sink:
            json.dump(
                {"key": key, "package_version": _version.__version__},
                sink,
                sort_keys=True,
            )
        os.replace(temporary, path)

    def _load(self, path: str, prefix: str, method: str):
        """The cached result at ``path``; ``None`` when absent or unreadable."""
        if not os.path.exists(path):
            return None
        try:
            with np.load(path, allow_pickle=False) as archive:
                meta = json.loads(str(archive["meta"]))
                return _decode(_RESULT_TYPES[prefix], meta, archive)
        except _UNREADABLE as error:
            self._unreadable(path, method, error)
            return None

    def _store(self, path: str, result) -> None:
        meta, arrays = _encode(result)
        meta.update(
            engine_version=ENGINE_VERSION,
            package_version=_version.__version__,
            base_seed=self.base_seed,
        )
        os.makedirs(os.path.dirname(path), exist_ok=True)
        temporary = f"{path}.tmp.{os.getpid()}"
        np.savez(
            temporary, meta=np.asarray(json.dumps(meta, sort_keys=True)), **arrays
        )
        os.replace(f"{temporary}.npz", path)

    # ------------------------------------------------------------------
    # The run path
    # ------------------------------------------------------------------
    def _compute(self, spec: Experiment, seed: np.random.SeedSequence):
        """Run the spec's engine under its seed (the one compute dispatch)."""
        params, trials, rounds = spec.params, spec.trials, spec.rounds
        if spec.depths is not None:
            common = dict(
                seed=seed,
                draw_mode=self.draw_mode,
                workspace=self.workspace,
                chunk_cells=spec.chunk_cells,
            )
            if spec.scenario is None:
                return StreamingBatchSimulation(params, **common).run(
                    trials,
                    rounds,
                    depths=list(spec.depths),
                    progress=self.progress_sinks,
                )
            return StreamingScenarioSimulation(
                params, spec.scenario, **common
            ).run(trials, rounds, progress=self.progress_sinks)
        rng = np.random.default_rng(seed)
        rare = spec.rare
        if rare is not None:
            estimator = RareEventSimulation(params, rare.depth, rng=rng)
            if rare.method == "plain":
                return estimator.run_plain(trials, rounds)
            if rare.method == "splitting":
                return estimator.run_splitting(trials, rounds)
            return estimator.run_tilted(
                trials,
                rounds,
                tilt=rare.tilt,
                pilot_trials=rare.pilot_trials,
                elite_fraction=rare.elite_fraction,
                max_iterations=rare.max_iterations,
                smoothing=rare.smoothing,
            )
        if spec.scenario is None:
            return BatchSimulation(
                params,
                rng=rng,
                draw_mode=self.draw_mode,
                delay_model=spec.delay_model,
                power=spec.power,
            ).run(trials, rounds)
        partial = getattr(spec.scenario, "cut_fraction", None) is not None
        return ScenarioSimulation(
            params,
            spec.scenario,
            rng=rng,
            draw_mode=self.draw_mode,
            # The two-component scan replaces the delay model for partial
            # cuts; ScenarioSimulation rejects the combination explicitly.
            delay_model=None if partial else spec.delay_model,
            power=spec.power,
            placement=spec.placement,
            workspace=self.workspace,
        ).run(trials, rounds)

    def run(self, spec: Experiment):
        """Run (or fetch from cache) one experiment point.

        The one load-or-compute-and-store path: it owns the cache
        consultation, the hit/miss/version-skip accounting (instance
        counters *and* ``runner.<method>.*`` metrics), the
        ``runner.<method>`` tracer span, the sidecar index update and the
        optional run-manifest append — so every engine reports identically.
        Rare-event points need the binomial draw mode: the exponential-tilt
        likelihood ratios are exact for the Binomial per-round law only.
        """
        if spec.rare is not None and self.draw_mode != "binomial":
            raise SimulationError(
                "rare-event estimation supports only the binomial draw mode; "
                f"this runner uses {self.draw_mode!r}"
            )
        start = time.perf_counter()
        method, prefix = spec.method, spec.prefix
        payload = spec.payload()
        identity, key = self._keys(payload)
        path = self._cache_path(key, prefix)
        stale_version = None
        with _TRACE.span(
            f"runner.{method}",
            prefix=prefix,
            trials=int(spec.trials),
            rounds=int(spec.rounds),
        ) as span:
            cached = self._load(path, prefix, method) if path is not None else None
            if cached is not None:
                cache_state = "hit"
                self.cache_hits += 1
                _METRICS.increment(f"runner.{method}.cache_hits")
                result = cached
            else:
                cache_state = "disabled" if path is None else "miss"
                self.cache_misses += 1
                _METRICS.increment(f"runner.{method}.cache_misses")
                if path is not None:
                    stale_version = self._stale_cache_version(
                        prefix, identity, method
                    )
                    if stale_version is not None:
                        self.version_skips += 1
                        _METRICS.increment(f"runner.{method}.version_skips")
                        _LOGGER.info(
                            "cache entry for %s point %s was written by repro "
                            "%s (current %s); recomputing",
                            prefix,
                            identity[:12],
                            stale_version,
                            _version.__version__,
                        )
                result = self._compute(spec, self._seed_from_identity(identity))
                if path is not None:
                    self._store(path, result)
                    self._write_cache_index(prefix, identity, key)
            span.set(cache=cache_state)
            # The manifest write happens inside the span so the span tree
            # accounts for the full runner call, provenance trail included.
            if self.run_log is not None:
                # Resource accounting rides the run boundary: peak RSS and
                # the workspace high-water mark, sampled once per point and
                # stamped into the manifest's free-form extra payload.
                extra = {
                    name: value
                    for name, value in payload.items()
                    if name not in ("params", "trials", "rounds")
                }
                extra["draw_mode"] = self.draw_mode
                extra["resources"] = sample_resource_gauges(self.workspace)
                self.run_log.append(
                    manifest_record(
                        method=method,
                        cache_prefix=prefix,
                        cache_key=key,
                        cache=cache_state,
                        duration_s=time.perf_counter() - start,
                        params=payload["params"],
                        trials=int(spec.trials),
                        rounds=int(spec.rounds),
                        base_seed=self.base_seed,
                        result_digest=_result_digest(result),
                        stale_version=stale_version,
                        extra=extra,
                    )
                )
            elif _METRICS.enabled:
                sample_resource_gauges(self.workspace)
        return result

    def run_many(self, specs: Iterable[Experiment]) -> list:
        """Run every spec, in order, sharded across processes when configured.

        The grid runs under one ``runner.<grid>`` span — ``run_grid``,
        ``run_scenario_grid``, … when every spec has the same method, else
        ``run_many`` — and feeds the configured progress sinks.  The sharded
        path ships each worker's telemetry back and merges it (spans grafted
        under the grid span shard-stamped, counters folded into the ambient
        registry, manifests appended to the parent run log), so a sharded
        grid reports like a sequential one.  When a worker raises, the other
        points still run and their telemetry is merged; then a
        :class:`~repro.errors.SimulationError` naming the lowest failing
        index and its identity digest is raised from the worker's error.
        """
        specs = list(specs)
        if not specs:
            return []
        methods = {spec.method for spec in specs}
        grid = (
            methods.pop().replace("_point", "_grid")
            if len(methods) == 1
            else "run_many"
        )
        sharded = (
            self.processes is not None and self.processes > 1 and len(specs) > 1
        )
        sinks = self.progress_sinks
        progress = (
            GridProgress(f"runner.{grid}", len(specs), sinks) if sinks else None
        )
        with _TRACE.span(
            f"runner.{grid}", points=len(specs), sharded=sharded
        ) as span:
            if not sharded:
                if progress is None:
                    return [self.run(spec) for spec in specs]
                results = []
                for spec in specs:
                    hits, misses = self.cache_hits, self.cache_misses
                    started = time.perf_counter()
                    results.append(self.run(spec))
                    progress.point_done(
                        time.perf_counter() - started,
                        cache_hits=self.cache_hits - hits,
                        cache_misses=self.cache_misses - misses,
                    )
                return results
            # Capture flags come from the *parent's* observability state, so
            # a worker never guesses from its inherited environment.
            flags = {
                "spans": _TRACE.enabled,
                "metrics": _METRICS.enabled,
                "manifests": self.run_log is not None,
            }
            tasks = [
                (index, flags, spec, self.base_seed, self.draw_mode, self.cache_dir)
                for index, spec in enumerate(specs)
            ]
            outcomes: List[Optional[_WorkerOutcome]] = [None] * len(tasks)
            failures = {}
            import multiprocessing

            with multiprocessing.Pool(min(self.processes, len(tasks))) as pool:
                for index, outcome in pool.imap_unordered(_run_task, tasks):
                    if isinstance(outcome, _WorkerFailure):
                        failures[index] = outcome
                        continue
                    outcomes[index] = outcome
                    if progress is not None:
                        progress.point_done(
                            outcome.duration_s,
                            cache_hits=outcome.cache_hits,
                            cache_misses=outcome.cache_misses,
                            shard=index,
                        )
            # Fold in shard order (not completion order) so counters,
            # grafted spans and manifest lines land deterministically.
            results = []
            for index, outcome in enumerate(outcomes):
                if outcome is None:
                    continue
                self.cache_hits += outcome.cache_hits
                self.cache_misses += outcome.cache_misses
                self.version_skips += outcome.version_skips
                merge_worker_telemetry(
                    outcome.telemetry,
                    shard=index,
                    span=span,
                    run_log=self.run_log,
                    logger=_LOGGER,
                )
                results.append(outcome.result)
            if failures:
                self._raise_worker_failure(specs, failures)
            return results

    def _raise_worker_failure(self, specs: list, failures: dict) -> None:
        """Raise the lowest-index worker failure as a named SimulationError."""
        from multiprocessing.pool import RemoteTraceback

        index = min(failures)
        failure = failures[index]
        identity, _ = self._keys(specs[index].payload())
        error = failure.error
        # Show the worker-side traceback under the chained error, the way
        # multiprocessing does for a task that raises.
        error.__cause__ = RemoteTraceback(failure.traceback)
        others = len(failures) - 1
        raise SimulationError(
            f"grid point {index} ({specs[index].method}, identity "
            f"{identity}) raised in a pool worker: "
            f"{type(error).__name__}: {error}"
            + (f" ({others} more point(s) failed too)" if others else "")
        ) from error

    # ------------------------------------------------------------------
    # Public wrappers: one spec per point
    # ------------------------------------------------------------------
    def run_point(
        self, params: ProtocolParameters, trials: int, rounds: int
    ) -> BatchResult:
        """Run (or fetch from cache) one parameter point."""
        return self.run(Experiment(params, trials, rounds))

    def run_grid(
        self,
        points: Sequence[ProtocolParameters],
        trials: int,
        rounds: int,
    ) -> List[BatchResult]:
        """Run every parameter point, sharded across processes when configured."""
        return self.run_many(Experiment(point, trials, rounds) for point in points)

    def run_scenario_point(
        self,
        params: ProtocolParameters,
        scenario: Union[str, Scenario],
        trials: int,
        rounds: int,
    ) -> ScenarioResult:
        """Run (or fetch from cache) one (parameter point, scenario) pair."""
        return self.run(
            Experiment(params, trials, rounds, scenario=get_scenario(scenario))
        )

    def run_scenario_grid(
        self,
        points: Sequence[ProtocolParameters],
        scenario: Union[str, Scenario],
        trials: int,
        rounds: int,
    ) -> List[ScenarioResult]:
        """Run one scenario at every parameter point, sharded when configured."""
        scenario = get_scenario(scenario)
        return self.run_many(
            Experiment(point, trials, rounds, scenario=scenario) for point in points
        )

    def run_topology_point(
        self,
        params: ProtocolParameters,
        trials: int,
        rounds: int,
        delay_model: Union[str, DelayModel],
        power: Optional[MiningPowerProfile] = None,
    ) -> BatchResult:
        """Run (or fetch from cache) one parameter point under a delay model.

        The cache key folds in the delay-model payload (for ``peer_graph``
        that includes the topology's generator spec or matrix digest) and,
        when given, the mining-power profile digest — so two runs differing
        only in graph wiring or power skew never collide.
        """
        return self.run(_topology_spec(params, trials, rounds, delay_model, power))

    def run_topology_grid(
        self,
        points: Sequence[ProtocolParameters],
        trials: int,
        rounds: int,
        delay_model: Union[str, DelayModel],
        power: Optional[MiningPowerProfile] = None,
    ) -> List[BatchResult]:
        """Run every parameter point under one delay model."""
        model = resolve_delay_model(delay_model)
        return self.run_many(
            _topology_spec(point, trials, rounds, model, power) for point in points
        )

    def run_dynamics_point(
        self,
        params: ProtocolParameters,
        trials: int,
        rounds: int,
        schedule: Optional[DynamicsSchedule] = None,
        topology: Optional[PeerGraphTopology] = None,
        scenario: Union[None, str, Scenario] = None,
        power: Optional[MiningPowerProfile] = None,
        placement: Optional[AdversaryPlacement] = None,
    ) -> Union[BatchResult, ScenarioResult]:
        """Run (or fetch from cache) one point under a dynamics schedule.

        ``schedule`` (default: the scenario's own cut when it is a
        :class:`~repro.simulation.dynamics.PartitionScenario`, otherwise
        empty) and the optional ``topology`` are wrapped into one
        :class:`~repro.simulation.dynamics.TimeVaryingDelayModel`.  Without
        a ``scenario`` the passive batch engine measures consistency
        margins under the schedule; with one, the vectorized scenario
        engine runs the attack, optionally with a placement-aware
        adversary.  Cache keys fold in the full schedule payload, the
        topology digest and the placement, so every distinct dynamics
        experiment gets its own seed stream and cache slot.
        """
        dynamics = _dynamics_fields(schedule, topology, scenario, power, placement)
        return self.run(Experiment(params, trials, rounds, **dynamics))

    def run_dynamics_grid(
        self,
        points: Sequence[ProtocolParameters],
        trials: int,
        rounds: int,
        schedule: Optional[DynamicsSchedule] = None,
        topology: Optional[PeerGraphTopology] = None,
        scenario: Union[None, str, Scenario] = None,
        power: Optional[MiningPowerProfile] = None,
        placement: Optional[AdversaryPlacement] = None,
    ) -> List[Union[BatchResult, ScenarioResult]]:
        """Run every parameter point under one dynamics schedule.

        The points share one compiled schedule when run serially.
        """
        dynamics = _dynamics_fields(schedule, topology, scenario, power, placement)
        return self.run_many(
            Experiment(point, trials, rounds, **dynamics) for point in points
        )

    def run_rare_event_point(
        self,
        params: ProtocolParameters,
        trials: int,
        rounds: int,
        depth: int,
        method: str = "tilted",
        tilt: Optional[ExponentialTilt] = None,
        pilot_trials: int = 512,
        elite_fraction: float = 0.1,
        max_iterations: int = 10,
        smoothing: float = 0.7,
    ) -> RareEventResult:
        """Run (or fetch from cache) one rare-event estimate.

        ``method`` selects the estimator (``"plain"``, ``"tilted"`` or
        ``"splitting"``); for ``"tilted"`` an explicit ``tilt`` skips the
        cross-entropy pilot stage.  The cache key and seed stream fold in
        the full estimator spec, so e.g. the same point estimated at two
        depths, or with and without a pinned tilt, never collide.  Only the
        binomial draw mode is supported.
        """
        rare = RareEvent(
            depth,
            method,
            tilt,
            pilot_trials,
            elite_fraction,
            max_iterations,
            smoothing,
        )
        return self.run(Experiment(params, trials, rounds, rare=rare))

    def run_rare_event_grid(
        self,
        points: Sequence[ProtocolParameters],
        trials: int,
        rounds: int,
        depth: int,
        method: str = "tilted",
        tilt: Optional[ExponentialTilt] = None,
        pilot_trials: int = 512,
        elite_fraction: float = 0.1,
        max_iterations: int = 10,
        smoothing: float = 0.7,
    ) -> List[RareEventResult]:
        """Run one rare-event estimate at every parameter point.

        Per-point seeds make every estimate independent of grid composition,
        serial or sharded.
        """
        rare = RareEvent(
            depth,
            method,
            tilt,
            pilot_trials,
            elite_fraction,
            max_iterations,
            smoothing,
        )
        return self.run_many(
            Experiment(point, trials, rounds, rare=rare) for point in points
        )

    def run_streaming_point(
        self,
        params: ProtocolParameters,
        trials: int,
        rounds: int,
        depths: Iterable[int] = (),
        scenario: Union[None, str, Scenario] = None,
        chunk_cells: Optional[int] = None,
    ):
        """Run (or fetch from cache) one streamed, O(chunk)-memory point.

        Executes the point through :class:`StreamingBatchSimulation` (or
        :class:`StreamingScenarioSimulation` when ``scenario`` is given) —
        the dense kernels driven in bounded chunks with online accumulation,
        so ``trials`` can reach ``1e8+`` without materialising per-trial
        arrays.  Streamed points use their own per-block draw protocol, so
        they occupy their own cache slots and seed streams — a streamed
        point is a new seeded experiment, not a re-execution of the dense
        one.  ``depths`` requests exact violation hit counts (batch runs
        only); ``chunk_cells`` is pure execution policy and deliberately
        absent from the cache key — summaries are bit-identical across
        chunk sizes.
        """
        return self.run(
            Experiment(
                params,
                trials,
                rounds,
                scenario=scenario,
                depths=tuple(depths),
                chunk_cells=chunk_cells,
            )
        )

    def run_streaming_grid(
        self,
        points: Sequence[ProtocolParameters],
        trials: int,
        rounds: int,
        depths: Iterable[int] = (),
        scenario: Union[None, str, Scenario] = None,
        chunk_cells: Optional[int] = None,
    ) -> list:
        """Run one streamed point per parameter, sharded when configured.

        Per-point seeds plus chunk-invariant per-block seeding make every
        streamed summary bit-identical whether the grid runs serially or
        across a process pool, and whatever chunk size each side uses.
        """
        depths = tuple(depths)
        return self.run_many(
            Experiment(
                point,
                trials,
                rounds,
                scenario=scenario,
                depths=depths,
                chunk_cells=chunk_cells,
            )
            for point in points
        )
