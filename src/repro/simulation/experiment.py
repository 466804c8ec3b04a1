"""One experiment description: the frozen :class:`Experiment` spec.

Every point :class:`~repro.simulation.runner.ExperimentRunner` executes is
an :class:`Experiment`: the protocol parameters, the ``(trials, rounds)``
shape and whichever workload fields the point uses — an attack scenario, a
delay model (a static one or a dynamics schedule wrapped in a
:class:`~repro.simulation.dynamics.TimeVaryingDelayModel`), a mining-power
profile, an adversary placement, a :class:`RareEvent` estimator spec, or
the streaming ``depths`` that mark a streamed point.  The fields that are
set pick the engine, the cache prefix and the manifest method name
(:attr:`Experiment.prefix`, :attr:`Experiment.method`), and
:meth:`Experiment.payload` is the version-free description the runner
hashes into the point's seed and cache identity.  ``chunk_cells`` rides
along as execution policy: streamed summaries are bit-identical across
chunk sizes, so it never enters the identity.

Construction normalises the inputs (scenario names and delay-model names
resolve through their registries; streaming depths are sorted and
deduplicated) and rejects combinations no engine runs, so an invalid point
fails with a named :class:`~repro.errors.SimulationError` before any work.
Specs pickle, which is how the runner ships them to pool workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from ..errors import SimulationError
from ..params import ProtocolParameters
from .dynamics import AdversaryPlacement, TimeVaryingDelayModel
from .rare_events import RARE_EVENT_METHODS, ExponentialTilt
from .scenarios import Scenario, get_scenario
from .topology import DelayModel, MiningPowerProfile, resolve_delay_model

__all__ = ["Experiment", "RareEvent", "params_payload"]

#: Cache prefix -> the manifest ``method`` (the public point wrapper's name).
_METHODS: Dict[str, str] = {
    "batch": "run_point",
    "scenario": "run_scenario_point",
    "topology": "run_topology_point",
    "dynamics": "run_dynamics_point",
    "dynamics_scenario": "run_dynamics_point",
    "rare": "run_rare_event_point",
    "stream": "run_streaming_point",
    "stream_scenario": "run_streaming_point",
}


def params_payload(params: ProtocolParameters) -> dict:
    """The primary fields of ``params`` (enough to reconstruct it exactly)."""
    return {
        "p": params.p,
        "n": params.n,
        "delta": params.delta,
        "nu": params.nu,
        "strict_model": params.strict_model,
    }


@dataclass(frozen=True)
class RareEvent:
    """The estimator half of a rare-event point.

    Every knob that changes either the sampling measure or the amount of
    entropy the estimator consumes is part of :meth:`payload`, so two
    estimates that could differ numerically never share a cache slot or a
    seed stream.  The pilot knobs are folded in even with an explicit
    ``tilt`` (when they are inert): a constant identity for a given call
    signature is worth more than a marginally smaller payload.  ``tilt``
    also accepts an :meth:`ExponentialTilt.payload` dict.
    """

    depth: int
    method: str = "tilted"
    tilt: Optional[ExponentialTilt] = None
    pilot_trials: int = 512
    elite_fraction: float = 0.1
    max_iterations: int = 10
    smoothing: float = 0.7

    def __post_init__(self) -> None:
        if self.method not in RARE_EVENT_METHODS:
            raise SimulationError(
                f"method must be one of {RARE_EVENT_METHODS}, got {self.method!r}"
            )
        if isinstance(self.tilt, dict):
            object.__setattr__(self, "tilt", ExponentialTilt(**self.tilt))

    def payload(self) -> dict:
        return {
            "depth": int(self.depth),
            "method": self.method,
            "tilt": None if self.tilt is None else self.tilt.payload(),
            "pilot_trials": int(self.pilot_trials),
            "elite_fraction": float(self.elite_fraction),
            "max_iterations": int(self.max_iterations),
            "smoothing": float(self.smoothing),
        }


@dataclass(frozen=True)
class Experiment:
    """One seeded, cached experiment point.

    ``depths`` is ``None`` for dense points; any tuple (empty included)
    makes the point a streamed, O(chunk)-memory run that also tallies exact
    violation hits at each listed depth (batch streaming only).
    """

    params: ProtocolParameters
    trials: int
    rounds: int
    scenario: Union[None, str, Scenario] = None
    delay_model: Union[None, str, DelayModel] = None
    power: Optional[MiningPowerProfile] = None
    placement: Optional[AdversaryPlacement] = None
    rare: Optional[RareEvent] = None
    depths: Optional[Tuple[int, ...]] = None
    chunk_cells: Optional[int] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.scenario is not None:
            object.__setattr__(self, "scenario", get_scenario(self.scenario))
        object.__setattr__(
            self, "delay_model", resolve_delay_model(self.delay_model)
        )
        if self.depths is not None:
            depths = tuple(sorted({int(depth) for depth in self.depths}))
            object.__setattr__(self, "depths", depths)
        self._validate()

    def _reject(self, kind: str, names: Tuple[str, ...]) -> None:
        given = [name for name in names if getattr(self, name) is not None]
        if given:
            raise SimulationError(f"{kind} points take no {', '.join(given)}")

    def _validate(self) -> None:
        scenario, model = self.scenario, self.delay_model
        if self.placement is not None and scenario is None:
            raise SimulationError(
                "adversary placement needs an adversarial scenario; the "
                "passive batch engine has no releases to delay"
            )
        if self.rare is not None:
            self._reject(
                "rare-event",
                ("scenario", "delay_model", "power", "placement", "depths"),
            )
        if self.depths is not None:
            self._reject("streamed", ("delay_model", "power", "placement"))
            if scenario is not None and self.depths:
                raise SimulationError(
                    "violation depths are a batch statistic; scenario "
                    f"streaming does not track them (got depths={self.depths!r})"
                )
        if scenario is None or model is None:
            return
        if not isinstance(model, TimeVaryingDelayModel):
            raise SimulationError(
                "a scenario runs under a delay model only as a dynamics "
                "point; wrap the delays in a TimeVaryingDelayModel"
            )
        if getattr(scenario, "cut_fraction", None) is None:
            return
        # A partial cut is priced by the two-component scan, which owns its
        # delivery semantics: no topology, and no schedule beyond the
        # scenario's own cut.
        if model.topology is not None:
            raise SimulationError(
                "partial-cut scenarios (cut_fraction set) split honest "
                "power probabilistically, not by graph position; "
                "topology must be None"
            )
        if model.schedule.payload() != scenario.dynamics_schedule().payload():
            raise SimulationError(
                "a partial-cut scenario runs its own cut schedule; pass "
                "schedule=None or the scenario's dynamics_schedule()"
            )

    @property
    def prefix(self) -> str:
        """The cache prefix, which names the engine the point runs on."""
        if self.rare is not None:
            return "rare"
        if self.depths is not None:
            return "stream" if self.scenario is None else "stream_scenario"
        if isinstance(self.delay_model, TimeVaryingDelayModel):
            return "dynamics" if self.scenario is None else "dynamics_scenario"
        if self.delay_model is not None:
            return "topology"
        return "batch" if self.scenario is None else "scenario"

    @property
    def method(self) -> str:
        """The manifest ``method`` (and ``runner.<method>`` span) name."""
        return _METHODS[self.prefix]

    def payload(self) -> dict:
        """The version-free description of the point (no runner fields).

        Only the fields that are set appear, so a passive fixed-delta batch
        point carries parameters and shape alone.
        """
        payload = {
            "params": params_payload(self.params),
            "trials": int(self.trials),
            "rounds": int(self.rounds),
        }
        for name in ("scenario", "delay_model", "power", "placement"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value.payload()
        if self.rare is not None:
            payload["rare_event"] = self.rare.payload()
        if self.depths is not None:
            payload["streaming"] = {"depths": list(self.depths)}
        return payload
