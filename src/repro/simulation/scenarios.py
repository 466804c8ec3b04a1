"""Vectorized adversarial scenario engine: batch attack simulation as tensors.

The batch engine (:mod:`repro.simulation.batch`) vectorizes the *passive*
oracle path — per-round success counts, convergence opportunities, Lemma 1
margins — but every adversarial strategy (withholding, selfish mining,
maximum delay) still runs one trial at a time through the object-based
:class:`~repro.simulation.protocol.NakamotoSimulation` loop.  This module
closes that gap: it executes ``T`` independent *adversarial* trials
simultaneously, scanning over rounds once while every piece of attack state
lives in ``(trials,)`` NumPy vectors —

* the public longest-chain height (with the Δ-capped honest delivery
  pipeline kept as a ring buffer of scheduled arrival heights),
* the adversary's private-fork height, fork-point height and pending-release
  (withheld) block counts,
* cumulative release / abandon / fork-depth / orphaned-block tallies.

The scan reproduces the legacy round phases *exactly*: start-of-round
deliveries, honest mining on the delivered public chain, sequential
adversarial mining on the strategy's parent, the strategy's release decision
against the pre-release public height, and the end-of-round delivery of
zero-delay broadcasts.  One modelling convention makes the two engines
bit-comparable rather than merely equal in distribution: honest block
attribution is *scripted* by :func:`rotating_honest_attribution`, a rotating
assignment of miner ids under which no honest miner ever mines again while
its previous block is still in flight — so every honest block mined in round
``r`` sits at exactly ``public_height(r) + 1`` in both engines.  (The event
this convention excludes — the same miner succeeding twice within one delay
window — has probability ``O(alpha^2 Δ / (mu n))`` per round and vanishes in
the paper's large-``n`` regime; the engine refuses, with
:class:`~repro.errors.SimulationError`, any trace where the convention is
infeasible.)  The seeded equivalence tests replay the engine's pre-drawn
traces through :class:`NakamotoSimulation` via
:class:`~repro.simulation.oracle.ScriptedMiningOracle` and require identical
per-round public/private heights, release rounds and fork-depth tallies for
every registered strategy.

Scenarios are named, registered descriptions of an adversary —
``passive``, ``max_delay``, ``private_chain`` and ``selfish_mining`` ship by
default — and every :class:`Scenario` can also build the corresponding
legacy :class:`~repro.simulation.adversary.AdversaryStrategy`, which stays
the reference implementation.

Partial partitions and the two-component scan
---------------------------------------------
A :class:`~repro.simulation.dynamics.PartitionScenario` with a
``cut_fraction`` splits the honest network in two for the scheduled window:
a minority component holding that fraction of the honest mining power and
the majority complement.  The engine then generalizes the scan to *two*
public chains — per-component heights, delivery rings and pending-release
rings — forked from the common prefix frozen at the cut round.  Honest
successes are allocated binomially between the components (the ``split``
tensor, drawn after the honest and adversarial tensors), each component
runs the legacy constant-Δ delivery pipeline internally, and nothing
crosses the cut until the heal.  At the merge round the higher chain wins
and the displaced depth of the losing component — its height above the
common prefix — is tallied (``merge_depths``, also folded into
``deepest_forks``): the majority/minority race the aggregate scan silently
mispriced.  Conventions, shared bit-exactly with the pure-Python
:func:`reference_partition_scan`: the common prefix does not advance on
honest mining inside the window (pre-cut in-flight blocks deliver to both
sides but the last-Δ suffix is adversarially unconverged, the worst case);
reconciliation at the heal is instantaneous; a window still open when the
run ends is flushed without a merge tally, exactly like an in-flight
release.

The ``equivocation`` kind rides on that scan: outside the window it is the
``private_chain`` state machine, and inside it the adversary maintains one
private chain *per component* — duplicated at the cut, extended by feeding
each round's blocks to the weaker race, released to its own component
only (through the :class:`~repro.simulation.dynamics.AdversaryPlacement`
gossip path when one is wired), so the components are kept on conflicting
chains and the heal itself displaces a suffix.  At the merge the chain
racing the winning component survives as the single private chain.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..backend import Workspace, get_backend, get_dtype_policy
from ..errors import SimulationError
from ..observability import METRICS as _METRICS, TRACE as _TRACE
from ..params import ProtocolParameters
from .adversary import (
    AdversaryStrategy,
    EquivocationAdversary,
    MaxDelayAdversary,
    PassiveAdversary,
    PrivateChainAdversary,
    SelfishMiningAdversary,
)
from .batch import (
    DRAW_MODES,
    _confidence_interval,
    draw_traces,
    fixed_delta_opportunity_mask,
    proportion_confidence_interval,
    worst_window_deficits,
)
from .rng import SeedLike, resolve_rng
from .topology import (
    DelayModel,
    MiningPowerProfile,
    convergence_opportunity_mask_with_delays,
    resolve_delay_model,
)

__all__ = [
    "SCENARIO_KINDS",
    "Scenario",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "rotating_honest_attribution",
    "reference_partition_scan",
    "ScenarioResult",
    "ScenarioSimulation",
]

#: The adversary state machines the engine knows how to vectorize.
SCENARIO_KINDS = ("publish", "private_chain", "selfish_mining", "equivocation")

#: Kinds the two-component partition scan can price (the withholding state
#: machines; ``publish`` scenarios have no private chain to race per side).
PARTITION_KINDS = ("private_chain", "selfish_mining", "equivocation")


@dataclass(frozen=True)
class Scenario:
    """A named, declarative description of one adversarial strategy.

    Parameters
    ----------
    name:
        Registry / cache-key identifier.
    kind:
        The adversary state machine: ``"publish"`` (mine on the public tip,
        publish every block immediately — the passive and maximum-delay
        adversaries), ``"private_chain"`` (the PSS Remark 8.5 withholding
        attack), ``"selfish_mining"`` (Eyal-Sirer adapted to the round
        model) or ``"equivocation"`` (one private chain per partition
        component, released to its own side only — meaningful solely on a
        partial-cut :class:`~repro.simulation.dynamics.PartitionScenario`,
        where the engine runs the two-component scan).
    honest_delay:
        The delay (in rounds, capped by Δ) the adversary imposes on every
        honest block.  ``None`` means the full Δ; ``publish`` scenarios may
        choose any value in ``[0, Δ]``, while the two withholding kinds
        always delay by Δ (their legacy reference strategies hard-code it).
    target_depth:
        ``private_chain`` / ``equivocation``: the minimum public-suffix
        depth a release must displace (the ``T`` whose consistency the
        attack breaks; per component for ``equivocation``).
    give_up_deficit:
        ``private_chain`` / ``equivocation``: abandon the fork once it
        falls this many blocks behind the public chain it races; ``None``
        never gives up.
    """

    name: str
    kind: str
    honest_delay: Optional[int] = None
    target_depth: int = 6
    give_up_deficit: Optional[int] = 12

    def __post_init__(self) -> None:
        if not self.name:
            raise SimulationError("scenario name must be non-empty")
        if self.kind not in SCENARIO_KINDS:
            raise SimulationError(
                f"scenario kind must be one of {SCENARIO_KINDS}, got {self.kind!r}"
            )
        if self.honest_delay is not None and self.honest_delay < 0:
            raise SimulationError(
                f"honest_delay must be >= 0 or None, got {self.honest_delay!r}"
            )
        if self.kind != "publish" and self.honest_delay is not None:
            raise SimulationError(
                f"{self.kind} scenarios always impose the full delay Delta; "
                "leave honest_delay as None"
            )
        if self.target_depth < 1:
            raise SimulationError(
                f"target_depth must be >= 1, got {self.target_depth!r}"
            )
        if self.give_up_deficit is not None and self.give_up_deficit < 1:
            raise SimulationError(
                f"give_up_deficit must be >= 1 or None, got {self.give_up_deficit!r}"
            )

    # ------------------------------------------------------------------
    # Resolution against a concrete parameter point
    # ------------------------------------------------------------------
    def resolved_honest_delay(self, delta: int) -> int:
        """The per-block honest delay for a run with cap ``delta``.

        Raises :class:`SimulationError` when the scenario demands a delay
        beyond the Δ cap — the same guarantee
        :class:`~repro.simulation.network.DeltaDelayNetwork` enforces.
        """
        delay = delta if self.honest_delay is None else self.honest_delay
        if not (0 <= delay <= delta):
            raise SimulationError(
                f"scenario {self.name!r} imposes delay {delay} beyond the "
                f"Delta cap {delta}"
            )
        return delay

    def build_adversary(self, delta: int) -> AdversaryStrategy:
        """The legacy reference :class:`AdversaryStrategy` for this scenario."""
        if self.kind == "publish":
            delay = self.resolved_honest_delay(delta)
            if delay == delta:
                return MaxDelayAdversary(delta)
            return PassiveAdversary(delta, honest_delay=delay)
        if self.kind == "private_chain":
            return PrivateChainAdversary(
                delta,
                target_depth=self.target_depth,
                give_up_deficit=self.give_up_deficit,
            )
        if self.kind == "equivocation":
            # The legacy engine has no network components, so the reference
            # strategy is the merged-network projection: plain withholding.
            return EquivocationAdversary(
                delta,
                target_depth=self.target_depth,
                give_up_deficit=self.give_up_deficit,
            )
        return SelfishMiningAdversary(delta)

    @property
    def success_depth(self) -> int:
        """The fork depth that counts as a successful attack for this scenario."""
        if self.kind in ("private_chain", "equivocation"):
            return self.target_depth
        return 1

    def payload(self) -> Dict[str, object]:
        """Primary fields as a plain dict (cache keys / reconstruction)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "honest_delay": self.honest_delay,
            "target_depth": self.target_depth,
            "give_up_deficit": self.give_up_deficit,
        }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, overwrite: bool = False) -> Scenario:
    """Add a scenario to the registry (refusing silent redefinition)."""
    if scenario.name in _REGISTRY and not overwrite:
        raise SimulationError(
            f"scenario {scenario.name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(scenario: Union[str, Scenario]) -> Scenario:
    """Resolve a registry name (or pass a :class:`Scenario` through)."""
    if isinstance(scenario, Scenario):
        return scenario
    try:
        return _REGISTRY[scenario]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise SimulationError(
            f"unknown scenario {scenario!r}; registered scenarios: {known}"
        ) from None


def list_scenarios() -> List[str]:
    """Names of all registered scenarios, sorted."""
    return sorted(_REGISTRY)


register_scenario(Scenario(name="passive", kind="publish", honest_delay=0))
register_scenario(Scenario(name="max_delay", kind="publish"))
register_scenario(Scenario(name="private_chain", kind="private_chain"))
register_scenario(Scenario(name="selfish_mining", kind="selfish_mining"))


# ----------------------------------------------------------------------
# Scripted honest attribution
# ----------------------------------------------------------------------
def _max_window_successes(
    honest_counts, window: int, backend=None, policy=None
) -> int:
    """Largest number of honest successes in any ``window`` consecutive rounds."""
    xp = get_backend(backend)
    index_dtype = get_dtype_policy(policy).index_dtype(xp)
    counts = xp.asarray(honest_counts, dtype=index_dtype)
    if counts.ndim == 1:
        counts = counts[None, :]
    if counts.size == 0:
        return 0
    if window <= 1:
        return int(counts.max())
    padded = xp.pad(counts, ((0, 0), (0, window - 1)))
    cumulative = xp.concatenate(
        [
            xp.zeros((padded.shape[0], 1), dtype=index_dtype),
            xp.cumsum(padded, axis=1, dtype=index_dtype),
        ],
        axis=1,
    )
    windows = cumulative[:, window:] - cumulative[:, :-window]
    return int(windows.max())


def _require_attribution_feasible(
    honest_counts, honest_miners: int, honest_delay: int, backend=None, policy=None
) -> None:
    """Raise unless rotating attribution avoids in-flight re-selection.

    A miner that mined in round ``r`` receives its own block back at the
    start of round ``r + d`` (``d`` = honest delay); rotating ids re-select
    it inside that window only when some ``d``-round span holds more than
    ``honest_miners`` successes.
    """
    window = max(honest_delay, 1)
    worst = _max_window_successes(honest_counts, window, backend, policy)
    if worst > honest_miners:
        raise SimulationError(
            f"cannot attribute {worst} honest successes within a "
            f"{window}-round delivery window to {honest_miners} distinct "
            "miners; increase n or shorten the delay"
        )


def rotating_honest_attribution(
    honest_counts: Sequence[int], honest_miners: int, honest_delay: int
) -> List[np.ndarray]:
    """Per-round honest miner ids under the engine's rotating convention.

    Round ``r``'s ``h_r`` successes are attributed to the next ``h_r`` ids in
    a round-robin over ``0..honest_miners-1``, so no miner is re-selected
    while its previous block is still in flight (guaranteed feasible, or
    :class:`SimulationError`).  Feeding the returned schedule to
    :class:`~repro.simulation.oracle.ScriptedMiningOracle` makes the legacy
    simulator follow the scenario engine's honest-mining semantics exactly.
    """
    if honest_miners < 1:
        raise SimulationError(
            f"honest_miners must be >= 1, got {honest_miners!r}"
        )
    counts = np.asarray(honest_counts, dtype=np.int64)
    if counts.ndim != 1:
        raise SimulationError("honest_counts must be 1-dimensional")
    if (counts < 0).any():
        raise SimulationError("honest_counts must be non-negative")
    _require_attribution_feasible(counts, honest_miners, honest_delay)
    schedule: List[np.ndarray] = []
    cursor = 0
    for count in counts:
        count = int(count)
        schedule.append((cursor + np.arange(count, dtype=np.int64)) % honest_miners)
        cursor = (cursor + count) % honest_miners
    return schedule


# ----------------------------------------------------------------------
# Pure-Python per-trial reference for the two-component partition scan
# ----------------------------------------------------------------------
def reference_partition_scan(
    honest_counts: Sequence[int],
    adversary_counts: Sequence[int],
    split_counts: Optional[Sequence[int]] = None,
    *,
    delta: int,
    windows: Sequence[Tuple[int, int]] = (),
    kind: str = "private_chain",
    target_depth: int = 6,
    give_up_deficit: Optional[int] = 12,
    release_delay: int = 0,
) -> Dict[str, object]:
    """One trial of the two-component partition scan, in plain Python.

    This is the executable specification the vectorized
    :meth:`ScenarioSimulation._scan_partition` must match *bit for bit*:
    the equivalence tests sweep a (nu, Δ, cut-fraction, duration) grid and
    compare every tally and per-round record, and the equivocation
    benchmark uses it as the per-trial baseline for the speedup gate.

    ``windows`` holds disjoint, sorted ``[start, end)`` cut windows in
    0-indexed scan rounds (see
    :func:`~repro.simulation.dynamics.partition_windows`).  During a window
    honest successes split between the majority component 0
    (``honest - split``) and the minority component 1 (``split``), each
    component runs its own Δ-delay ring, and the common prefix is frozen at
    the cut round; the heal merges max-height-wins and tallies the losing
    side's displaced depth.  Outside every window the scan is exactly the
    aggregate engine's constant-delay path.
    """
    if kind not in PARTITION_KINDS:
        raise SimulationError(
            f"the partition scan prices kinds {PARTITION_KINDS}, got {kind!r}"
        )
    if delta < 1:
        raise SimulationError(f"delta must be >= 1, got {delta!r}")
    if release_delay < 0:
        raise SimulationError(
            f"release_delay must be >= 0, got {release_delay!r}"
        )
    honest = [int(count) for count in honest_counts]
    adversary = [int(count) for count in adversary_counts]
    rounds = len(honest)
    split = (
        [0] * rounds if split_counts is None else [int(s) for s in split_counts]
    )
    if len(adversary) != rounds or len(split) != rounds:
        raise SimulationError("trace lengths must match")
    window_list = sorted((int(start), int(end)) for start, end in windows)
    starts = {start: end for start, end in window_list if start < rounds}
    equivocating = kind == "equivocation"

    pub = [0, 0]
    ring = [[0] * delta, [0] * delta]
    rel_h = [[0] * release_delay, [0] * release_delay]
    rel_f = [[0] * release_delay, [0] * release_delay]
    priv = [0, 0]
    fork = [0, 0]
    active = [False, False]
    withheld = [0, 0]
    common = 0
    cut = False
    cut_end = -1
    releases = abandons = deepest = orphaned = merge_depth = 0
    public_heights: List[int] = []
    private_heights: List[int] = []
    release_mask: List[bool] = []
    abandon_mask: List[bool] = []

    for index in range(rounds):
        # Phase 0a: merge-on-heal — max height wins, the losing component's
        # suffix above the frozen common prefix is the displaced depth.
        if cut and index == cut_end:
            winner = 0 if pub[0] >= pub[1] else 1
            displaced = pub[1 - winner] - common
            merge_depth = max(merge_depth, displaced)
            deepest = max(deepest, displaced)
            pub[0] = pub[winner]
            ring[0] = [max(a, b) for a, b in zip(ring[0], ring[1])]
            for slot in range(release_delay):
                if rel_h[1][slot] > rel_h[0][slot]:
                    rel_h[0][slot] = rel_h[1][slot]
                    rel_f[0][slot] = rel_f[1][slot]
            if equivocating:
                # The chain racing the winning component survives; the one
                # racing the displaced chain forked from a dead branch.
                if winner == 1:
                    priv[0], fork[0] = priv[1], fork[1]
                    active[0], withheld[0] = active[1], withheld[1]
                priv[1] = fork[1] = withheld[1] = 0
                active[1] = False
            cut = False
            common = 0
        # Phase 0b: cut entry — both components start from the merged state;
        # the common prefix freezes at the pre-cut public height.
        if not cut and index in starts:
            cut = True
            cut_end = starts[index]
            pub[1] = pub[0]
            ring[1] = list(ring[0])
            rel_h[1] = list(rel_h[0])
            rel_f[1] = list(rel_f[0])
            common = pub[0]
            if equivocating:
                priv[1], fork[1] = priv[0], fork[0]
                active[1], withheld[1] = active[0], withheld[0]

        components = (0, 1) if cut else (0,)

        # Phase 1: start-of-round ring deliveries, per component.
        slot = index % delta
        for c in components:
            pub[c] = max(pub[c], ring[c][slot])

        # Phase 1b: landing of in-flight adversarial releases.
        if release_delay >= 1:
            release_slot = index % release_delay
            if equivocating and cut:
                # Per-component conflicting releases: each lands on its own
                # side only and never advances the common prefix.
                for c in components:
                    landing = rel_h[c][release_slot]
                    if landing > 0:
                        if landing > pub[c]:
                            landed = pub[c] - rel_f[c][release_slot]
                            deepest = max(deepest, landed)
                            pub[c] = landing
                        rel_h[c][release_slot] = 0
                        rel_f[c][release_slot] = 0
            else:
                # Single-chain release, mirrored into both rings during a
                # cut: the adversary spans the cut, so it lands everywhere.
                landing = rel_h[0][release_slot]
                if landing > 0:
                    landed = 0
                    displaced_everywhere = True
                    for c in components:
                        if landing > pub[c]:
                            landed = max(
                                landed, pub[c] - rel_f[c][release_slot]
                            )
                        else:
                            displaced_everywhere = False
                    if kind == "selfish_mining":
                        orphaned += landed
                    deepest = max(deepest, landed)
                    if cut and displaced_everywhere:
                        common = landing
                    for c in components:
                        pub[c] = max(pub[c], landing)
                        rel_h[c][release_slot] = 0
                        rel_f[c][release_slot] = 0

        # Phase 2: honest mining — the minority component mines the split
        # share; every component's successes sit one above its own tip.
        total = honest[index]
        minority = split[index] if cut else 0
        counts = [total - minority, minority]
        mined = [0, 0]
        for c in components:
            mined[c] = pub[c] + 1
            ring[c][slot] = mined[c] if counts[c] > 0 else 0

        # Phases 3/4: adversarial mining and the release decision.
        mined_adversary = adversary[index]
        released_any = False
        abandoned_any = False
        if equivocating and cut:
            # Feed the weaker race: the whole round's successes extend the
            # chain with the smaller lead (minority side on a full tie).
            lead0 = priv[0] - pub[0]
            lead1 = priv[1] - pub[1]
            choose1 = lead1 < lead0 or (lead1 == lead0 and pub[1] < pub[0])
            allocation = [0, mined_adversary] if choose1 else [mined_adversary, 0]
            for c in (0, 1):
                if allocation[c] > 0 and not active[c]:
                    fork[c] = pub[c]
                    priv[c] = pub[c]
                priv[c] += allocation[c]
                withheld[c] += allocation[c]
                active[c] = active[c] or allocation[c] > 0
            for c in (0, 1):
                lead = priv[c] - pub[c]
                depth = pub[c] - fork[c]
                released = lead > 0 and depth >= target_depth
                abandoned = (
                    give_up_deficit is not None
                    and active[c]
                    and lead <= -give_up_deficit
                )
                if released:
                    releases += 1
                    released_any = True
                    if release_delay >= 1:
                        rel_h[c][release_slot] = priv[c]
                        rel_f[c][release_slot] = fork[c]
                    else:
                        deepest = max(deepest, depth)
                        pub[c] = priv[c]
                if abandoned:
                    abandons += 1
                    abandoned_any = True
                if released or abandoned:
                    priv[c] = fork[c] = withheld[c] = 0
                    active[c] = False
        else:
            # Single private chain racing the best public chain it can see.
            best = max(pub[c] for c in components)
            if mined_adversary > 0 and not active[0]:
                fork[0] = best
                priv[0] = best
            priv[0] += mined_adversary
            withheld[0] += mined_adversary
            active[0] = active[0] or mined_adversary > 0
            lead = priv[0] - best
            depth = best - fork[0]
            if kind == "selfish_mining":
                abandoned = active[0] and lead <= -1
                released = active[0] and 0 <= lead <= 1
            else:
                abandoned = (
                    give_up_deficit is not None
                    and active[0]
                    and lead <= -give_up_deficit
                )
                released = lead > 0 and depth >= target_depth
            if released:
                releases += 1
                released_any = True
                if release_delay >= 1:
                    for c in components:
                        rel_h[c][release_slot] = priv[0]
                        rel_f[c][release_slot] = fork[0]
                else:
                    if kind == "selfish_mining":
                        orphaned += depth
                    deepest = max(deepest, depth)
                    for c in components:
                        pub[c] = priv[0]
                    if cut:
                        # The release is one chain adopted by both sides:
                        # the components re-converge on the private chain.
                        common = priv[0]
            if abandoned:
                abandons += 1
                abandoned_any = True
            if released or abandoned:
                priv[0] = fork[0] = withheld[0] = 0
                active[0] = False

        public_heights.append(max(pub[c] for c in components))
        private_heights.append(max(priv) if (equivocating and cut) else priv[0])
        release_mask.append(released_any)
        abandon_mask.append(abandoned_any)

    # Network flush: in-flight honest blocks and adversarial releases all
    # arrive eventually; a still-open window never merges (no depth tally),
    # exactly like a release the run ended before the network saw land.
    final = 0
    for c in (0, 1) if cut else (0,):
        final = max(final, pub[c], max(ring[c]))
        if release_delay >= 1:
            final = max(final, max(rel_h[c]))
    withheld_final = max(withheld[0], withheld[1]) if cut else withheld[0]

    return {
        "releases": releases,
        "abandons": abandons,
        "deepest_fork": deepest,
        "orphaned_honest": orphaned,
        "withheld_final": withheld_final,
        "final_public_height": final,
        "merge_depth": merge_depth,
        "public_heights": public_heights,
        "private_heights": private_heights,
        "release_mask": release_mask,
        "abandon_mask": abandon_mask,
    }


# ----------------------------------------------------------------------
# Result object
# ----------------------------------------------------------------------
@dataclass
class ScenarioResult:
    """Per-trial attack outcomes plus aggregate statistics for one batch run.

    All per-trial arrays have shape ``(trials,)``.  The per-round record
    tensors (shape ``(trials, rounds)``) are retained only when the run was
    made with ``record_rounds=True``; the raw success-count tensors only
    with ``keep_traces=True``.
    """

    params: ProtocolParameters
    scenario: Scenario
    trials: int
    rounds: int
    draw_mode: str
    honest_delay: int
    releases: np.ndarray
    deepest_forks: np.ndarray
    orphaned_honest: np.ndarray
    abandons: np.ndarray
    withheld_final: np.ndarray
    final_public_heights: np.ndarray
    honest_blocks: np.ndarray
    adversary_blocks: np.ndarray
    convergence_opportunities: np.ndarray
    worst_deficits: np.ndarray
    public_heights: Optional[np.ndarray] = field(default=None, repr=False)
    private_heights: Optional[np.ndarray] = field(default=None, repr=False)
    release_mask: Optional[np.ndarray] = field(default=None, repr=False)
    abandon_mask: Optional[np.ndarray] = field(default=None, repr=False)
    decision_leads: Optional[np.ndarray] = field(default=None, repr=False)
    decision_fork_depths: Optional[np.ndarray] = field(default=None, repr=False)
    honest_counts: Optional[np.ndarray] = field(default=None, repr=False)
    adversary_counts: Optional[np.ndarray] = field(default=None, repr=False)
    #: Name of the delay model governing honest delivery, or ``None`` when
    #: the scenario's own constant ``honest_delay`` applied (the legacy path).
    delay_model: Optional[str] = None
    #: Rounds an adversarial release took to reach the honest miners (0 =
    #: the legacy perfectly-connected adversary; see ``AdversaryPlacement``).
    release_delay: int = 0
    #: Deepest suffix displaced at a partition heal, per trial (all zeros on
    #: the aggregate path — only the two-component scan can merge).
    merge_depths: Optional[np.ndarray] = field(default=None, repr=False)
    #: ``(trials, rounds, 2)`` per-component public heights, kept only by the
    #: two-component scan under ``record_rounds=True``.
    component_heights: Optional[np.ndarray] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Attack-success statistics
    # ------------------------------------------------------------------
    def attack_success_mask(self, depth: Optional[int] = None) -> np.ndarray:
        """Per-trial flags: the attack displaced a suffix at least this deep.

        ``depth`` defaults to the scenario's success depth (the withholding
        target for ``private_chain``, one orphaned block otherwise).
        """
        depth = self.scenario.success_depth if depth is None else depth
        if depth < 1:
            raise SimulationError(f"depth must be >= 1, got {depth!r}")
        return self.deepest_forks >= depth

    @property
    def attack_success_probability(self) -> float:
        """Fraction of trials in which the attack succeeded."""
        return float(self.attack_success_mask().mean())

    @property
    def attack_success_ci95(self) -> Tuple[float, float]:
        """Wilson score 95% interval for the attack-success probability.

        Proportion-valued over 0-1 outcomes, so it uses
        :func:`~repro.simulation.batch.proportion_confidence_interval`:
        all-failure and all-success batches report honest non-degenerate
        bounds instead of a zero-width normal interval.
        """
        mask = self.attack_success_mask()
        return proportion_confidence_interval(int(mask.sum()), mask.size)

    @property
    def mean_deepest_fork(self) -> float:
        """Batch mean of the per-trial deepest displaced suffix."""
        return float(self.deepest_forks.mean())

    @property
    def deepest_fork_ci95(self) -> Tuple[float, float]:
        """95% confidence interval for the mean deepest fork."""
        return _confidence_interval(self.deepest_forks)

    @property
    def max_deepest_fork(self) -> int:
        """Deepest displaced suffix across all trials."""
        return int(self.deepest_forks.max(initial=0))

    # ------------------------------------------------------------------
    # Chain statistics
    # ------------------------------------------------------------------
    @property
    def growth_rates(self) -> np.ndarray:
        """Per-trial public chain growth (blocks per round).

        Convention (audited against the legacy per-trial simulator, which
        labels rounds 1..rounds): ``final_public_heights`` includes the
        end-of-run network flush — blocks still in flight when mining stops
        are delivered before the height is read — and the denominator is the
        number of mining rounds.  This matches
        ``SimulationResult.growth_rate`` bit-for-bit; there is no off-by-one
        between the engines, and the golden test pins it.
        """
        return self.final_public_heights / self.rounds

    @property
    def empirical_convergence_rates(self) -> np.ndarray:
        """Per-trial convergence opportunities per round (compare to Eq. 44)."""
        return self.convergence_opportunities / self.rounds

    @property
    def lemma1_margins(self) -> np.ndarray:
        """Per-trial Lemma 1 margins ``C - A`` over the whole run."""
        return self.convergence_opportunities - self.adversary_blocks

    @property
    def lemma1_fraction(self) -> float:
        """Fraction of trials in which the Lemma 1 event ``C > A`` held."""
        return float((self.lemma1_margins > 0).mean())

    def release_rounds(self, trial: int) -> np.ndarray:
        """1-indexed rounds at which ``trial`` released a private chain."""
        if self.release_mask is None:
            raise SimulationError(
                "per-round records were not kept; run with record_rounds=True"
            )
        return np.nonzero(self.release_mask[trial])[0] + 1

    def abandon_rounds(self, trial: int) -> np.ndarray:
        """1-indexed rounds at which ``trial`` abandoned its private fork."""
        if self.abandon_mask is None:
            raise SimulationError(
                "per-round records were not kept; run with record_rounds=True"
            )
        return np.nonzero(self.abandon_mask[trial])[0] + 1

    def summary(self) -> Dict[str, object]:
        """A flat dictionary of the headline numbers (for tables)."""
        success_ci = self.attack_success_ci95
        fork_ci = self.deepest_fork_ci95
        return {
            "scenario": self.scenario.name,
            "trials": self.trials,
            "rounds": self.rounds,
            "c": self.params.c,
            "nu": self.params.nu,
            "delta": self.params.delta,
            "honest_delay": self.honest_delay,
            "attack_success_probability": self.attack_success_probability,
            "attack_success_ci95_low": success_ci[0],
            "attack_success_ci95_high": success_ci[1],
            "mean_deepest_fork": self.mean_deepest_fork,
            "deepest_fork_ci95_low": fork_ci[0],
            "deepest_fork_ci95_high": fork_ci[1],
            "max_deepest_fork": self.max_deepest_fork,
            "mean_releases": float(self.releases.mean()),
            "mean_abandons": float(self.abandons.mean()),
            "mean_orphaned_honest": float(self.orphaned_honest.mean()),
            "mean_growth_rate": float(self.growth_rates.mean()),
            "lemma1_fraction": self.lemma1_fraction,
            "delay_model": self.delay_model,
            "release_delay": self.release_delay,
            "mean_merge_depth": (
                0.0
                if self.merge_depths is None
                else float(self.merge_depths.mean())
            ),
        }


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class ScenarioSimulation:
    """NumPy-vectorized batch execution of one adversarial scenario.

    Parameters
    ----------
    params:
        Protocol parameters (``p``, ``n``, ``Δ``, ``nu``).
    scenario:
        A registry name (``"passive"``, ``"max_delay"``, ``"private_chain"``,
        ``"selfish_mining"``) or a :class:`Scenario` instance.
    rng:
        Source of randomness; the draw protocol is exactly
        :func:`~repro.simulation.batch.draw_traces`, so one seed
        determines the whole batch and the scripted-replay harness can
        regenerate it.
    draw_mode:
        ``"binomial"`` (default) or ``"bernoulli"``.
    delay_model:
        ``None`` (default) keeps the scenario's own constant
        ``honest_delay`` — the legacy, bit-exact path — unless the scenario
        itself schedules a network cut (a
        :class:`~repro.simulation.dynamics.PartitionScenario`), in which
        case the matching
        :class:`~repro.simulation.dynamics.TimeVaryingDelayModel` is built
        automatically.  A registry name or
        :class:`~repro.simulation.topology.DelayModel` instance replaces the
        adversary-chosen constant with structural per-block delivery offsets
        drawn from the model; ``"fixed_delta"`` is the constant-Δ worst
        case, bit-identical to the legacy path for every scenario whose
        honest delay is Δ (``max_delay`` and both withholding kinds).
        Time-varying models may exceed Δ inside adversarial windows; the
        delivery pipeline is sized from the model's
        :meth:`~repro.simulation.topology.DelayModel.delay_cap`.
    power:
        Optional heterogeneous
        :class:`~repro.simulation.topology.MiningPowerProfile`; validated
        against ``params`` before any draw.
    workspace:
        Optional :class:`~repro.backend.Workspace` of preallocated scratch
        buffers for the scan state; pass one workspace across repeated
        runs (as the runner does) and the scan loops stop allocating.
        Results never alias the workspace.  Like the batch engine, the
        ambient backend and dtype policy are bound at construction and
        results are converted to host NumPy at the boundary.
    placement:
        Optional :class:`~repro.simulation.dynamics.AdversaryPlacement`
        (any object with a ``release_delay(topology, delta)`` method and a
        ``kind``).  ``None`` or an ``instant`` placement keeps the legacy
        assumption that adversarial releases reach every honest miner in
        the release round; other placements make releases propagate through
        gossip from the adversary's graph position — the release lands
        ``release_delay`` rounds later, and the displaced suffix is
        measured when it lands.  Only meaningful for withholding scenarios
        (``publish`` kinds broadcast continuously and reject non-instant
        placements).

    Examples
    --------
    >>> from repro.params import parameters_from_c
    >>> params = parameters_from_c(c=1.0, n=400, delta=3, nu=0.4)
    >>> result = ScenarioSimulation(params, "private_chain", rng=0).run(16, 2_000)
    >>> result.releases.shape
    (16,)
    >>> 0.0 <= result.attack_success_probability <= 1.0
    True
    """

    def __init__(
        self,
        params: ProtocolParameters,
        scenario: Union[str, Scenario] = "passive",
        rng: SeedLike = None,
        draw_mode: str = "binomial",
        delay_model: Union[None, str, DelayModel] = None,
        power: Optional[MiningPowerProfile] = None,
        placement=None,
        workspace: Optional[Workspace] = None,
        allow_partial_partitions: bool = False,
    ):
        if draw_mode not in DRAW_MODES:
            raise SimulationError(
                f"draw_mode must be one of {DRAW_MODES}, got {draw_mode!r}"
            )
        self.backend = get_backend()
        self.policy = get_dtype_policy()
        self.workspace = workspace
        if workspace is not None:
            workspace.bind(self.backend)
        self.params = params
        self.scenario = get_scenario(scenario)
        # A PartitionScenario with a cut_fraction prices the cut as a real
        # two-component chain race (majority vs minority); everything else
        # takes the aggregate single-height scan.
        self._cut_fraction = getattr(self.scenario, "cut_fraction", None)
        if self.scenario.kind == "equivocation" and self._cut_fraction is None:
            raise SimulationError(
                "equivocation needs two network components to show "
                "conflicting chains to; set cut_fraction on the scenario"
            )
        if self._cut_fraction is not None:
            if self.scenario.kind not in PARTITION_KINDS:
                raise SimulationError(
                    f"partial partitions price kinds {PARTITION_KINDS}, got "
                    f"{self.scenario.kind!r}"
                )
            if delay_model is not None:
                raise SimulationError(
                    "partial-cut scenarios own their delivery semantics (the "
                    "two-component scan); an explicit delay_model cannot be "
                    "combined with cut_fraction"
                )
            self.delay_model = None
            self.honest_delay = self.scenario.resolved_honest_delay(
                params.delta
            )
            self._init_placement(placement)
            self.rng = resolve_rng(rng)
            self.draw_mode = draw_mode
            self.power = power
            if self.power is not None:
                self.power.validate_against(params)
            self.honest_miners = max(int(round(params.honest_count)), 1)
            return
        self.delay_model = resolve_delay_model(delay_model)
        if self.delay_model is None:
            # A scenario that schedules its own network cut supplies the
            # matching time-varying delay model (duck-typed so this module
            # does not need to import repro.simulation.dynamics).
            builder = getattr(self.scenario, "build_delay_model", None)
            if builder is not None:
                self.delay_model = builder()
        self._check_partial_partition_events(allow_partial_partitions)
        if self.delay_model is None:
            self.honest_delay = self.scenario.resolved_honest_delay(params.delta)
        else:
            # The model governs honest delivery; the Δ cap is the constant
            # bound every *static* draw respects (time-varying models widen
            # the pipeline via delay_cap at run time).
            self.honest_delay = params.delta
        self._init_placement(placement)
        self.rng = resolve_rng(rng)
        self.draw_mode = draw_mode
        self.power = power
        if self.power is not None:
            self.power.validate_against(params)
        self.honest_miners = max(int(round(params.honest_count)), 1)

    def _init_placement(self, placement) -> None:
        self.placement = placement
        if placement is None or placement.kind == "instant":
            self.release_delay = 0
            return
        if self.scenario.kind == "publish":
            raise SimulationError(
                "publish scenarios broadcast continuously; adversary "
                "placement applies only to withholding scenarios"
            )
        topology = getattr(self.delay_model, "topology", None)
        self.release_delay = int(
            placement.release_delay(topology, self.params.delta)
        )
        if not (0 <= self.release_delay <= self.params.delta):
            raise SimulationError(
                f"placement release delay {self.release_delay} lies "
                f"outside [0, {self.params.delta}]"
            )

    def _check_partial_partition_events(self, allow: bool) -> None:
        """Refuse to misprice a partial cut on the aggregate-height path.

        A ``PartitionEvent`` with an explicit node set leaves the remaining
        honest miners connected: two components, two chain races.  The
        aggregate scan tracks one public height, which is exact only for
        full eclipses, so routing a partial cut through it silently
        underprices the majority/minority race — price it with
        ``cut_fraction`` (the two-component scan) instead.  Pass
        ``allow_partial_partitions=True`` to accept the mispricing loudly.
        """
        schedule = getattr(self.delay_model, "schedule", None)
        if schedule is None or schedule.empty:
            return
        partial = [
            event.payload()
            for event in schedule.events
            if event.payload().get("kind") == "partition"
            and event.payload().get("nodes") is not None
        ]
        if not partial:
            return
        message = (
            f"{len(partial)} partition event(s) cut an explicit node set, "
            "leaving the rest of the network connected; the aggregate "
            "single-height scan misprices that two-component race. Use a "
            "PartitionScenario with cut_fraction to price it exactly, or "
            "pass allow_partial_partitions=True to proceed anyway."
        )
        if not allow:
            raise ValueError(message)
        warnings.warn(message, RuntimeWarning, stacklevel=3)

    def run(
        self,
        trials: int,
        rounds: int,
        keep_traces: bool = False,
        record_rounds: bool = False,
    ) -> ScenarioResult:
        """Draw fresh traces for ``trials`` independent runs and simulate them.

        The draw is :func:`~repro.simulation.batch.draw_traces`: honest
        tensor, adversarial tensor, then (non-trivial delay models only) the
        delay tensor — ``fixed_delta`` consumes no entropy, so its stream
        matches the legacy engine's exactly.  A partial-cut scenario has no
        delay model, so its third draw is the minority-split tensor: per
        round, ``Binomial(honest, cut_fraction)`` of the honest successes
        land in the minority component.
        """
        with _TRACE.span(
            "scenario.run",
            scenario=self.scenario.name,
            trials=int(trials),
            rounds=int(rounds),
            draw_mode=self.draw_mode,
        ):
            with _TRACE.span("scenario.draw"):
                honest, adversary, extra = draw_traces(
                    self.params,
                    trials,
                    rounds,
                    self.rng,
                    self.draw_mode,
                    power=self.power,
                    delay_model=self.delay_model,
                    cut_fraction=self._cut_fraction,
                    backend=self.backend,
                    policy=self.policy,
                )
            return self.run_traces(
                honest,
                adversary,
                keep_traces=keep_traces,
                record_rounds=record_rounds,
                **extra,
            )

    def run_traces(
        self,
        honest_counts: np.ndarray,
        adversary_counts: np.ndarray,
        keep_traces: bool = False,
        record_rounds: bool = False,
        delays: Optional[np.ndarray] = None,
        max_delay: Optional[int] = None,
        split_counts: Optional[np.ndarray] = None,
    ) -> ScenarioResult:
        """Simulate the scenario over pre-drawn ``(trials, rounds)`` tensors.

        This is the deterministic half of the engine — the half the scripted
        replay equivalence tests drive on both sides.  ``delays`` carries
        pre-drawn per-block honest delivery offsets; ``None`` uses the
        constant ``honest_delay``.  ``max_delay`` (default Δ) widens the
        validation cap and delivery pipeline for time-varying models whose
        adversarial windows exceed Δ.  ``split_counts`` (partial-cut
        scenarios only) carries the pre-drawn minority share of each round's
        honest successes; ``None`` keeps every honest success in the
        majority component.
        """
        xp = self.backend
        index_dtype = self.policy.index_dtype(xp)
        honest = xp.asarray(honest_counts, dtype=index_dtype)
        adversary = xp.asarray(adversary_counts, dtype=index_dtype)
        if honest.ndim != 2:
            raise SimulationError(
                f"honest_counts must have shape (trials, rounds), got {honest.shape}"
            )
        if honest.shape != adversary.shape:
            raise SimulationError(
                f"honest shape {honest.shape} does not match adversary shape "
                f"{adversary.shape}"
            )
        if (honest < 0).any() or (adversary < 0).any():
            raise SimulationError("success counts must be non-negative")
        trials, rounds = honest.shape
        if rounds < 1:
            raise SimulationError("rounds must be positive")
        self.policy.check_rounds(rounds)
        _METRICS.increment("engine.scenario.trials", trials)
        _METRICS.increment("engine.scenario.rounds", trials * rounds)
        cap = self.params.delta if max_delay is None else int(max_delay)
        if cap < self.params.delta:
            raise SimulationError(
                f"max_delay must be >= delta ({self.params.delta}), got "
                f"{max_delay!r}"
            )
        if delays is not None:
            delays = xp.asarray(delays, dtype=index_dtype)
            if delays.shape != honest.shape:
                raise SimulationError(
                    f"delays shape {delays.shape} does not match honest shape "
                    f"{honest.shape}"
                )
            if (delays < 0).any() or (delays > cap).any():
                raise SimulationError(f"delays must lie in [0, {cap}]")
        window = cap if delays is not None else self.honest_delay
        _require_attribution_feasible(
            honest, self.honest_miners, window, backend=xp, policy=self.policy
        )

        cut_windows: List[Tuple[int, int]] = []
        if self._cut_fraction is not None:
            if delays is not None:
                raise SimulationError(
                    "partial-cut scenarios have no delay model; delays "
                    "cannot be supplied"
                )
            cut_windows = list(self.scenario.partition_windows(rounds))
            if split_counts is None:
                split = xp.zeros(honest.shape, dtype=index_dtype)
            else:
                split = xp.asarray(split_counts, dtype=index_dtype)
                if split.shape != honest.shape:
                    raise SimulationError(
                        f"split_counts shape {split.shape} does not match "
                        f"honest shape {honest.shape}"
                    )
                if (split < 0).any() or (split > honest).any():
                    raise SimulationError(
                        "split_counts must lie in [0, honest_counts]"
                    )
            with _TRACE.span(
                "scenario.scan_partition", trials=trials, rounds=rounds
            ):
                state = self._scan_partition(
                    honest, adversary, split, record_rounds, windows=cut_windows
                )
        elif split_counts is not None:
            raise SimulationError(
                "split_counts applies only to partial-cut scenarios "
                "(PartitionScenario with cut_fraction set)"
            )
        else:
            with _TRACE.span("scenario.scan", trials=trials, rounds=rounds):
                state = self._scan(
                    honest, adversary, record_rounds, delays=delays, cap=cap
                )
        with _TRACE.span("scenario.mask", trials=trials, rounds=rounds):
            if delays is None:
                mask = fixed_delta_opportunity_mask(
                    honest, self.params.delta, backend=xp, policy=self.policy
                )
            else:
                mask = convergence_opportunity_mask_with_delays(
                    honest,
                    delays,
                    self.params.delta,
                    max_delay=cap,
                    backend=xp,
                    policy=self.policy,
                )
            # During a cut no round is a convergence opportunity — the honest
            # miners cannot all hear a unique block while the network is split
            # — so the Lemma 1 window accounting drops those columns entirely.
            for start, end in cut_windows:
                mask[:, start:end] = 0
        with _TRACE.span("scenario.deficits", trials=trials, rounds=rounds):
            deficits = worst_window_deficits(
                mask, adversary, backend=xp, policy=self.policy
            )
        return ScenarioResult(
            params=self.params,
            scenario=self.scenario,
            trials=trials,
            rounds=rounds,
            draw_mode=self.draw_mode,
            honest_delay=self.honest_delay,
            honest_blocks=xp.to_host(honest.sum(axis=1, dtype=index_dtype)),
            adversary_blocks=xp.to_host(adversary.sum(axis=1, dtype=index_dtype)),
            convergence_opportunities=xp.to_host(
                mask.sum(axis=1, dtype=index_dtype)
            ),
            worst_deficits=xp.to_host(deficits),
            honest_counts=xp.to_host(honest) if keep_traces else None,
            adversary_counts=xp.to_host(adversary) if keep_traces else None,
            delay_model=(
                None if self.delay_model is None else self.delay_model.name
            ),
            release_delay=self.release_delay,
            **state,
        )

    # ------------------------------------------------------------------
    # The round scan
    # ------------------------------------------------------------------
    def _scan(
        self,
        honest,
        adversary,
        record_rounds: bool,
        delays=None,
        cap: Optional[int] = None,
    ) -> Dict[str, Optional[np.ndarray]]:
        """One pass over rounds with all per-trial state as vectors.

        Mirrors :meth:`NakamotoSimulation.run` phase by phase; see the
        module docstring for the correspondence argument.  With ``delays``
        the constant-delay ring buffer is replaced by a ``(trials, cap+1)``
        schedule of arrival heights indexed by delivery round modulo
        ``cap+1`` (``cap`` is the model's delay cap, Δ for static models) —
        every pending delivery lies within ``cap`` rounds, so distinct
        pending delivery rounds always occupy distinct slots.

        A non-zero ``release_delay`` (placement-aware adversary) routes
        releases through a second ring: the released height and fork point
        travel ``release_delay`` rounds before merging into the public
        chain, and the displaced suffix is measured at landing — against
        the public height the honest miners actually reached by then.

        All scan state lives in workspace buffers (a private workspace when
        the engine was built without one), so repeated runs at one
        (trials, rounds) shape reuse their vectors and delivery rings;
        every array that escapes into the result is copied out first.  The
        decision flags stay boolean regardless of the dtype policy — the
        scan's ``~`` / ``&`` logic needs logical, not bitwise, semantics.
        """
        xp = self.backend
        workspace = self.workspace if self.workspace is not None else Workspace(xp)
        index_dtype = self.policy.index_dtype(xp)
        mask_dtype = self.policy.mask_dtype(xp)
        trials, rounds = honest.shape
        kind = self.scenario.kind
        delay = self.honest_delay
        delta = self.params.delta
        cap = delta if cap is None else int(cap)
        release_delay = self.release_delay if kind != "publish" else 0
        target_depth = self.scenario.target_depth
        give_up = self.scenario.give_up_deficit

        # Round-major copies make each round's column contiguous in the scan.
        honest_rows = xp.ascontiguousarray(honest.T)
        adversary_rows = xp.ascontiguousarray(adversary.T)
        delay_rows = (
            None if delays is None else xp.ascontiguousarray(delays.T)
        )

        public = workspace.zeros("scan.public", (trials,), index_dtype)
        private = workspace.zeros("scan.private", (trials,), index_dtype)
        fork = workspace.zeros("scan.fork", (trials,), index_dtype)
        active = workspace.zeros("scan.active", (trials,), xp.bool_)
        withheld = workspace.zeros("scan.withheld", (trials,), index_dtype)
        releases = workspace.zeros("scan.releases", (trials,), index_dtype)
        abandons = workspace.zeros("scan.abandons", (trials,), index_dtype)
        deepest = workspace.zeros("scan.deepest", (trials,), index_dtype)
        orphaned = workspace.zeros("scan.orphaned", (trials,), index_dtype)
        no_release = workspace.zeros("scan.no_release", (trials,), xp.bool_)
        # Per-round temporaries live in the workspace too, so the steady
        # state of the round loop performs no allocation at all.  Flags stay
        # boolean (never the policy mask dtype): the logic needs logical
        # semantics, and the buffers never escape into results.
        some_honest = workspace.empty("scan.some_honest", (trials,), xp.bool_)
        mined_height = workspace.empty("scan.mined_height", (trials,), index_dtype)
        flag = workspace.empty("scan.flag", (trials,), xp.bool_)
        scratch = workspace.empty("scan.scratch", (trials,), index_dtype)
        some_adversary = workspace.empty("scan.some_adversary", (trials,), xp.bool_)
        starting = workspace.empty("scan.starting", (trials,), xp.bool_)
        lead = workspace.empty("scan.lead", (trials,), index_dtype)
        depth = workspace.empty("scan.depth", (trials,), index_dtype)
        released_flags = workspace.empty("scan.released", (trials,), xp.bool_)
        abandoned_flags = workspace.empty("scan.abandoned", (trials,), xp.bool_)
        keep = workspace.empty("scan.keep", (trials,), xp.bool_)
        # Scheduled arrival heights for in-flight honest blocks: slot r % delay
        # holds the height mined at round r, due at the start of round r+delay.
        ring = None
        schedule = None
        if delay_rows is not None:
            schedule = workspace.zeros(
                "scan.schedule", (trials, cap + 1), index_dtype
            )
        elif delay >= 1:
            ring = workspace.zeros("scan.ring", (trials, delay), index_dtype)
        # In-flight adversarial releases (placement-aware adversaries): the
        # slot being delivered this round is the one refilled afterwards, so
        # at most one pending release ever occupies a slot.
        release_heights = None
        release_forks = None
        if release_delay >= 1:
            release_heights = workspace.zeros(
                "scan.release_heights", (trials, release_delay), index_dtype
            )
            release_forks = workspace.zeros(
                "scan.release_forks", (trials, release_delay), index_dtype
            )

        if record_rounds:
            # Record tensors escape into the result, so they are allocated
            # fresh rather than drawn from the workspace.
            public_record = xp.zeros((trials, rounds), dtype=index_dtype)
            private_record = xp.zeros((trials, rounds), dtype=index_dtype)
            release_record = xp.zeros((trials, rounds), dtype=mask_dtype)
            abandon_record = xp.zeros((trials, rounds), dtype=mask_dtype)
            lead_record = xp.zeros((trials, rounds), dtype=index_dtype)
            depth_record = xp.zeros((trials, rounds), dtype=index_dtype)

        for index in range(rounds):
            mined_honest = honest_rows[index]
            mined_adversary = adversary_rows[index]

            # 1. Start-of-round deliveries: blocks mined `delay` rounds ago
            #    (constant path), or whatever the schedule holds for this
            #    delivery round (delay-model path).
            if ring is not None:
                slot = index % delay
                xp.maximum(public, ring[:, slot], out=public)
            elif schedule is not None:
                slot = index % (cap + 1)
                xp.maximum(public, schedule[:, slot], out=public)
                schedule[:, slot] = 0

            # 1b. Landing of in-flight adversarial releases: the displaced
            #     suffix is measured against the public height the honest
            #     miners actually reached while the release gossiped.
            if release_heights is not None:
                release_slot = index % release_delay
                landing = release_heights[:, release_slot]
                if landing.any():
                    displaced = landing > public
                    landed_depth = xp.where(
                        displaced, public - release_forks[:, release_slot], 0
                    )
                    if kind == "selfish_mining":
                        orphaned += landed_depth
                    xp.maximum(deepest, landed_depth, out=deepest)
                    xp.maximum(public, landing, out=public)
                    release_heights[:, release_slot] = 0
                    release_forks[:, release_slot] = 0

            # 2. Honest mining on the delivered public chain; delayed blocks
            #    enter the pipeline, zero-delay blocks land at end of round.
            xp.greater(mined_honest, 0, out=some_honest)
            xp.add(public, 1, out=mined_height)
            if ring is not None:
                xp.multiply(mined_height, some_honest, out=ring[:, slot])
            elif schedule is not None:
                round_delays = delay_rows[index]
                xp.greater(round_delays, 0, out=flag)
                xp.logical_and(some_honest, flag, out=flag)
                pipelined = xp.nonzero(flag)[0]
                if pipelined.size:
                    # Same-delivery-round collisions overwrite an older,
                    # never-larger height (public is monotone), so plain
                    # scatter assignment keeps the schedule's maximum.
                    schedule[
                        pipelined, (index + round_delays[pipelined]) % (cap + 1)
                    ] = mined_height[pipelined]

            # 3. Adversarial mining: extend the private tip, or fork from the
            #    public tip if no private chain exists.
            if kind == "publish":
                # Freshly mined blocks are published at end of round: the
                # public chain absorbs the whole sequential run of successes.
                released = no_release
                abandoned = no_release
                public += mined_adversary
            else:
                xp.greater(mined_adversary, 0, out=some_adversary)
                xp.logical_not(active, out=starting)
                xp.logical_and(some_adversary, starting, out=starting)
                xp.copyto(fork, public, where=starting)
                xp.copyto(private, public, where=starting)
                private += mined_adversary
                withheld += mined_adversary
                active |= some_adversary

                # 4. Release decision against the pre-release public height.
                # Note an inactive trial has private = fork = 0, so lead > 0
                # (and lead in {0, 1} with public > 0) already implies active.
                xp.subtract(private, public, out=lead)
                xp.subtract(public, fork, out=depth)
                if kind == "private_chain":
                    if give_up is not None:
                        xp.less_equal(lead, -give_up, out=abandoned_flags)
                        xp.logical_and(abandoned_flags, active, out=abandoned_flags)
                        abandoned = abandoned_flags
                    else:
                        abandoned = no_release
                    # Released and abandoned are mutually exclusive: release
                    # needs lead > 0, abandonment needs lead <= -give_up.
                    xp.greater(lead, 0, out=released_flags)
                    xp.greater_equal(depth, target_depth, out=flag)
                    xp.logical_and(released_flags, flag, out=released_flags)
                    released = released_flags
                    if release_heights is None:
                        xp.multiply(depth, released, out=scratch)
                        xp.maximum(deepest, scratch, out=deepest)
                else:  # selfish_mining
                    xp.less_equal(lead, -1, out=abandoned_flags)
                    xp.logical_and(abandoned_flags, active, out=abandoned_flags)
                    abandoned = abandoned_flags
                    xp.greater_equal(lead, 0, out=released_flags)
                    xp.less_equal(lead, 1, out=flag)
                    xp.logical_and(released_flags, flag, out=released_flags)
                    xp.logical_and(released_flags, active, out=released_flags)
                    released = released_flags
                    if release_heights is None:
                        orphan = xp.multiply(depth, released, out=scratch)
                        orphaned += orphan
                        xp.maximum(deepest, orphan, out=deepest)
                releases += released
                abandons += abandoned
                if release_heights is None:
                    # A release always publishes a chain at least as high as
                    # the public one, displacing (or tying) the public suffix.
                    xp.copyto(public, private, where=released)
                else:
                    # The release gossips from the adversary's graph position;
                    # its displacement is accounted when it lands.
                    xp.copyto(
                        release_heights[:, release_slot], private, where=released
                    )
                    xp.copyto(
                        release_forks[:, release_slot], fork, where=released
                    )
                xp.logical_or(released, abandoned, out=keep)
                xp.logical_not(keep, out=keep)
                private *= keep
                fork *= keep
                withheld *= keep
                active &= keep

            # 5. End-of-round delivery of zero-delay honest broadcasts.
            if delay_rows is not None:
                xp.equal(round_delays, 0, out=flag)
                immediate = xp.logical_and(some_honest, flag, out=flag)
                if immediate.any():
                    xp.multiply(mined_height, immediate, out=scratch)
                    xp.maximum(public, scratch, out=public)
            elif delay == 0:
                xp.multiply(mined_height, some_honest, out=scratch)
                xp.maximum(public, scratch, out=public)

            if record_rounds:
                public_record[:, index] = public
                private_record[:, index] = private
                release_record[:, index] = released
                abandon_record[:, index] = abandoned
                if kind != "publish":
                    lead_record[:, index] = lead
                    depth_record[:, index] = depth

        # Network flush: every in-flight honest block eventually arrives, as
        # does every in-flight adversarial release (its displaced depth is
        # not tallied — the run ended before the network saw it land).
        final = xp.copy(public)
        if ring is not None:
            xp.maximum(final, ring.max(axis=1), out=final)
        elif schedule is not None:
            xp.maximum(final, schedule.max(axis=1), out=final)
        if release_heights is not None:
            xp.maximum(final, release_heights.max(axis=1), out=final)

        # Escaping per-trial vectors are copied out of the workspace; the
        # per-round record tensors are already freshly owned.
        return {
            "releases": xp.to_host(xp.copy(releases)),
            "abandons": xp.to_host(xp.copy(abandons)),
            "deepest_forks": xp.to_host(xp.copy(deepest)),
            "orphaned_honest": xp.to_host(xp.copy(orphaned)),
            "withheld_final": xp.to_host(xp.copy(withheld)),
            "final_public_heights": xp.to_host(final),
            "public_heights": xp.to_host(public_record) if record_rounds else None,
            "private_heights": xp.to_host(private_record) if record_rounds else None,
            "release_mask": xp.to_host(release_record) if record_rounds else None,
            "abandon_mask": xp.to_host(abandon_record) if record_rounds else None,
            "decision_leads": xp.to_host(lead_record) if record_rounds else None,
            "decision_fork_depths": (
                xp.to_host(depth_record) if record_rounds else None
            ),
            # The aggregate path never splits, so it never merges.
            "merge_depths": xp.to_host(
                xp.zeros((trials,), dtype=index_dtype)
            ),
            "component_heights": None,
        }

    def _scan_partition(
        self,
        honest,
        adversary,
        split,
        record_rounds: bool,
        windows: Sequence[Tuple[int, int]],
    ) -> Dict[str, Optional[np.ndarray]]:
        """The two-component scan: per-component chains during cut windows.

        Vectorized counterpart of :func:`reference_partition_scan` (the
        equivalence tests pin the two bit-exactly).  Component 0 is the
        majority, component 1 the minority; outside every window only
        component 0 exists and the round body is exactly :meth:`_scan`'s
        constant-delay path, so an empty window list is bit-identical to the
        aggregate engine.  ``windows`` holds disjoint sorted ``[start, end)``
        cut rounds — global, not per trial, so the cut/merge phases are
        static branches over vector state.
        """
        xp = self.backend
        workspace = self.workspace if self.workspace is not None else Workspace(xp)
        index_dtype = self.policy.index_dtype(xp)
        mask_dtype = self.policy.mask_dtype(xp)
        trials, rounds = honest.shape
        kind = self.scenario.kind
        delay = self.honest_delay
        if delay < 1:
            raise SimulationError(
                f"the two-component scan needs honest delay >= 1, got {delay}"
            )
        release_delay = self.release_delay
        target_depth = self.scenario.target_depth
        give_up = self.scenario.give_up_deficit
        equivocating = kind == "equivocation"

        window_list = sorted((int(s), int(e)) for s, e in windows)
        starts = {s: e for s, e in window_list if s < rounds}

        honest_rows = xp.ascontiguousarray(honest.T)
        adversary_rows = xp.ascontiguousarray(adversary.T)
        split_rows = xp.ascontiguousarray(split.T)

        def pair(tag, shape=(trials,), dtype=index_dtype):
            return [
                workspace.zeros(f"scan2.{tag}0", shape, dtype),
                workspace.zeros(f"scan2.{tag}1", shape, dtype),
            ]

        pub = pair("public")
        ring = pair("ring", (trials, delay))
        priv = pair("private")
        fork = pair("fork")
        active = pair("active", dtype=xp.bool_)
        withheld = pair("withheld")
        rel_h = rel_f = None
        if release_delay >= 1:
            rel_h = pair("release_heights", (trials, release_delay))
            rel_f = pair("release_forks", (trials, release_delay))
        common = workspace.zeros("scan2.common", (trials,), index_dtype)
        releases = workspace.zeros("scan2.releases", (trials,), index_dtype)
        abandons = workspace.zeros("scan2.abandons", (trials,), index_dtype)
        deepest = workspace.zeros("scan2.deepest", (trials,), index_dtype)
        orphaned = workspace.zeros("scan2.orphaned", (trials,), index_dtype)
        merge_depth = workspace.zeros("scan2.merge_depth", (trials,), index_dtype)
        no_release = workspace.zeros("scan2.no_release", (trials,), xp.bool_)

        if record_rounds:
            public_record = xp.zeros((trials, rounds), dtype=index_dtype)
            private_record = xp.zeros((trials, rounds), dtype=index_dtype)
            release_record = xp.zeros((trials, rounds), dtype=mask_dtype)
            abandon_record = xp.zeros((trials, rounds), dtype=mask_dtype)
            lead_record = xp.zeros((trials, rounds), dtype=index_dtype)
            depth_record = xp.zeros((trials, rounds), dtype=index_dtype)
            component_record = xp.zeros((trials, rounds, 2), dtype=index_dtype)

        cut = False
        cut_end = -1
        for index in range(rounds):
            # 0a. Merge-on-heal: max height wins; the losing component's
            #     suffix above the frozen common prefix is displaced.
            if cut and index == cut_end:
                # The winner mask must be read before pub[0] absorbs the max.
                won1 = pub[1] > pub[0]
                displaced = xp.minimum(pub[0], pub[1]) - common
                xp.maximum(merge_depth, displaced, out=merge_depth)
                xp.maximum(deepest, displaced, out=deepest)
                xp.maximum(pub[0], pub[1], out=pub[0])
                xp.maximum(ring[0], ring[1], out=ring[0])
                if rel_h is not None:
                    higher = rel_h[1] > rel_h[0]
                    xp.copyto(rel_h[0], rel_h[1], where=higher)
                    xp.copyto(rel_f[0], rel_f[1], where=higher)
                if equivocating:
                    # The chain racing the winning component survives; the
                    # loser's chain forked from a displaced branch and is
                    # dropped without an abandon tally.
                    xp.copyto(priv[0], priv[1], where=won1)
                    xp.copyto(fork[0], fork[1], where=won1)
                    xp.copyto(active[0], active[1], where=won1)
                    xp.copyto(withheld[0], withheld[1], where=won1)
                    priv[1][:] = 0
                    fork[1][:] = 0
                    withheld[1][:] = 0
                    active[1][:] = False
                cut = False
                common[:] = 0
            # 0b. Cut entry: both components start from the merged state and
            #     the common prefix freezes at the pre-cut public height.
            if not cut and index in starts:
                cut = True
                cut_end = starts[index]
                pub[1][:] = pub[0]
                ring[1][:] = ring[0]
                if rel_h is not None:
                    rel_h[1][:] = rel_h[0]
                    rel_f[1][:] = rel_f[0]
                common[:] = pub[0]
                if equivocating:
                    priv[1][:] = priv[0]
                    fork[1][:] = fork[0]
                    active[1][:] = active[0]
                    withheld[1][:] = withheld[0]

            mined_honest = honest_rows[index]
            mined_adversary = adversary_rows[index]
            components = (0, 1) if cut else (0,)

            # 1. Start-of-round ring deliveries, per component.
            slot = index % delay
            for c in components:
                xp.maximum(pub[c], ring[c][:, slot], out=pub[c])

            # 1b. Landing of in-flight adversarial releases.
            if rel_h is not None:
                release_slot = index % release_delay
                if equivocating and cut:
                    # Conflicting releases: each lands on its own side only
                    # and never advances the common prefix.
                    for c in components:
                        landing = rel_h[c][:, release_slot]
                        if landing.any():
                            displaced = landing > pub[c]
                            landed = xp.where(
                                displaced,
                                pub[c] - rel_f[c][:, release_slot],
                                0,
                            )
                            xp.maximum(deepest, landed, out=deepest)
                            xp.maximum(pub[c], landing, out=pub[c])
                            rel_h[c][:, release_slot] = 0
                            rel_f[c][:, release_slot] = 0
                else:
                    # Single-chain release, mirrored into both rings during
                    # a cut: the adversary spans the cut and lands
                    # everywhere at once.
                    landing = rel_h[0][:, release_slot]
                    if landing.any():
                        landed = workspace.zeros(
                            "scan2.landed", (trials,), index_dtype
                        )
                        displaced_all = None
                        for c in components:
                            displaced = landing > pub[c]
                            xp.maximum(
                                landed,
                                xp.where(
                                    displaced,
                                    pub[c] - rel_f[c][:, release_slot],
                                    0,
                                ),
                                out=landed,
                            )
                            displaced_all = (
                                displaced
                                if displaced_all is None
                                else displaced_all & displaced
                            )
                        if kind == "selfish_mining":
                            orphaned += landed
                        xp.maximum(deepest, landed, out=deepest)
                        if cut:
                            # Displacing both sides re-converges them on the
                            # released chain.
                            xp.copyto(common, landing, where=displaced_all)
                        # `landing` aliases component 0's ring slot, so the
                        # slots are cleared only after every component read it.
                        for c in components:
                            xp.maximum(pub[c], landing, out=pub[c])
                        for c in components:
                            rel_h[c][:, release_slot] = 0
                            rel_f[c][:, release_slot] = 0

            # 2. Honest mining: the minority component mines the split
            #    share; each component's successes sit above its own tip.
            if cut:
                minority = split_rows[index]
                counts = [mined_honest - minority, minority]
            else:
                counts = [mined_honest]
            for c in components:
                xp.multiply(pub[c] + 1, counts[c] > 0, out=ring[c][:, slot])

            # 3/4. Adversarial mining and the release decision.
            if equivocating and cut:
                # Feed the weaker race: the whole round's successes extend
                # the chain with the smaller lead (minority on a full tie).
                lead0 = priv[0] - pub[0]
                lead1 = priv[1] - pub[1]
                choose1 = (lead1 < lead0) | ((lead1 == lead0) & (pub[1] < pub[0]))
                allocation = [
                    mined_adversary * ~choose1,
                    mined_adversary * choose1,
                ]
                released_any = no_release
                abandoned_any = no_release
                for c in (0, 1):
                    some = allocation[c] > 0
                    starting = some & ~active[c]
                    xp.copyto(fork[c], pub[c], where=starting)
                    xp.copyto(priv[c], pub[c], where=starting)
                    priv[c] += allocation[c]
                    withheld[c] += allocation[c]
                    active[c] |= some
                    lead = priv[c] - pub[c]
                    depth = pub[c] - fork[c]
                    released = (lead > 0) & (depth >= target_depth)
                    if give_up is not None:
                        abandoned = (lead <= -give_up) & active[c]
                    else:
                        abandoned = no_release
                    releases += released
                    abandons += abandoned
                    if rel_h is None:
                        xp.maximum(deepest, depth * released, out=deepest)
                        xp.copyto(pub[c], priv[c], where=released)
                    else:
                        xp.copyto(
                            rel_h[c][:, release_slot], priv[c], where=released
                        )
                        xp.copyto(
                            rel_f[c][:, release_slot], fork[c], where=released
                        )
                    keep = ~(released | abandoned)
                    priv[c] *= keep
                    fork[c] *= keep
                    withheld[c] *= keep
                    active[c] &= keep
                    released_any = released_any | released
                    abandoned_any = abandoned_any | abandoned
                released = released_any
                abandoned = abandoned_any
                lead = xp.maximum(priv[0] - pub[0], priv[1] - pub[1])
                depth = xp.maximum(pub[0] - fork[0], pub[1] - fork[1])
            else:
                # Single private chain racing the best public chain in view.
                best = xp.maximum(pub[0], pub[1]) if cut else pub[0]
                some_adversary = mined_adversary > 0
                starting = some_adversary & ~active[0]
                xp.copyto(fork[0], best, where=starting)
                xp.copyto(priv[0], best, where=starting)
                priv[0] += mined_adversary
                withheld[0] += mined_adversary
                active[0] |= some_adversary
                lead = priv[0] - best
                depth = best - fork[0]
                if kind == "selfish_mining":
                    abandoned = (lead <= -1) & active[0]
                    released = (lead >= 0) & (lead <= 1) & active[0]
                    if rel_h is None:
                        orphan = depth * released
                        orphaned += orphan
                        xp.maximum(deepest, orphan, out=deepest)
                else:
                    if give_up is not None:
                        abandoned = (lead <= -give_up) & active[0]
                    else:
                        abandoned = no_release
                    released = (lead > 0) & (depth >= target_depth)
                    if rel_h is None:
                        xp.maximum(deepest, depth * released, out=deepest)
                releases += released
                abandons += abandoned
                if rel_h is None:
                    for c in components:
                        xp.copyto(pub[c], priv[0], where=released)
                    if cut:
                        # One chain adopted by both sides: the components
                        # re-converge on the private chain.
                        xp.copyto(common, priv[0], where=released)
                else:
                    for c in components:
                        xp.copyto(
                            rel_h[c][:, release_slot], priv[0], where=released
                        )
                        xp.copyto(
                            rel_f[c][:, release_slot], fork[0], where=released
                        )
                keep = ~(released | abandoned)
                priv[0] *= keep
                fork[0] *= keep
                withheld[0] *= keep
                active[0] &= keep

            if record_rounds:
                top = xp.maximum(pub[0], pub[1]) if cut else pub[0]
                public_record[:, index] = top
                private_record[:, index] = (
                    xp.maximum(priv[0], priv[1])
                    if (equivocating and cut)
                    else priv[0]
                )
                release_record[:, index] = released
                abandon_record[:, index] = abandoned
                lead_record[:, index] = lead
                depth_record[:, index] = depth
                component_record[:, index, 0] = pub[0]
                component_record[:, index, 1] = pub[1] if cut else pub[0]

        # Network flush: in-flight honest blocks and adversarial releases
        # all arrive eventually; a window still open at the end of the run
        # never merges — like a release the run ended before the network
        # saw land, its displaced depth is not tallied.
        final = xp.copy(pub[0])
        withheld_final = xp.copy(withheld[0])
        for c in (0, 1) if cut else (0,):
            xp.maximum(final, pub[c], out=final)
            xp.maximum(final, ring[c].max(axis=1), out=final)
            if rel_h is not None:
                xp.maximum(final, rel_h[c].max(axis=1), out=final)
        if cut:
            xp.maximum(withheld_final, withheld[1], out=withheld_final)

        return {
            "releases": xp.to_host(xp.copy(releases)),
            "abandons": xp.to_host(xp.copy(abandons)),
            "deepest_forks": xp.to_host(xp.copy(deepest)),
            "orphaned_honest": xp.to_host(xp.copy(orphaned)),
            "withheld_final": xp.to_host(withheld_final),
            "final_public_heights": xp.to_host(final),
            "public_heights": xp.to_host(public_record) if record_rounds else None,
            "private_heights": xp.to_host(private_record) if record_rounds else None,
            "release_mask": xp.to_host(release_record) if record_rounds else None,
            "abandon_mask": xp.to_host(abandon_record) if record_rounds else None,
            "decision_leads": xp.to_host(lead_record) if record_rounds else None,
            "decision_fork_depths": (
                xp.to_host(depth_record) if record_rounds else None
            ),
            "merge_depths": xp.to_host(xp.copy(merge_depth)),
            "component_heights": (
                xp.to_host(component_record) if record_rounds else None
            ),
        }
