"""Round-based simulation of Nakamoto's protocol in the Δ-delay model.

This subpackage is the synthetic substrate for the paper's model (Section
III): the paper itself is analytical, so the simulator exists to *exercise*
the same model the analysis is about — counting convergence opportunities and
adversarial blocks (the two sides of Lemma 1), measuring consistency
violations under withholding attacks, and validating the Markov-chain
expressions (Eqs. 26-27 and 44) empirically.

Components
----------
``block`` / ``blocktree``
    Blocks, block trees, longest-chain selection and prefix predicates.
``oracle``
    The random-oracle mining model (one query per honest miner per round).
``network``
    The Δ-delay adversarial message scheduler.
``miners``
    The honest population's shared view and per-creator private knowledge.
``adversary``
    Strategies: passive, maximum-delay, and the private-chain withholding
    attack of PSS Remark 8.5.
``events``
    Round records and the streaming convergence-opportunity detector.
``metrics``
    Consistency (Definition 1), chain growth and chain quality.
``protocol``
    The :class:`NakamotoSimulation` driver and its result object.
``batch``
    The NumPy-vectorized batch Monte Carlo engine: ``T`` independent trials
    executed simultaneously as array operations, with per-trial Lemma 1
    statistics and batch-level mean/CI aggregates.
``scenarios``
    The vectorized adversarial scenario engine: named attack scenarios
    (``passive``, ``max_delay``, ``private_chain``, ``selfish_mining``)
    executed for ``T`` trials at once as ``(trials,)`` state vectors —
    private-fork leads, pending-release masks, Δ-capped delivery pipelines —
    bit-comparable to the legacy simulator under scripted replay.
``topology``
    Heterogeneous network structure: the delay-model registry
    (``fixed_delta``, ``uniform``, ``truncated_geometric``, ``peer_graph``)
    drawing per-block delivery offsets capped at Δ, peer-graph gossip
    propagation with a vectorized min-plus kernel and effective-Δ
    estimation, and per-miner :class:`MiningPowerProfile` success
    probabilities — all threaded through both engines with fixed-Δ as the
    bit-exact default.
``dynamics``
    Time-varying network dynamics: round-indexed :class:`DynamicsSchedule`
    events (peer churn, latency drift, bounded-window partitions and full
    eclipses) compiled into per-round delivery tensors, the
    :class:`TimeVaryingDelayModel` feeding them to both engines (empty
    schedules stay bit-identical to the static subsystem), partition and
    eclipse attack scenarios where the adversary schedules the cut itself,
    and :class:`AdversaryPlacement` — corrupted miners positioned on the
    gossip graph whose releases propagate instead of landing instantly.
    :class:`PartitionScenario` with ``cut_fraction`` prices *partial* cuts
    with the two-component scan (per-component public chains, merge-on-heal
    reconciliation, pinned bit-exactly to
    :func:`reference_partition_scan`), including the ``equivocation``
    family where the adversary shows conflicting private chains to the two
    components.
``streaming``
    The O(chunk)-memory streaming trial engine: the same dense batch and
    scenario kernels driven in fixed-cell chunks through online
    accumulators (exact integer tallies, Chan/Kahan float moments, a
    bounded worst-deficit histogram), producing summary-only results whose
    entries match the dense ``summary()`` exactly for integer-backed
    statistics and within :data:`~repro.simulation.streaming.STREAM_STAT_RTOL`
    for float moments.  Seeding is chunk-invariant: trials are carved into
    fixed ``SEED_BLOCK_CELLS``-cell seed blocks, each drawn from its own
    spawned :class:`numpy.random.SeedSequence`, so one seed produces one
    bit stream regardless of chunk size or serial-versus-sharded execution.
``rare_events``
    Rare-event estimation of deep violation tails: exponential tilting of
    the Bernoulli/Binomial mining draws with exact (stopped) per-trial
    likelihood ratios and a cross-entropy pilot stage, plus multilevel
    splitting on the worst windowed A-C deficit — reaching violation
    probabilities of ``1e-9`` and below with bounded relative error, where
    plain Monte Carlo bottoms out around ``1e-6``.
``experiment``
    :class:`Experiment`: the frozen description of one seeded, cached point
    — parameters, shape, and whichever of scenario, delay model or dynamics
    schedule, power profile, placement, :class:`RareEvent` estimator spec
    or streaming depths it uses.  The fields that are set pick the engine,
    and the spec's version-free payload is the point's seed and cache
    identity.
``runner``
    :class:`ExperimentRunner`: one run path for every spec —
    :meth:`~ExperimentRunner.run` executes (or fetches from the on-disk
    cache) one point, :meth:`~ExperimentRunner.run_many` a list of them,
    serially or sharded over a process pool for every kind of point.  The
    ``run_*`` / ``run_*_grid`` methods are thin wrappers building specs for
    batch points, (point, scenario) pairs, (point, delay model) topology
    runs, (point, schedule) dynamics runs, estimator-aware rare-event
    points and streamed points.
``rng``
    The single-generator seeding discipline (:func:`resolve_rng`,
    :func:`spawn_rngs`) threaded through every stochastic component.
"""

from .adversary import (
    AdversaryStrategy,
    EquivocationAdversary,
    MaxDelayAdversary,
    PassiveAdversary,
    PrivateChainAdversary,
    SelfishMiningAdversary,
)
from .block import GENESIS_ID, Block, genesis_block
from .blocktree import BlockTree, common_prefix_length, is_prefix_up_to
from .events import ConvergenceOpportunityDetector, RoundRecord
from .metrics import (
    ConsistencyReport,
    chain_growth_rate,
    chain_quality,
    consistency_report,
    consistency_violation_depth,
)
from .batch import (
    BatchResult,
    BatchSimulation,
    convergence_opportunity_mask,
    count_convergence_opportunities_batch,
    draw_mining_traces,
    draw_traces,
    worst_window_deficits,
)
from .miners import HonestPopulation
from .rare_events import (
    RARE_EVENT_METHODS,
    ExponentialTilt,
    RareEventResult,
    RareEventSimulation,
    cross_entropy_tilt,
    draw_tilted_traces,
    log_likelihood_ratios,
)
from .network import DeltaDelayNetwork, InFlightMessage
from .oracle import MiningOracle, ScriptedMiningOracle
from .protocol import NakamotoSimulation, SimulationResult
from .rng import resolve_rng, spawn_rngs
from .experiment import Experiment, RareEvent
from .runner import ENGINE_VERSION, ExperimentRunner
from .topology import (
    DelayModel,
    FixedDeltaDelayModel,
    MiningPowerProfile,
    PeerGraphDelayModel,
    PeerGraphTopology,
    TruncatedGeometricDelayModel,
    UniformDelayModel,
    convergence_opportunity_mask_with_delays,
    delay_model_specs,
    get_delay_model,
    list_delay_models,
    reference_draw_delays,
    register_delay_model,
    resolve_delay_model,
)
from .dynamics import (
    PLACEMENT_KINDS,
    AdversaryPlacement,
    ChurnEvent,
    CompiledSchedule,
    DynamicsSchedule,
    LatencyDriftEvent,
    PartitionEvent,
    PartitionScenario,
    TimeVaryingDelayModel,
    compile_eclipse_offsets,
    compile_schedule,
    list_placements,
    partition_windows,
    reference_compile_schedule,
)
from .streaming import (
    SEED_BLOCK_CELLS,
    STREAM_STAT_RTOL,
    DeficitHistogram,
    OnlineMoments,
    ScenarioStreamingAccumulator,
    StreamingAccumulator,
    StreamingBatchResult,
    StreamingBatchSimulation,
    StreamingScenarioResult,
    StreamingScenarioSimulation,
    seed_block_trials,
)
from .scenarios import (
    SCENARIO_KINDS,
    Scenario,
    ScenarioResult,
    ScenarioSimulation,
    get_scenario,
    list_scenarios,
    reference_partition_scan,
    register_scenario,
    rotating_honest_attribution,
)

__all__ = [
    "Block",
    "GENESIS_ID",
    "genesis_block",
    "BlockTree",
    "common_prefix_length",
    "is_prefix_up_to",
    "MiningOracle",
    "DeltaDelayNetwork",
    "InFlightMessage",
    "HonestPopulation",
    "AdversaryStrategy",
    "PassiveAdversary",
    "MaxDelayAdversary",
    "PrivateChainAdversary",
    "EquivocationAdversary",
    "SelfishMiningAdversary",
    "RoundRecord",
    "ConvergenceOpportunityDetector",
    "ConsistencyReport",
    "consistency_report",
    "consistency_violation_depth",
    "chain_growth_rate",
    "chain_quality",
    "NakamotoSimulation",
    "SimulationResult",
    "ScriptedMiningOracle",
    "BatchSimulation",
    "BatchResult",
    "draw_mining_traces",
    "draw_traces",
    "convergence_opportunity_mask",
    "count_convergence_opportunities_batch",
    "worst_window_deficits",
    "RARE_EVENT_METHODS",
    "ExponentialTilt",
    "RareEventResult",
    "RareEventSimulation",
    "cross_entropy_tilt",
    "draw_tilted_traces",
    "log_likelihood_ratios",
    "Experiment",
    "ExperimentRunner",
    "ENGINE_VERSION",
    "RareEvent",
    "SCENARIO_KINDS",
    "Scenario",
    "ScenarioResult",
    "ScenarioSimulation",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "reference_partition_scan",
    "rotating_honest_attribution",
    "resolve_rng",
    "spawn_rngs",
    "DelayModel",
    "FixedDeltaDelayModel",
    "UniformDelayModel",
    "TruncatedGeometricDelayModel",
    "PeerGraphDelayModel",
    "PeerGraphTopology",
    "MiningPowerProfile",
    "register_delay_model",
    "get_delay_model",
    "list_delay_models",
    "delay_model_specs",
    "resolve_delay_model",
    "reference_draw_delays",
    "convergence_opportunity_mask_with_delays",
    "ChurnEvent",
    "LatencyDriftEvent",
    "PartitionEvent",
    "DynamicsSchedule",
    "CompiledSchedule",
    "compile_schedule",
    "reference_compile_schedule",
    "compile_eclipse_offsets",
    "TimeVaryingDelayModel",
    "PLACEMENT_KINDS",
    "AdversaryPlacement",
    "list_placements",
    "PartitionScenario",
    "partition_windows",
    "SEED_BLOCK_CELLS",
    "STREAM_STAT_RTOL",
    "seed_block_trials",
    "OnlineMoments",
    "DeficitHistogram",
    "StreamingAccumulator",
    "ScenarioStreamingAccumulator",
    "StreamingBatchResult",
    "StreamingScenarioResult",
    "StreamingBatchSimulation",
    "StreamingScenarioSimulation",
]
