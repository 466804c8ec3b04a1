"""Vectorized batch Monte Carlo engine: many independent trials at once.

The legacy :class:`~repro.simulation.protocol.NakamotoSimulation` executes one
trial at a time with Python loops over rounds and per-miner oracle queries —
faithful to the model of Section III, but far too slow for the many-trial
validation sweeps behind Figure 1, Remark 1 and the Lemma 1 concentration
events.  This module executes ``T`` independent trials *simultaneously* with
array operations:

* **oracle draws** — per-round honest/adversarial success counts for the
  whole batch are drawn as ``(trials, rounds)`` binomial tensors (the
  default; exactly the per-round distribution of Eq. 41) or as an explicit
  ``(trials, rounds, miners)`` Bernoulli tensor reduced over the miner axis
  (identical in distribution, useful for auditing the binomial shortcut).
  The binomial tensors come from the NumPy backend's exact blocked kernel
  (:meth:`~repro.backend.NumpyBackend.binomial`).  In NumPy's inversion
  regime (``n * min(p, 1 - p) <= 30``) it draws cache-sized blocks of
  uniforms with ``Generator.random`` and counts how many precomputed
  inversion thresholds each one reaches; other draws go to
  ``Generator.binomial``.  The samples and the generator state afterwards
  equal ``Generator.binomial``'s bit for bit, so the draw stream and every
  golden are unchanged;
* **convergence-opportunity detection** — the pattern ``N^Δ H_1 N^Δ`` of
  Eq. (42) is located for every trial at once with one cumulative-sum
  window test (:func:`fixed_delta_opportunity_mask`), matching the streaming
  :class:`~repro.simulation.events.ConvergenceOpportunityDetector` and the
  offline :func:`~repro.core.concat_chain.count_convergence_opportunities`
  exactly;
* **adversarial accounting** — per-trial adversarial block totals, Lemma 1
  margins ``C - A``, and the worst *windowed* deficit
  ``max_{s<=t} (A(s,t) - C(s,t))`` (the quantity whose positivity over every
  window is what Lemma 1 rules out, computed as a running-maximum drawdown).

Every tensor operation dispatches through the active
:class:`~repro.backend.ArrayBackend` (see :mod:`repro.backend`): the NumPy
reference backend reproduces the historical engine bit for bit, and
``use_backend`` / ``REPRO_BACKEND`` select another registered backend
without touching this module.  Randomness is always drawn host-side through
the caller's :class:`numpy.random.Generator`, and dtypes follow the active
:class:`~repro.backend.DtypePolicy`.  The mask and drawdown
kernels have one implementation each, and each walks blocks of whole trials
(:data:`~repro.backend.chunking.KERNEL_BLOCK_CELLS` cells) through about
1 MB of scratch, so every pass over a block stays in cache and the only
whole-run intermediate is the boolean mask.  Trials are independent, so the
blocked kernels equal the unblocked reference expressions bit for bit
(pinned by the equivalence and block-boundary tests).

The engine deliberately works at the level of per-round aggregate counts —
the same abstraction the paper's analysis lives at.  Full block-tree dynamics
(network delays, withholding releases, Definition 1 snapshots) remain the
business of the legacy simulator, which stays as the reference
implementation; the seed-equivalence tests drive both engines from one
pre-drawn trace via :class:`~repro.simulation.oracle.ScriptedMiningOracle`
and require identical per-round counts and convergence tallies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..backend import (
    ArrayBackend,
    get_backend,
    get_dtype_policy,
    resolve_chunk_cells,
)
from ..backend.chunking import KERNEL_BLOCK_CELLS, chunk_trials
from ..core.concat_chain import convergence_opportunity_mask
from ..errors import SimulationError
from ..observability import METRICS as _METRICS, TRACE as _TRACE
from ..params import ProtocolParameters
from .rng import SeedLike, resolve_rng
from .topology import (
    DelayModel,
    MiningPowerProfile,
    convergence_opportunity_mask_with_delays,
    resolve_delay_model,
)

__all__ = [
    "DRAW_MODES",
    "draw_mining_traces",
    "draw_traces",
    "convergence_opportunity_mask",
    "count_convergence_opportunities_batch",
    "fixed_delta_opportunity_mask",
    "worst_window_deficits",
    "proportion_confidence_interval",
    "BatchResult",
    "BatchSimulation",
]

#: Supported ways of drawing the per-round success counts.
DRAW_MODES = ("binomial", "bernoulli")



def draw_mining_traces(
    params: ProtocolParameters,
    trials: int,
    rounds: int,
    rng: SeedLike = None,
    draw_mode: str = "binomial",
    power: Optional[MiningPowerProfile] = None,
    backend: Optional[ArrayBackend] = None,
    policy=None,
):
    """Draw ``(trials, rounds)`` honest and adversarial success-count tensors.

    The honest tensor is drawn first, then the adversarial tensor, each in a
    single vectorized call — this fixed order is the batch engine's draw
    protocol, so a seed fully determines both tensors.  Draws happen on the
    host generator and are bridged to the active backend, so the bit stream
    is backend-independent.

    ``draw_mode="binomial"`` samples the per-round counts directly as
    ``Binomial(miners, p)`` (Eq. 41).  ``draw_mode="bernoulli"`` materialises
    the underlying ``(trials, rounds, miners)`` per-query Bernoulli tensor
    and reduces over the miner axis — the same distribution, kept for
    auditing, and chunked over trials so memory stays bounded.

    A heterogeneous :class:`~repro.simulation.topology.MiningPowerProfile`
    (validated against ``params``) replaces both paths with per-miner
    Bernoulli draws at each miner's own ``p_i`` — the Poisson-binomial
    per-round law — honest side first, same chunking.
    """
    if trials < 1:
        raise SimulationError(f"trials must be positive, got {trials!r}")
    if rounds < 1:
        raise SimulationError(f"rounds must be positive, got {rounds!r}")
    if draw_mode not in DRAW_MODES:
        raise SimulationError(
            f"draw_mode must be one of {DRAW_MODES}, got {draw_mode!r}"
        )
    xp = get_backend(backend)
    policy = get_dtype_policy(policy)
    policy.check_rounds(rounds)
    index_dtype = policy.index_dtype(xp)
    generator = resolve_rng(rng)
    honest_miners = max(int(round(params.honest_count)), 1)
    adversary_miners = int(round(params.adversary_count))

    if power is not None:
        power.validate_against(params)
        honest = _bernoulli_counts(
            xp, index_dtype, generator, trials, rounds, power.honest_miners,
            power.honest_p,
        )
        adversary = _bernoulli_counts(
            xp, index_dtype, generator, trials, rounds, power.adversary_miners,
            power.adversary_p,
        )
        return honest, adversary

    if draw_mode == "binomial":
        honest = xp.binomial(generator, honest_miners, params.p, (trials, rounds))
        if adversary_miners > 0:
            adversary = xp.binomial(
                generator, adversary_miners, params.p, (trials, rounds)
            )
        else:
            adversary = xp.zeros((trials, rounds), dtype=index_dtype)
        return (
            xp.asarray(honest, dtype=index_dtype),
            xp.asarray(adversary, dtype=index_dtype),
        )

    honest = _bernoulli_counts(
        xp, index_dtype, generator, trials, rounds, honest_miners, params.p
    )
    adversary = _bernoulli_counts(
        xp, index_dtype, generator, trials, rounds, adversary_miners, params.p
    )
    return honest, adversary


def _third_draw(
    delay_model: Optional[DelayModel], cut_fraction: Optional[float]
) -> Optional[str]:
    """The ``run_traces`` keyword a run's third tensor feeds, or ``None``.

    A partial cut draws the minority split; otherwise a non-trivial delay
    model draws the delays; otherwise nothing is drawn after the two mining
    tensors.
    """
    if cut_fraction is not None:
        return "split_counts"
    if delay_model is not None and not delay_model.trivial:
        return "delays"
    return None


def draw_traces(
    params: ProtocolParameters,
    trials: int,
    rounds: int,
    rng: SeedLike = None,
    draw_mode: str = "binomial",
    power: Optional[MiningPowerProfile] = None,
    delay_model: Optional[DelayModel] = None,
    cut_fraction: Optional[float] = None,
    backend: Optional[ArrayBackend] = None,
    policy=None,
):
    """Draw one run's traces: honest, adversarial, then the third tensor.

    This is the draw protocol of every engine, dense and streamed.  The two
    mining tensors come from :func:`draw_mining_traces`; the optional third
    tensor is drawn from the same generator right after them:

    * a partial cut (``cut_fraction`` set) draws the minority split, per
      round ``Binomial(honest, cut_fraction)`` of the honest successes;
    * otherwise a non-trivial ``delay_model`` draws per-block delivery
      offsets (``fixed_delta`` consumes no entropy and draws nothing);
    * otherwise nothing more is drawn.

    Returns ``(honest, adversary, extra)``, where ``extra`` holds the
    matching ``run_traces`` keywords: ``split_counts``, or ``delays`` and
    ``max_delay``, or nothing.

    >>> from repro.params import parameters_from_c
    >>> params = parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.2)
    >>> honest, adversary, extra = draw_traces(params, 4, 50, rng=0)
    >>> honest.shape, adversary.shape, extra
    ((4, 50), (4, 50), {})
    """
    generator = resolve_rng(rng)
    xp = get_backend(backend)
    honest, adversary = draw_mining_traces(
        params,
        trials,
        rounds,
        generator,
        draw_mode,
        power=power,
        backend=xp,
        policy=policy,
    )
    third = _third_draw(delay_model, cut_fraction)
    if third == "split_counts":
        split = xp.binomial(
            generator, xp.to_host(honest), float(cut_fraction), honest.shape
        )
        return honest, adversary, {"split_counts": split}
    if third == "delays":
        return honest, adversary, {
            "delays": delay_model.draw_delays(
                trials, rounds, params.delta, generator
            ),
            "max_delay": delay_model.delay_cap(params.delta, rounds),
        }
    return honest, adversary, {}


def _bernoulli_counts(
    xp: ArrayBackend,
    index_dtype,
    generator: np.random.Generator,
    trials: int,
    rounds: int,
    miners: int,
    hardness,
):
    """Sum a ``(trials, rounds, miners)`` Bernoulli tensor over the miner axis.

    ``hardness`` is a scalar ``p`` (the identical-miner model) or a
    ``(miners,)`` vector of per-miner ``p_i`` (the Poisson-binomial draw of
    a heterogeneous power profile) — the comparison broadcasts either way.
    """
    if miners <= 0:
        return xp.zeros((trials, rounds), dtype=index_dtype)
    counts = xp.empty((trials, rounds), dtype=index_dtype)
    threshold = xp.asarray(hardness)
    # The chunk size is an execution knob only: ``rng.random`` consumes the
    # uniform stream contiguously, so any chunking yields identical counts.
    chunk = max(int(resolve_chunk_cells() // max(rounds * miners, 1)), 1)
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        draws = xp.random(generator, (stop - start, rounds, miners)) < threshold
        counts[start:stop] = draws.sum(axis=2, dtype=index_dtype)
    return counts


def count_convergence_opportunities_batch(honest_counts, delta: int):
    """Per-trial convergence-opportunity counts for a ``(trials, rounds)`` tensor."""
    xp = get_backend()
    index_dtype = get_dtype_policy().index_dtype(xp)
    mask = fixed_delta_opportunity_mask(honest_counts, delta, backend=xp)
    return mask.sum(axis=1, dtype=index_dtype)


def fixed_delta_opportunity_mask(
    honest_counts, delta: int, backend: Optional[ArrayBackend] = None, policy=None
):
    """Row-blocked ``(trials, rounds)`` mask of completed opportunities.

    The engines' fixed-Δ kernel, value-identical to
    :func:`~repro.core.concat_chain.convergence_opportunity_mask` for
    success counts (which are never negative).  With non-negative counts
    the pattern ``N^Δ H_1 N^Δ`` completes at round ``r`` exactly when
    ``counts[r-Δ] == 1`` and the ``2Δ+1``-round window sum ending at ``r``
    is 1 — one cumsum and one window difference.  The kernel walks blocks
    of whole trials (:data:`~repro.backend.chunking.KERNEL_BLOCK_CELLS`
    cells), so its scratch stays cache-sized; only the returned mask spans
    the whole run.
    """
    if delta < 1:
        raise SimulationError(f"delta must be >= 1, got {delta!r}")
    xp = get_backend(backend)
    policy = get_dtype_policy(policy)
    index_dtype = policy.index_dtype(xp)
    counts = xp.asarray(honest_counts, dtype=index_dtype)
    if counts.ndim != 2:
        raise SimulationError(
            f"honest_counts must have shape (trials, rounds), got {counts.shape}"
        )
    trials, rounds = counts.shape
    mask = xp.zeros((trials, rounds), dtype=policy.mask_dtype(xp))
    width = rounds - 2 * delta
    if width < 1 or trials == 0:
        return mask
    rows = min(chunk_trials(rounds, KERNEL_BLOCK_CELLS), trials)
    cumulative = xp.empty((rows, rounds + 1), dtype=index_dtype)
    cumulative[:, 0] = 0
    window = xp.empty((rows, width), dtype=index_dtype)
    single = xp.empty((rows, width), dtype=xp.bool_)
    for start in range(0, trials, rows):
        stop = min(start + rows, trials)
        height = stop - start
        block = counts[start:stop]
        sums = cumulative[:height]
        xp.cumsum(block, axis=1, dtype=index_dtype, out=sums[:, 1:])
        # Window sum of the 2Δ+1 rounds ending at r, for r = 2Δ .. rounds-1.
        # Exact even if a narrow index dtype wraps the running sums: the
        # difference is taken modulo the same width and the window is small.
        xp.subtract(sums[:, 2 * delta + 1 :], sums[:, :width], out=window[:height])
        hits = mask[start:stop, 2 * delta :]
        xp.equal(window[:height], 1, out=hits)
        xp.equal(block[:, delta : rounds - delta], 1, out=single[:height])
        xp.logical_and(hits, single[:height], out=hits)
    return mask


def worst_window_deficits(
    opportunity_mask,
    adversary_counts,
    backend: Optional[ArrayBackend] = None,
    policy=None,
):
    """Per-trial worst windowed deficit ``max_{s<=t} (A(s,t) - C(s,t))``.

    Lemma 1's consistency argument needs every window of rounds to contain
    more convergence opportunities than adversarial blocks; the worst window
    is found per trial as the maximum drawdown of the running difference
    ``D_r = C(1,r) - A(1,r)``.  A value of ``d`` means some window existed in
    which adversarial blocks outnumbered convergence opportunities by ``d`` —
    the analytical analogue of a depth-``d`` consistency threat.

    The scan (subtract, cumsum, running maximum, maximum) walks blocks of
    whole trials (:data:`~repro.backend.chunking.KERNEL_BLOCK_CELLS` cells)
    through cache-sized scratch.
    """
    xp = get_backend(backend)
    index_dtype = get_dtype_policy(policy).index_dtype(xp)
    mask = xp.asarray(opportunity_mask)
    adversary = xp.asarray(adversary_counts, dtype=index_dtype)
    if mask.shape != adversary.shape:
        raise SimulationError(
            f"mask shape {mask.shape} does not match adversary shape {adversary.shape}"
        )
    if mask.ndim != 2:
        raise SimulationError(
            f"mask must have shape (trials, rounds), got {mask.shape}"
        )
    trials, rounds = mask.shape
    deficits = xp.empty((trials,), dtype=index_dtype)
    if trials == 0:
        return deficits
    rows = min(chunk_trials(rounds + 1, KERNEL_BLOCK_CELLS), trials)
    # Column 0 is the empty-window baseline, so windows starting at round 1
    # count.
    level = xp.empty((rows, rounds + 1), dtype=index_dtype)
    level[:, 0] = 0
    drawdown = xp.empty((rows, rounds + 1), dtype=index_dtype)
    for start in range(0, trials, rows):
        stop = min(start + rows, trials)
        height = stop - start
        running = level[:height]
        xp.subtract(mask[start:stop], adversary[start:stop], out=running[:, 1:])
        xp.cumsum(running[:, 1:], axis=1, dtype=index_dtype, out=running[:, 1:])
        peak = drawdown[:height]
        xp.maximum_accumulate(running, axis=1, out=peak)
        xp.subtract(peak, running, out=peak)
        deficits[start:stop] = peak.max(axis=1)
    return deficits


def _confidence_interval(values: np.ndarray) -> Tuple[float, float]:
    """Normal-approximation 95% confidence interval for the mean of ``values``.

    Host-side statistics helper for *unbounded* means (rates, depths, fork
    sizes): accumulates in the active dtype policy's ``stat`` dtype (float64
    under ``wide`` — the historical behaviour; float32 under ``compact``,
    within the documented :data:`~repro.backend.dtypes.COMPACT_STAT_RTOL`).

    A single observation carries no variance information, so the interval is
    ``(nan, nan)`` rather than the zero-width ``(mean, mean)`` — a one-trial
    run must never masquerade as a certain estimate (the tables render the
    NaN bounds as ``n/a``).  Proportion-valued statistics over 0-1 outcomes
    (violation/success probabilities) must go through
    :func:`proportion_confidence_interval` instead: the normal approximation
    collapses to a zero-width interval at 0 or ``trials`` successes, which is
    exactly where honest tail bounds matter most.
    """
    values = np.asarray(values, dtype=np.dtype(get_dtype_policy().stat))
    if values.size < 2:
        return (math.nan, math.nan)
    mean = float(values.mean())
    half_width = 1.96 * float(values.std(ddof=1)) / math.sqrt(values.size)
    return (mean - half_width, mean + half_width)


def proportion_confidence_interval(
    successes: int, trials: int
) -> Tuple[float, float]:
    """Wilson score 95% confidence interval for a Bernoulli proportion.

    The right tool for probability estimates over 0-1 outcomes: unlike the
    normal (Wald) approximation, the interval never collapses to zero width
    at the boundaries — a run with *zero* observed successes still reports
    the honest upper bound ``z^2 / (n + z^2)`` (≈ ``3.84 / n`` for large
    ``n``), and a run where every trial succeeded still admits failure
    probability mass.  Both endpoints are clipped to ``[0, 1]`` by
    construction.  A zero-trial input returns ``(nan, nan)``.
    """
    trials = int(trials)
    successes = int(successes)
    if trials < 1:
        return (math.nan, math.nan)
    if not 0 <= successes <= trials:
        raise SimulationError(
            f"successes must lie in [0, {trials}], got {successes!r}"
        )
    z = 1.96
    estimate = successes / trials
    denominator = 1.0 + z * z / trials
    centre = (estimate + z * z / (2.0 * trials)) / denominator
    half_width = (z / denominator) * math.sqrt(
        estimate * (1.0 - estimate) / trials + z * z / (4.0 * trials * trials)
    )
    return (max(centre - half_width, 0.0), min(centre + half_width, 1.0))


@dataclass
class BatchResult:
    """Per-trial outcomes plus aggregate statistics for one batch run.

    All per-trial arrays have shape ``(trials,)`` and live on the host.
    ``honest_counts`` and ``adversary_counts`` (shape ``(trials, rounds)``)
    are retained only when the run was made with ``keep_traces=True``.
    """

    params: ProtocolParameters
    trials: int
    rounds: int
    draw_mode: str
    convergence_opportunities: np.ndarray
    honest_blocks: np.ndarray
    adversary_blocks: np.ndarray
    worst_deficits: np.ndarray
    honest_counts: Optional[np.ndarray] = field(default=None, repr=False)
    adversary_counts: Optional[np.ndarray] = field(default=None, repr=False)
    #: Name of the delay model the convergence mask was computed under;
    #: "fixed_delta" is the paper's worst-case model (the historical default).
    delay_model: str = "fixed_delta"

    # ------------------------------------------------------------------
    # Per-trial derived quantities
    # ------------------------------------------------------------------
    @property
    def lemma1_margins(self) -> np.ndarray:
        """Per-trial Lemma 1 margins ``C - A`` over the whole run."""
        return self.convergence_opportunities - self.adversary_blocks

    @property
    def empirical_convergence_rates(self) -> np.ndarray:
        """Per-trial convergence opportunities per round (compare to Eq. 44)."""
        return self.convergence_opportunities / self.rounds

    @property
    def empirical_adversary_rates(self) -> np.ndarray:
        """Per-trial adversarial blocks per round (compare to ``p nu n``)."""
        return self.adversary_blocks / self.rounds

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def mean_convergence_rate(self) -> float:
        """Batch mean of the per-trial convergence-opportunity rates."""
        return float(self.empirical_convergence_rates.mean())

    @property
    def convergence_rate_ci95(self) -> Tuple[float, float]:
        """95% confidence interval for the convergence-opportunity rate."""
        return _confidence_interval(self.empirical_convergence_rates)

    @property
    def mean_adversary_rate(self) -> float:
        """Batch mean of the per-trial adversarial block rates."""
        return float(self.empirical_adversary_rates.mean())

    @property
    def adversary_rate_ci95(self) -> Tuple[float, float]:
        """95% confidence interval for the adversarial block rate."""
        return _confidence_interval(self.empirical_adversary_rates)

    @property
    def lemma1_fraction(self) -> float:
        """Fraction of trials in which the Lemma 1 event ``C > A`` held."""
        return float((self.lemma1_margins > 0).mean())

    @property
    def theoretical_convergence_rate(self) -> float:
        """``alpha_bar^(2Δ) alpha1`` (Eq. 44)."""
        return self.params.convergence_opportunity_probability

    @property
    def theoretical_adversary_rate(self) -> float:
        """``p nu n`` (Eq. 27)."""
        return self.params.beta

    def deficit_exceeds(self, depth: int) -> np.ndarray:
        """Per-trial flags: some window had ``A - C >= depth`` (depth-``depth`` threat)."""
        if depth < 0:
            raise SimulationError("depth must be non-negative")
        return self.worst_deficits >= depth

    def violation_probability(self, depth: int) -> float:
        """Fraction of trials whose worst windowed deficit reached ``depth``."""
        return float(self.deficit_exceeds(depth).mean())

    def violation_ci95(self, depth: int) -> Tuple[float, float]:
        """Wilson score 95% interval for the depth-``depth`` violation probability.

        Proportion-valued, so it goes through
        :func:`proportion_confidence_interval`: a batch with zero observed
        violations reports a strictly positive upper bound instead of the
        false certainty of a zero-width normal interval.
        """
        flags = self.deficit_exceeds(depth)
        return proportion_confidence_interval(int(flags.sum()), flags.size)

    def summary(self) -> Dict[str, float]:
        """A flat dictionary of the headline numbers (for tables)."""
        convergence_ci = self.convergence_rate_ci95
        adversary_ci = self.adversary_rate_ci95
        return {
            "trials": self.trials,
            "rounds": self.rounds,
            "c": self.params.c,
            "nu": self.params.nu,
            "delta": self.params.delta,
            "mean_convergence_rate": self.mean_convergence_rate,
            "convergence_rate_ci95_low": convergence_ci[0],
            "convergence_rate_ci95_high": convergence_ci[1],
            "theoretical_convergence_rate": self.theoretical_convergence_rate,
            "mean_adversary_rate": self.mean_adversary_rate,
            "adversary_rate_ci95_low": adversary_ci[0],
            "adversary_rate_ci95_high": adversary_ci[1],
            "theoretical_adversary_rate": self.theoretical_adversary_rate,
            "lemma1_fraction": self.lemma1_fraction,
            "mean_worst_deficit": float(self.worst_deficits.mean()),
            "max_worst_deficit": int(self.worst_deficits.max()),
            "delay_model": self.delay_model,
        }


class BatchSimulation:
    """Backend-vectorized batch Monte Carlo execution of the mining model.

    Parameters
    ----------
    params:
        Protocol parameters (``p``, ``n``, ``Δ``, ``nu``).
    rng:
        Source of randomness (generator, integer seed, seed sequence or
        ``None`` for the default seeded generator); the single generator
        drives every draw, so one seed determines the whole batch.
    draw_mode:
        ``"binomial"`` (default) or ``"bernoulli"`` — see
        :func:`draw_mining_traces`.
    delay_model:
        ``None`` or ``"fixed_delta"`` (equivalent — the paper's constant-Δ
        worst case, bit-identical to the historical engine), a registry
        name, or a :class:`~repro.simulation.topology.DelayModel` instance.
        Non-trivial models draw per-block delivery offsets *after* the two
        mining tensors (extending the draw protocol) and feed them to the
        generalized convergence-opportunity detector
        (:func:`~repro.simulation.topology.convergence_opportunity_mask_with_delays`).
    power:
        Optional heterogeneous
        :class:`~repro.simulation.topology.MiningPowerProfile`; validated
        against ``params`` before any draw.

    The engine binds the ambient backend and dtype policy at construction
    (``use_backend`` / ``use_dtype_policy`` contexts, or the
    ``REPRO_BACKEND`` / ``REPRO_DTYPE_POLICY`` environment variables); all
    results are converted back to host NumPy at the engine boundary.

    Examples
    --------
    >>> from repro.params import parameters_from_c
    >>> params = parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.2)
    >>> result = BatchSimulation(params, rng=0).run(trials=32, rounds=2_000)
    >>> result.convergence_opportunities.shape
    (32,)
    >>> bool(result.lemma1_fraction > 0.5)
    True
    """

    def __init__(
        self,
        params: ProtocolParameters,
        rng: SeedLike = None,
        draw_mode: str = "binomial",
        delay_model: Union[None, str, DelayModel] = None,
        power: Optional[MiningPowerProfile] = None,
    ):
        if draw_mode not in DRAW_MODES:
            raise SimulationError(
                f"draw_mode must be one of {DRAW_MODES}, got {draw_mode!r}"
            )
        self.params = params
        self.rng = resolve_rng(rng)
        self.draw_mode = draw_mode
        self.delay_model = resolve_delay_model(delay_model)
        self.power = power
        if self.power is not None:
            self.power.validate_against(params)
        self.backend = get_backend()
        self.policy = get_dtype_policy()

    @property
    def _delay_model_name(self) -> str:
        return "fixed_delta" if self.delay_model is None else self.delay_model.name

    def run(
        self, trials: int, rounds: int, keep_traces: bool = False
    ) -> BatchResult:
        """Draw fresh traces for ``trials`` independent runs and analyse them.

        The draw is :func:`draw_traces`: honest tensor, adversarial tensor,
        then (only for a non-trivial delay model) the delay tensor — so with
        ``delay_model=None`` or ``"fixed_delta"`` a seed produces exactly
        the pre-topology stream.
        """
        with _TRACE.span(
            "batch.run",
            trials=int(trials),
            rounds=int(rounds),
            draw_mode=self.draw_mode,
            delay_model=self._delay_model_name,
        ):
            with _TRACE.span("batch.draw"):
                honest, adversary, extra = draw_traces(
                    self.params,
                    trials,
                    rounds,
                    self.rng,
                    self.draw_mode,
                    power=self.power,
                    delay_model=self.delay_model,
                    backend=self.backend,
                    policy=self.policy,
                )
            return self.run_traces(
                honest, adversary, keep_traces=keep_traces, **extra
            )

    def run_traces(
        self,
        honest_counts,
        adversary_counts,
        keep_traces: bool = False,
        delays=None,
        max_delay: Optional[int] = None,
    ) -> BatchResult:
        """Analyse pre-drawn ``(trials, rounds)`` success-count tensors.

        This is the deterministic half of the engine: given the same tensors
        it always produces the same result, which is what the equivalence
        tests against the legacy simulator exercise.  ``delays`` carries
        pre-drawn per-block delivery offsets (``None`` means the constant-Δ
        worst case); ``max_delay`` (default Δ) widens the validation cap for
        time-varying models whose adversarial windows exceed Δ.
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
        trials, rounds = honest.shape
        if rounds < 1:
            raise SimulationError("rounds must be positive")
        self.policy.check_rounds(rounds)
        _METRICS.increment("engine.batch.trials", trials)
        _METRICS.increment("engine.batch.rounds", trials * rounds)
        with _TRACE.span("batch.mask", trials=trials, rounds=rounds):
            if delays is None:
                mask = fixed_delta_opportunity_mask(
                    honest, self.params.delta, backend=xp, policy=self.policy
                )
            else:
                mask = convergence_opportunity_mask_with_delays(
                    honest,
                    delays,
                    self.params.delta,
                    max_delay=max_delay,
                    backend=xp,
                    policy=self.policy,
                )
        with _TRACE.span("batch.deficits", trials=trials, rounds=rounds):
            deficits = worst_window_deficits(
                mask, adversary, backend=xp, policy=self.policy
            )
        return BatchResult(
            params=self.params,
            trials=trials,
            rounds=rounds,
            draw_mode=self.draw_mode,
            convergence_opportunities=xp.to_host(
                mask.sum(axis=1, dtype=index_dtype)
            ),
            honest_blocks=xp.to_host(honest.sum(axis=1, dtype=index_dtype)),
            adversary_blocks=xp.to_host(adversary.sum(axis=1, dtype=index_dtype)),
            worst_deficits=xp.to_host(deficits),
            honest_counts=xp.to_host(honest) if keep_traces else None,
            adversary_counts=xp.to_host(adversary) if keep_traces else None,
            delay_model=self._delay_model_name,
        )
