"""Rare-event estimation of deep consistency-violation probabilities.

The paper's consistency bounds live at violation probabilities of ``1e-9``
and below, but brute-force Monte Carlo through
:class:`~repro.simulation.batch.BatchSimulation` bottoms out around ``1e-6``:
at ``P = 1e-9`` even ``1e10`` trials yield ~10 violations.  This module
estimates the probability of the Lemma 1 threat event

    ``P[ some window has  A(s,t) - C(s,t) >= depth ]``

(the batch engine's ``worst_deficits >= depth``) with two classical
variance-reduction techniques layered on the batch engine:

* **exponential tilting** (importance sampling) — the per-round mining draws
  stay Binomial but at *tilted* per-query probabilities: the adversary's
  success probability is pushed up and the honest one down, so deep deficits
  become common under the sampling measure.  Because an exponentially tilted
  Bernoulli/Binomial family is closed under tilting, the per-trial
  likelihood ratio is **exact** and depends only on block totals:

      ``log LR = H ln(p/q_h) + (m_h R_h - H) ln((1-p)/(1-q_h))
               + A ln(p/q_a) + (m_a R_a - A) ln((1-p)/(1-q_a))``

  where ``H``/``A`` are the honest/adversarial block totals over ``R_h`` /
  ``R_a`` rounds.  The estimator uses the *stopped* ratio — each violating
  trial is weighted over its first-crossing prefix only (``R_a`` = the
  crossing round, ``R_h`` = ``R_a + delta`` for the opportunity mask's
  look-ahead), which is unbiased by optional stopping because the crossing
  is a stopping time and the violation indicator is prefix-measurable, and
  avoids the pure weight noise the post-crossing rounds would add.  The
  tilt itself is auto-tuned by a cross-entropy pilot stage: the
  standard CE update for an exponential family sets the tilted probabilities
  to the likelihood-ratio-weighted empirical success frequencies of the
  elite (deepest-deficit) pilot trials, iterated until the elite deficit
  threshold reaches the target depth — i.e. the tilt centres the windowed
  A-C deficit on the violation threshold.

* **multilevel splitting** — for schedules where a single global tilt is
  inefficient, the event is factored through the intermediate levels
  ``deficit >= 1, 2, ..., depth``: trajectories that reach level ``l`` are
  cloned at their first crossing (the iid-rounds structure makes the
  conditional law of the future given the frozen prefix exact — the honest
  prefix is kept ``delta`` rounds longer than the adversarial one because
  the opportunity mask at round ``r`` looks ahead that far) and their
  suffixes redrawn, so the product of per-level conditional hit fractions
  estimates the tail.

All tensor math goes through the active :class:`~repro.backend.ArrayBackend`
(host-seeded RNG, dtype-policy aware), so estimates are backend-independent;
trials are processed in bounded-memory chunks, so deep tails can be hunted
with large budgets without materialising a huge ``(trials, rounds)`` tensor.  A zero tilt is *bit-identical* to plain MC at
the same seed (the draw protocol is unchanged and every likelihood ratio is
exactly 1), which is how the equivalence tests pin the estimator.  Plain-MC
probability estimates carry Wilson score intervals
(:func:`~repro.simulation.batch.proportion_confidence_interval`), so a
zero-violation run reports an honest strictly positive upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..backend import (
    ArrayBackend,
    chunk_sizes,
    get_backend,
    get_dtype_policy,
    resolve_chunk_cells,
)
from ..errors import SimulationError
from ..observability import METRICS as _METRICS, TRACE as _TRACE
from ..params import ProtocolParameters
from .batch import (
    BatchSimulation,
    draw_traces,
    fixed_delta_opportunity_mask,
    proportion_confidence_interval,
)
from .rng import SeedLike, resolve_rng

__all__ = [
    "RARE_EVENT_METHODS",
    "ExponentialTilt",
    "log_likelihood_ratios",
    "draw_tilted_traces",
    "cross_entropy_tilt",
    "RareEventResult",
    "RareEventSimulation",
]

#: The estimation methods a :class:`RareEventResult` can carry.
RARE_EVENT_METHODS = ("plain", "tilted", "splitting")

#: Tilted probabilities are kept strictly inside (0, 1).
_PROBABILITY_FLOOR = 1e-12


def _miner_counts(params: ProtocolParameters) -> Tuple[int, int]:
    """The integer (honest, adversarial) miner counts of the draw protocol."""
    honest = max(int(round(params.honest_count)), 1)
    adversary = int(round(params.adversary_count))
    return honest, adversary


@dataclass(frozen=True)
class ExponentialTilt:
    """Tilted per-query success probabilities for the two mining populations.

    An exponential tilt of a ``Bernoulli(p)`` by parameter ``theta`` is the
    ``Bernoulli(q)`` with ``q = p e^theta / (1 - p + p e^theta)`` — still a
    Bernoulli, so the per-round Binomial draws stay Binomial and the
    likelihood ratio is exact.  The tilt is described directly by the two
    tilted probabilities (the natural parameterisation of the cross-entropy
    update); :meth:`from_theta` builds the symmetric single-parameter drift
    tilt (adversary up by ``+theta``, honest down by ``-theta``).
    """

    honest_p: float
    adversary_p: float

    def __post_init__(self) -> None:
        for name, value in (
            ("honest_p", self.honest_p),
            ("adversary_p", self.adversary_p),
        ):
            if not (0.0 < value < 1.0):
                raise SimulationError(
                    f"tilted {name} must lie in (0, 1), got {value!r}"
                )

    @classmethod
    def identity(cls, params: ProtocolParameters) -> "ExponentialTilt":
        """The zero tilt: sampling measure equals the model, every LR is 1."""
        return cls(honest_p=params.p, adversary_p=params.p)

    @classmethod
    def from_theta(
        cls, params: ProtocolParameters, theta: float
    ) -> "ExponentialTilt":
        """The drift tilt: adversary tilted by ``+theta``, honest by ``-theta``."""
        return cls(
            honest_p=_tilt_probability(params.p, -theta),
            adversary_p=_tilt_probability(params.p, theta),
        )

    def is_identity(self, params: ProtocolParameters) -> bool:
        """Whether this tilt leaves the sampling measure exactly unchanged."""
        return self.honest_p == params.p and self.adversary_p == params.p

    def payload(self) -> Dict[str, float]:
        """Primary fields as a plain dict (cache keys / diagnostics)."""
        return {"honest_p": self.honest_p, "adversary_p": self.adversary_p}


def _tilt_probability(p: float, theta: float) -> float:
    """``p e^theta / (1 - p + p e^theta)``, clipped strictly inside (0, 1)."""
    if theta == 0.0:
        return p
    # Stable for large |theta|: write as 1 / (1 + (1-p)/p e^-theta).
    tilted = 1.0 / (1.0 + math.exp(-theta) * (1.0 - p) / p)
    return min(max(tilted, _PROBABILITY_FLOOR), 1.0 - _PROBABILITY_FLOOR)


def log_likelihood_ratios(
    params: ProtocolParameters,
    tilt: ExponentialTilt,
    honest_blocks: np.ndarray,
    adversary_blocks: np.ndarray,
    honest_rounds,
    adversary_rounds=None,
) -> np.ndarray:
    """Exact per-trial ``ln(dP/dQ)`` of the model vs the tilted measure.

    Because every round's draw is Binomial and the tilt only changes the
    per-query probability, the trial's log-likelihood ratio is linear in the
    per-trial block totals — no per-round tensor is needed, and the identity
    tilt yields exactly zero for every trial (not merely up to rounding).

    ``honest_rounds`` / ``adversary_rounds`` (scalars or per-trial arrays)
    are the numbers of rounds the ratio covers for each population; the
    *stopped* estimator passes each trial's first-crossing prefix lengths —
    the honest prefix runs ``delta`` rounds past the adversarial one because
    the opportunity mask looks that far ahead — while full-trajectory
    callers pass the common horizon.  ``adversary_rounds`` defaults to
    ``honest_rounds``.
    """
    if adversary_rounds is None:
        adversary_rounds = honest_rounds
    honest_miners, adversary_miners = _miner_counts(params)
    honest_blocks = np.asarray(honest_blocks, dtype=np.float64)
    adversary_blocks = np.asarray(adversary_blocks, dtype=np.float64)
    honest_rounds = np.asarray(honest_rounds, dtype=np.float64)
    adversary_rounds = np.asarray(adversary_rounds, dtype=np.float64)
    if np.any(honest_rounds < 0.0) or np.any(adversary_rounds < 0.0):
        raise SimulationError("round counts must be non-negative")
    if adversary_miners == 0 and tilt.adversary_p != params.p:
        raise SimulationError(
            "cannot tilt the adversarial draws of a zero-adversary model"
        )
    log_ratio = np.zeros_like(honest_blocks)
    p = params.p
    for blocks, rounds, miners, q in (
        (honest_blocks, honest_rounds, honest_miners, tilt.honest_p),
        (adversary_blocks, adversary_rounds, adversary_miners, tilt.adversary_p),
    ):
        if miners == 0 or q == p:
            continue
        log_ratio += blocks * math.log(p / q)
        log_ratio += (miners * rounds - blocks) * math.log(
            (1.0 - p) / (1.0 - q)
        )
    return log_ratio


def draw_tilted_traces(
    params: ProtocolParameters,
    tilt: ExponentialTilt,
    trials: int,
    rounds: int,
    rng: SeedLike = None,
    backend: Optional[ArrayBackend] = None,
    policy=None,
):
    """Draw ``(trials, rounds)`` success-count tensors under a tilted measure.

    Mirrors the binomial path of
    :func:`~repro.simulation.batch.draw_mining_traces` — honest tensor first,
    then adversarial, both on the host generator and bridged to the active
    backend — but at the tilt's per-query probabilities.  With the identity
    tilt the draws are bit-identical to the plain engine's at the same seed,
    which is the estimator's ``tilt=0`` equivalence anchor.
    """
    if trials < 1:
        raise SimulationError(f"trials must be positive, got {trials!r}")
    if rounds < 1:
        raise SimulationError(f"rounds must be positive, got {rounds!r}")
    xp = get_backend(backend)
    policy = get_dtype_policy(policy)
    policy.check_rounds(rounds)
    index_dtype = policy.index_dtype(xp)
    generator = resolve_rng(rng)
    honest_miners, adversary_miners = _miner_counts(params)
    honest = xp.binomial(generator, honest_miners, tilt.honest_p, (trials, rounds))
    if adversary_miners > 0:
        adversary = xp.binomial(
            generator, adversary_miners, tilt.adversary_p, (trials, rounds)
        )
    else:
        adversary = xp.zeros((trials, rounds), dtype=index_dtype)
    return (
        xp.asarray(honest, dtype=index_dtype),
        xp.asarray(adversary, dtype=index_dtype),
    )


def cross_entropy_tilt(
    params: ProtocolParameters,
    depth: int,
    rounds: int,
    rng: SeedLike = None,
    pilot_trials: int = 512,
    elite_fraction: float = 0.1,
    max_iterations: int = 10,
    smoothing: float = 0.7,
) -> Tuple[ExponentialTilt, int]:
    """Auto-tune a tilt with the cross-entropy method; returns (tilt, iterations).

    Each pilot iteration draws ``pilot_trials`` traces under the current
    tilt, ranks them by worst windowed A-C deficit, and applies the standard
    CE update for the Bernoulli exponential family: the new tilted
    probabilities are the likelihood-ratio-weighted empirical per-query
    success frequencies of the elite trials.  The elite set is the top
    ``elite_fraction`` *capped at the target level*: once the elite quantile
    reaches ``depth``, the elite becomes every trial with ``deficit >=
    depth``, so the final update targets exactly the violation event rather
    than a deeper one (overshooting the tilt degenerates the importance
    weights).  Updates are smoothed (``smoothing`` is the weight of the new
    estimate), two monotonicity guards keep the update aimed at the
    violation event (the adversary is never tilted below ``p``, the honest
    side never above), and iteration stops after the level-capped update —
    the tilt then centres the deficit distribution on the threshold.
    """
    if depth < 1:
        raise SimulationError(f"depth must be >= 1, got {depth!r}")
    if pilot_trials < 2:
        raise SimulationError(
            f"pilot_trials must be >= 2, got {pilot_trials!r}"
        )
    if not (0.0 < elite_fraction <= 0.5):
        raise SimulationError(
            f"elite_fraction must lie in (0, 0.5], got {elite_fraction!r}"
        )
    if max_iterations < 1:
        raise SimulationError(
            f"max_iterations must be >= 1, got {max_iterations!r}"
        )
    if not (0.0 < smoothing <= 1.0):
        raise SimulationError(
            f"smoothing must lie in (0, 1], got {smoothing!r}"
        )
    generator = resolve_rng(rng)
    honest_miners, adversary_miners = _miner_counts(params)
    if adversary_miners == 0:
        raise SimulationError(
            "rare-event tilting needs a non-empty adversary (nu n >= 1)"
        )
    engine = BatchSimulation(params, rng=generator)
    elite_count = max(int(math.ceil(elite_fraction * pilot_trials)), 1)
    tilt = ExponentialTilt.identity(params)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        honest, adversary = draw_tilted_traces(
            params,
            tilt,
            pilot_trials,
            rounds,
            generator,
            backend=engine.backend,
            policy=engine.policy,
        )
        result = engine.run_traces(honest, adversary)
        deficits = result.worst_deficits
        order = np.argsort(deficits)[::-1]
        elite = order[:elite_count]
        threshold = int(deficits[elite].min())
        if threshold >= depth:
            # Level capped at the target: the elite is every violating
            # trial, so the final update aims at the event itself rather
            # than a deeper (weight-degenerating) one.
            threshold = depth
            elite = np.nonzero(deficits >= depth)[0]
        weights = np.exp(
            log_likelihood_ratios(
                params,
                tilt,
                result.honest_blocks[elite],
                result.adversary_blocks[elite],
                rounds,
            )
        )
        total = float(weights.sum())
        if total <= 0.0:  # pragma: no cover - defensive (weights are positive)
            break
        honest_rate = float(
            (weights * result.honest_blocks[elite]).sum()
            / (total * honest_miners * rounds)
        )
        adversary_rate = float(
            (weights * result.adversary_blocks[elite]).sum()
            / (total * adversary_miners * rounds)
        )
        tilt = ExponentialTilt(
            honest_p=_clip_probability(
                min(
                    smoothing * honest_rate + (1.0 - smoothing) * tilt.honest_p,
                    params.p,
                )
            ),
            adversary_p=_clip_probability(
                max(
                    smoothing * adversary_rate
                    + (1.0 - smoothing) * tilt.adversary_p,
                    params.p,
                )
            ),
        )
        if threshold >= depth:
            break
    return tilt, iterations


def _clip_probability(value: float) -> float:
    return min(max(value, _PROBABILITY_FLOOR), 1.0 - _PROBABILITY_FLOOR)


@dataclass
class RareEventResult:
    """One rare-event probability estimate with honesty diagnostics.

    ``probability`` is the unbiased (tilting) or consistent (splitting)
    estimate of ``P[worst windowed A-C deficit >= depth]``;
    ``relative_error`` is the estimated standard error divided by the
    estimate (NaN when no trial contributed), and
    ``effective_sample_size`` is ``(sum w)^2 / sum w^2`` over the
    contributing importance weights — the number of plain-MC violations the
    weighted sample is worth (NaN for splitting, ``hits`` for plain MC).
    """

    params: ProtocolParameters
    depth: int
    method: str
    trials: int
    rounds: int
    probability: float
    ci_low: float
    ci_high: float
    relative_error: float
    effective_sample_size: float
    hits: int
    tilt: Optional[ExponentialTilt] = None
    pilot_iterations: int = 0
    #: Splitting only: the per-level conditional hit fractions whose product
    #: is ``probability``.
    level_probabilities: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def ci95(self) -> Tuple[float, float]:
        """The 95% confidence interval ``(ci_low, ci_high)``."""
        return (self.ci_low, self.ci_high)

    @property
    def log10_probability(self) -> float:
        """``log10`` of the estimate (``-inf`` for an exact zero)."""
        if self.probability <= 0.0:
            return -math.inf
        return math.log10(self.probability)

    def agrees_with(self, other: "RareEventResult") -> Optional[bool]:
        """Whether the two estimates' 95% intervals overlap (joint-CI check).

        Returns ``None`` — *no evidence*, not disagreement — when either
        interval has a NaN endpoint: single-trial CIs and zero-probability
        splitting runs report NaN half-widths, and a NaN comparison must
        not silently decide the overlap either way.  (A splitting run can
        have a finite ``ci_low`` of 0.0 next to a NaN ``ci_high``, so both
        endpoints of both intervals are checked.)
        """
        if any(
            math.isnan(value)
            for value in (self.ci_low, self.ci_high, other.ci_low, other.ci_high)
        ):
            return None
        return self.ci_low <= other.ci_high and other.ci_low <= self.ci_high

    def summary(self) -> Dict[str, object]:
        """A flat dictionary of the headline numbers (for tables)."""
        row: Dict[str, object] = {
            "method": self.method,
            "depth": self.depth,
            "trials": self.trials,
            "rounds": self.rounds,
            "c": self.params.c,
            "nu": self.params.nu,
            "delta": self.params.delta,
            "probability": self.probability,
            "log10_probability": self.log10_probability,
            "ci95_low": self.ci_low,
            "ci95_high": self.ci_high,
            "relative_error": self.relative_error,
            "effective_sample_size": self.effective_sample_size,
            "hits": self.hits,
            "pilot_iterations": self.pilot_iterations,
        }
        if self.tilt is not None:
            row["tilt_honest_p"] = self.tilt.honest_p
            row["tilt_adversary_p"] = self.tilt.adversary_p
        return row


class RareEventSimulation:
    """Batched rare-event estimator for deep consistency violations.

    Parameters
    ----------
    params:
        Protocol parameters; the identical-miner Binomial model (a
        heterogeneous :class:`~repro.simulation.MiningPowerProfile` has no
        closed-form likelihood ratio under this tilt family and is rejected
        upstream by the runner).
    depth:
        The violation depth whose tail probability is estimated:
        ``P[worst windowed A-C deficit >= depth]``.
    rng:
        Source of randomness; one generator drives the pilot stages and the
        main run in order, so a seed fully determines the estimate.
    chunk_cells:
        Optional per-chunk cell budget override; ``None`` defers to the
        shared :func:`repro.backend.resolve_chunk_cells` configuration
        (``REPRO_CHUNK_CELLS``).  An execution knob only for the windowed
        deficit statistics; for the Binomial draw protocol chunk
        boundaries are part of the protocol (each chunk is one vectorized
        draw), so estimates at different budgets agree statistically, not
        bit-for-bit.

    Examples
    --------
    >>> from repro.params import parameters_from_c
    >>> params = parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.2)
    >>> estimator = RareEventSimulation(params, depth=3, rng=0)
    >>> result = estimator.run_tilted(trials=512, rounds=600)
    >>> 0.0 < result.probability < 1.0
    True
    """

    def __init__(
        self,
        params: ProtocolParameters,
        depth: int,
        rng: SeedLike = None,
        chunk_cells: Optional[int] = None,
    ):
        if depth < 1:
            raise SimulationError(f"depth must be >= 1, got {depth!r}")
        honest_miners, adversary_miners = _miner_counts(params)
        if adversary_miners == 0:
            raise SimulationError(
                "rare-event estimation needs a non-empty adversary (nu n >= 1)"
            )
        if chunk_cells is not None:
            chunk_cells = resolve_chunk_cells(chunk_cells)
        self.params = params
        self.depth = int(depth)
        self.chunk_cells = chunk_cells
        self.rng = resolve_rng(rng)
        self.engine = BatchSimulation(params, rng=self.rng)

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------
    def _chunk_cells(self) -> int:
        """The active per-chunk cell budget, resolved at call time.

        Precedence: the instance override > the shared chunking config.
        """
        return resolve_chunk_cells(self.chunk_cells)

    def _deficits(self, honest, adversary):
        """Worst windowed deficits plus block totals for pre-drawn tensors."""
        result = self.engine.run_traces(honest, adversary)
        return result.worst_deficits, result.honest_blocks, result.adversary_blocks

    # ------------------------------------------------------------------
    # Plain Monte Carlo (the overlap-region reference)
    # ------------------------------------------------------------------
    def run_plain(self, trials: int, rounds: int) -> RareEventResult:
        """Brute-force violation frequency with a Wilson score interval.

        Chunked over trials, so large overlap-region budgets never
        materialise more than the configured chunk budget at once.  The
        Wilson interval keeps a zero-violation run honest: its upper bound
        is strictly positive (``~3.84 / trials``), never the false
        certainty of a zero-width normal interval.
        """
        if trials < 1:
            raise SimulationError(f"trials must be positive, got {trials!r}")
        _METRICS.increment("engine.rare_events.trials", int(trials))
        hits = 0
        with _TRACE.span(
            "rare.plain", trials=int(trials), rounds=int(rounds), depth=self.depth
        ):
            for chunk in chunk_sizes(trials, rounds, self._chunk_cells()):
                honest, adversary, _ = draw_traces(
                    self.params,
                    chunk,
                    rounds,
                    self.rng,
                    backend=self.engine.backend,
                    policy=self.engine.policy,
                )
                deficits, _, _ = self._deficits(honest, adversary)
                hits += int((deficits >= self.depth).sum())
        probability = hits / trials
        ci_low, ci_high = proportion_confidence_interval(hits, trials)
        relative_error = (
            math.sqrt((1.0 - probability) / (trials * probability))
            if hits
            else math.nan
        )
        return RareEventResult(
            params=self.params,
            depth=self.depth,
            method="plain",
            trials=trials,
            rounds=rounds,
            probability=probability,
            ci_low=ci_low,
            ci_high=ci_high,
            relative_error=relative_error,
            effective_sample_size=float(hits) if hits else math.nan,
            hits=hits,
        )

    # ------------------------------------------------------------------
    # Exponential tilting (importance sampling)
    # ------------------------------------------------------------------
    def run_tilted(
        self,
        trials: int,
        rounds: int,
        tilt: Optional[ExponentialTilt] = None,
        pilot_trials: int = 512,
        elite_fraction: float = 0.1,
        max_iterations: int = 10,
        smoothing: float = 0.7,
    ) -> RareEventResult:
        """Importance-sampled tail estimate under an exponential tilt.

        Without an explicit ``tilt`` the cross-entropy pilot stage runs
        first (consuming entropy from the estimator's generator *before*
        the main draws — part of the draw protocol, so a seed fully
        determines the result).  The estimate ``mean(1{violation} * LR)``
        uses the *stopped* likelihood ratio: each violating trial is
        weighted by the exact ratio over its first-crossing prefix only
        (the honest prefix ``delta`` rounds longer than the adversarial
        one, matching the opportunity mask's look-ahead).  Because the
        first crossing is a stopping time and the indicator is
        prefix-measurable, optional stopping makes this unbiased for any
        fixed tilt — and far lower-variance than the full-trajectory
        ratio, whose post-crossing rounds contribute pure weight noise.
        With the identity tilt the result is bit-identical to
        :meth:`run_plain` at the same seed (same draws, every weight
        exactly 1).
        """
        if trials < 2:
            raise SimulationError(f"trials must be >= 2, got {trials!r}")
        _METRICS.increment("engine.rare_events.trials", int(trials))
        pilot_iterations = 0
        if tilt is None:
            with _TRACE.span(
                "rare.pilot", depth=self.depth, pilot_trials=int(pilot_trials)
            ):
                tilt, pilot_iterations = cross_entropy_tilt(
                    self.params,
                    self.depth,
                    rounds,
                    self.rng,
                    pilot_trials=pilot_trials,
                    elite_fraction=elite_fraction,
                    max_iterations=max_iterations,
                    smoothing=smoothing,
                )
            _METRICS.increment(
                "rare_events.pilot_iterations", pilot_iterations
            )
        xp = self.engine.backend
        delta = self.params.delta
        hits = 0
        weight_sum = 0.0
        weight_square_sum = 0.0
        with _TRACE.span(
            "rare.tilted",
            trials=int(trials),
            rounds=int(rounds),
            depth=self.depth,
        ):
            for chunk in chunk_sizes(trials, rounds, self._chunk_cells()):
                honest, adversary = draw_tilted_traces(
                    self.params,
                    tilt,
                    chunk,
                    rounds,
                    self.rng,
                    backend=xp,
                    policy=self.engine.policy,
                )
                honest_host = xp.to_host(honest)
                adversary_host = xp.to_host(adversary)
                reached, first_crossing = self._first_crossings(
                    honest_host, adversary_host, self.depth
                )
                hits += int(reached.sum())
                if not reached.any():
                    continue
                # Stopped likelihood ratio: weight only the prefix up to each
                # trial's first crossing (honest side `delta` rounds further).
                adversary_cut = first_crossing[reached]
                honest_cut = np.minimum(adversary_cut + delta, rounds)
                rows = np.arange(adversary_cut.size)
                honest_blocks = np.cumsum(
                    honest_host[reached], axis=1, dtype=np.int64
                )[rows, honest_cut - 1]
                adversary_blocks = np.cumsum(
                    adversary_host[reached], axis=1, dtype=np.int64
                )[rows, adversary_cut - 1]
                log_ratio = log_likelihood_ratios(
                    self.params,
                    tilt,
                    honest_blocks,
                    adversary_blocks,
                    honest_cut,
                    adversary_cut,
                )
                weights = np.exp(np.minimum(log_ratio, 700.0))
                weight_sum += float(weights.sum())
                weight_square_sum += float((weights * weights).sum())
        probability = weight_sum / trials
        # Sample variance of the weighted indicator (zeros included).
        variance = max(
            weight_square_sum / trials - probability * probability, 0.0
        ) / max(trials - 1, 1)
        half_width = 1.96 * math.sqrt(variance)
        relative_error = (
            math.sqrt(variance) / probability if probability > 0.0 else math.nan
        )
        effective = (
            weight_sum * weight_sum / weight_square_sum
            if weight_square_sum > 0.0
            else math.nan
        )
        if not math.isnan(effective):
            _METRICS.gauge("rare_events.effective_sample_size", float(effective))
        return RareEventResult(
            params=self.params,
            depth=self.depth,
            method="tilted",
            trials=trials,
            rounds=rounds,
            probability=probability,
            ci_low=max(probability - half_width, 0.0),
            ci_high=min(probability + half_width, 1.0),
            relative_error=relative_error,
            effective_sample_size=effective,
            hits=hits,
            tilt=tilt,
            pilot_iterations=pilot_iterations,
        )

    # ------------------------------------------------------------------
    # Multilevel splitting
    # ------------------------------------------------------------------
    def run_splitting(self, trials: int, rounds: int) -> RareEventResult:
        """Fixed-effort multilevel splitting on the deficit levels ``1..depth``.

        Stage ``l`` holds ``trials`` trajectories conditioned (by cloning at
        the first level-``l`` crossing and redrawing the suffix) on having
        reached deficit ``l``; the fraction that reaches ``l+1`` estimates
        the conditional probability, and the product over levels estimates
        the tail.  Cloning is exact because rounds are iid: the frozen
        prefix keeps the adversarial counts up to the crossing round and the
        honest counts ``delta`` rounds further (the opportunity mask at the
        crossing looks that far ahead).  The product estimator is the
        standard fixed-effort one — consistent, with O(1/trials) bias,
        which the tilting path avoids when it applies.
        """
        if trials < 2:
            raise SimulationError(f"trials must be >= 2, got {trials!r}")
        _METRICS.increment("engine.rare_events.trials", int(trials))
        xp = self.engine.backend
        delta = self.params.delta
        with _TRACE.span(
            "rare.splitting",
            trials=int(trials),
            rounds=int(rounds),
            depth=self.depth,
        ):
            honest, adversary, _ = draw_traces(
                self.params,
                trials,
                rounds,
                self.rng,
                backend=xp,
                policy=self.engine.policy,
            )
            honest = xp.to_host(honest)
            adversary = xp.to_host(adversary)
            level_probabilities = np.full(self.depth, np.nan)
            probability = 1.0
            relative_variance = 0.0
            hits = 0
            for level in range(1, self.depth + 1):
                reached, first_crossing = self._first_crossings(
                    honest, adversary, level
                )
                hits = int(reached.sum())
                _METRICS.gauge("rare_events.splitting_level_hits", hits)
                fraction = hits / trials
                level_probabilities[level - 1] = fraction
                probability *= fraction
                if hits == 0:
                    probability = 0.0
                    break
                relative_variance += (1.0 - fraction) / max(hits, 1)
                if level == self.depth:
                    break
                ancestors = np.nonzero(reached)[0][
                    self.rng.integers(0, hits, size=trials)
                ]
                crossings = first_crossing[ancestors]
                fresh_honest, fresh_adversary, _ = draw_traces(
                    self.params,
                    trials,
                    rounds,
                    self.rng,
                    backend=xp,
                    policy=self.engine.policy,
                )
                columns = np.arange(rounds)[None, :]
                adversary = np.where(
                    columns < crossings[:, None],
                    adversary[ancestors],
                    xp.to_host(fresh_adversary),
                )
                honest = np.where(
                    columns < np.minimum(crossings + delta, rounds)[:, None],
                    honest[ancestors],
                    xp.to_host(fresh_honest),
                )
        if probability > 0.0:
            standard_error = probability * math.sqrt(relative_variance)
            ci_low = max(probability - 1.96 * standard_error, 0.0)
            ci_high = min(probability + 1.96 * standard_error, 1.0)
            relative_error = standard_error / probability
        else:
            ci_low, ci_high, relative_error = 0.0, math.nan, math.nan
        return RareEventResult(
            params=self.params,
            depth=self.depth,
            method="splitting",
            trials=trials,
            rounds=rounds,
            probability=probability,
            ci_low=ci_low,
            ci_high=ci_high,
            relative_error=relative_error,
            effective_sample_size=math.nan,
            hits=hits,
            level_probabilities=level_probabilities,
        )

    def _first_crossings(
        self, honest: np.ndarray, adversary: np.ndarray, level: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-trial first rounds at which the running drawdown reaches ``level``.

        The drawdown of the running difference ``D_r = C(1,r) - A(1,r)``
        after round ``r`` equals the worst deficit over windows ending at or
        before ``r``; its first crossing of ``level`` is the cloning point
        for the splitting stages.  Host-side analysis (the crossing scan is
        a control-flow step, not a hot kernel).
        """
        xp = self.engine.backend
        mask = xp.to_host(
            fixed_delta_opportunity_mask(honest, self.params.delta, backend=xp)
        )
        difference = np.cumsum(mask.astype(np.int64) - adversary, axis=1)
        padded = np.concatenate(
            [np.zeros((difference.shape[0], 1), dtype=np.int64), difference],
            axis=1,
        )
        drawdown = np.maximum.accumulate(padded, axis=1) - padded
        crossed = drawdown >= level
        reached = crossed.any(axis=1)
        # argmax yields the first True column; the padded index is exactly
        # the number of rounds the prefix spans.
        first_crossing = np.argmax(crossed, axis=1)
        return reached, first_crossing
