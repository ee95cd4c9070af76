"""Truth-labeled synthetic instances and empirically measured error rates.

The generator produces a two-group matrix of independent standard-normal
measurements in which alternative features carry a mean shift in the second
group, so the null and marginal distributions of the absolute two-sample t
statistic are available in closed form for oracle comparisons. An optional
equicorrelated-block mode adds within-block feature dependence while leaving
the marginals unchanged.

Measured quantities, pooled over replicates, are the realized counterparts of
the error-rate definitions: the FDR (conditional false fraction times the
probability of any rejection), the pFDR (conditional false fraction), the PFP
(ratio of expected counts, undefined without rejections), and the dFDR (the
PFP when defined, else 0). The pooled false fraction among rejected tests is
also the realized conditional probability that a rejected hypothesis is a
true null. Replicates run on every CPU the process may use
(``resampling.in_workers``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from dfdr.data import DataMatrix
from dfdr.decision import DecisionResult, control_dfdr, maximize_desirability
from dfdr.errors import ValidationError
from dfdr.estimators import (
    CostBenefit,
    StatisticSet,
    dfdr_from_cdfs,
    resolve_pi0,
)
from dfdr.resampling import PermutationPlan, build_statistic_set, in_workers
from dfdr.stats import PValueSet


@dataclass(frozen=True)
class SimulationConfig:
    """Generative settings for one Monte Carlo experiment.

    ``truth_mode`` "fixed" plants exactly floor(pi0 * n_tests) true nulls per
    replicate; "random" draws each truth bit independently with alternative
    probability 1 - pi0. Blocks of ``block_size`` > 1 features share an
    equicorrelated noise component with correlation ``block_rho``.
    """

    n_tests: int
    pi0: float
    n_a: int = 10
    n_b: int = 10
    effect: float = 2.0
    n_permutations: int = 25
    replicates: int = 200
    seed: int = 0
    truth_mode: str = "fixed"
    block_size: int = 1
    block_rho: float = 0.0

    def __post_init__(self) -> None:
        if self.n_tests < 1:
            raise ValidationError("n_tests must be >= 1")
        if not 0.0 <= self.pi0 <= 1.0:
            raise ValidationError("pi0 must lie in [0, 1]")
        if self.replicates < 1:
            raise ValidationError("replicates must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")
        if self.n_a < 2 or self.n_b < 2:
            raise ValidationError("both groups need at least two subjects")
        if not math.isfinite(self.effect):
            raise ValidationError("effect size must be finite")
        if self.truth_mode not in ("fixed", "random"):
            raise ValidationError(f"unknown truth mode {self.truth_mode!r}")
        if self.block_size < 1:
            raise ValidationError("block_size must be >= 1")
        if not 0.0 <= self.block_rho < 1.0:
            raise ValidationError("block_rho must lie in [0, 1)")


@dataclass(frozen=True)
class ReplicateOutcome:
    """Realized rejection record for one replicate."""

    tau: float
    dfdr_estimate: float
    pi0_value: float
    n_rejected: int
    n_false: int
    rejected_stats: np.ndarray
    rejected_is_null: np.ndarray


@dataclass(frozen=True)
class LocalBin:
    """Realized false fraction in [tau*, tau* + offset) of the rejection region."""

    offset: float
    rejections: int
    false_rejections: int
    rate: float


@dataclass(frozen=True)
class ErrorRateReport:
    """Empirical error rates pooled over replicates.

    ``pfp`` and ``conditional_prob`` are None when no test was rejected in
    any replicate (the PFP is undefined there); ``dfdr`` is 0 in that case.
    """

    fdr: float
    fdr_se: float
    pfdr: float | None
    pfdr_se: float | None
    pfp: float | None
    dfdr: float
    dfdr_se: float | None
    conditional_prob: float | None
    total_rejections: int
    total_false_rejections: int
    replicates_with_rejections: int
    replicates: int
    outcomes: tuple[ReplicateOutcome, ...] = field(repr=False)


def _stream(config: SimulationConfig, replicate: int, which: int) -> np.random.SeedSequence:
    """Stream ``which`` of a replicate: 0 draws its data, 1 seeds its plan.

    The same stream as child ``which`` of
    ``SeedSequence(entropy=seed, spawn_key=(replicate,)).spawn(2)``, made
    directly, so each is derived once and without its sibling.
    """
    return np.random.SeedSequence(entropy=config.seed, spawn_key=(replicate, which))


def generate_instance(config: SimulationConfig, replicate: int) -> tuple[DataMatrix, np.ndarray]:
    """One truth-labeled matrix; deterministic given (seed, replicate).

    Returns the matrix and the truth bits h (0 = null true, 1 = alternative).
    """
    rng = np.random.default_rng(_stream(config, replicate, 0))
    m, n_a, n_b = config.n_tests, config.n_a, config.n_b
    n = n_a + n_b

    if config.truth_mode == "fixed":
        n_null = math.floor(config.pi0 * m + 1e-9)
        h = np.zeros(m, dtype=int)
        h[n_null:] = 1
        rng.shuffle(h)
    else:
        h = (rng.random(m) < 1.0 - config.pi0).astype(int)

    if config.block_size > 1 and config.block_rho > 0.0:
        n_blocks = -(-m // config.block_size)
        shared = rng.standard_normal((n_blocks, n))
        block_of = np.arange(m) // min(config.block_size, m)  # one block of m past m
        noise = (
            math.sqrt(1.0 - config.block_rho) * rng.standard_normal((m, n))
            + math.sqrt(config.block_rho) * shared[block_of]
        )
    else:
        noise = rng.standard_normal((m, n))

    values = noise
    values[h == 1, n_a:] += config.effect

    feature_ids, subject_ids, labels = _matrix_ids(m, n_a, n_b)
    return DataMatrix(values, feature_ids, subject_ids, labels), h


@functools.lru_cache(maxsize=8)
def _matrix_ids(m: int, n_a: int, n_b: int) -> tuple[tuple[str, ...], ...]:
    """Feature ids, subject ids and labels, built once per shape, not per replicate."""
    digits = len(str(m))
    return (
        tuple(f"f{i:0{digits}d}" for i in range(m)),
        tuple([f"a{j:02d}" for j in range(n_a)] + [f"b{j:02d}" for j in range(n_b)]),
        tuple(["A"] * n_a + ["B"] * n_b),
    )


def build_replicate_stats(config: SimulationConfig, replicate: int) -> tuple[StatisticSet, np.ndarray]:
    """Statistics plus truth bits for one replicate of the full pipeline."""
    matrix, h = generate_instance(config, replicate)
    plan_seed = int(_stream(config, replicate, 1).generate_state(1, np.uint64)[0])
    plan = PermutationPlan(n_permutations=config.n_permutations, seed=plan_seed)
    return build_statistic_set(matrix, "A", "B", plan), h


@dataclass(frozen=True)
class DesirabilityRule:
    """Decision rule: maximize desirability at a fixed cost-to-benefit ratio,
    on a StatisticSet or a PValueSet; ``bound`` is p = 1/(1 + ratio)."""

    cost_ratio: float = 19.0
    pi0_mode: object = "estimate"

    @property
    def bound(self) -> float:
        return 1.0 / (1.0 + self.cost_ratio)

    def __call__(self, stats: StatisticSet | PValueSet) -> DecisionResult:
        pi0 = resolve_pi0(stats, self.pi0_mode)
        return maximize_desirability(stats, pi0, CostBenefit.from_ratio(self.cost_ratio))


@dataclass(frozen=True)
class DfdrControlRule:
    """Decision rule: reject as much as possible with estimated dFDR <= alpha,
    the ``bound``, on either kind of set."""

    alpha: float = 0.05
    pi0_mode: object = "estimate"

    @property
    def bound(self) -> float:
        return self.alpha

    def __call__(self, stats: StatisticSet | PValueSet) -> DecisionResult:
        pi0 = resolve_pi0(stats, self.pi0_mode)
        return control_dfdr(stats, pi0, self.alpha)


def measure_error_rates(config: SimulationConfig, rule) -> ErrorRateReport:
    """Run the full pipeline per replicate and pool the realized error rates."""
    # each replicate is a pure function of (seed, replicate): no outcome depends on the workers
    outcomes = in_workers(lambda r: _replicate_outcome(config, r, rule), range(config.replicates))

    n = config.replicates
    n_false = np.array([o.n_false for o in outcomes])
    n_rejected = np.array([o.n_rejected for o in outcomes])
    fractions = np.divide(n_false, n_rejected, out=np.zeros(n), where=n_rejected > 0)  # V/R or 0
    rej = fractions[n_rejected > 0]  # V/R over replicates with R > 0
    total_v, total_r = int(n_false.sum()), int(n_rejected.sum())
    fdr = float(fractions.mean())
    fdr_se = float(fractions.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan

    if rej.size:
        pfdr = float(rej.mean())
        pfdr_se = float(rej.std(ddof=1) / math.sqrt(rej.size)) if rej.size > 1 else math.nan
        pooled = total_v / total_r
        pfp = pooled
        dfdr = pooled
        dfdr_se = math.sqrt(pooled * (1.0 - pooled) / total_r)
        conditional = pooled
    else:
        pfdr = pfdr_se = pfp = conditional = dfdr_se = None
        dfdr = 0.0

    return ErrorRateReport(
        fdr=fdr,
        fdr_se=fdr_se,
        pfdr=pfdr,
        pfdr_se=pfdr_se,
        pfp=pfp,
        dfdr=dfdr,
        dfdr_se=dfdr_se,
        conditional_prob=conditional,
        total_rejections=total_r,
        total_false_rejections=total_v,
        replicates_with_rejections=rej.size,
        replicates=n,
        outcomes=tuple(outcomes),
    )


def _replicate_outcome(config: SimulationConfig, replicate: int, rule) -> ReplicateOutcome:
    """One replicate's decision and its realized errors; its permutations are
    released before the next replicate's are drawn."""
    stats, h = build_replicate_stats(config, replicate)
    decision = rule(stats)
    idx = decision.rejected
    is_null = h[idx] == 0
    order = np.argsort(stats.observed[idx])
    return ReplicateOutcome(
        tau=decision.tau,
        dfdr_estimate=decision.dfdr,
        pi0_value=decision.pi0.value,
        n_rejected=idx.size,
        n_false=int(np.count_nonzero(is_null)),
        rejected_stats=stats.observed[idx][order],
        rejected_is_null=is_null[order],
    )


def measure_local_dfdr(outcomes, offset: float) -> LocalBin:
    """Realized false fraction in the boundary bin [tau*, tau* + offset),
    ``offset`` above each replicate's chosen threshold tau*; an empty bin
    reports rate 0."""
    if not offset > 0:
        raise ValidationError("offset must be positive")
    rel = _offsets(outcomes)  # with each rejection's truth
    is_null = np.concatenate([np.zeros(0, dtype=bool)] + [o.rejected_is_null for o in outcomes])
    in_bin = rel < offset
    rejections = int(np.count_nonzero(in_bin))
    false_rejections = int(np.count_nonzero(is_null[in_bin]))
    rate = false_rejections / rejections if rejections else 0.0
    return LocalBin(offset, rejections, false_rejections, rate)


def _offsets(outcomes) -> np.ndarray:
    """Every rejection's offset above its replicate's threshold: 0 at it, +inf at +inf too."""
    return np.concatenate([np.zeros(0)] + [np.subtract(
        o.rejected_stats, o.tau, out=np.zeros(np.shape(o.rejected_stats)), where=o.rejected_stats != o.tau)
        for o in outcomes])


def boundary_offset(outcomes, fraction: float = 0.05) -> float:
    """Offset h so that [tau*, tau* + h) captures about ``fraction`` of rejections."""
    if not 0.0 < fraction < 1.0:
        raise ValidationError("fraction must lie in (0, 1)")
    rel = _offsets(outcomes)
    if rel.size == 0:
        raise ValidationError("no rejections recorded; boundary bin undefined")
    h = float(np.quantile(rel, fraction))
    if h <= 0.0:
        positive = rel[rel > 0.0]
        if positive.size == 0:
            raise ValidationError("all rejections sit exactly at the threshold")
        h = float(positive.min())
    return h


def analytic_statistic_cdfs(config: SimulationConfig):
    """Closed-form CDFs (null, alternative, marginal) of the absolute statistic.

    Valid for equal group sizes, where the unequal-variance statistic
    coincides with the pooled two-sample t: the null distribution is a folded
    central t and the alternative a folded noncentral t with noncentrality
    effect * sqrt(n/2). The marginal mixes them with the realized null
    proportion (exact in fixed truth mode). Needs scipy, the one use of it
    and not a runtime dependency: install the ``oracle`` extra
    (``pip install 'dfdr[oracle]'``). It is imported here, so that importing
    dfdr neither needs nor pays for it.
    """
    from scipy import stats as sps

    if config.n_a != config.n_b:
        raise ValidationError("closed-form CDFs require equal group sizes")
    df = config.n_a + config.n_b - 2
    ncp = config.effect * math.sqrt(config.n_a / 2.0)
    pi0 = _realized_pi0(config)

    def null_cdf(tau):
        tau = np.asarray(tau, dtype=float)
        return sps.t.cdf(tau, df) - sps.t.cdf(-tau, df)

    def alt_cdf(tau):
        tau = np.asarray(tau, dtype=float)
        return sps.nct.cdf(tau, df, ncp) - sps.nct.cdf(-tau, df, ncp)

    def marginal_cdf(tau):
        return pi0 * null_cdf(tau) + (1.0 - pi0) * alt_cdf(tau)

    return null_cdf, alt_cdf, marginal_cdf


def analytic_dfdr(config: SimulationConfig, tau: float) -> float:
    """True dFDR of the region [tau, inf) under the generative model."""
    null_cdf, _, marginal_cdf = analytic_statistic_cdfs(config)
    return dfdr_from_cdfs(_realized_pi0(config), float(null_cdf(tau)), float(marginal_cdf(tau)))


def _realized_pi0(config: SimulationConfig) -> float:
    """The true-null proportion of a replicate, exact in fixed truth mode."""
    if config.truth_mode == "fixed":
        return math.floor(config.pi0 * config.n_tests + 1e-9) / config.n_tests
    return config.pi0
