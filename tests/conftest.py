import math
from dataclasses import dataclass

import numpy as np
import pytest

from dfdr import DataMatrix, DecisionResult, Pi0Estimate, StatisticSet, resolve_pi0
from dfdr.decision import Curve
from dfdr.estimators import dfdr_from_counts, weight_exceedances


@pytest.fixture
def tiny_matrix() -> DataMatrix:
    """3 features x 4 subjects, two groups of two."""
    return DataMatrix(
        values=np.array(
            [
                [1.0, 2.0, 3.0, 4.0],
                [5.0, 5.0, 5.0, 5.0],
                [2.0, 4.0, 1.0, 3.0],
            ]
        ),
        feature_ids=("g1", "g2", "g3"),
        subject_ids=("s1", "s2", "s3", "s4"),
        labels=("A", "A", "B", "B"),
    )


@pytest.fixture
def four_test_stats() -> StatisticSet:
    """The worked 4-test example: one permutation, hand-checkable counts."""
    return StatisticSet(
        observed=np.array([3.0, 2.0, 1.0, 0.5]),
        null_stats=np.array([0.5, 0.4, 0.3, 0.2]),
        n_permutations=1,
    )


@pytest.fixture
def pi0_one() -> Pi0Estimate:
    return Pi0Estimate.fixed_one()


def random_statistic_set(rng: np.random.Generator, max_m: int = 50, max_b: int = 5) -> StatisticSet:
    """Random small instance with ties (one-decimal rounding) and occasional +inf."""
    m = int(rng.integers(1, max_m + 1))
    b = int(rng.integers(1, max_b + 1))
    observed = np.round(np.abs(rng.normal(1.0, 1.0, size=m)), 1)
    nulls = np.round(np.abs(rng.normal(0.8, 0.8, size=m * b)), 1)
    if rng.random() < 0.1:
        observed[rng.integers(0, m)] = np.inf
    return StatisticSet(observed=observed, null_stats=nulls, n_permutations=b)


def dfdr_at(stats: StatisticSet, pi0: Pi0Estimate, tau: float, weights=None):
    """(dFDR, discoveries, null exceedances) of [tau, inf), from the engine's counts.

    The null is read tile by tile, so a null that was never held whole (from
    ``build_statistic_set``) is recomputed here.
    """
    w = None if weights is None else np.asarray(weights, dtype=float)
    obs = weight_exceedances(stats.observed, w, tau)
    null = sum(
        weight_exceedances(tile.ravel(), None if w is None else w[rows], tau)
        for rows, tile in stats.null_tiles()
    )
    value = dfdr_from_counts(pi0.value, null / stats.n_null, obs, stats.n_tests)
    return float(value), obs, null


@dataclass(frozen=True)
class FixedThresholdRule:
    """Decision rule for measure_error_rates: reject every statistic >= tau."""

    tau: float
    pi0_mode: object = "one"

    def __call__(self, stats: StatisticSet) -> DecisionResult:
        pi0 = resolve_pi0(stats, self.pi0_mode)
        return DecisionResult(
            tau=float(self.tau),
            rejected=frozenset(np.flatnonzero(stats.observed >= self.tau).tolist()),
            dfdr=dfdr_at(stats, pi0, self.tau)[0],
            desirability=math.nan,
            pi0=pi0,
            curve=Curve(*[np.empty(0)] * 4),  # no candidates scanned
        )
