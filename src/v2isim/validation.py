"""Monte-Carlo consistency check of the closed-form first-success model.

Samples the model's exact assumptions: a single vehicle crossing the trigger
line, a fixed effective exchange delay, and no batching wait. Each attempt
succeeds with the probability of ``analytic.attempt_success``, the model's one
success rule, so this replay checks the product form and the chain built on
that rule, not the rule itself (criterion 2's enumeration in the acceptance
tests checks that). The first-success counts are drawn as one binomial per
attempt, which has exactly the distribution of a trial-by-trial replay, so
they must match the analytic pmf within binomial sampling error. Each bin is
judged by its exact binomial tail (``bin_consistent``), not by a 3-sigma band,
which raises false alarms on bins that expect almost nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticParams, attempt_success, first_success_pmf
# Uncalled; kept, like mobility.positions_x, while perfbench/tracer.py wraps it by name.
from .channel import per  # noqa: F401
from .core import ConfigError

# An input range, not a cost bound: the chain below takes the same time and
# memory at any trial count.
MAX_TRIALS = 50_000_000
N_CHECK = 6               # attempts 0..N_CHECK-1 are compared
# The false-alarm level that one validate run's bins share.
FALSE_ALARM_LEVEL = 1e-3


def mc_first_success_counts(params: AnalyticParams, trials: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Count first successes at attempts 0..N_CHECK-1 over independent trials.

    Of the trials still alive at attempt n, each succeeds with probability
    ``attempt_success(params, n)`` on its own, so the count is one binomial
    draw (the conditional-binomial construction of the multinomial, Devroye
    1986, ch. XI).
    """
    counts = np.zeros(N_CHECK, dtype=np.int64)
    alive = trials
    for n, success in enumerate(attempt_success(params, np.arange(N_CHECK, dtype=float))):
        counts[n] = rng.binomial(alive, success)
        alive -= int(counts[n])
    return counts


@dataclass(frozen=True)
class BinCheck:
    n: int
    observed: int
    expected: float
    sigma: float

    @property
    def within_3sigma(self) -> bool:
        if self.sigma == 0.0:
            return self.observed == round(self.expected)
        return abs(self.observed - self.expected) <= 3.0 * self.sigma


def check_against_pmf(params: AnalyticParams, trials: int,
                      rng: np.random.Generator) -> list[BinCheck]:
    """Monte-Carlo counts against the pmf for attempts 0..N_CHECK-1, one ``BinCheck`` each."""
    if not 10_000 <= trials <= MAX_TRIALS:
        raise ConfigError(f"trials must lie in [10000, {MAX_TRIALS}]: fewer make no meaningful "
                          f"check (got {trials})")
    pmf = first_success_pmf(params)
    pmf = pmf + [0.0] * max(0, N_CHECK - len(pmf))
    counts = mc_first_success_counts(params, trials, rng)
    checks = []
    for n in range(N_CHECK):
        p = pmf[n]
        checks.append(BinCheck(
            n=n,
            observed=int(counts[n]),
            expected=trials * p,
            sigma=math.sqrt(trials * p * (1.0 - p)),
        ))
    return checks


def bin_consistent(observed: int, trials: int, p: float, alpha: float) -> bool:
    """Exact binomial tail test of one first-success bin.

    True unless a count at least as far from ``trials * p`` as ``observed``
    (on the same side) has probability below ``alpha``. A bin with p = 0 or
    p = 1 must match exactly.
    """
    if p <= 0.0 or p >= 1.0:
        return observed == round(trials * p)
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(trials + 1)
    step = 1 if observed >= trials * p else -1
    tail = 0.0
    k = observed
    while 0 <= k <= trials:
        term = math.exp(log_n - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                        + k * log_p + (trials - k) * log_q)
        tail += term
        if tail >= alpha:
            return True
        if term < 1e-30:   # terms fall geometrically away from the mean
            return False
        k += step
    return False
