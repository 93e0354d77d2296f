"""Monte-Carlo consistency check of the closed-form first-success model.

Replays the model's exact assumptions per trial: a single vehicle crossing
the trigger line, a fixed effective exchange delay, and no batching wait.
Each attempt draws the request and acknowledgment receptions independently at
the distances the closed form evaluates, so the empirical first-success
histogram must match the analytic pmf within binomial sampling error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticParams, attempt_distances, first_success_pmf
from .channel import per
from .core import ConfigError

MAX_TRIALS = 50_000_000   # a replay peaks near 11 B of arrays per trial: under 1 GB per point
N_CHECK = 6               # attempts 0..N_CHECK-1 are compared


def mc_first_success_counts(params: AnalyticParams, trials: int,
                            rng: np.random.Generator, n_bins: int) -> np.ndarray:
    """Count first successes at attempts 0..n_bins-1 over independent trials."""
    alive = np.ones(trials, dtype=bool)
    counts = np.zeros(n_bins, dtype=np.int64)
    draws = np.empty(trials)   # one buffer for every draw: the same stream as rng.random(trials)
    for n in range(n_bins):
        d_req, d_ack = attempt_distances(params, n)
        p_req = per(params.curve, d_req, params.density)
        p_ack = per(params.curve, d_ack, params.density)
        succeeded = alive & (rng.random(out=draws) >= p_req)
        succeeded &= rng.random(out=draws) >= p_ack
        counts[n] = int(succeeded.sum())
        alive &= ~succeeded
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
    """Per-attempt binomial 3-sigma comparison for attempts 0..N_CHECK-1."""
    if not 10_000 <= trials <= MAX_TRIALS:
        raise ConfigError(f"trials must lie in [10000, {MAX_TRIALS}]: fewer make no meaningful "
                          f"check, more take over 1 GB (got {trials})")
    pmf = first_success_pmf(params)
    pmf = pmf + [0.0] * max(0, N_CHECK - len(pmf))
    counts = mc_first_success_counts(params, trials, rng, N_CHECK)
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
