"""The binomial chain of ``validation.mc_first_success_counts`` against a replay.

The chain draws one binomial per attempt. ``_replay_counts`` is the per-trial
replay it replaced: every trial draws its request and acknowledgment receptions
attempt by attempt. Both sample the same multinomial, so at each default
``validate`` point every bin must agree within a two-sample binomial bound.
The chain also holds no per-trial array, so its memory does not grow with the
trial count. ``bin_consistent``, which judges each bin, is checked against exact
binomial tail sums.
"""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from v2isim import ScenarioConfig
from v2isim.analytic import attempt_distances, params_from_config
from v2isim.channel import constant_per_curve, per
from v2isim.cli import derive_cell_seed
from v2isim.validation import MAX_TRIALS, N_CHECK, bin_consistent, mc_first_success_counts

POINTS = ((300.0, 30.0), (0.0, 10.0), (-100.0, 20.0))   # validate's defaults
TRIALS = 200_000
# 18 bins at 4 sigma: a false alarm about once in 900 seeds.
Z = 4.0


def _replay_counts(params, trials: int, rng: np.random.Generator, n_bins: int) -> np.ndarray:
    """First successes at attempts 0..n_bins-1, trial by trial."""
    alive = np.ones(trials, dtype=bool)
    counts = np.zeros(n_bins, dtype=np.int64)
    for n in range(n_bins):
        d_req, d_ack = attempt_distances(params, n)
        p_req = per(params.curve, d_req, params.density)
        p_ack = per(params.curve, d_ack, params.density)
        succeeded = alive & (rng.random(trials) >= p_req) & (rng.random(trials) >= p_ack)
        counts[n] = int(succeeded.sum())
        alive &= ~succeeded
    return counts


@pytest.mark.parametrize("d_t, flow", POINTS)
def test_chain_and_replay_agree_bin_by_bin(d_t, flow):
    params = params_from_config(ScenarioConfig(), d_t=d_t, density=flow)
    seed = derive_cell_seed(0, d_t, flow)
    chain = mc_first_success_counts(params, TRIALS, np.random.default_rng(seed))
    replay = _replay_counts(params, TRIALS, np.random.default_rng(seed + 1), N_CHECK)
    assert chain.dtype == np.int64 and chain.shape == (N_CHECK,)
    assert 0 <= chain.sum() <= TRIALS
    for n, (a, b) in enumerate(zip(chain.tolist(), replay.tolist())):
        pooled = (a + b) / (2 * TRIALS)
        bound = Z * math.sqrt(2 * TRIALS * pooled * (1.0 - pooled))
        assert abs(a - b) <= bound, (n, a, b, bound)


@pytest.mark.parametrize("value, expected", [
    (0.0, [TRIALS] + [0] * (N_CHECK - 1)),   # lossless: every trial succeeds at once
    (1.0, [0] * N_CHECK),                     # blocked: none ever succeeds
])
def test_degenerate_curves_give_exact_counts(value, expected):
    params = dataclasses.replace(params_from_config(ScenarioConfig()),
                                 curve=constant_per_curve(value))
    counts = mc_first_success_counts(params, TRIALS, np.random.default_rng(1))
    assert counts.tolist() == expected


def test_counts_at_the_trial_bound_hold_under_1_mb():
    params = params_from_config(ScenarioConfig(), d_t=300.0, density=30.0)
    tracemalloc.start()
    try:
        counts = mc_first_success_counts(params, MAX_TRIALS, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < counts.sum() <= MAX_TRIALS
    assert peak < 1_000_000


def _exact_tail(observed: int, trials: int, p: float) -> float:
    """P(X at least as far from trials * p as observed, on its side), X ~ Bin(trials, p)."""
    side = range(observed, trials + 1) if observed >= trials * p else range(observed + 1)
    return math.fsum(math.comb(trials, k) * p**k * (1.0 - p)**(trials - k) for k in side)


@pytest.mark.parametrize("trials", [1, 2, 5, 20, 60])
@pytest.mark.parametrize("p", [0.01, 0.3, 0.5, 0.9])
@pytest.mark.parametrize("alpha", [1e-3 / 18, 0.01, 0.2])
def test_bin_consistent_matches_exact_tail_sums(trials, p, alpha):
    """Every count on both sides of the mean gets the verdict of its exact tail."""
    verdicts = set()
    for observed in range(trials + 1):
        tail = _exact_tail(observed, trials, p)
        if abs(tail - alpha) <= 1e-9 * alpha:
            continue   # too close to the level for floating point to settle
        assert bin_consistent(observed, trials, p, alpha) == (tail >= alpha), (observed, tail)
        verdicts.add((observed >= trials * p, tail >= alpha))
    if trials == 60 and p in (0.3, 0.5):   # both verdicts occur on both sides
        assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_bin_consistent_at_a_certain_bin_wants_the_exact_count(p):
    trials = 1000
    exact = round(trials * p)
    assert bin_consistent(exact, trials, p, 1e-3)
    for observed in {max(exact - 1, 0), min(exact + 1, trials)} - {exact}:
        assert not bin_consistent(observed, trials, p, 1e-3)
