"""Closed-form first-success model for the trigger-line handshake.

A vehicle crossing the trigger line at signed distance d_t retries its
request every t_sum seconds while moving at constant speed, so attempt n
(counted from 0 at the crossing) is transmitted at distance d_t - t_sum*n*v
and its acknowledgment is received at d_t - (t_sum*n + tau)*v. The attempt
succeeds only if both packets get through; attempts are independent, which
makes the first-success index a product-form distribution over the
distance-dependent success probabilities.

One numpy kernel evaluates the pmf for a list of trigger distances, in
blocks of _ROW_BLOCK distances by _COL_BLOCK attempts; a distance leaves its
block of rows once its stop rule fires, so memory stays flat. Reductions run
along a row in attempt order, continued from the previous column block: a
``cumprod`` for the never-succeeded mass, ``cumsum``s for the mass and mean.
That is the scalar recurrence and Python's left-to-right ``sum`` bit for
bit; ``np.sum`` adds pairwise and would move last digits.

``bsm_per`` is the steady-state mean of the engine's post-warmup BSM pass,
a quadrature over the gap between a probe's sender and receiver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import channel as chan
# ``per`` is not called here: perfbench/tracer.py wraps ``analytic.per``.
from .channel import PerCurve, per  # noqa: F401
from .core import ScenarioConfig, SignedMeters
from .mobility import Direction, lane_y

# Auto mode stops once the residual never-succeeded mass is below this.
_TAIL_EPS = 1e-9
_HARD_CAP = 100_000
# Kernel block: trigger distances x attempts, 8,192 cells per temporary.
_ROW_BLOCK = 256
_COL_BLOCK = 32
# Node spacing (m) of the BSM model's quadrature over the longitudinal gap.
_BSM_GAP_STEP = 0.5


@dataclass(frozen=True)
class AnalyticParams:
    """Inputs of the closed-form model; tau is a single effective value."""

    d_t: SignedMeters
    mean_speed: float            # m/s
    t_sum_s: float               # retry interval, seconds
    tau_s: float                 # effective exchange delay, seconds
    curve: PerCurve
    density: float               # veh/s
    n_max: int | None = None     # attempt cutoff; None = automatic


def params_from_config(cfg: ScenarioConfig, d_t: SignedMeters | None = None,
                       density: float | None = None) -> AnalyticParams:
    return AnalyticParams(
        d_t=cfg.d_t if d_t is None else d_t,
        mean_speed=cfg.mean_speed,
        t_sum_s=cfg.t_sum / 1000.0,
        tau_s=(cfg.tau_low + cfg.tau_high) // 2 / 1000.0,   # the range midpoint, in seconds
        curve=cfg.channel(),
        density=cfg.flow_rate if density is None else density,
    )


def attempt_distances(params: AnalyticParams, n: int) -> tuple[float, float]:
    """Signed request/acknowledgment distances of attempt n; d_t and n may be arrays."""
    step = params.t_sum_s * params.mean_speed
    d_req = params.d_t - step * n
    d_ack = params.d_t - (params.t_sum_s * n + params.tau_s) * params.mean_speed
    return d_req, d_ack


def _first_success(params: AnalyticParams, d_ts: list[SignedMeters], keep_pmf: bool = False
                   ) -> tuple[list[float | None], list[float], list[list[float]]]:
    """(means, masses, pmfs) of the first-success pmf at each trigger distance.

    pmfs is empty unless keep_pmf.
    """
    auto = params.n_max is None
    terms = _HARD_CAP + 1 if auto else params.n_max + 1
    d_all = np.asarray(d_ts, dtype=float)
    mass, num = np.zeros(len(d_all)), np.zeros(len(d_all))
    pieces: list[list[np.ndarray]] = [[] for _ in d_all] if keep_pmf else []
    for r0 in range(0, len(d_all), _ROW_BLOCK):
        rows = np.arange(r0, min(r0 + _ROW_BLOCK, len(d_all)))   # rows still open
        fail, n0 = np.ones(len(rows)), 0   # never-succeeded mass carried between blocks
        while len(rows) and n0 < terms:
            n = np.arange(n0, min(n0 + _COL_BLOCK, terms))
            d_req, d_ack = attempt_distances(replace(params, d_t=d_all[rows, None]), n)
            ok = 1.0 - chan.per_many(params.curve, np.concatenate((d_req.ravel(), d_ack.ravel())),
                                     params.density)
            a = (ok[:d_req.size] * ok[d_req.size:]).reshape(d_req.shape)
            # fails[:, j]: mass not yet served before column j, then after the last.
            fails = np.cumprod(np.column_stack((fail, 1.0 - a)), axis=1)
            pmf = a * fails[:, :-1]
            # A receding row with zero success beyond the calibrated range
            # repeats that attempt forever, so its pmf is complete.
            stop = auto & ((fails[:, 1:] < _TAIL_EPS) | ((a == 0.0) & (d_req < 0) & (
                np.minimum(np.abs(d_req), np.abs(d_ack)) >= params.curve.max_knot_distance)))
            going = ~stop.any(axis=1)
            last = np.where(going, len(n) - 1, stop.argmax(axis=1))
            pick = (np.arange(len(rows)), last + 1)
            mass[rows] = np.cumsum(np.column_stack((mass[rows], pmf)), axis=1)[pick]
            num[rows] = np.cumsum(np.column_stack((num[rows], (n + 1) * pmf)), axis=1)[pick]
            for i, r in enumerate(rows if keep_pmf else ()):
                pieces[r].append(pmf[i, :last[i] + 1])
            rows, fail, n0 = rows[going], fails[going, -1], n[-1] + 1
    masses = mass.tolist()
    means = [w / m if m > 0.0 else None for w, m in zip(num.tolist(), masses)]
    return means, masses, [np.concatenate(p).tolist() if p else [] for p in pieces]


def first_success_pmf(params: AnalyticParams) -> list[float]:
    """pmf[n] = P(first success at attempt n), n = 0..n_max.

    Entries lie in [0, 1] and partial sums never exceed 1; the residual
    1 - sum(pmf) is the probability the vehicle is never served within the
    horizon. With n_max = None the series is extended until the residual
    drops below 1e-9 or the vehicle has left the calibrated distance range
    with no remaining success probability.
    """
    return _first_success(params, [params.d_t], keep_pmf=True)[2][0]


def mean_attempts(params: AnalyticParams) -> float | None:
    """Mean attempt count conditioned on success, counting the crossing as 1.

    Returns None when the success mass is zero (no completion is possible),
    rather than a meaningless number.
    """
    return _first_success(params, [params.d_t])[0][0]


@dataclass(frozen=True)
class SweepPoint:
    d_t: SignedMeters
    mean_attempts: float | None
    success_mass: float


def sweep_trigger(params: AnalyticParams,
                  d_range: list[SignedMeters]) -> list[SweepPoint]:
    """Evaluate mean_attempts across trigger distances, preserving order.

    Points with zero success mass are carried through with
    mean_attempts=None instead of being dropped.
    """
    if not d_range:
        raise ValueError("d_range must be non-empty")
    means, masses, _ = _first_success(params, d_range)
    return [SweepPoint(d_t=d, mean_attempts=mean, success_mass=mass)
            for d, mean, mass in zip(d_range, means, masses)]


def bsm_per(cfg: ScenarioConfig) -> float:
    """Steady-state BSM packet error rate, the mean that the engine's
    post-warmup BSM pass estimates.

    A probe's sender and receiver are two independent uniform in-stretch
    vehicles: uniform along the road, so the longitudinal gap r has density
    2(L - r)/L^2 on [0, L] with L = ``road_length``, and over the
    ``lane_count`` lanes (``mobility.lane_y``), so the lateral gap ranges
    over the ``lane_count**2`` lane pairs, equally weighted. The PER at
    their distance is ``per_many`` at ``flow_rate``; the integral over r is
    a trapezoid on nodes at most 0.5 m apart. The model has no d_t, and no
    protocol message loads the curve.
    """
    length = cfg.road_length
    lanes = np.arange(cfg.lane_count // 2)
    lanes_y = np.concatenate([lane_y(d, lanes, cfg.lane_width) for d in Direction])
    dy, pairs = np.unique(np.abs(lanes_y[:, None] - lanes_y), return_counts=True)
    r = np.linspace(0.0, length, math.ceil(length / _BSM_GAP_STEP) + 1)
    per_at = chan.per_many(cfg.channel(), np.hypot(r, dy[:, None]), cfg.flow_rate)
    f = (pairs / pairs.sum()) @ per_at * (2.0 * (length - r) / length ** 2)
    return float((f.sum() - (f[0] + f[-1]) / 2.0) * (r[1] - r[0]))
