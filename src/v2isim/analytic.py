"""Closed-form first-success model for the trigger-line handshake.

A vehicle crossing the trigger line at signed distance d_t retries its
request every t_sum seconds while moving at constant speed, so attempt n
(counted from 0 at the crossing) is transmitted at distance d_t - t_sum*n*v
and its acknowledgment is received at d_t - (t_sum*n + tau)*v. The attempt
succeeds only if both packets get through; attempts are independent, which
makes the first-success index a product-form distribution over the
distance-dependent success probabilities.

``attempt_success`` is the model's one success rule: the kernel below and the
Monte-Carlo replay in ``validation`` both read it, so the replay checks the
product form and its chain against that rule, and criterion 2's enumeration
(an acceptance test) checks the rule itself.

One numpy kernel evaluates the pmf for a list of trigger distances, in
blocks of _COL_BLOCK attempts (axis 0) by _ROW_BLOCK distances (axis 1); a
distance leaves its block once its stop rule fires, so memory stays flat.
Each block's passes write in place into one stacked buffer: the
never-succeeded mass, the pmf and the mean's numerator, each under a first
row carried from the previous block. Reductions run down each column in
attempt order: a ``cumprod`` for the never-succeeded mass, one ``cumsum``
for the mass and numerator. That is the scalar recurrence and Python's
left-to-right ``sum`` bit for bit; ``np.sum`` adds pairwise and would move
last digits.

``bsm_per`` is the steady-state BSM packet error rate that every run with a
BSM probe reports: a quadrature over the gap between a probe's sender and
receiver, bounded by the curve's last knot, plus a closed-form tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import channel as chan
from .channel import PerCurve, per
from .core import ScenarioConfig, SignedMeters

# Auto mode stops once the residual never-succeeded mass is below this.
_TAIL_EPS = 1e-9
_HARD_CAP = 100_000
# Kernel block: trigger distances x attempts, 4,096 cells per pass, so every
# per-block temporary (acc is 101 KB) stays below glibc's 128 KiB mmap threshold.
_ROW_BLOCK = 128
_COL_BLOCK = 32
# Node spacing (m) of the BSM model's quadrature over the longitudinal gap,
# the most gap-by-node PER cells it evaluates at once (1 MiB of float64), which
# also caps its nodes, and the most runs of lateral gaps it evaluates.
_BSM_GAP_STEP = 0.5
_BSM_BLOCK_CELLS = 2 ** 17
_BSM_MAX_RUNS = 1024


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


def attempt_success(params: AnalyticParams, n: int) -> np.ndarray:
    """P(attempt n succeeds) = (1 - PER(d_req)) * (1 - PER(d_ack)): request and ACK get through.

    One ``per_many`` call; ``params.d_t`` and n may be arrays, broadcast as in
    ``attempt_distances``.
    """
    d_req, d_ack = attempt_distances(params, n)
    ok = chan.per_many(params.curve, np.concatenate((d_req, d_ack), axis=None), params.density)
    ok = np.subtract(1.0, ok, out=ok).reshape(2, *np.shape(d_req))
    return ok[0] * ok[1]


def _first_success(params: AnalyticParams, d_ts: list[SignedMeters], keep_pmf: bool = False
                   ) -> tuple[list[float | None], list[float], list[list[float]]]:
    """(means, masses, pmfs) of the first-success pmf at each trigger distance.

    pmfs is empty unless keep_pmf.
    """
    auto = params.n_max is None
    terms = _HARD_CAP + 1 if auto else params.n_max + 1
    knot = params.curve.max_knot_distance
    d_all = np.asarray(d_ts, dtype=float)
    mass, num = np.zeros(len(d_all)), np.zeros(len(d_all))
    pieces: list[list[np.ndarray]] = [[] for _ in d_all] if keep_pmf else []
    for r0 in range(0, len(d_all), _ROW_BLOCK):
        live = np.arange(r0, min(r0 + _ROW_BLOCK, len(d_all)))   # distances still open
        fail, n0 = np.ones(len(live)), 0   # never-succeeded mass carried between blocks
        while len(live) and n0 < terms:
            n = np.arange(n0, min(n0 + _COL_BLOCK, terms), dtype=float)[:, None]   # exact floats
            block = replace(params, d_t=d_all[live])
            a = attempt_success(block, n)
            # acc[0]: the never-succeeded mass before each attempt, then after
            # the last; acc[1], acc[2]: the pmf and (n + 1) * pmf, under the
            # mass and numerator summed so far.
            acc = np.empty((3, len(n) + 1, len(live)))
            acc[:, 0] = fail, mass[live], num[live]
            np.subtract(1.0, a, out=acc[0, 1:])
            np.cumprod(acc[0], axis=0, out=acc[0])
            pmf = np.multiply(a, acc[0, :-1], out=acc[1, 1:])
            np.multiply(n + 1.0, pmf, out=acc[2, 1:])
            # A receding distance with zero success beyond the calibrated range
            # repeats that attempt forever, so its pmf is complete; only cells
            # with a == 0.0 can meet that rule, so only a block with such a cell
            # computes its distances again. A fixed n_max stops nothing.
            stop = acc[0, 1:] < _TAIL_EPS
            zero = np.flatnonzero(a == 0.0)
            if len(zero):
                dq, dk = (d.take(zero) for d in attempt_distances(block, n))
                stop.flat[zero] |= (dq < 0) & (np.minimum(np.abs(dq), np.abs(dk)) >= knot)
            going = ~stop.any(axis=0) | (not auto)
            last = np.where(going, len(n) - 1, stop.argmax(axis=0))
            for i, r in enumerate(live if keep_pmf else ()):
                pieces[r].append(pmf[:last[i] + 1, i].copy())
            np.cumsum(acc[1:], axis=1, out=acc[1:])
            mass[live], num[live] = acc[1:, last + 1, np.arange(len(live))]
            live, fail, n0 = live[going], acc[0, -1, going], n0 + len(n)
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


class SweepPoint(NamedTuple):
    """One point of a trigger sweep: a read-only tuple whose repr names its fields."""

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
    return list(map(SweepPoint._make, zip(d_range, means, masses)))


def bsm_per(cfg: ScenarioConfig, curve: PerCurve) -> float:
    """Steady-state BSM packet error rate, the ``bsm_per`` of every run with
    a probe, under ``curve`` (``cfg.channel()``; a run passes the curve it
    has loaded, so a calibration file is not read again).

    A probe's sender and receiver are two independent uniform in-stretch
    vehicles: uniform along the road, so the longitudinal gap r has density
    2(L - r)/L^2 on [0, L] with L = ``road_length``, and over the
    ``lane_count`` = 2m lanes (``mobility.lane_y``), so their lateral gap is
    k * ``lane_width`` for one of the (2m)^2 ordered lane pairs, equally
    weighted. Of those pairs, 2m share a lane (k = 0), 4(m - k) are k apart
    in one direction and 2 min(k, 2m - k) are k apart across the median. The
    PER at their distance is ``per_many`` at ``flow_rate``. Past the last
    knot every pair sees the clamped PER, ``per`` at that knot, so the
    integral over r is a trapezoid over [0, min(L, knot)] plus the tail
    PER_clamp (L - knot)^2 / L^2 in closed form. Its nodes are 0.5 m apart,
    and at most _BSM_BLOCK_CELLS of them, wider apart on a calibration that
    reaches past 65.5 km: they grow with neither the road nor the last knot.
    Lateral gaps at or past the last knot share one term. The others are evaluated one per k while there
    are at most _BSM_MAX_RUNS + 1 of them, and past that as runs of
    consecutive k, each at its pair-weighted mean gap, in blocks of at most
    _BSM_BLOCK_CELLS: neither time nor memory grows with the lane count or
    the road. The model has no d_t, and no
    protocol message loads the curve.
    """
    length, width, m = cfg.road_length, cfg.lane_width, cfg.lane_count // 2
    knot, pairs_total = curve.max_knot_distance, (2 * m) ** 2
    clamped = per(curve, knot, cfg.flow_rate)
    span = min(length, knot)
    steps = min(max(1, math.ceil(span / _BSM_GAP_STEP)), _BSM_BLOCK_CELLS - 1)
    r = np.linspace(0.0, span, steps + 1)
    near = math.ceil(min(knot / width, 2 * m))   # gaps k * width below the last knot
    # Gaps 1 <= k < near in at most _BSM_MAX_RUNS runs [a, b) of n consecutive k, one
    # k each unless there are more. Gap k >= 1 has 4m - 2k pairs, so a run has
    # n (4m - 2c) at its pair-weighted mean gap c - (n^2 - 1) / (6 (4m - 2c)),
    # c = (a + b - 1) / 2.
    edges = np.unique(np.rint(np.linspace(1, near, max(0, min(near - 1, _BSM_MAX_RUNS)) + 1)))
    n, c = np.diff(edges), (edges[:-1] + edges[1:] - 1) / 2
    k = np.append([0.0] if near else [], c - (n * n - 1) / (6 * (4 * m - 2 * c)))
    pairs = np.append([2.0 * m] if near else [], n * (4 * m - 2 * c))
    block = max(1, _BSM_BLOCK_CELLS // len(r))
    f, far = np.zeros(len(r)), pairs_total
    for i in range(0, len(k), block):
        kb, pb = k[i:i + block], pairs[i:i + block]
        # A float total: (2m)^2 reaches 2**64, past int64.
        f += pb / float(pairs_total) @ chan.per_many(curve, np.hypot(r, kb[:, None] * width),
                                                      cfg.flow_rate)
        far -= int(pb.sum())
    f += far / pairs_total * clamped
    f *= 2.0 * (length - r) / length ** 2
    tail = clamped * ((length - span) / length) ** 2
    return float((f.sum() - (f[0] + f[-1]) / 2.0) * (r[1] - r[0])) + tail
