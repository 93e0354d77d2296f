"""Closed-form first-success model for the trigger-line handshake.

A vehicle crossing the trigger line at signed distance d_t retries its
request every t_sum seconds while moving at constant speed, so attempt n
(counted from 0 at the crossing) is transmitted at distance d_t - t_sum*n*v
and its acknowledgment is received at d_t - (t_sum*n + tau)*v. The attempt
succeeds only if both packets get through; attempts are independent, which
makes the first-success index a product-form distribution over the
distance-dependent success probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .channel import PerCurve, per
from .core import ScenarioConfig, SignedMeters

# Auto mode stops once the residual never-succeeded mass is below this.
_TAIL_EPS = 1e-9
_HARD_CAP = 100_000


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
                       density: float | None = None,
                       n_max: int | None = None) -> AnalyticParams:
    return AnalyticParams(
        d_t=cfg.d_t if d_t is None else d_t,
        mean_speed=cfg.mean_speed,
        t_sum_s=cfg.t_sum / 1000.0,
        tau_s=sum(cfg.tau_range) // 2 / 1000.0,   # the range midpoint, in seconds
        curve=cfg.channel(),
        density=cfg.flow_rate if density is None else density,
        n_max=n_max,
    )


def attempt_distances(params: AnalyticParams, n: int) -> tuple[float, float]:
    """Signed request/acknowledgment distances of attempt n."""
    step = params.t_sum_s * params.mean_speed
    d_req = params.d_t - step * n
    d_ack = params.d_t - (params.t_sum_s * n + params.tau_s) * params.mean_speed
    return d_req, d_ack


def attempt_success(params: AnalyticParams, n: int) -> float:
    """Joint probability that attempt n's request and acknowledgment both arrive."""
    if n < 0:
        raise ValueError(f"attempt index must be >= 0 (got {n})")
    d_req, d_ack = attempt_distances(params, n)
    p_req = 1.0 - per(params.curve, d_req, params.density)
    p_ack = 1.0 - per(params.curve, d_ack, params.density)
    return p_req * p_ack


def first_success_pmf(params: AnalyticParams) -> list[float]:
    """pmf[n] = P(first success at attempt n), n = 0..n_max.

    Entries lie in [0, 1] and partial sums never exceed 1; the residual
    1 - sum(pmf) is the probability the vehicle is never served within the
    horizon. With n_max = None the series is extended until the residual
    drops below 1e-9 or the vehicle has left the calibrated distance range
    with no remaining success probability.
    """
    pmf: list[float] = []
    fail_mass = 1.0
    support = params.curve.max_knot_distance
    limit = params.n_max if params.n_max is not None else _HARD_CAP
    n = 0
    while n <= limit:
        a = attempt_success(params, n)
        pmf.append(a * fail_mass)
        fail_mass *= 1.0 - a
        if params.n_max is None:
            if fail_mass < _TAIL_EPS:
                break
            d_req, d_ack = attempt_distances(params, n)
            if a == 0.0 and d_req < 0 and min(abs(d_req), abs(d_ack)) >= support:
                # Receding beyond the calibrated range with zero success:
                # every later attempt is identical, so the pmf is complete.
                break
        n += 1
    return pmf


def _mean_and_mass(pmf: list[float]) -> tuple[float | None, float]:
    """(mean attempt count given success, success mass) of a first-success pmf.

    The mean counts the crossing as attempt 1 and is None when the mass is
    zero.
    """
    mass = sum(pmf)
    if mass <= 0.0:
        return None, mass
    return sum((n + 1) * p for n, p in enumerate(pmf)) / mass, mass


def mean_attempts(params: AnalyticParams) -> float | None:
    """Mean attempt count conditioned on success, counting the crossing as 1.

    Returns None when the success mass is zero (no completion is possible),
    rather than a meaningless number.
    """
    return _mean_and_mass(first_success_pmf(params))[0]


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
    out = []
    for d in d_range:
        mean, mass = _mean_and_mass(first_success_pmf(replace(params, d_t=d)))
        out.append(SweepPoint(d_t=d, mean_attempts=mean, success_mass=mass))
    return out
