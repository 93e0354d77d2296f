"""Poisson arrivals and constant-velocity kinematics on a bidirectional freeway.

The stretch is centered at x = 0: eastbound traffic enters at -road_length/2
travelling toward +x, westbound enters at +road_length/2 travelling toward
-x. Lateral lane offsets keep the two directions on opposite sides of the
median (``lane_y``, the one lane rule). The RSU stands at the origin, so both
directions start road_length/2 upstream of it and reach the trigger line the
same time after spawning: one offset per config (``trigger_offset_ms``).

Each direction's arrivals are drawn as arrays (``generate_arrivals``): a
Poisson count, its sorted instants from normalised exponential spacings, and
one block of lanes, with no per-vehicle call. ``Arrivals`` holds them at
16 B per vehicle and gives Python values back per vehicle. Two passes read
the arrays whole: ``first_heard`` finds the first of a run's SAMs each
vehicle hears, before the event loop, and ``bsm_counts`` counts the
vehicles in the stretch at each BSM tick, after it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import ScenarioConfig, TimeMs, ceil_ms, transit_ms


class MobilityError(ValueError):
    """Raised on kinematics contract violations (e.g. querying before spawn)."""


class Direction(Enum):
    EAST = "east"
    WEST = "west"

    @property
    def sign(self) -> int:
        return 1 if self is Direction.EAST else -1


_EAST = Direction.EAST   # bound once for position_at (see ``engine``)


class VehicleKinematics(NamedTuple):
    """Constant-speed vehicle: spawned at the entry edge of its direction."""

    vehicle_id: int
    direction: Direction
    spawn_time: TimeMs
    spawn_x: float
    y: float
    speed: float


def entry_x(direction: Direction, road_length: float) -> float:
    return -direction.sign * road_length / 2.0


def lane_y(direction: Direction, lane: int | np.ndarray,
           lane_width: float) -> float | np.ndarray:
    """Lateral offset of a lane (an int or an int array): lane 0 borders the
    median, eastbound lanes lie on +y and westbound on -y."""
    return direction.sign * (lane + 0.5) * lane_width


def trigger_offset_ms(cfg: ScenarioConfig) -> TimeMs:
    """Spawn-to-trigger time of every vehicle, rounded up to whole ms: each spawns
    road_length/2 upstream of the RSU, and ``validate_config`` keeps |d_t| below that."""
    return ceil_ms((cfg.road_length / 2.0 - cfg.d_t) / cfg.mean_speed * 1000.0)


class Arrivals(Sequence):
    """One direction's arrivals, spawn-time ordered: 16 B per vehicle.

    ``spawn_times`` (int64, ms) and ``ys`` (float64 lateral offsets, m) are
    typed arrays, memoryviews cast over the bytes of the drawn numpy arrays,
    so indexing gives Python ints and floats (the ``array`` module would
    load one more extension into every process). They hold what
    differs from vehicle to vehicle; the direction, the entry point and the
    speed are shared. ``len()`` is the vehicle count, and indexing or
    iterating builds each vehicle's ``VehicleKinematics``, with ids counted
    from ``id_start``. Two sequences are equal when their fields and arrays
    are.
    """

    __slots__ = ("direction", "id_start", "spawn_x", "speed", "spawn_times", "ys")

    def __init__(self, direction: Direction, id_start: int, spawn_x: float, speed: float,
                 spawn_times: bytes, ys: bytes) -> None:
        self.direction, self.id_start = direction, id_start
        self.spawn_x, self.speed = spawn_x, speed
        self.spawn_times = memoryview(spawn_times).cast("q")
        self.ys = memoryview(ys).cast("d")

    def __len__(self) -> int:
        return len(self.spawn_times)

    def __getitem__(self, index: int) -> VehicleKinematics:
        picked = range(len(self.spawn_times))[index]   # wraps negatives; IndexError past the end
        # Fields in order (id, direction, spawn_time, spawn_x, y, speed).
        return tuple.__new__(VehicleKinematics, (
            self.id_start + picked, self.direction, self.spawn_times[picked],
            self.spawn_x, self.ys[picked], self.speed))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Arrivals):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)


def generate_arrivals(cfg: ScenarioConfig, direction: Direction,
                      rng: np.random.Generator, id_start: int = 0) -> Arrivals:
    """Generate the direction's arrivals over the run, spawn-time ordered.

    Arrivals are a Poisson process at half of ``flow_rate`` over the
    ``sim_duration`` horizon, drawn as arrays (Devroye 1986, ch. V): a count
    N ~ Poisson(rate * horizon), then N + 1 standard exponentials whose
    normalised partial sums are the N sorted uniform instants, with no sort.
    Spawn instants land on the 1 ms grid (``ceil_ms``) and are strictly
    increasing: the i-th (from 0) is pushed to at least 1 ms and 1 ms past
    its predecessor, ``max(1, max_{j <= i}(c_j - j)) + i`` of the rounded
    instants c. Instants pushed past the horizon are dropped. Then one
    ``integers`` call draws the lanes, uniform over the direction's lanes (a
    single lane takes no draw). Deterministic for a given rng state.
    """
    rate = cfg.flow_rate / 2.0
    if rate <= 0:
        raise MobilityError(f"arrival rate must be > 0 (got {rate})")
    horizon = cfg.sim_duration
    sums = np.cumsum(rng.standard_exponential(rng.poisson(rate * horizon / 1000.0) + 1))
    rounded = np.ceil(sums[:-1] * (horizon / sums[-1]) - 1e-9)   # ceil_ms of each instant
    # Each instant is at most the horizon as a float; one at 2**63 is past any int64 horizon.
    rounded = rounded[rounded < 2.0 ** 63].astype(np.int64)
    index = np.arange(len(rounded))
    pushed = np.maximum(np.maximum.accumulate(rounded - index), 1)   # t_i - i
    kept = np.count_nonzero(pushed <= horizon - index)   # a prefix: t_i rises by >= 1 a step
    times = pushed[:kept] + index[:kept]
    ys = lane_y(direction, rng.integers(cfg.lane_count // 2, size=kept), cfg.lane_width)
    return Arrivals(direction, id_start, entry_x(direction, cfg.road_length), cfg.mean_speed,
                    times.tobytes(), ys.tobytes())


def first_heard(east: Arrivals, west: Arrivals, transit: TimeMs, instants: Iterable[TimeMs],
                hears: Callable[[np.ndarray], np.ndarray]) -> list[TimeMs | None]:
    """For each vehicle, eastbound then westbound, the first of the rising
    ``instants`` at which it hears; None if it hears at none.

    At each instant a the candidates are the vehicles that have not heard
    yet and are in the stretch, ``spawn <= a < spawn + transit`` (one
    spawning at a is in, one leaving at a is out), in that order. ``hears``
    takes their distances to the RSU at a and returns which of them hear.
    So an instant costs the vehicles still waiting, not every vehicle in the
    stretch. Both directions enter road_length/2 from the RSU at one speed,
    so |x| is the same function of the time since spawn: the eastbound rule
    serves every vehicle.
    """
    spawns = [np.frombuffer(a.spawn_times, dtype=np.int64) for a in (east, west)]
    spawn = np.concatenate(spawns)
    y_sq = np.concatenate([np.frombuffer(a.ys) for a in (east, west)]) ** 2
    heard: list[TimeMs | None] = [None] * len(spawn)
    starts = (0, len(east))
    entered = list(starts)   # per direction, the next vehicle to come in
    waiting = np.empty(0, dtype=np.int64)   # in the stretch and not heard yet, ascending
    for at in instants:
        new = []
        for d, times in enumerate(spawns):
            upto = starts[d] + int(np.searchsorted(times, at, side="right"))
            new.append(np.arange(entered[d], upto))
            entered[d] = upto
        cut = int(np.searchsorted(waiting, starts[1]))
        ids = np.concatenate((waiting[:cut], new[0], waiting[cut:], new[1]))
        since = at - spawn[ids]
        present = since < transit
        ids, since = ids[present], since[present]
        if len(ids):
            x = east.spawn_x + east.speed * since / 1000.0
            got = hears(np.sqrt(x * x + y_sq[ids]))
            for vid in ids[got].tolist():
                heard[vid] = at
            ids = ids[~got]
        waiting = ids
    return heard


def position_at(v: VehicleKinematics, t: TimeMs) -> tuple[float, float]:
    """Position at time t; querying before spawn is a contract violation."""
    if t < v.spawn_time:
        raise MobilityError(
            f"vehicle {v.vehicle_id} queried at {t} ms before spawn "
            f"({v.spawn_time} ms)"
        )
    velocity = v.speed if v.direction is _EAST else -v.speed   # sign * speed, exactly
    x = v.spawn_x + velocity * (t - v.spawn_time) / 1000.0
    return (x, v.y)


# Unused by the engine; kept while perfbench/tracer.py wraps it by name.
def positions_x(spawn_times: np.ndarray, t: TimeMs, direction: Direction,
                road_length: float, speed: float) -> np.ndarray:
    """Vectorized longitudinal positions for same-direction vehicles."""
    x0 = entry_x(direction, road_length)
    return x0 + direction.sign * speed * (t - spawn_times) / 1000.0


def stretch_window(spawn_times: np.ndarray, t: TimeMs | np.ndarray,
                   transit: TimeMs) -> tuple[np.ndarray, np.ndarray]:
    """Index window [lo, hi) of vehicles in-stretch at t (spawn-sorted input).

    ``t`` is one instant or an array of instants; ``lo`` and ``hi`` follow
    its shape.
    """
    return (np.searchsorted(spawn_times, t - transit, side="right"),
            np.searchsorted(spawn_times, t, side="right"))


def bsm_counts(cfg: ScenarioConfig,
               by_direction: dict[Direction, Arrivals]) -> tuple[int, int]:
    """BSM transmissions and probes over one run.

    Ticks fall at every positive multiple of ``bsm_period`` at or after
    ``warmup`` and before ``sim_duration``, so, like the record aggregates,
    the counts leave out the stretch's fill-up. At a tick each in-stretch
    vehicle transmits once and, unless it is alone, probes one other. Each
    tick's in-stretch count comes from each direction's spawn times
    (``Arrivals``) as an index window; no position is computed.
    """
    first = max(1, -(-cfg.warmup // cfg.bsm_period)) * cfg.bsm_period   # exact integer ceil
    if first >= cfg.sim_duration:
        return 0, 0
    ticks = np.arange(first, cfg.sim_duration, cfg.bsm_period, dtype=np.int64)
    transit = transit_ms(cfg.road_length, cfg.mean_speed)
    counts = np.zeros(len(ticks), dtype=np.int64)
    for arrivals in by_direction.values():
        lo, hi = stretch_window(np.array(arrivals.spawn_times, dtype=np.int64), ticks, transit)
        counts += hi - lo
    return int(counts.sum()), int(counts[counts >= 2].sum())
