"""Poisson arrivals and constant-velocity kinematics on a bidirectional freeway.

The stretch is centered at x = 0: eastbound traffic enters at -road_length/2
travelling toward +x, westbound enters at +road_length/2 travelling toward
-x. Lateral lane offsets keep the two directions on opposite sides of the
median (``lane_y``, the one lane rule). The RSU stands at the origin, so both
directions start road_length/2 upstream of it and reach the trigger line the
same time after spawning: one offset per config (``trigger_offset_ms``).
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from enum import Enum
from typing import NamedTuple

import numpy as np

from .channel import uniform_int
from .core import ScenarioConfig, TimeMs, ceil_ms


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


# One native int64 spawn time (ms) or float64 lateral offset (m), packed.
_PACK_TIME, _PACK_Y = struct.Struct("q").pack, struct.Struct("d").pack


class Arrivals(Sequence):
    """One direction's arrivals, spawn-time ordered: 16 B per vehicle.

    ``spawn_times`` (int64, ms) and ``ys`` (float64 lateral offsets, m) are
    typed arrays, memoryviews cast over packed bytes (the ``array`` module
    would load one more extension into every process). They hold what
    differs from vehicle to vehicle; the direction, the entry point and the
    speed are shared. ``len()`` is the vehicle count, and indexing or
    iterating builds each vehicle's ``VehicleKinematics``, with ids counted
    from ``id_start``. Two sequences are equal when their fields and arrays
    are.
    """

    __slots__ = ("direction", "id_start", "spawn_x", "speed", "spawn_times", "ys")

    def __init__(self, direction: Direction, id_start: int, spawn_x: float, speed: float,
                 spawn_times: bytearray, ys: bytearray) -> None:
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

    Inter-arrival gaps are exponential at half of ``flow_rate``, up to the
    ``sim_duration`` horizon; lanes are uniform over the direction's lanes.
    Spawn instants land on the 1 ms grid and are strictly increasing
    (simultaneous arrivals are pushed apart by 1 ms). Deterministic for a
    given rng state. The stream stops at the first arrival past the horizon,
    before that arrival's time is rounded to whole milliseconds, so a very
    long (even infinite) gap ends it cleanly.
    """
    rate = cfg.flow_rate / 2.0
    if rate <= 0:
        raise MobilityError(f"arrival rate must be > 0 (got {rate})")
    lanes = cfg.lane_count // 2
    times, ys = bytearray(), bytearray()
    t_s = 0.0
    prev_ms = 0
    while True:
        t_s += rng.exponential(1.0 / rate)
        # ceil_ms(x) > horizon exactly when x - 1e-9 > horizon (an integer).
        if t_s * 1000.0 - 1e-9 > cfg.sim_duration:
            break
        t_ms = max(ceil_ms(t_s * 1000.0), prev_ms + 1)
        if t_ms > cfg.sim_duration:
            break
        lane = uniform_int(rng, 0, lanes - 1)
        times += _PACK_TIME(t_ms)
        ys += _PACK_Y(lane_y(direction, lane, cfg.lane_width))
        prev_ms = t_ms
    return Arrivals(direction, id_start, entry_x(direction, cfg.road_length), cfg.mean_speed,
                    times, ys)


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


def transit_ms(road_length: float, speed: float) -> TimeMs:
    return ceil_ms(road_length / speed * 1000.0)


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
