"""Arrival generation and constant-velocity kinematics."""

from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from v2isim.core import ScenarioConfig, transit_ms
from v2isim.mobility import (
    Direction, MobilityError, VehicleKinematics,
    generate_arrivals, position_at, stretch_window, trigger_offset_ms,
)
from v2isim.validation import bin_consistent

CFG = ScenarioConfig()


def _arrival_cfg(rate: float, horizon: int) -> ScenarioConfig:
    """CFG with ``rate`` veh/s in each direction over ``horizon`` ms."""
    return dataclasses.replace(CFG, flow_rate=2.0 * rate, sim_duration=horizon)


def _east_vehicle(spawn_time=0) -> VehicleKinematics:
    return VehicleKinematics(
        vehicle_id=0, direction=Direction.EAST,
        spawn_time=spawn_time, spawn_x=-1500.0, y=1.75, speed=30.0,
    )


def _west_vehicle(spawn_time=0) -> VehicleKinematics:
    return VehicleKinematics(
        vehicle_id=1, direction=Direction.WEST,
        spawn_time=spawn_time, spawn_x=1500.0, y=-1.75, speed=30.0,
    )


def test_poisson_count_within_3sigma():
    rng = np.random.default_rng(101)
    arrivals = generate_arrivals(_arrival_cfg(10.0, 100_000), Direction.EAST, rng)
    expected = 10.0 * 100.0
    assert abs(len(arrivals) - expected) <= 3 * math.sqrt(expected)


def test_zero_horizon_yields_empty_list():
    rng = np.random.default_rng(1)
    assert len(generate_arrivals(_arrival_cfg(10.0, 0), Direction.EAST, rng)) == 0


def test_same_seed_same_arrivals():
    cfg = _arrival_cfg(5.0, 60_000)
    a = generate_arrivals(cfg, Direction.WEST, np.random.default_rng(9))
    b = generate_arrivals(cfg, Direction.WEST, np.random.default_rng(9))
    assert a == b


def test_spawn_times_strictly_increasing_and_lanes_in_range():
    rng = np.random.default_rng(77)
    arrivals = generate_arrivals(_arrival_cfg(50.0, 30_000), Direction.EAST, rng)
    times = [v.spawn_time for v in arrivals]
    assert all(b > a for a, b in zip(times, times[1:]))
    lane_centres = {(lane + 0.5) * CFG.lane_width for lane in range(CFG.lane_count // 2)}
    assert {v.y for v in arrivals} == lane_centres
    assert all(v.y > 0 for v in arrivals)  # eastbound offsets above the median


def test_westbound_spawns_opposite_edge_and_side():
    rng = np.random.default_rng(78)
    arrivals = generate_arrivals(_arrival_cfg(10.0, 10_000), Direction.WEST, rng)
    assert arrivals and all(v.spawn_x == 1500.0 for v in arrivals)
    lane_centres = {-(lane + 0.5) * CFG.lane_width for lane in range(CFG.lane_count // 2)}
    assert {v.y for v in arrivals} == lane_centres


@pytest.mark.parametrize("direction", list(Direction))
def test_lane_offsets_at_the_widest_valid_lane_count(direction):
    # 2**31 lanes a direction: each draw places its own lane, no per-lane table.
    cfg = dataclasses.replace(_arrival_cfg(10.0, 2_000), lane_count=2**32)
    arrivals = generate_arrivals(cfg, direction, np.random.default_rng(5))
    assert len(arrivals) > 5
    for v in arrivals:
        lane = direction.sign * v.y / cfg.lane_width - 0.5
        assert lane == int(lane) and 0 <= lane < 2**31
        assert v.y == direction.sign * (int(lane) + 0.5) * cfg.lane_width


def test_position_identity_at_spawn():
    v = _east_vehicle(spawn_time=1234)
    assert position_at(v, 1234) == (v.spawn_x, v.y)


def test_position_advances_toward_exit():
    v = _east_vehicle()
    x, y = position_at(v, 40_000)  # 40 s at 30 m/s
    assert x == pytest.approx(-300.0)
    assert y == 1.75
    # At one full transit the vehicle is at the exit edge.
    assert position_at(v, 100_000)[0] == pytest.approx(1500.0)


def test_query_before_spawn_is_error():
    with pytest.raises(MobilityError, match="before spawn"):
        position_at(_east_vehicle(spawn_time=500), 499)


@pytest.mark.parametrize("d_t, offset", [
    (300.0, 40_000), (0.0, 50_000), (-100.0, 53_334),   # ceil(1600/30*1000)
    (1499.5, 17), (-1499.5, 99_984),
])
def test_trigger_offset_examples(d_t, offset):
    """The RSU is mid-stretch: both directions spawn 1,500 m upstream of it at 30 m/s."""
    assert trigger_offset_ms(dataclasses.replace(CFG, d_t=d_t)) == offset


def test_trigger_mirrored_for_opposing_direction():
    east, west = _east_vehicle(), _west_vehicle()
    # Signed distance to an RSU at x = 0 decreases through zero for both
    # directions.
    for v in (east, west):
        for t, expected in ((0, 1500.0), (50_000, 0.0), (60_000, -300.0)):
            assert -position_at(v, t)[0] * v.direction.sign == pytest.approx(expected)


def test_exit_time_and_transit():
    v = _east_vehicle()
    assert v.spawn_time + transit_ms(CFG.road_length, v.speed) == 100_000
    assert transit_ms(3000.0, 30.0) == 100_000


def test_rate_must_be_positive():
    with pytest.raises(MobilityError):
        generate_arrivals(_arrival_cfg(0.0, 1000), Direction.EAST, np.random.default_rng(0))


@pytest.mark.parametrize("rate", [1e-307, 1e-320])
def test_arrival_gap_past_any_horizon_ends_the_stream(rate):
    # A mean gap of 1e307 s overflows once converted to ms; 1/1e-320 is inf.
    cfg = _arrival_cfg(rate, 10**12)
    assert cfg.flow_rate / 2.0 == rate
    for seed in range(20):
        assert len(generate_arrivals(cfg, Direction.EAST, np.random.default_rng(seed))) == 0


def _scripted_rng(spacings, lane_draws):
    """A generator stand-in: len(spacings) - 1 arrivals at these spacings, lane 0."""
    def lanes(high, size):
        lane_draws.append((high, size))
        return np.zeros(size, dtype=np.int64)
    return SimpleNamespace(poisson=lambda lam: len(spacings) - 1,
                           standard_exponential=lambda n: np.array(spacings[:n]),
                           integers=lanes)


def test_an_arrival_pushed_apart_past_the_horizon_ends_the_stream():
    # Two arrivals over a 10 ms horizon, at 9.5 and 9.5004 ms (partial sums
    # 9.5 and 9.5004 of a total of 10): both round up to 10 ms, the horizon,
    # and the second is pushed apart to 11 ms, past it, so it is dropped and
    # only one lane is drawn. Two lanes: one lane per direction.
    cfg = dataclasses.replace(CFG, lane_count=2, sim_duration=10)
    lane_draws = []
    arrivals = generate_arrivals(cfg, Direction.EAST, _scripted_rng([9.5, 0.0004, 0.4996],
                                                                    lane_draws))
    assert [v.spawn_time for v in arrivals] == [10]
    assert lane_draws == [(1, 1)]


def test_one_lane_per_direction_takes_no_lane_draw():
    # Two lanes: each direction's lane draw spans one value, which numpy draws
    # without touching the stream, so only the Poisson count and the N + 1
    # exponential spacings move the state.
    cfg = dataclasses.replace(_arrival_cfg(5.0, 20_000), lane_count=2)
    rng, twin = np.random.default_rng(11), np.random.default_rng(11)
    arrivals = generate_arrivals(cfg, Direction.EAST, rng)
    assert len(arrivals) > 50
    twin.standard_exponential(twin.poisson(5.0 * 20.0) + 1)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_spawn_instants_are_pushed_apart_by_a_running_maximum():
    # Rounded instants 0, 3, 3, 3, 4 and 9 ms become 1, 3, 4, 5, 6 and 9: the
    # first is at least 1 ms, and each other at least 1 ms past its predecessor.
    cfg = dataclasses.replace(CFG, lane_count=2, sim_duration=10)
    spacings = [0.0, 2.5, 0.2, 0.1, 0.9, 5.0, 1.3]   # partial sums 0, 2.5, ..., 10
    arrivals = generate_arrivals(cfg, Direction.EAST, _scripted_rng(spacings, []))
    assert [v.spawn_time for v in arrivals] == [1, 3, 4, 5, 6, 9]


def test_inter_arrival_gaps_are_exponential():
    """Binned gaps between spawns, from time 0, against the exponential law at
    0.05 veh/s a direction: a mean of 20 s, so the 1 ms grid moves a bin's
    probability by about 1e-4. Each bin passes the exact binomial tail test."""
    rate = 0.05
    cfg = _arrival_cfg(rate, 400_000_000)
    times = np.array(generate_arrivals(cfg, Direction.WEST, np.random.default_rng(2)).spawn_times)
    gaps = np.diff(times, prepend=0) / 1000.0
    assert len(gaps) > 15_000
    edges = [0.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, math.inf]
    for lo, hi in zip(edges, edges[1:]):
        observed = int(np.count_nonzero((gaps >= lo) & (gaps < hi)))
        p = math.exp(-rate * lo) - math.exp(-rate * hi)
        assert bin_consistent(observed, len(gaps), p, 1e-3 / (len(edges) - 1)), (lo, hi, observed)


def test_stretch_window_matches_in_stretch():
    rng = np.random.default_rng(5)
    arrivals = generate_arrivals(_arrival_cfg(20.0, 150_000), Direction.EAST, rng)
    spawns = np.array([v.spawn_time for v in arrivals])
    transit = transit_ms(CFG.road_length, CFG.mean_speed)
    for t in (0, 40_000, 100_000, 149_999):
        lo, hi = stretch_window(spawns, t, transit)
        window_ids = {arrivals[i].vehicle_id for i in range(lo, hi)}
        truth = {v.vehicle_id for v in arrivals
                 if v.spawn_time <= t < v.spawn_time + transit_ms(CFG.road_length, v.speed)}
        assert window_ids == truth
