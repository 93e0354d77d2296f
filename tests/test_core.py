"""Configuration schema: defaults, validation reporting, file round-trips."""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from v2isim import engine
from v2isim.core import (
    ConfigError, ScenarioConfig, ceil_ms,
    dumps_config, load_config, override_config, parse_config,
    replace_config, validate_config,
)


def _rejected_where_it_runs(cfg: ScenarioConfig, field: str) -> None:
    """validate_config, replace_config and engine.run each reject cfg, naming field."""
    assert any(msg.startswith(field) for msg in validate_config(cfg))
    with pytest.raises(ConfigError, match=field):
        replace_config(cfg)
    with pytest.raises(ConfigError, match=field):
        engine.run(cfg)


def test_defaults_are_valid():
    assert validate_config(ScenarioConfig()) == []


def test_defaults_mirror_reference_scenario():
    cfg = ScenarioConfig()
    assert cfg.b_ack == 16
    assert cfg.t_sum == 600
    assert cfg.t_ack == 400
    assert cfg.sam_period == 1000
    assert cfg.mean_speed == 30.0
    assert cfg.road_length == 3000.0
    assert cfg.lane_count == 16
    assert cfg.flow_rate in (10.0, 20.0, 30.0)


def test_b_ack_zero_reports_single_violation():
    violations = validate_config(ScenarioConfig(b_ack=0))
    assert len(violations) == 1
    assert "b_ack" in violations[0]


def test_trigger_outside_stretch_reports_d_t():
    violations = validate_config(ScenarioConfig(d_t=2000.0, road_length=3000.0))
    assert len(violations) == 1
    assert "d_t" in violations[0]


def test_validation_reports_all_violations_without_raising():
    violations = validate_config(ScenarioConfig(b_ack=0, t_sum=0, flow_rate=-1.0))
    assert len(violations) == 3


@pytest.mark.parametrize("field, value", [
    ("d_t", math.nan), ("flow_rate", math.inf), ("mean_speed", math.nan),
    ("road_length", math.inf), ("lane_width", math.nan), ("rng_seed", -1),
    # Finite, but the transit time, a per-direction rate or a squared
    # distance overflows or underflows.
    ("mean_speed", 1e-320), ("road_length", 1e308), ("flow_rate", 5e-324),
    ("lane_width", 1e308),
])
def test_non_finite_float_or_negative_seed_rejected_naming_field(field, value):
    violations = validate_config(ScenarioConfig(**{field: value}))
    assert violations and all(field in msg for msg in violations)


@pytest.mark.parametrize("overrides, field", [
    ({"flow_rate": 1e6}, "flow_rate"),
    ({"flow_rate": 10.0, "sim_duration": 100_000_001}, "flow_rate"),
    ({"flow_rate": 1e-9, "sim_duration": 10**12}, "bsm_period"),
    ({"flow_rate": 1e-3, "sim_duration": 1_000_001, "bsm_period": 1}, "bsm_period"),
    ({"lane_count": 2**63}, "lane_count"),
    ({"b_ack": 10**30}, "b_ack"),
    ({"sim_duration": 10**400}, "sim_duration"),
    ({"rng_seed": -2**63 - 1}, "rng_seed"),
])
def test_up_front_size_and_int64_range_rejected_naming_field(overrides, field):
    violations = validate_config(ScenarioConfig(**overrides))
    assert violations and any(field in msg for msg in violations)


@pytest.mark.parametrize("lane_count", [2**32 + 2, 2**40, 2**62])
def test_lane_count_beyond_the_32_bit_lane_draw_is_rejected(lane_count):
    # A direction's lane draw spans lane_count / 2 values, at most 2**31 here.
    assert validate_config(ScenarioConfig(lane_count=2**32)) == []
    violations = validate_config(ScenarioConfig(lane_count=lane_count))
    assert violations == [f"lane_count must be an even number in [2, 2**32] (got {lane_count})"]


def test_sam_timer_count_bound_rejects_a_run_that_cannot_end():
    # 1e9 SAM timers, with arrivals and BSM ticks under their bounds.
    violations = validate_config(ScenarioConfig(sim_duration=10**12, flow_rate=1e-6,
                                                bsm_period=10**12))
    assert len(violations) == 1 and "sam_period" in violations[0]


def test_retry_timer_bound_rejects_a_tiny_t_sum():
    # 30 veh/s for 600 s, each retrying every 1 ms over a 100 s transit:
    # 1.8e9 retry timers. Validation only: no run is started.
    violations = validate_config(ScenarioConfig(t_sum=1, flow_rate=30.0))
    assert len(violations) == 1 and "t_sum" in violations[0]
    assert "retry timers" in violations[0]


@pytest.mark.parametrize("field", ["tau_low", "rng_seed", "b_ack"])
def test_int_fields_reject_fractional_values(field):
    violations = validate_config(ScenarioConfig(**{field: 50.5}))
    assert violations == [f"{field} must be a whole number (got 50.5)"]


def test_up_front_size_bound_is_inclusive():
    # Validation only: no run is started.
    assert validate_config(ScenarioConfig(flow_rate=10.0, sim_duration=100_000_000,
                                          bsm_period=100)) == []


def test_trigger_line_must_lie_inside_stretch_in_both_directions():
    # The RSU is mid-stretch, so one bound serves both directions.
    half = ScenarioConfig().road_length / 2
    inside = math.nextafter(half, 0.0)
    for d_t in (inside, -inside):
        assert validate_config(ScenarioConfig(d_t=d_t)) == []
    for d_t in (half, -half):
        violations = validate_config(ScenarioConfig(d_t=d_t))
        assert len(violations) == 1 and "|d_t| < road_length/2" in violations[0]


@pytest.mark.parametrize("overrides", [
    {"mean_speed": 1e-300, "flow_rate": 1e-300},
    {"road_length": 1e150, "flow_rate": 1e-300},
])
def test_transit_time_past_int64_is_rejected_naming_the_fields(overrides):
    # Finite transit times that int64 arithmetic (the BSM counts) cannot hold.
    violations = validate_config(ScenarioConfig(**overrides))
    assert violations == [
        f"road_length / mean_speed must be a transit time below 2**63 ms (got "
        f"{overrides.get('road_length', 3000.0)} / {overrides.get('mean_speed', 30.0)})"]


def test_load_partial_file_fills_defaults(tmp_path):
    path = tmp_path / "flow.cfg"
    path.write_text("flow_rate = 20\n")
    cfg = load_config(str(path))
    assert cfg.flow_rate == 20.0
    assert cfg == ScenarioConfig(flow_rate=20.0)


def test_empty_file_yields_full_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    assert load_config(str(path)) == ScenarioConfig()


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# header\n\nflow_rate = 30  # inline\n")
    assert load_config(str(path)).flow_rate == 30.0


def test_negative_t_sum_rejected_naming_field(tmp_path):
    """A config file is only parsed; the scenario is rejected where it runs."""
    path = tmp_path / "bad.cfg"
    path.write_text("t_sum = -5\n")
    cfg = load_config(str(path))
    assert cfg.t_sum == -5
    _rejected_where_it_runs(cfg, "t_sum")


def test_unknown_key_is_error():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("no_such_field = 1\n")


def test_duplicate_key_is_error():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("flow_rate = 10\nflow_rate = 20\n")


def test_malformed_line_reports_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("flow_rate = 10\nnot a key value line\n")


def test_non_numeric_value_names_field():
    with pytest.raises(ConfigError, match="b_ack"):
        parse_config("b_ack = many\n")


def test_round_trip_is_field_identical(tmp_path):
    src = tmp_path / "src.cfg"
    src.write_text(
        "d_t = -100\nflow_rate = 27.5\nt_sum = 450\ntau_low = 64\n"
        "tau_high = 64\nrng_seed = 987654321\n"
    )
    cfg = load_config(str(src))
    out = tmp_path / "out.cfg"
    out.write_text(dumps_config(cfg))
    assert load_config(str(out)) == cfg
    # Serializing the reparsed config reproduces the same bytes, too.
    assert dumps_config(load_config(str(out))) == dumps_config(cfg)


@pytest.mark.parametrize("curve", [
    "/tmp/a#b.txt", "/tmp/a\nb.txt", "/tmp/a\rb.txt", "/tmp/a\u2028b.txt", "/tmp/a.txt\n",
    " /tmp/a.txt", "/tmp/a.txt ", "",
])
def test_per_curve_that_a_config_file_cannot_hold_is_rejected(curve):
    """A file line is cut at '#', split at line breaks and stripped."""
    violations = validate_config(ScenarioConfig(per_curve=curve))
    assert len(violations) == 1 and violations[0].startswith("per_curve ")


_ROUND_TRIP_FIELDS = st.fixed_dictionaries({
    "d_t": st.floats(-1000.0, 1000.0), "b_ack": st.integers(1, 64),
    "t_sum": st.integers(100, 5000), "t_ack": st.integers(1, 5000),
    "sam_period": st.integers(1, 5000), "bsm_period": st.integers(1, 5000),
    "flow_rate": st.floats(1e-3, 30.0), "mean_speed": st.floats(10.0, 60.0),
    "road_length": st.floats(2500.0, 6000.0), "lane_count": st.integers(1, 32).map(lambda n: 2 * n),
    "lane_width": st.floats(0.5, 10.0), "sim_duration": st.integers(1, 1_000_000),
    "warmup": st.integers(0, 10**6), "rng_seed": st.integers(0, 2**63 - 1),
    "tau_low": st.integers(8, 104), "tau_high": st.integers(104, 200),
    "per_curve": st.one_of(st.just("default"), st.text(
        st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"), blacklist_characters="#"),
        min_size=1).map(lambda name: "/" + name.strip() if name.strip() else "/x")),
})


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_ROUND_TRIP_FIELDS)
def test_every_accepted_config_round_trips_through_its_text(fields):
    cfg = ScenarioConfig(**fields)
    assert validate_config(cfg) == []
    assert parse_config(dumps_config(cfg)) == cfg


def test_missing_file_error_names_path():
    with pytest.raises(ConfigError, match="nowhere/missing.cfg"):
        load_config("nowhere/missing.cfg")


def test_override_config_applies_without_validating():
    cfg = override_config(ScenarioConfig(), ["flow_rate=30", "d_t=-100"])
    assert cfg.flow_rate == 30.0 and cfg.d_t == -100.0
    with pytest.raises(ConfigError, match="unknown key"):
        override_config(ScenarioConfig(), ["bogus=1"])
    cfg = override_config(ScenarioConfig(), ["b_ack=0"])
    assert cfg.b_ack == 0
    _rejected_where_it_runs(cfg, "b_ack")


@pytest.mark.parametrize("items, message", [
    (["d_t=1", "d_t=2"], "override 'd_t=2': duplicate key 'd_t'"),
    (["per_curve="], "override 'per_curve=': empty value for 'per_curve'"),
    (["b_ack=x"], "override 'b_ack=x': field b_ack expects an integer"),
    (["b_ack"], "override 'b_ack': expected 'key = value'"),
])
def test_override_errors_follow_file_rules_and_name_the_item(items, message):
    with pytest.raises(ConfigError) as info:
        override_config(ScenarioConfig(), items)
    assert str(info.value).startswith(message)
    # The same items as file lines, after a comment line: the last one fails.
    where = f"line {len(items) + 1}: "
    with pytest.raises(ConfigError, match=re.escape(where + message.split(": ", 1)[1])):
        parse_config("\n".join(["# header", *items]) + "\n")


def test_tau_range_validated():
    assert any("tau" in msg for msg in validate_config(ScenarioConfig(tau_low=4)))
    assert any("tau" in msg for msg in validate_config(ScenarioConfig(tau_high=300)))
    assert any("tau" in msg
               for msg in validate_config(ScenarioConfig(tau_low=300, tau_high=300)))
    assert any("tau" in msg for msg in validate_config(ScenarioConfig(tau_low=9, tau_high=8)))
    assert validate_config(ScenarioConfig(tau_low=8, tau_high=200)) == []


def test_ceil_ms_quantization():
    assert ceil_ms(40000.0) == 40000
    assert ceil_ms(53333.333333333336) == 53334
    assert ceil_ms(0.2) == 1
    # Float noise just above an integer must not bump to the next ms.
    assert ceil_ms(12.000000000000002) == 12
