"""Domain vocabulary, units, and the scenario configuration schema.

All simulation times are integer milliseconds (``TimeMs``); distances are
meters. The RSU is the origin (``RSU_POSITION``): the centre of the stretch,
on the median. Signed longitudinal distances are positive upstream of the
RSU in a vehicle's own direction of travel and negative once it has passed it.

A ``Message`` is an immutable named tuple holding what goes over the air;
the engine carries its transmit position beside it. The per-kind radio
parameters (priority, payload size, MCS) have no effect on the simulation
and are listed in the README only. One key=value parser serves config-file
lines and overrides, taking each field's type from the ``ScenarioConfig``
annotations; every parsed or derived config passes ``replace_config``. Tau
is one range, ``tau_low..tau_high``; a fixed tau is ``tau_low = tau_high``.
The fields are scenario parameters; each BSM sender probes one receiver,
with no setting.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, get_type_hints

from . import channel as _channel

# Integer milliseconds since simulation start.
TimeMs = int

# Signed longitudinal distance to the RSU, meters (positive = not yet passed).
SignedMeters = float

# The road-side unit's entity id on the shared timeline, and where it stands,
# (x, y) in meters: the stretch centre, on the median.
RSU_ID = -1
RSU_POSITION = (0.0, 0.0)


def ceil_ms(value_ms: float) -> TimeMs:
    """Quantize a real-valued duration/instant to the 1 ms event grid."""
    return int(math.ceil(value_ms - 1e-9))


class MessageKind(Enum):
    SAM = "sam"
    SUM = "sum"
    ACK = "ack"


class Message(NamedTuple):
    """A single over-the-air transmission.

    ``recipients`` is non-empty only for ACKs (the addressed vehicle ids).
    """

    kind: MessageKind
    sender: int
    recipients: tuple[int, ...] = ()


class ConfigError(ValueError):
    """Raised when a configuration file cannot be parsed or validated."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Full scenario description: protocol, traffic, channel, geometry, run.

    Immutable once built, so it can be shared read-only across concurrently
    executing runs. Defaults reproduce the reference freeway scenario: a
    3 km, 16 lane bidirectional stretch with the RSU mid-stretch, 30 m/s
    constant speed, SAM every second, SUM retry every 600 ms, ACKs batched up
    to 16 recipients or flushed 400 ms after the first pending request.
    """

    d_t: SignedMeters = 0.0
    b_ack: int = 16
    t_sum: TimeMs = 600
    t_ack: TimeMs = 400
    sam_period: TimeMs = 1000
    bsm_period: TimeMs = 100
    flow_rate: float = 10.0          # aggregate veh/s, both directions
    mean_speed: float = 30.0         # m/s
    road_length: float = 3000.0      # m
    lane_count: int = 16             # total, split evenly per direction
    lane_width: float = 3.5          # m
    sim_duration: TimeMs = 600_000
    warmup: TimeMs = 100_000         # one road-transit time at defaults
    rng_seed: int = 1
    tau_low: TimeMs = 8              # exchange delay: uniform on [tau_low, tau_high],
    tau_high: TimeMs = 200           # fixed when the two are equal
    per_curve: str = "default"       # "default" or path to a calibration file

    def channel(self) -> _channel.PerCurve:
        """Resolve the PER calibration for this scenario."""
        if self.per_curve == "default":
            return _channel.default_calibration()
        return _channel.load_per_curve(self.per_curve)


# Field name -> int, float or str, in declaration order.
_FIELD_TYPES: dict[str, type] = get_type_hints(ScenarioConfig)

# Arrivals (16 B each, in arrays) and BSM ticks are built before a run starts.
# A run's peak grows by about 190 B per arrival with BSMs on and 170 B with
# them off (1e5 arrivals at 30 veh/s, ru_maxrss), so this many stay under
# 1 GB. The same bound caps the periodic SAM timer's events, so every run can end.
MAX_UPFRONT_ITEMS = 1_000_000

# Worst case of retry timers: every arrival retries every t_sum for its whole
# transit. At about 10 us per event (200 s, d_t=300 m, flow 30, 2-vCPU host)
# this many take about 34 minutes; it admits 1e6 arrivals at the default t_sum (167 each).
MAX_RETRY_TIMERS = 200_000_000

# Fields that must be > 0, with their units.
_POSITIVE_FIELDS = {
    "t_sum": "ms", "t_ack": "ms", "sam_period": "ms", "bsm_period": "ms",
    "sim_duration": "ms", "flow_rate": "veh/s", "mean_speed": "m/s",
    "road_length": "m", "lane_width": "m",
}


def validate_config(cfg: ScenarioConfig) -> list[str]:
    """Return every violated invariant as a human-readable reason.

    Never raises: an empty list means the configuration is valid.
    """
    violations: list[str] = []
    bad = violations.append
    for name, kind in _FIELD_TYPES.items():
        value = getattr(cfg, name)
        if kind is float and not math.isfinite(value):
            bad(f"{name} must be a finite number (got {value})")
        elif kind is int and not -2**63 <= value < 2**63:
            # The checks below take ints as floats, and numpy takes them as int64.
            return [f"{name} must fit in a signed 64-bit integer (got {value})"]
        elif kind is int and value % 1:
            bad(f"{name} must be a whole number (got {value})")
    if cfg.b_ack < 1:
        bad(f"b_ack must be >= 1 (got {cfg.b_ack})")
    for name, unit in _POSITIVE_FIELDS.items():
        value = getattr(cfg, name)
        if value <= 0:
            bad(f"{name} must be > 0 {unit} (got {value})")
    # Each direction gets half the flow; that half must not underflow to 0.
    if cfg.flow_rate > 0 and cfg.flow_rate / 2.0 == 0:
        bad(f"flow_rate must be > 0 veh/s in each direction (got {cfg.flow_rate})")
    if cfg.flow_rate * cfg.sim_duration / 1000.0 > MAX_UPFRONT_ITEMS:
        bad(f"flow_rate * sim_duration must expect at most {MAX_UPFRONT_ITEMS} arrivals "
            f"(got {cfg.flow_rate} veh/s * {cfg.sim_duration} ms)")
    if cfg.bsm_period > 0 and cfg.sim_duration / cfg.bsm_period > MAX_UPFRONT_ITEMS:
        bad(f"sim_duration / bsm_period must be at most {MAX_UPFRONT_ITEMS} BSM ticks "
            f"(got {cfg.sim_duration} / {cfg.bsm_period})")
    if cfg.sam_period > 0 and cfg.sim_duration / cfg.sam_period > MAX_UPFRONT_ITEMS:
        bad(f"sim_duration / sam_period must be at most {MAX_UPFRONT_ITEMS} SAM timers "
            f"(got {cfg.sim_duration} / {cfg.sam_period})")
    if abs(cfg.d_t) >= cfg.road_length / 2:
        bad(f"d_t must satisfy |d_t| < road_length/2 so the trigger line lies inside "
            f"the stretch (got d_t={cfg.d_t}, road_length={cfg.road_length})")
    if cfg.mean_speed > 0 and not cfg.road_length / cfg.mean_speed * 1e3 < 2**63:
        bad(f"road_length / mean_speed must be a transit time below 2**63 ms "
            f"(got {cfg.road_length} / {cfg.mean_speed})")
    elif cfg.mean_speed > 0 and cfg.t_sum > 0:
        transit = ceil_ms(cfg.road_length / cfg.mean_speed * 1000.0)
        timers = cfg.flow_rate * cfg.sim_duration / 1000.0 * math.ceil(transit / cfg.t_sum)
        if timers > MAX_RETRY_TIMERS:
            bad(f"flow_rate * sim_duration * ceil({transit} ms transit / t_sum) must expect "
                f"at most {MAX_RETRY_TIMERS} retry timers (got {timers:.3g}, t_sum={cfg.t_sum})")
    # A lane draw (channel.uniform_int) spans lane_count / 2 values, at most 2**32.
    if not 2 <= cfg.lane_count <= 2**32 or cfg.lane_count % 2 != 0:
        bad(f"lane_count must be an even number in [2, 2**32] (got {cfg.lane_count})")
    # Any two positions lie within ``extent`` of each other on both axes.
    extent = cfg.road_length + cfg.lane_count * cfg.lane_width
    if not math.isfinite(2.0 * extent * extent):
        bad(f"road_length + lane_count * lane_width must keep squared distances "
            f"finite (got {cfg.road_length} + {cfg.lane_count} * {cfg.lane_width})")
    if cfg.warmup < 0:
        bad(f"warmup must be >= 0 ms (got {cfg.warmup})")
    lo, hi = _channel.TAU_MIN_MS, _channel.TAU_MAX_MS
    if not lo <= cfg.tau_low <= cfg.tau_high <= hi:
        bad(f"tau range must satisfy {lo} <= tau_low <= tau_high <= {hi} "
            f"(got [{cfg.tau_low}, {cfg.tau_high}])")
    if cfg.rng_seed < 0:
        bad(f"rng_seed must be >= 0 (got {cfg.rng_seed})")
    # A config file line is cut at '#' and its value stripped: only such a path round-trips.
    curve = cfg.per_curve
    if "#" in curve or curve.splitlines() != [curve] or curve.strip() != curve:
        bad(f"per_curve must be non-empty, without '#', line breaks or surrounding "
            f"whitespace (got {curve!r})")
    return violations


def raise_violations(violations: list[str]) -> None:
    """Raise one ``ConfigError`` listing every violation; no-op when empty."""
    if violations:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(violations))


def replace_config(cfg: ScenarioConfig, **changes) -> ScenarioConfig:
    """``dataclasses.replace`` that raises ``ConfigError`` unless the result is valid."""
    new = dataclasses.replace(cfg, **changes)
    raise_violations(validate_config(new))
    return new


def _parse_assignments(items: Iterable[tuple[str, str]],
                       base_dir: str) -> dict[str, int | float | str]:
    """Typed field values from ``(where, "key = value")`` items.

    Config-file lines and command-line overrides share these rules: unknown
    keys, duplicate keys and empty values are errors, and each error starts
    with the item's ``where`` (a file line or the override itself). A
    relative per_curve path is resolved against ``base_dir``.
    """
    values: dict[str, int | float | str] = {}
    for where, text in items:
        key, eq, raw = text.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not eq:
            raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        if not raw:
            raise ConfigError(f"{where}: empty value for {key!r}")
        kind = _FIELD_TYPES[key]
        try:
            values[key] = kind(raw)
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise ConfigError(
                f"{where}: field {key} expects {expected}, got {raw!r}"
            ) from None
    curve_ref = values.get("per_curve")
    if isinstance(curve_ref, str) and curve_ref != "default" \
            and not os.path.isabs(curve_ref):
        values["per_curve"] = os.path.normpath(os.path.join(base_dir, curve_ref))
    return values


def parse_config(text: str, base_dir: str = ".") -> ScenarioConfig:
    """Parse flat ``key = value`` configuration text.

    Omitted fields keep their defaults; ``#`` starts a comment. Relative
    per_curve paths are resolved against ``base_dir``.
    """
    lines = ((f"line {lineno}", line.split("#", 1)[0].strip())
             for lineno, line in enumerate(text.splitlines(), start=1))
    values = _parse_assignments(((where, text) for where, text in lines if text), base_dir)
    return replace_config(ScenarioConfig(), **values)


def override_config(cfg: ScenarioConfig, assignments: list[str],
                    validate: bool = True) -> ScenarioConfig:
    """Apply ``key=value`` overrides on top of an existing config, revalidating.

    With ``validate`` false the result is only parsed; the caller validates
    every config it builds from it. A relative per_curve path is resolved
    against the working directory.
    """
    values = _parse_assignments(
        ((f"override {item!r}", item) for item in assignments), os.getcwd())
    return (replace_config if validate else dataclasses.replace)(cfg, **values)


def load_config(path: str) -> ScenarioConfig:
    """Load and validate a scenario configuration file.

    The calibration file named by ``per_curve`` is not read here; it is
    resolved by ``ScenarioConfig.channel()``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))


def dumps_config(cfg: ScenarioConfig) -> str:
    """Serialize a config so that parsing it back yields an identical value."""
    lines = [f"{name} = {getattr(cfg, name)}" for name in _FIELD_TYPES]
    return "\n".join(lines) + "\n"
