"""Domain vocabulary, units, and the scenario configuration schema.

All simulation times are integer milliseconds (``TimeMs``); distances are
meters. Signed longitudinal distances are positive upstream of the RSU in a
vehicle's own direction of travel and negative once it has passed the RSU.

A ``Message`` is an immutable named tuple; the engine stamps its transmit
position with ``msg._replace(tx_position=...)``. The per-kind radio
parameters (priority, payload size, MCS) have no effect on the simulation
and are listed in the README only. The config parser takes each field's
type from the ``ScenarioConfig`` annotations.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, get_type_hints

from . import channel as _channel

# Integer milliseconds since simulation start.
TimeMs = int

# Signed longitudinal distance to the RSU, meters (positive = not yet passed).
SignedMeters = float

# Entity id used by the road-side unit on the shared timeline.
RSU_ID = -1


def ceil_ms(value_ms: float) -> TimeMs:
    """Quantize a real-valued duration/instant to the 1 ms event grid."""
    return int(math.ceil(value_ms - 1e-9))


class MessageKind(Enum):
    BSM = "bsm"
    SAM = "sam"
    SUM = "sum"
    ACK = "ack"


class Message(NamedTuple):
    """A single in-simulator transmission.

    ``recipients`` is non-empty only for ACKs (the addressed vehicle ids).
    ``seq`` is a per-sender counter; for SUMs it equals the attempt number.
    ``tx_position`` is stamped by the engine when the transmission is
    scheduled (protocol state machines do not know geometry).
    """

    kind: MessageKind
    sender: int
    tx_time: TimeMs
    tx_position: tuple[float, float] | None = None
    recipients: tuple[int, ...] = ()
    seq: int = 0


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
    rsu_x: float = 0.0               # longitudinal, stretch centered at 0
    rsu_y: float = 0.0               # lateral, 0 = median
    sim_duration: TimeMs = 600_000
    warmup: TimeMs = 100_000         # one road-transit time at defaults
    rng_seed: int = 1
    tau_mode: str = "uniform"        # "fixed" | "uniform"
    tau_fixed: TimeMs = 104
    tau_low: TimeMs = 8
    tau_high: TimeMs = 200
    per_curve: str = "default"       # "default" or path to a calibration file
    bsm_probe_count: int = 4         # sampled receivers per BSM transmission

    @property
    def rsu_position(self) -> tuple[float, float]:
        return (self.rsu_x, self.rsu_y)

    def tau_model(self) -> _channel.TauModel:
        mode = "fixed" if self.tau_mode == "fixed" else "uniform"
        return _channel.TauModel(
            mode=mode,
            fixed_ms=self.tau_fixed,
            low_ms=self.tau_low,
            high_ms=self.tau_high,
        )

    def channel(self) -> _channel.ChannelModel:
        """Resolve the PER calibration and tau model for this scenario."""
        if self.per_curve == "default":
            curve = _channel.default_calibration()
        else:
            curve = _channel.load_per_curve(self.per_curve)
        return _channel.ChannelModel(curve=curve, tau=self.tau_model())


# Field name -> int, float or str, in declaration order.
_FIELD_TYPES: dict[str, type] = get_type_hints(ScenarioConfig)


def validate_config(cfg: ScenarioConfig) -> list[str]:
    """Return every violated invariant as a human-readable reason.

    Never raises: an empty list means the configuration is valid.
    """
    violations: list[str] = []

    def bad(reason: str) -> None:
        violations.append(reason)

    for name, kind in _FIELD_TYPES.items():
        value = getattr(cfg, name)
        if kind is float and not math.isfinite(value):
            bad(f"{name} must be a finite number (got {value})")
    if cfg.b_ack < 1:
        bad(f"b_ack must be >= 1 (got {cfg.b_ack})")
    for name in ("t_sum", "t_ack", "sam_period", "bsm_period"):
        value = getattr(cfg, name)
        if value <= 0:
            bad(f"{name} must be a positive duration in ms (got {value})")
    if cfg.flow_rate <= 0:
        bad(f"flow_rate must be > 0 veh/s (got {cfg.flow_rate})")
    if cfg.mean_speed <= 0:
        bad(f"mean_speed must be > 0 m/s (got {cfg.mean_speed})")
    if cfg.road_length <= 0:
        bad(f"road_length must be > 0 m (got {cfg.road_length})")
    elif abs(cfg.d_t) >= cfg.road_length / 2:
        bad(
            f"d_t must satisfy |d_t| < road_length/2 so the trigger line lies "
            f"inside the modeled stretch (got d_t={cfg.d_t}, "
            f"road_length={cfg.road_length})"
        )
    if cfg.lane_count < 2 or cfg.lane_count % 2 != 0:
        bad(f"lane_count must be an even number >= 2 (got {cfg.lane_count})")
    if cfg.lane_width <= 0:
        bad(f"lane_width must be > 0 m (got {cfg.lane_width})")
    if cfg.road_length > 0 and abs(cfg.rsu_x) >= cfg.road_length / 2:
        bad(f"rsu_x must lie inside the stretch (got {cfg.rsu_x})")
    if cfg.sim_duration <= 0:
        bad(f"sim_duration must be > 0 ms (got {cfg.sim_duration})")
    if cfg.warmup < 0:
        bad(f"warmup must be >= 0 ms (got {cfg.warmup})")
    if cfg.tau_mode not in ("fixed", "uniform"):
        bad(f"tau_mode must be 'fixed' or 'uniform' (got {cfg.tau_mode!r})")
    if not (_channel.TAU_MIN_MS <= cfg.tau_low <= cfg.tau_high <= _channel.TAU_MAX_MS):
        bad(
            f"tau range must satisfy {_channel.TAU_MIN_MS} <= tau_low <= "
            f"tau_high <= {_channel.TAU_MAX_MS} (got [{cfg.tau_low}, {cfg.tau_high}])"
        )
    if not (_channel.TAU_MIN_MS <= cfg.tau_fixed <= _channel.TAU_MAX_MS):
        bad(
            f"tau_fixed must lie in [{_channel.TAU_MIN_MS}, {_channel.TAU_MAX_MS}] ms "
            f"(got {cfg.tau_fixed})"
        )
    if cfg.bsm_probe_count < 1:
        bad(f"bsm_probe_count must be >= 1 (got {cfg.bsm_probe_count})")
    if cfg.rng_seed < 0:
        bad(f"rng_seed must be >= 0 (got {cfg.rng_seed})")
    return violations


def _coerce(key: str, raw: str, lineno: int) -> int | float | str:
    kind = _FIELD_TYPES[key]
    try:
        return kind(raw)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(
            f"line {lineno}: field {key} expects {expected}, got {raw!r}"
        ) from None


def parse_config(text: str, base_dir: str = ".") -> ScenarioConfig:
    """Parse flat ``key = value`` configuration text.

    Omitted fields keep their defaults; unknown or duplicate keys are errors.
    Relative per_curve paths are resolved against ``base_dir``.
    """
    values: dict[str, int | float | str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not raw:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        values[key] = _coerce(key, raw, lineno)

    curve_ref = values.get("per_curve")
    if isinstance(curve_ref, str) and curve_ref != "default" \
            and not os.path.isabs(curve_ref):
        values["per_curve"] = os.path.normpath(os.path.join(base_dir, curve_ref))
    cfg = ScenarioConfig(**values)
    violations = validate_config(cfg)
    if violations:
        raise ConfigError(
            "invalid configuration:\n  " + "\n  ".join(violations)
        )
    return cfg


def override_config(cfg: ScenarioConfig, assignments: list[str]) -> ScenarioConfig:
    """Apply ``key=value`` overrides on top of an existing config, revalidating."""
    updates: dict[str, int | float | str] = {}
    for i, item in enumerate(assignments, start=1):
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"override: unknown key {key!r}")
        updates[key] = _coerce(key, raw, i)
    new = dataclasses.replace(cfg, **updates)
    violations = validate_config(new)
    if violations:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(violations))
    return new


def load_config(path: str) -> ScenarioConfig:
    """Load and validate a scenario configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    cfg = parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))
    if cfg.per_curve != "default":
        # Fail at load time if the referenced calibration is unusable.
        _channel.load_per_curve(cfg.per_curve)
    return cfg


def dumps_config(cfg: ScenarioConfig) -> str:
    """Serialize a config so that parsing it back yields an identical value."""
    lines = [f"{name} = {getattr(cfg, name)}" for name in _FIELD_TYPES]
    return "\n".join(lines) + "\n"


def dump_config(cfg: ScenarioConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_config(cfg))
