"""Discrete-event simulator and analytic toolkit for an RSU-assisted
trigger-line transaction service over a stochastic sidelink channel."""

from .analytic import (
    AnalyticParams, SweepPoint, attempt_success, first_success_pmf,
    mean_attempts, params_from_config, sweep_trigger,
)
from .channel import (
    ChannelModel, CurveError, PerCurve, TauModel, constant_per_curve,
    default_calibration, load_per_curve, per, sample_reception, sample_tau,
    validate_per_curve,
)
from .core import (
    ConfigError, Message, MessageKind, RSU_ID, ScenarioConfig,
    dump_config, dumps_config, load_config, override_config, parse_config,
    validate_config,
)
from .engine import BatchError, EngineError, deliver_broadcast, run, run_batch
from .metrics import (
    CompletionRecord, RunSummary, export_analytic, export_records,
    export_summaries, mean_attempts_empirical, sct_percentile, write_metadata,
)
from .mobility import (
    ArrivalProcess, Direction, VehicleKinematics, exit_time,
    generate_arrivals, position_at, trigger_crossing_time,
)
from .protocol import (
    ObuPhase, ObuState, ProtocolError, ProtocolOutput, RsuState, TimerKind,
    obu_on_ack, obu_on_retry_timer, obu_on_sam, obu_on_trigger,
    rsu_on_ack_timer, rsu_on_sam_timer, rsu_on_sum,
)
from .validation import BinCheck, check_against_pmf

__version__ = "0.1.0"

__all__ = [
    "AnalyticParams", "ArrivalProcess", "BatchError", "BinCheck",
    "ChannelModel", "CompletionRecord", "ConfigError", "CurveError",
    "Direction", "EngineError", "Message", "MessageKind",
    "ObuPhase", "ObuState", "PerCurve", "ProtocolError", "ProtocolOutput",
    "RSU_ID", "RsuState", "RunSummary", "ScenarioConfig", "SweepPoint",
    "TauModel", "TimerKind", "VehicleKinematics", "attempt_success",
    "check_against_pmf", "constant_per_curve", "default_calibration",
    "deliver_broadcast", "dump_config", "dumps_config", "exit_time",
    "export_analytic", "export_records", "export_summaries",
    "first_success_pmf", "generate_arrivals", "load_config", "load_per_curve",
    "mean_attempts", "mean_attempts_empirical", "obu_on_ack",
    "obu_on_retry_timer", "obu_on_sam", "obu_on_trigger", "override_config",
    "params_from_config", "parse_config", "per", "position_at", "run",
    "run_batch", "rsu_on_ack_timer", "rsu_on_sam_timer", "rsu_on_sum",
    "sample_reception", "sample_tau", "sct_percentile", "sweep_trigger",
    "trigger_crossing_time", "validate_config", "validate_per_curve",
    "write_metadata",
]
