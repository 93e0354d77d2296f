"""Stochastic reception model.

Packet error rate (PER) is a data-driven interpolation table indexed by
traffic density (veh/s) and absolute Tx-Rx distance (m). The exchange delay
tau covers the intra-layer and scheduling latency between a request reaching
the RSU and the matching acknowledgment reaching the vehicle; it is drawn
from the config's inclusive ``tau_low..tau_high`` range, which
``validate_config`` keeps inside [8, 200] ms.

PER has two lookup paths over the same knots. ``per_many`` interpolates an
array of distances with ``np.interp``, blending the two density levels
around the requested density: the closed form, and the engine once per ACK
or SAM broadcast, over its candidates. ``per`` is ``per_many`` over a
one-element list, returned as a plain ``float``: the engine's for each new
SUM transmit position, and the Monte-Carlo check's per attempt.

``per_table`` is the second path, for the BSM pass's millions of probes: one
density's ``per_many``, evaluated once at the midpoints of equal cells over
``[0, last knot]`` (1 cm wide, or wider when 1 cm cells would take more
than ``PER_TABLE_MAX_CELLS`` entries) and read back by cell index with one
``take``. PER is piecewise linear in distance, so a lookup is off by at most
the steepest knot segment's slope times half a cell (1.8e-5 on the default
curve); at and past the last knot it returns ``per_many``'s clamped value
bit for bit.

Scalar draws (``sample_tau``, the lane draw) call ``uniform_int``: numpy's
bounded-integer step over the bit generator's C ``next_uint32``, so each
returns what ``Generator.integers`` would and leaves the same state, at a
third of the cost. The random stream and every seeded output are unchanged.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

TAU_MIN_MS = 8
TAU_MAX_MS = 200


class CurveError(ValueError):
    """Raised when a PER calibration cannot be parsed or validated."""


class _KnotTable(NamedTuple):
    """One density level's knots as numpy arrays."""

    dist_array: np.ndarray
    per_array: np.ndarray


# (blend weight of the upper level, lower level, upper level or None).
_Blend = tuple[float, _KnotTable, _KnotTable | None]


@dataclass(eq=True)
class PerCurve:
    """PER as a function of |distance| per density level.

    ``levels`` are sorted flow rates; ``tables[i]`` is the sorted
    ``(distance_m, per)`` knot list for ``levels[i]``. Lookups interpolate
    linearly in |distance| and density and clamp outside the knot range.
    """

    levels: tuple[float, ...]
    tables: tuple[tuple[tuple[float, float], ...], ...]
    _knots: list[_KnotTable] | None = field(
        default=None, init=False, repr=False, compare=False)

    def _knot_tables(self) -> list[_KnotTable]:
        if self._knots is None:
            self._knots = [_KnotTable(np.array([d for d, _ in tab], dtype=float),
                                      np.array([p for _, p in tab], dtype=float))
                           for tab in self.tables]
        return self._knots

    def _blend(self, density: float) -> _Blend:
        """The level(s) and weight used at ``density``."""
        if density != density:
            raise ValueError(f"PER density must not be NaN (got {density})")
        levels = self.levels
        knots = self._knot_tables()
        if density <= levels[0]:
            return 0.0, knots[0], None
        if density >= levels[-1]:
            return 0.0, knots[-1], None
        hi = bisect.bisect_right(levels, density)
        lo = hi - 1
        w = (density - levels[lo]) / (levels[hi] - levels[lo])
        # At a level exactly the upper table has no weight: skip it.
        return (0.0, knots[lo], None) if w == 0 else (float(w), knots[lo], knots[hi])

    @property
    def max_knot_distance(self) -> float:
        return max(tab[-1][0] for tab in self.tables)


def validate_per_curve(curve: PerCurve) -> list[str]:
    """Return every violated calibration invariant (empty list = valid)."""
    violations: list[str] = []
    if not curve.levels:
        return ["calibration must define at least one density level"]
    if not all(math.isfinite(level) for level in curve.levels):
        return ["density levels must be finite"]
    if list(curve.levels) != sorted(curve.levels):
        violations.append("density levels must be sorted ascending")
    if len(set(curve.levels)) != len(curve.levels):
        violations.append("density levels must be distinct")
    if len(curve.tables) != len(curve.levels):
        violations.append("each density level needs exactly one knot table")
        return violations
    for level, tab in zip(curve.levels, curve.tables):
        if not tab:
            violations.append(f"density {level}: empty knot table")
            continue
        dists = [d for d, _ in tab]
        pers = [p for _, p in tab]
        if not all(math.isfinite(d) for d in dists):
            violations.append(f"density {level}: knot distances must be finite")
        elif any(d < 0 for d in dists):
            violations.append(f"density {level}: knot distances must be >= 0")
        if dists != sorted(dists) or len(set(dists)) != len(dists):
            violations.append(f"density {level}: knot distances must be strictly increasing")
        if any(not (0.0 <= p <= 1.0) for p in pers):
            violations.append(f"density {level}: per values must lie in [0, 1]")
        if any(b < a for a, b in zip(pers, pers[1:])):
            violations.append(f"density {level}: per must be non-decreasing in distance")
    if violations:
        return violations
    # Density monotonicity, checked at the union of all knot distances.
    probe = sorted({d for tab in curve.tables for d, _ in tab})
    at_level = [per_many(curve, probe, rho) for rho in curve.levels]
    for i, (rho_lo, rho_hi) in enumerate(zip(curve.levels, curve.levels[1:])):
        drops = np.flatnonzero(at_level[i + 1] < at_level[i] - 1e-12)
        if drops.size:
            violations.append(
                f"per must be non-decreasing in density "
                f"(violated at distance {probe[drops[0]]} between {rho_lo} and {rho_hi} veh/s)"
            )
    return violations


def per(curve: PerCurve, distance: float, density: float) -> float:
    """PER at signed ``distance`` for ``density`` veh/s.

    Depends on |distance| only; clamps beyond the last knot and outside the
    calibrated density range. Pure and deterministic, and bit-identical to
    ``per_many`` at the same point.
    """
    # A one-element list, not a scalar: perfbench's tracer takes len() of per_many's result.
    return float(per_many(curve, [distance], density)[0])


def per_many(curve: PerCurve, distances: np.ndarray, density: float) -> np.ndarray:
    """Vectorized ``per`` over an array of signed distances."""
    abs_dist = np.abs(np.asarray(distances, dtype=float))
    w, lo, hi = curve._blend(density)
    if hi is None:
        return np.interp(abs_dist, lo.dist_array, lo.per_array)
    return (1.0 - w) * np.interp(abs_dist, lo.dist_array, lo.per_array) \
        + w * np.interp(abs_dist, hi.dist_array, hi.per_array)


# Cells per metre, and the most entries (cells plus the clamp entry) a table
# may hold: 2**17 float64s is 1 MiB.
PER_TABLE_CELLS_PER_M = 100.0
PER_TABLE_MAX_CELLS = 2 ** 17


class PerTable(NamedTuple):
    """``per_many`` at one density, tabulated for lookup by distance.

    ``values[i]`` is the PER at the midpoint of cell i, the distances
    ``[i, i + 1) / cells_per_m``; the last entry is the PER at and past the
    last knot.
    """

    values: np.ndarray
    cells_per_m: float

    def lookup(self, distances: np.ndarray) -> np.ndarray:
        """PER at each non-negative distance (m)."""
        cells = np.multiply(distances, self.cells_per_m)
        # Clamp as floats: casting a huge float to an integer is undefined.
        np.minimum(cells, len(self.values) - 1, out=cells)
        return self.values.take(cells.astype(np.intp))


def per_table(curve: PerCurve, density: float) -> PerTable:
    """Tabulate ``per_many(curve, ., density)`` over ``[0, last knot]``."""
    last = curve.max_knot_distance
    cells = math.ceil(min(last * PER_TABLE_CELLS_PER_M, PER_TABLE_MAX_CELLS - 1))
    cells_per_m = cells / last if cells else 1.0   # no cell: every knot at 0 m
    if last * cells_per_m < cells:   # so that every distance >= last clamps
        cells_per_m = float(np.nextafter(cells_per_m, math.inf))
    mids = (np.arange(cells) + 0.5) / cells_per_m
    return PerTable(per_many(curve, np.append(mids, last), density), cells_per_m)


def reception_mask(rng: np.random.Generator, table: PerTable,
                   distances: np.ndarray) -> np.ndarray:
    """Vectorized reception sampling, one draw per non-negative distance."""
    return rng.random(len(distances)) >= table.lookup(distances)


def uniform_int(rng: np.random.Generator, low: int, high: int) -> int:
    """``int(rng.integers(low, high + 1))`` from the bit generator's ``next_uint32``.

    Lemire's multiply-and-reject, numpy's ``buffered_bounded_lemire_uint32``
    for a span up to 2**32: same value, same state. A span of 1 draws nothing.
    """
    span = high - low + 1
    if span == 1:
        return low
    if not 1 < span <= 2**32:
        raise ValueError(f"span must lie in [1, 2**32] (got [{low}, {high}])")
    # No Generator lock: a run owns its generator in one thread (run_batch uses processes).
    iface = rng.bit_generator.ctypes
    draw, state = iface.next_uint32, iface.state
    threshold = 2**32 % span   # reject the low words that would bias the high word
    m = draw(state) * span
    while m & 0xFFFFFFFF < threshold:
        m = draw(state) * span
    return low + (m >> 32)


def sample_tau(rng: np.random.Generator, tau_range: tuple[int, int]) -> int:
    """Exchange delay (ms), uniform on the inclusive range; no draw if low == high."""
    return uniform_int(rng, *tau_range)


# Default calibration. The published propagation measurements behind the
# reference scenario are not available, so this table is a logistic-shaped
# stand-in chosen to reproduce the qualitative behavior the protocol analysis
# depends on: near-lossless reception under the RSU, a steep rise through the
# 100-300 m band, saturation by 500 m, and strictly higher loss at higher
# density. It is NOT a measurement of any real corridor.
_CAL_DISTANCES = (0.0, 25.0, 50.0, 75.0, 100.0, 150.0, 200.0, 250.0, 300.0, 400.0, 500.0)
_CAL_PER_30 = (0.0106, 0.0190, 0.0337, 0.0585, 0.0985, 0.2375, 0.4162,
               0.5396, 0.5932, 0.6174, 0.6198)
_CAL_SCALE = {10.0: 0.70, 20.0: 0.85, 30.0: 1.00}


def default_calibration() -> PerCurve:
    """The calibration table shipped with the package (see note above)."""
    levels = tuple(sorted(_CAL_SCALE))
    tables = tuple(
        tuple((d, round(p * _CAL_SCALE[rho], 4)) for d, p in zip(_CAL_DISTANCES, _CAL_PER_30))
        for rho in levels
    )
    return PerCurve(levels=levels, tables=tables)


def constant_per_curve(value: float, max_distance: float = 10_000.0) -> PerCurve:
    """Distance- and density-independent curve, mainly for tests and demos."""
    levels = (10.0, 30.0)
    tables = tuple(((0.0, value), (max_distance, value)) for _ in levels)
    return PerCurve(levels=levels, tables=tables)


def parse_per_curve(text: str) -> PerCurve:
    """Parse calibration text: ``density <rate>`` headers + ``<dist> <per>`` rows."""
    levels: list[float] = []
    tables: list[list[tuple[float, float]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        if parts[0] == "density":
            if len(parts) != 2:
                raise CurveError(f"line {lineno}: expected 'density <veh/s>'")
            try:
                levels.append(float(parts[1]))
            except ValueError:
                raise CurveError(f"line {lineno}: bad density {parts[1]!r}") from None
            tables.append([])
            continue
        if not levels:
            raise CurveError(f"line {lineno}: knot row before any 'density' header")
        if len(parts) != 2:
            raise CurveError(f"line {lineno}: expected '<distance_m> <per>'")
        try:
            tables[-1].append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise CurveError(f"line {lineno}: bad knot row {stripped!r}") from None

    order = sorted(range(len(levels)), key=lambda i: levels[i])
    curve = PerCurve(
        levels=tuple(levels[i] for i in order),
        tables=tuple(tuple(tables[i]) for i in order),
    )
    violations = validate_per_curve(curve)
    if violations:
        raise CurveError("invalid calibration:\n  " + "\n  ".join(violations))
    return curve


@functools.lru_cache(maxsize=8)
def _parse_once(text: str) -> PerCurve:
    return parse_per_curve(text)


def load_per_curve(path: str) -> PerCurve:
    """Read and parse a calibration file; the same text returns the same curve."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CurveError(f"cannot read calibration file {path}: {exc}") from exc
    return _parse_once(text)


def dumps_per_curve(curve: PerCurve) -> str:
    lines = []
    for level, tab in zip(curve.levels, curve.tables):
        lines.append(f"density {level}")
        lines.extend(f"{d} {p}" for d, p in tab)
    return "\n".join(lines) + "\n"
