"""A Monte-Carlo BSM pass: the simulation that ``analytic.bsm_per`` is checked against.

The engine reports the closed form as ``bsm_per``. This module keeps the
per-tick pass that the closed form replaced, so that the tests can still
hold the model to a simulation of the same probes: at each BSM tick from
warmup on, each in-stretch vehicle probes one other, drawn uniformly from a
stream of its own (the first child of ``SeedSequence(rng_seed)``), and the
probe scores 1 - PER at its distance, read from a per-run table of 1 cm
cells (``per_table``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from v2isim import channel as chan
from v2isim import mobility as mob
from v2isim.core import ScenarioConfig

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


def per_table(curve: chan.PerCurve, density: float) -> PerTable:
    """Tabulate ``per_many(curve, ., density)`` over ``[0, last knot]``.

    A lookup is off by at most the steepest knot segment's slope times half
    a cell (1.8e-5 on the default curve); at and past the last knot it
    returns ``per_many``'s clamped value bit for bit.
    """
    last = curve.max_knot_distance
    cells = math.ceil(min(last * PER_TABLE_CELLS_PER_M, PER_TABLE_MAX_CELLS - 1))
    cells_per_m = cells / last if cells else 1.0   # no cell: every knot at 0 m
    if last * cells_per_m < cells:   # so that every distance >= last clamps
        cells_per_m = float(np.nextafter(cells_per_m, math.inf))
    mids = (np.arange(cells) + 0.5) / cells_per_m
    return PerTable(chan.per_many(curve, np.append(mids, last), density), cells_per_m)


def bsm_counters(cfg: ScenarioConfig, curve: chan.PerCurve,
                 by_direction: dict[mob.Direction, mob.Arrivals],
                 ) -> tuple[int, float, int]:
    """BSM transmissions, expected receptions and probes over one run.

    Ticks fall at every positive multiple of ``bsm_period`` at or after
    ``warmup`` and before ``sim_duration``, so, like the record aggregates,
    the counters leave out the stretch's fill-up. At a tick each in-stretch
    vehicle transmits once and probes one other, drawn uniformly (none when
    it is alone). The probe scores its reception probability, 1 - PER from
    the run's ``per_table``; no reception is drawn. Probes come from the
    seed's BSM stream, whose first draw is at the first tick; the stream and
    the table are not built when there is no tick. Spawn times and lateral
    offsets come from each direction's ``mob.Arrivals`` arrays, and each
    tick's window bounds from int64 arrays; no vehicle object or per-tick
    list is built.
    """
    first = max(1, -(-cfg.warmup // cfg.bsm_period)) * cfg.bsm_period   # exact integer ceil
    if first >= cfg.sim_duration:
        return 0, 0.0, 0
    ticks = np.arange(first, cfg.sim_duration, cfg.bsm_period, dtype=np.int64)
    transit = mob.transit_ms(cfg.road_length, cfg.mean_speed)
    sides = []
    counts = np.zeros(len(ticks), dtype=np.int64)
    for direction, arrivals in by_direction.items():
        spawns = np.array(arrivals.spawn_times, dtype=np.int64)
        lateral = 1j * np.array(arrivals.ys, dtype=float)
        lo, hi = mob.stretch_window(spawns, ticks, transit)
        counts += hi - lo
        sides.append((direction, spawns, lateral, lo, hi))
    heard = counts >= 2
    expected = int(counts[heard].sum())
    rng = np.random.default_rng(np.random.SeedSequence(cfg.rng_seed).spawn(1)[0])
    table = per_table(curve, cfg.flow_rate)
    senders = np.arange(int(counts.max()))
    per_sum = 0.0
    for i in np.flatnonzero(heard):
        t = int(ticks[i])
        # Positions as complex x + iy: one take per tick gathers both axes.
        z = np.concatenate([
            mob.positions_x(spawns[lo[i]:hi[i]], t, direction,
                            cfg.road_length, cfg.mean_speed) + lateral[lo[i]:hi[i]]
            for direction, spawns, lateral, lo, hi in sides
        ])
        n = len(z)
        probes = rng.integers(0, n - 1, size=n)
        probes += probes >= senders[:n]  # skip self: shift indices at or past the sender
        # validate_config keeps every distance finite.
        per_sum += float(table.lookup(np.abs(z.take(probes) - z)).sum())
    return int(counts.sum()), expected - per_sum, expected
