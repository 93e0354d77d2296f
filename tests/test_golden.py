"""Golden outputs: exact bytes of the exported tables for seven fixed cells.

Performance work on the engine, channel and protocol must not change a
single output byte. Each cell runs ``v2isim simulate`` for 60 simulated
seconds and compares the sha256 of ``records.csv`` and ``summary.csv``
against the digests recorded before that work began. A deliberate change to
simulation semantics is the only reason to update them. The ``b_ack=1`` and
starved-SAM cells, and the ``v2isim trace`` file of a short lossy run, were
pinned before the handshake path was rewritten for speed.

``dt300_flow30_bsm`` was re-pinned once, when BSMs moved to a post-run pass
on their own random stream: its ``records.csv`` digest is now the one the
same cell gave with BSMs off before that change (BSM draws no longer shift
the protocol's draws), and its ``summary.csv`` digest differs in the
``bsm_per`` column only.

It was re-pinned a second time when the BSM pass started to read PER from a
per-run table of 1 cm cells instead of interpolating each probe's exact
distance: a probe whose uniform draw falls between the two PER values is
decided the other way, so ``bsm_per`` moved in its sixth decimal (0.522794
to 0.522795). Its ``records.csv`` digest is unchanged.

It was re-pinned a third time when the BSM pass stopped drawing a reception
per probe and began to score each probe by its expected reception (1 - PER),
with one probe per transmission instead of four: ``bsm_per`` became an
expected rate and moved from 0.522795 to 0.522669. Its ``records.csv``
digest did not move.

It was re-pinned a fourth time when the BSM pass started its ticks at the
first multiple of ``bsm_period`` at or after ``warmup`` (10 s here), as the
record aggregates drop the warmup: the fill-up ticks, with fewer and closer
vehicles, no longer count, so ``bsm_per`` moved from 0.522669 to 0.52752.
Its ``records.csv`` digest did not move.

It was re-pinned a fifth time when runs began to report the closed form
``analytic.bsm_per`` as ``bsm_per`` instead of a per-tick Monte-Carlo pass
(and that quadrature stopped at the curve's last knot, with the tail in
closed form, which moved it by at most 2 ulps): ``bsm_per`` moved from
0.52752, which counted the ticks of the stretch's fill-up between the 10 s
warmup and the first transit, to the steady-state 0.552081. Its
``records.csv`` digest did not move.

The one-lane and one-value tau range cells were pinned before scalar draws
went straight to the bit generator: both spans are 1, so neither draws.

Every ``simulate`` digest and the trace digest were re-pinned once, when the
protocol's draws became one block-drawn uniform stream (``channel.uniform_stream``)
and each SUM's reception began to be settled when it is sent. A tau became
``tau_low + int(u * span)`` of the stream's next uniform instead of an
integer draw; a SUM takes its reception uniform at send time, and only a
heard SUM draws a tau and queues its arrival. The law of every outcome is
unchanged, but the draws map to other values, so every ``records.csv``,
``summary.csv`` and the trace moved. The fixed-tau cells, which draw no
tau, moved too: a SUM's reception uniform is now taken when it is sent, not
when it arrives, so it falls elsewhere among the ACK and SAM uniforms. The
``analytic`` and ``validate`` digests did not move. The records do not
depend on the block size (``test_records_bytes_do_not_depend_on_the_uniform_block``).

Every ``simulate`` digest and the trace digest were re-pinned a second time
when arrivals began to be drawn as arrays (a Poisson count, then normalised
exponential spacings and one block of lanes) and each vehicle's SAM reception
began to be settled in one pass before the event loop, with a vehicle entering
the loop at its trigger crossing. The arrivals, the SAM receptions and every
later protocol draw map to other values, and a SAM's candidates are taken in
vehicle-id order, so every ``records.csv``, ``summary.csv`` and the trace
moved; the law of every outcome did not (16 seeds of two cells, in
CHANGES.md). The trace also lists every ``sam_tx`` line first, each with an
empty batch, since SAMs are sent before the loop. The ``analytic`` and
``validate`` digests did not move.

The model commands are pinned too: the ``v2isim analytic`` CSV at a 1 m step
for 10, 15 (blended) and 30 veh/s, and the ``v2isim validate`` table at
10,000 trials, both recorded before the closed form became an array kernel.

The ``validate`` digest was re-pinned once, when the Monte-Carlo counts
became a chain of one binomial draw per attempt instead of two uniform draws
per trial and attempt: the counts keep their distribution but come from a
different stream of draws, so the printed ``observed`` column moved. The
``expected`` and ``sigma`` columns and the analytic CSV digest are unchanged.
"""

from __future__ import annotations

import hashlib

import pytest

from v2isim import channel, engine
from v2isim.cli import main

_SHORT = ["--set", "sim_duration=60000", "--set", "warmup=10000", "--seed", "7"]
_NO_BSM = ["--set", "bsm_period=60001"]

# (cell id, overrides, sha256(records.csv), sha256(summary.csv))
GOLDEN = [
    (
        "dt300_flow30_bsm",
        ["--set", "d_t=300", "--set", "flow_rate=30"],
        "16b30ef30a462f50b41e06b4c6a3556a88a83d21427b816d7a51ec20e0cf0066",
        "fc1573c71717d70a3d9940e14269c26c9b6a79ba20e07afb3843f02f7de5ff71",
    ),
    (
        "dt0_flow10_fixed_tau",
        ["--set", "d_t=0", "--set", "flow_rate=10", "--set", "tau_low=104",
         "--set", "tau_high=104", *_NO_BSM],
        "2c858e18bf0f9cc54bc2f844451cf2593dfc90c4edc236eed9327f143a28cce9",
        "0864643df9e620f9b12b098ed8fb6532591d8cec66b6231aeff396ebacaaaf0d",
    ),
    (
        # 15 veh/s lies between the 10 and 20 veh/s levels: blended PER.
        "dtm100_flow15_blend",
        ["--set", "d_t=-100", "--set", "flow_rate=15", *_NO_BSM],
        "78b0609a4761fbbb239d8f430265683e7309eb9ee90e7cdfd73f7a6343a7a7cb",
        "662a1c51ec466ca31c09c3a8ded447c80da8ab6a239f92b96d3cf28b20e52459",
    ),
    (
        # Every received SUM fills a batch of one and is ACKed at once.
        "dt0_flow30_back1",
        ["--set", "d_t=0", "--set", "flow_rate=30", "--set", "b_ack=1", *_NO_BSM],
        "d85688047c2f136fbbfe02449d0b77c269c7704fc9f93aa511b57586fac42b50",
        "f62b2d1744eb2d2b74a2ad7ed6bc3b91ec2dd6b76e2015ae5ba03d1cc040ed9f",
    ),
    (
        # A SAM every 5 s and a trigger 100 m past the entry edge: most
        # vehicles cross before hearing any SAM and start deferred.
        "dt1400_flow20_starved_sam",
        ["--set", "d_t=1400", "--set", "sam_period=5000", "--set", "flow_rate=20", *_NO_BSM],
        "18a852baaac5ccb9ba4ccbcc40a7988d0ac091135cb3286fc4fa94bc8d3c0e32",
        "13b3b3b5012d050860bf7f543cc055f0c8a1711959705bdd65356813433cd49c",
    ),
    (
        # One lane per direction: the lane span is 1 and takes no draw.
        "dt300_flow20_one_lane",
        ["--set", "d_t=300", "--set", "flow_rate=20", "--set", "lane_count=2", *_NO_BSM],
        "76d39488c95aa141bde29e7e6690705101e295d78fde7bed5d2f8c1a3c1e0277",
        "5b6c8fcb5d630612e85fc1c9167aad4711d7702766afd359f69e33e2b902121f",
    ),
    (
        # A one-value tau range, as in the fixed-tau cell: no tau draw.
        "dt300_flow30_tau_span_1",
        ["--set", "d_t=300", "--set", "flow_rate=30", "--set", "tau_low=104",
         "--set", "tau_high=104", *_NO_BSM],
        "01ed9b6b93f427ca412fac86cfd9cadad6105fe88375fde603d98cd3c77788df",
        "8adb1e2fd95a1fa1daa9feef13cedaad88fcf644e8375fda6848a75f5b0b2572",
    ),
]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("overrides,records_sha,summary_sha",
                         [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_simulate_output_bytes_are_pinned(tmp_path, overrides, records_sha, summary_sha):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), *_SHORT, *overrides]) == 0
    assert _sha256(out / "records.csv") == records_sha
    assert _sha256(out / "summary.csv") == summary_sha


def test_output_bytes_stay_pinned_with_a_tiny_sum_per_memo(tmp_path, monkeypatch):
    """A memo cleared every other SUM position changes no byte."""
    monkeypatch.setattr(engine, "_SUM_PER_CACHE_SIZE", 2)
    for cell, overrides, records_sha, summary_sha in GOLDEN:
        out = tmp_path / cell
        assert main(["simulate", "--out", str(out), *_SHORT, *overrides]) == 0
        assert (_sha256(out / "records.csv"), _sha256(out / "summary.csv")) \
            == (records_sha, summary_sha), cell


@pytest.mark.parametrize("block", [1, 7])
def test_records_bytes_do_not_depend_on_the_uniform_block(tmp_path, monkeypatch, block):
    """The stream's block size is not a knob: a uniform-tau cell and a
    fixed-tau cell give their pinned ``records.csv`` at any block."""
    monkeypatch.setattr(channel, "UNIFORM_BLOCK", block)
    for cell, overrides, records_sha, _ in GOLDEN:
        if cell in ("dtm100_flow15_blend", "dt0_flow10_fixed_tau"):
            out = tmp_path / cell
            assert main(["simulate", "--out", str(out), *_SHORT, *overrides]) == 0
            assert _sha256(out / "records.csv") == records_sha, cell


def test_trace_bytes_are_pinned(tmp_path):
    """Every transition line of a short lossy run: first SUMs, retries, stale
    timers, deferred starts, full-batch and timer flushes, uniform tau."""
    out = tmp_path / "run.trace"
    assert main(["trace", "--out", str(out), "--seed", "7", "--set", "sim_duration=20000",
                 "--set", "warmup=0", "--set", "d_t=1400", "--set", "flow_rate=30",
                 "--set", "bsm_period=20001"]) == 0
    assert _sha256(out) == "4b7291826cda113fb9d7a6f7b7ab91d7e4d764f94e976949f4f9b23fde32d00d"


def test_records_bytes_do_not_depend_on_bsm_settings(tmp_path):
    """BSMs only feed ``bsm_per``: their knobs must not move a protocol record."""
    cell = [*_SHORT, "--set", "d_t=300", "--set", "flow_rate=20"]
    variants = {
        "period100": ["--set", "bsm_period=100"],
        "period200": ["--set", "bsm_period=200"],
        "off": _NO_BSM,
    }
    digests = {}
    for name, extra in variants.items():
        out = tmp_path / name
        assert main(["simulate", "--out", str(out), *cell, *extra]) == 0
        digests[name] = _sha256(out / "records.csv")
    assert len(set(digests.values())) == 1, digests


# (command, arguments, sha256 of the CSV (analytic) or of stdout (validate))
MODEL_GOLDEN = [
    ("analytic", ["--densities", "10,15,30", "--d-step", "1"],
     "d449a96fc1fc93d14cdd0c1f52fe8a5d0fd2a704155811a5f976f973f311cf6c"),
    ("validate", ["--trials", "10000"],
     "57f47e0ff5c0d93b4cf63bf2f57a3b3357659c3b63942a9fa95844b0a46b61af"),
]


@pytest.mark.parametrize("command,args,sha", MODEL_GOLDEN, ids=[g[0] for g in MODEL_GOLDEN])
def test_model_output_bytes_are_pinned(tmp_path, capsys, command, args, sha):
    out = tmp_path / "analytic.csv"
    argv = ["--out", str(out)] if command == "analytic" else []
    assert main([command, *argv, *args]) == 0
    stdout = capsys.readouterr().out
    data = out.read_bytes() if command == "analytic" else stdout.encode()
    assert hashlib.sha256(data).hexdigest() == sha
