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

The one-lane and one-value tau range cells were pinned before scalar draws
went straight to the bit generator: both spans are 1, so neither draws.

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

from v2isim import engine
from v2isim.cli import main

_SHORT = ["--set", "sim_duration=60000", "--set", "warmup=10000", "--seed", "7"]
_NO_BSM = ["--set", "bsm_period=60001"]

# (cell id, overrides, sha256(records.csv), sha256(summary.csv))
GOLDEN = [
    (
        "dt300_flow30_bsm",
        ["--set", "d_t=300", "--set", "flow_rate=30"],
        "0ecc1d7ce726f2bc3acd6f669894fa7d7a4a49fe4d2fddfa3f4ba18314f71986",
        "40725fa4ad5d97c6c1352d5227f2dbca4dea98e3981b9bc9bb813ae279d0df20",
    ),
    (
        "dt0_flow10_fixed_tau",
        ["--set", "d_t=0", "--set", "flow_rate=10", "--set", "tau_low=104",
         "--set", "tau_high=104", *_NO_BSM],
        "3ea543d6850bfe72fd3d63876e141398a81d0233b749f88ef9b1965124b9c1aa",
        "5e3e26bbf59efd95e5bb4e63e3a2f12913212d39abd594d362bf6d173773206e",
    ),
    (
        # 15 veh/s lies between the 10 and 20 veh/s levels: blended PER.
        "dtm100_flow15_blend",
        ["--set", "d_t=-100", "--set", "flow_rate=15", *_NO_BSM],
        "8bae8711d926fbc8d2704a82705533e7859cfdc36c6b1042cc8a9552bc8c41c9",
        "4edb8957fe2b0af8057147560fe639d118951160d9876e79bf68a63d86bf0355",
    ),
    (
        # Every received SUM fills a batch of one and is ACKed at once.
        "dt0_flow30_back1",
        ["--set", "d_t=0", "--set", "flow_rate=30", "--set", "b_ack=1", *_NO_BSM],
        "dc40aea9a6c1bb5de8a6f193a0bec249224a281a043ae6e609d99940863cad6f",
        "373916c57d1fcd2cc283f4a8bb7ca427e71842f36808e6ffe96447d20159c59c",
    ),
    (
        # A SAM every 5 s and a trigger 100 m past the entry edge: most
        # vehicles cross before hearing any SAM and start deferred.
        "dt1400_flow20_starved_sam",
        ["--set", "d_t=1400", "--set", "sam_period=5000", "--set", "flow_rate=20", *_NO_BSM],
        "cc7615bd406a061e6c5deff4bd711708b17a0ad216c572b191b991e0c9a697db",
        "bcbfbfd5641ea1b7011fbcdc7f042995a46cf557edd47a6c8d12edf152acf164",
    ),
    (
        # One lane per direction: the lane span is 1 and takes no draw.
        "dt300_flow20_one_lane",
        ["--set", "d_t=300", "--set", "flow_rate=20", "--set", "lane_count=2", *_NO_BSM],
        "16efae8e489eb7b403d2227ecb85ae5990ee25c7b19174da55aef35a698dc42e",
        "436741b57b506a847f6e705856553e9fba1b8e4cb384b2eba2a7ebaca80fbe11",
    ),
    (
        # A one-value tau range, as in the fixed-tau cell: no tau draw.
        "dt300_flow30_tau_span_1",
        ["--set", "d_t=300", "--set", "flow_rate=30", "--set", "tau_low=104",
         "--set", "tau_high=104", *_NO_BSM],
        "e1c35be7b093aed31449f562d7f3197fcfdfae4a827f0f3983beb9368a8b9157",
        "63a399d93de6ea1cab3b272d4b5a027c06fcd97c8c35ab10c24fa166c083eec9",
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


def test_trace_bytes_are_pinned(tmp_path):
    """Every transition line of a short lossy run: first SUMs, retries, stale
    timers, deferred starts, full-batch and timer flushes, uniform tau."""
    out = tmp_path / "run.trace"
    assert main(["trace", "--out", str(out), "--seed", "7", "--set", "sim_duration=20000",
                 "--set", "warmup=0", "--set", "d_t=1400", "--set", "flow_rate=30",
                 "--set", "bsm_period=20001"]) == 0
    assert _sha256(out) == "d2449fa25704525687894d0ad8f2051d1bf63a3f39eadf66fbe9d2535a505e94"


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
