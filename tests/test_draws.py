"""The exchange delay is one ``Generator.integers`` draw over its range.

These tests import only ``v2isim.channel``, so they also run against the
oldest numpy the package supports.
"""

from __future__ import annotations

import numpy as np

from v2isim.channel import sample_tau


def test_sample_tau_draws_only_for_a_range():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    assert sample_tau(rng, (104, 104)) == 104
    assert rng.bit_generator.state == before
    twin = np.random.default_rng(3)
    assert [sample_tau(rng, (8, 200)) for _ in range(100)] == \
        [int(twin.integers(8, 201)) for _ in range(100)]
    assert rng.bit_generator.state == twin.bit_generator.state
