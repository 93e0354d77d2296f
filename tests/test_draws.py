"""Scalar draws taken straight from the bit generator keep numpy's stream.

``channel.uniform_int`` must give the values ``Generator.integers`` gives,
and leave the same ``bit_generator.state``, mixed in any order with the
scalar and array ``Generator.random`` draws the engine takes. These tests
import only ``v2isim.channel``, so they also run against the oldest numpy the
package supports.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from v2isim.channel import sample_tau, uniform_int

# 1: no draw. 2**31 + 1: the rejection loop runs about half the time.
# 2**32: numpy's full 32-bit span, one draw and no rejection.
EDGE_SPANS = [1, 2, 7, 8, 193, 3 * 2**30, 2**31 + 1, 2**32 - 1, 2**32]

_OPS = st.lists(st.one_of(
    st.tuples(st.just("int"), st.integers(-2**40, 2**40),
              st.one_of(st.sampled_from(EDGE_SPANS), st.integers(1, 2**32))),
    st.tuples(st.just("double"), st.just(0), st.just(0)),
    st.tuples(st.just("array"), st.integers(0, 5), st.just(0)),
), max_size=80)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.integers(0, 2**64 - 1), _OPS)
def test_mixed_draws_match_numpy_values_and_state(seed, ops):
    ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for op, a, b in ops:
        if op == "int":
            low, high = a, a + b - 1
            assert uniform_int(ours, low, high) == int(twin.integers(low, high + 1))
        elif op == "double":
            assert ours.random() == twin.random()
        else:
            assert ours.random(a).tolist() == twin.random(a).tolist()
    assert ours.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("span", EDGE_SPANS)
def test_each_edge_span_matches_numpy_over_many_draws(span):
    ours, twin = np.random.default_rng(span), np.random.default_rng(span)
    got = [uniform_int(ours, 5, 4 + span) for _ in range(500)]
    assert got == [int(twin.integers(5, 5 + span)) for _ in range(500)]
    assert ours.bit_generator.state == twin.bit_generator.state


def test_sample_tau_draws_only_for_a_range():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    assert sample_tau(rng, (104, 104)) == 104
    assert rng.bit_generator.state == before
    twin = np.random.default_rng(3)
    assert [sample_tau(rng, (8, 200)) for _ in range(100)] == \
        [int(twin.integers(8, 201)) for _ in range(100)]


@pytest.mark.parametrize("low, high", [(5, 4), (0, 2**32)])
def test_spans_outside_one_to_2_pow_32_are_rejected(low, high):
    with pytest.raises(ValueError, match="2\\*\\*32"):
        uniform_int(np.random.default_rng(0), low, high)
