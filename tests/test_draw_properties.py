"""Property suite: BernoulliWeights.draw against Generator.choice.

The samplers draw their symbols with ``draw`` in blocks, so their streams
stay the ones ``rng.choice`` gave only if ``draw`` equals ``choice`` bit for
bit and blocks of rows equal one draw of the stacked shape.  Skipped where
hypothesis is not installed.
"""

from fractions import Fraction as F

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from affdim.ifs import BernoulliWeights, rng  # noqa: E402


@st.composite
def bernoulli_weights(draw):
    """1-8 strictly positive weights, as Fractions or as normalised floats."""
    n = draw(st.integers(1, 8))
    raw = draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n))
    if draw(st.booleans()):
        return BernoulliWeights(tuple(F(k, sum(raw)) for k in raw))
    floats = [k / sum(raw) for k in raw]
    floats[-1] = 1.0 - sum(floats[:-1])
    return BernoulliWeights(tuple(floats))


seeds = st.integers(0, 2**64 - 1)
shapes = st.one_of(
    st.integers(0, 300),
    st.tuples(st.integers(0, 40), st.integers(1, 12)),
)


@settings(max_examples=150, deadline=None)
@given(weights=bernoulli_weights(), seed=seeds, shape=shapes)
@example(weights=BernoulliWeights((F(1),)), seed=0, shape=(5, 3))  # one symbol
@example(weights=BernoulliWeights.uniform(3), seed=7, shape=1000)
def test_draw_equals_choice(weights, seed, shape):
    want = rng(seed).choice(len(weights), size=shape, p=weights.as_array)
    got = weights.draw(rng(seed), shape)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(weights=bernoulli_weights(), seed=seeds, rows=st.integers(1, 60),
       width=st.integers(1, 9), block=st.integers(1, 70))
def test_row_blocks_equal_one_draw(weights, seed, rows, width, block):
    gen = rng(seed)
    parts = [weights.draw(gen, (min(block, rows - lo), width)) for lo in range(0, rows, block)]
    want = rng(seed).choice(len(weights), size=(rows, width), p=weights.as_array)
    assert np.array_equal(np.concatenate(parts), want)
