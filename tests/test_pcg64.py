"""X-means' generator draws what ``np.random.default_rng`` draws, draw for draw:
on int seeds from 0 to beyond 2**64 and on tuple seeds of up to 6 words and
more (past SeedSequence's 4-word pool), for any interleaving of ``integers``
and ``choice`` (so the buffered high half of a 32-bit draw crosses a
``choice``), for n == 1 (which draws nothing), for n near 3 * 2**30 (where a
quarter of the 32-bit draws are rejected) and beyond 2**32 (64-bit draws),
and for weights with zeros, one weight, and weights from 1e-9 to 1e9. Where
numpy rejects ``p``, the port raises ComputationError."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from debatesum._pcg64 import Generator, _seed_state
from debatesum.errors import ComputationError

SEEDS = st.one_of(
    st.just(0),
    st.integers(0, 1000),
    st.integers(2**64, 2**80),
    st.lists(st.integers(0, 2**40), min_size=3, max_size=6).map(tuple),
    st.recursive(st.integers(0, 2**70), lambda inner: st.lists(inner, max_size=3).map(tuple)),
)
SIZES = st.one_of(
    st.just(1),
    st.integers(2, 50),
    st.integers(3 * 2**30 - 4, 3 * 2**30 + 4),
    st.just(2**32),
    st.integers(2**32 + 1, 2**62),
)
WEIGHTS = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-9, 1e9)), min_size=1, max_size=8
).filter(lambda w: sum(w) > 0)
# p scaled off a sum of 1 by about the tolerance sqrt(eps) = 1.49e-8 numpy allows
SCALES = st.sampled_from([1.0, 1.0 + 1.4e-8, 1.0 - 1.4e-8, 1.0 + 1.6e-8, 1.0 - 1.6e-8])
DRAWS = st.lists(
    st.one_of(
        st.tuples(st.just("integers"), SIZES),
        st.tuples(st.just("choice"), st.tuples(WEIGHTS, SCALES)),
    ),
    max_size=25,
)


def take(rng, draw, rejected):
    """The result of one draw, or "rejected" where it raises ``rejected``."""
    kind, arg = draw
    try:
        if kind == "integers":
            return int(rng.integers(arg))
        weights, scale = arg
        p = np.asarray(weights) / sum(weights) * scale
        return int(rng.choice(len(p), p=p))
    except rejected:
        return "rejected"


@settings(max_examples=300, deadline=None, database=None)
@given(seed=SEEDS, draws=DRAWS)
@example(seed=0, draws=[("integers", 5), ("choice", ([1.0, 2.0], 1.0)), ("integers", 5)])
@example(seed=(1, 2, 3, 4, 5, 6), draws=[("integers", 1), ("integers", 7), ("integers", 1)] * 2)
@example(seed=7, draws=[("integers", 3 * 2**30)] * 12)
@example(seed=2**64, draws=[("choice", ([1e-9, 0.0, 1e9], 1.0)), ("choice", ([3.0], 1.0))])
def test_draws_equal_numpy_default_rng(seed, draws):
    assert _seed_state(seed) == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
    ours, numpy_rng = Generator(seed), np.random.default_rng(seed)
    # a last 32-bit draw shows whether both still hold the same buffered half
    for draw in [*draws, ("integers", 2**31 + 1), ("integers", 2**31 + 1)]:
        assert take(ours, draw, ComputationError) == take(numpy_rng, draw, ValueError), draw


def test_n_one_draws_nothing():
    ours, fresh = Generator(11), Generator(11)
    assert [ours.integers(1) for _ in range(5)] == [0] * 5
    assert [ours.integers(2**31) for _ in range(3)] == [fresh.integers(2**31) for _ in range(3)]


@pytest.mark.parametrize(
    "p",
    [
        [math.nan, 1.0],
        [-0.5, 1.5],
        [0.5, 0.4],
        # off 1 by more than 2**-26 in numpy's compensated sum, by exactly 2**-26 in a plain one
        [1.0, 2**-54, 2**-54, 2**-54, 2**-26],
    ],
    ids=["nan", "negative", "sum_off_one", "sum_off_one_when_compensated"],
)
def test_bad_probabilities_raise_computation_error(p):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(len(p), p=np.array(p))
    with pytest.raises(ComputationError):
        Generator(0).choice(len(p), p=np.array(p))
