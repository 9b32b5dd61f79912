"""The batched bootstrap weights against the per-draw reference in oracles.py.

A chunk's substreams are derived together and its weights finished as one
matrix per arm; every row must equal, in dtype and bits, the weight vector
drawn one at a time from ``substream(seed, *key, b)`` with numpy's own
multinomial and Dirichlet samplers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import literal_weight_vector, per_draw_weight_rows, per_draw_weights
from qdid import inference
from qdid.inference import (
    MAX_ITERATIONS,
    SCHEMES,
    BootstrapConfig,
    draw_weights,
)

ARMS = ["treated_post", "control_pre", "treated_pre", "control_post"]


@st.composite
def chunks(draw):
    """(arm sizes, config, key, draws): 1-4 arms of 1-300 units, named so
    that sorted order differs from insertion order; a key of 1-3 entries up
    to 2**40; a seed up to 2**200; 1-5 draw indices below 2**32."""
    names = draw(st.permutations(ARMS))[: draw(st.integers(1, 4))]
    sizes = {name: draw(st.integers(1, 300)) for name in names}
    config = BootstrapConfig(
        iterations=1, seed=draw(st.integers(0, 2**200)), scheme=draw(st.sampled_from(SCHEMES))
    )
    key = tuple(draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=3)))
    count = draw(st.integers(1, 5))
    start = draw(st.integers(0, 2**32 - count))
    return sizes, config, key, range(start, start + count)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(chunk=chunks())
def test_batched_rows_equal_the_per_draw_reference(chunk):
    sizes, config, key, draws = chunk
    got = inference._weight_rows(sizes, config, key, draws)
    want = per_draw_weight_rows(sizes, config, key, draws)
    assert list(got) == list(want)
    for arm in want:
        assert_same_bits(got[arm], want[arm])


@settings(max_examples=100, deadline=None)
@given(chunk=chunks())
def test_seed_words_are_each_draws_seed_sequence_state(chunk):
    _, config, key, draws = chunk
    words = inference._seed_words(config.seed, key, draws)
    for row, b in zip(words, draws):
        seed_seq = np.random.SeedSequence(config.seed, spawn_key=(*key, b))
        assert_same_bits(row, seed_seq.generate_state(4, np.uint64))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**64), scheme=st.sampled_from(SCHEMES))
def test_weight_vector_is_numpys_own_draw(n, seed, scheme):
    got = draw_weights({"arm": n}, scheme, np.random.default_rng(seed))["arm"]
    assert_same_bits(got, literal_weight_vector(n, scheme, np.random.default_rng(seed)))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_draw_weights_is_the_per_draw_reference(scheme):
    sizes = {"treated": 40, "control": 7}
    got = draw_weights(sizes, scheme, np.random.default_rng(3))
    want = per_draw_weights(sizes, scheme, np.random.default_rng(3))
    assert list(got) == list(want) == ["control", "treated"]
    for arm in want:
        assert_same_bits(got[arm], want[arm])


def test_iterations_are_bounded_by_32_bit_draw_indices():
    assert BootstrapConfig(iterations=MAX_ITERATIONS).iterations == 2**32 - 1
    with pytest.raises(ValueError, match="iterations"):
        BootstrapConfig(iterations=2**32)


@pytest.mark.parametrize("key, draws", [((), range(0, 3)), ((1,), range(2**32 - 1, 2**32 + 1))])
def test_seed_words_need_a_key_and_32_bit_draw_indices(key, draws):
    with pytest.raises(ValueError):
        inference._seed_words(0, key, draws)
