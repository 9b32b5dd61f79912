"""The batched bootstrap weights against the per-draw reference in oracles.py.

A cell's draws are walked in chunks of any size, from any start, and each
block of draws is drawn once per walk with one numpy call per arm; every
row must equal, in dtype and bits, the weight vector of its draw taken
alone from its block of ``substream(seed, *key, block)`` with numpy's own
multinomial and Dirichlet samplers.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import literal_weight_vector, per_draw_weight_rows, per_draw_weights
from qdid import inference
from qdid.inference import (
    BLOCK_ELEMENTS,
    MAX_ITERATIONS,
    SCHEMES,
    BootstrapConfig,
    draw_weights,
)

ARMS = ["treated_post", "control_pre", "treated_pre", "control_post"]
RCS_SIZES = dict.fromkeys(ARMS, 12500)


def walk(sizes, config, key, draws, step):
    """The rows of ``_weight_rows`` over ``draws``, its chunks stacked."""
    chunks = list(inference._weight_rows(sizes, config, key, draws, step))
    assert [len(next(iter(c.values()))) for c in chunks] == [
        len(draws[i : i + step]) for i in range(0, len(draws), step)
    ]
    return {arm: np.concatenate([c[arm] for c in chunks]) for arm in chunks[0]}


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_rows_equal_reference(got, sizes, config, key, draws):
    want = per_draw_weight_rows(sizes, config, key, draws)
    assert list(got) == list(want) == sorted(sizes)
    for arm in want:
        assert_same_bits(got[arm], want[arm])


@st.composite
def walks(draw):
    """(arm sizes, config, key, block size, bounds, steps): 1-4 arms of 1-300
    units, named so that sorted order differs from insertion order; a key of
    1-3 entries up to 2**40; a seed up to 2**200; blocks of 1-5 draws; 1-12
    draws from a start below 2**32, cut at ``bounds`` into 1-3 consecutive
    ranges, each walked in chunks of 1-7 draws."""
    names = draw(st.permutations(ARMS))[: draw(st.integers(1, 4))]
    sizes = {name: draw(st.integers(1, 300)) for name in names}
    config = BootstrapConfig(
        iterations=1, seed=draw(st.integers(0, 2**200)), scheme=draw(st.sampled_from(SCHEMES))
    )
    key = tuple(draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=3)))
    count = draw(st.integers(1, 12))
    start = draw(st.integers(0, 2**32 - count))
    cuts = sorted(draw(st.lists(st.integers(start, start + count), max_size=2)))
    steps = draw(st.lists(st.integers(1, 7), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    return sizes, config, key, draw(st.integers(1, 5)), [start, *cuts, start + count], steps


SPLIT = ({"treated": 5, "control": 4}, (1,), 3, [4, 6, 11], [2, 4])


@settings(max_examples=150, deadline=None)
@given(case=walks())
# blocks of 3 draws: the ranges [4, 6) and [6, 11) start inside blocks 1
# and 2, and the second range's chunk [6, 10) spans blocks 2 and 3
@example(case=(SPLIT[0], BootstrapConfig(iterations=1, seed=9), *SPLIT[1:]))
@example(case=(SPLIT[0], BootstrapConfig(iterations=1, seed=9, scheme="dirichlet"), *SPLIT[1:]))
def test_batched_rows_equal_the_per_draw_reference(case):
    """Any split of a run of draws into ranges, and of each range into
    chunks, gives the rows of the per-draw reference; and a walk over a
    longer range gives the same draws the same rows, so draw b does not
    depend on B."""
    sizes, config, key, block, bounds, steps = case
    draws = range(bounds[0], bounds[-1])
    with mock.patch.object(inference, "BLOCK_ELEMENTS", block * max(sizes.values())):
        parts = [
            walk(sizes, config, key, range(a, b), step)
            for a, b, step in zip(bounds, bounds[1:], steps)
            if a < b
        ]
        got = {arm: np.concatenate([p[arm] for p in parts]) for arm in parts[0]}
        assert_rows_equal_reference(got, sizes, config, key, draws)
        longer = walk(sizes, config, key, range(draws.start, draws.stop + 2 * block), 7)
    for arm in got:
        assert_same_bits(longer[arm][: len(draws)], got[arm])


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize(
    "sizes",
    [
        {"treated": 251, "control": 249},
        {"treated_post": 33, "control_pre": 31, "treated_pre": 35, "control_post": 37},
        {"treated": 1, "control": 250},
        {"treated": 251, "control": 1},
        {"treated": 1, "control": 1},
        {"treated_post": 1, "control_pre": 7, "treated_pre": 1, "control_post": 3},
        RCS_SIZES,
    ],
    ids=["251/249", "33/31/35/37", "1/250", "251/1", "1/1", "1/7/1/3", "4x12500"],
)
def test_rows_of_odd_unit_and_rcs_arms_equal_the_per_draw_reference(sizes, scheme):
    """Draws 7 to 18 under the package's block size: the walk starts inside
    a block (8 draws for 251 units) and its chunks span blocks. An arm of
    one unit draws only zeros (multinomial); 12500 units give one draw per
    block."""
    config = BootstrapConfig(iterations=1, seed=5, scheme=scheme)
    assert max(1, BLOCK_ELEMENTS // 251) == 8
    for step in (1, 5, 12):
        got = walk(sizes, config, (0, 2), range(7, 7 + 12), step)
        assert_rows_equal_reference(got, sizes, config, (0, 2), range(7, 7 + 12))


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
