"""The batched bootstrap kernel, and the one-weight-vector API that is its
one-row case, against the scalar and per-draw references in oracles.py.

Every comparison is exact: the kernel sums and divides in the same order as
the references, so replicates must agree bit for bit.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    mixture,
    per_draw_bootstrap,
    per_draw_mc_rejections,
    per_draw_unconditional,
    per_draw_weights,
    scalar_counterfactual_cdf,
    scalar_estimate_process,
    scalar_fit,
    scalar_rank_transform,
    scalar_refit,
    stable_sort_layout,
    unconditional_qtt,
)
from qdid import estimators, inference
from qdid.empirical import (
    SortedSample,
    StepDistribution,
    StepRows,
    _mixture_probs,
    _sort_layout,
    rank_rows,
    rank_transform,
)
from qdid.estimators import (
    PanelCell,
    RcsCell,
    counterfactual_cdf,
    counterfactual_cdf_panel,
    counterfactual_cdf_rcs,
    counterfactual_rows,
    estimate_process,
    estimate_rows,
    treated_shares,
)
from qdid.inference import (
    BootstrapConfig,
    bootstrap_block,
    bootstrap_process,
    bootstrap_unconditional,
    unconditional_process,
)
from qdid.simulation import DgpSpec, run_mc

GRID = np.round(np.arange(0.05, 0.96, 0.05), 12)


def sample(draw, size, spread, resolution, shift=0.0):
    """Values k / resolution for integers |k| <= spread: few distinct values
    make ties common, and large tie groups are summed in a fixed order."""
    ints = draw(st.lists(st.integers(-spread, spread), min_size=size, max_size=size))
    return np.asarray(ints, dtype=float) / resolution + shift


@st.composite
def cells(draw, kind=None, count=1):
    """``count`` cells of one kind (panel or RCS) with small, tied samples. The
    treated pre-period sample may sit wholly above the control's."""
    kind = kind or draw(st.sampled_from(["panel", "rcs"]))
    spread = draw(st.sampled_from([2, 12, 10**6]))
    resolution = draw(st.sampled_from([1.0, 4.0, 1000.0]))
    out = []
    for _ in range(count):
        shift = draw(st.sampled_from([0.0, 100.0]))
        if kind == "panel":
            n0, n1 = draw(st.integers(1, 12)), draw(st.integers(1, 12))
            out.append(
                PanelCell(
                    (),
                    control_pre=sample(draw, n0, spread, resolution),
                    control_post=sample(draw, n0, spread, resolution),
                    treated_pre=sample(draw, n1, spread, resolution, shift),
                    treated_post=sample(draw, n1, spread, resolution),
                )
            )
        else:
            n = [draw(st.integers(1, 12)) for _ in range(4)]
            out.append(
                RcsCell(
                    (),
                    control_pre=sample(draw, n[0], spread, resolution),
                    control_post=sample(draw, n[1], spread, resolution),
                    treated_pre=sample(draw, n[2], spread, resolution, shift),
                    treated_post=sample(draw, n[3], spread, resolution),
                )
            )
    return out


@st.composite
def weighted_rows(draw):
    """(C, n) values and uneven weights, some zero, every row positive. The
    values are tied, with zeros of both signs, or (a wide spread) mostly
    distinct; some rows are a few hundred values wide."""
    rows = draw(st.integers(1, 4))
    n = draw(st.one_of(st.integers(1, 30), st.integers(100, 400)))
    spread = draw(st.sampled_from([3, 10**6]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    values = rng.integers(-spread, spread + 1, size=(rows, n)) / 4.0
    values[rng.random((rows, n)) < 0.5] *= -1.0
    weights = rng.dirichlet(np.ones(n), size=rows) * n
    weights[rng.random((rows, n)) < 0.3] = 0.0
    weights[:, rng.integers(n)] += 1.0
    return values, weights


def compacted(rows, r):
    """Row r of a StepRows without its zero-mass points."""
    keep = rows.masses[r] > 0
    support = np.broadcast_to(rows.support, rows.masses.shape)[r]
    return support[keep], rows.masses[r][keep], rows.cum_probs[r][keep]


def assert_same_bits(a, b):
    """Equal arrays whose zeros also have the same signs."""
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


def assert_same_distribution(dist, reference):
    for name in ("support", "masses", "cum_probs"):
        assert_same_bits(getattr(dist, name), getattr(reference, name))
    assert dist.total == reference.total


@settings(max_examples=100, deadline=None)
@given(weighted_rows())
def test_step_rows_equal_step_distributions(case):
    values, weights = case
    fitted = StepRows.fit(values, weights)
    refit = SortedSample(values[0]).fit_rows(weights)
    shares = np.array([0.25, 0.75])
    mixed = StepRows.mixture([fitted, refit], shares)
    for r in range(values.shape[0]):
        one = scalar_fit(values[r], weights[r])
        same_sample = scalar_refit(SortedSample(values[0]), weights[r])
        mix = mixture([one, same_sample], shares)
        for rows, dist in ((fitted, one), (mixed, mix)):
            support, masses, cum_probs = compacted(rows, r)
            np.testing.assert_array_equal(support, dist.support)
            np.testing.assert_array_equal(masses, dist.masses)
            np.testing.assert_array_equal(cum_probs, dist.cum_probs)
        # a tie group of 0.0 and -0.0 takes the sign of its first value
        assert_same_bits(compacted(fitted, r)[0], one.support)
        assert_same_bits(refit.support, same_sample.support)
        np.testing.assert_array_equal(refit.masses[r], same_sample.masses)
        np.testing.assert_array_equal(refit.cum_probs[r], same_sample.cum_probs)
        np.testing.assert_array_equal(fitted.quantile(GRID)[r], one.quantile(GRID))
        source = SortedSample(values[0])
        np.testing.assert_array_equal(
            rank_rows(refit, source.inverse, fitted)[r],
            scalar_rank_transform(same_sample, one, values[0]),
        )


@st.composite
def layout_rows(draw):
    """(C, n) rows 1 to 700 values wide, past the widths at which numpy's
    default sort changes method. Each row draws from a pool of 1, 2, 7 or
    50 quarters, with zeros of both signs, or is continuous (no ties), so a
    chunk may mix tied and tie-free rows."""
    rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 700))
    pools = draw(st.lists(st.sampled_from([1, 2, 7, 50, 0]), min_size=rows, max_size=rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((rows, n))
    for r, pool in enumerate(pools):
        if pool:
            values[r] = rng.integers(0, pool, size=n) / 4.0
            values[r, rng.random(n) < 0.5] *= -1.0
    return values


@settings(max_examples=150, deadline=None)
@given(layout_rows())
def test_sort_layout_is_the_stable_sort(values):
    """The default argsort with its tie keys gives the stable layout: the
    same order and tie heads, and sorted values with the same bits."""
    order, support, head, tied = _sort_layout(values)
    want_order, want_support, want_head = stable_sort_layout(values)
    np.testing.assert_array_equal(order, want_order)
    np.testing.assert_array_equal(head, want_head)
    assert_same_bits(support, want_support)
    assert tied == bool((want_head != np.arange(values.shape[1])).any())


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(1, 500), st.integers(0, 2**16))
def test_refit_of_continuous_values_equals_scalar_reference(rows, n, seed):
    """A sample without ties refits by gathering its weights in sorted order."""
    rng = np.random.default_rng(seed)
    sample = SortedSample(rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4))
    weights = rng.integers(0, 3, size=(rows, n)).astype(float)
    weights[:, rng.integers(n)] += 0.5
    refit = sample.fit_rows(weights)
    for r in range(rows):
        one = scalar_refit(sample, weights[r])
        assert_same_bits(refit.support, one.support)
        np.testing.assert_array_equal(refit.masses[r], one.masses)
        np.testing.assert_array_equal(refit.cum_probs[r], one.cum_probs)


def test_a_zero_reports_the_sign_of_its_first_occurrence():
    """The treated post-period sample holds 0.0 before -0.0, so its tied
    zeros are represented by 0.0, and the effect below the median is
    0.0 - 0.0. (``np.unique``'s unstable sort kept -0.0 here, and the
    report read -0.0.)"""
    cell = PanelCell((), control_pre=np.array([-0.0]), control_post=np.array([0.0]),
                     treated_pre=np.array([-0.5, -0.0, -1.0, -0.0]),
                     treated_post=np.array([0.5, 0.5, 0.0, -0.0]))
    assert not np.signbit(cell.samples[3].support[0])
    for est, process in estimate_process(cell, GRID, ("ddid", "cic")).items():
        assert process.values.tolist() == [0.0] * 10 + [0.5] * 9
        assert not np.signbit(process.values).any()
        assert_same_bits(process.values, scalar_estimate_process(cell, GRID, est).values)


@settings(max_examples=100, deadline=None)
@given(weighted_rows(), st.lists(st.integers(-5, 5), min_size=1, max_size=8))
def test_one_vector_api_equals_scalar_references(case, points):
    """``StepDistribution.fit``, ``SortedSample.fit`` and ``rank_transform``,
    the one-row case of the kernel, at values of rank 0 among others."""
    values, weights = case
    ys = np.asarray(points, dtype=float) / 4.0
    sample = SortedSample(values[0])
    for r in range(values.shape[0]):
        one = StepDistribution.fit(values[r], weights[r])
        same_sample = sample.fit(weights[r])
        assert_same_distribution(one, scalar_fit(values[r], weights[r]))
        assert_same_distribution(same_sample, scalar_refit(sample, weights[r]))
        np.testing.assert_array_equal(
            rank_transform(same_sample, one, ys), scalar_rank_transform(same_sample, one, ys)
        )
        for y in ys[:2]:
            assert rank_transform(one, same_sample, y) == scalar_rank_transform(
                one, same_sample, y
            )
    assert_same_distribution(StepDistribution.fit(values[0]), scalar_fit(values[0]))
    assert_same_distribution(sample.fit(), scalar_refit(sample))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: cells(count=k)))
def test_points_equal_scalar_references(cell_list):
    """The unit-weight row of the kernel is the scalar point estimate."""
    for cell in cell_list:
        for est, process in estimate_process(cell, GRID, ("ddid", "cic"), None, 99).items():
            reference = scalar_estimate_process(cell, GRID, est, None, 99)
            np.testing.assert_array_equal(process.values, reference.values)
            counts = (process.code, process.n_control, process.n_treated, process.n_total)
            assert counts == (reference.code, reference.n_control, reference.n_treated, 99)
    results = [scalar_counterfactual_cdf(cell) for cell in cell_list]
    reference = unconditional_qtt(results, treated_shares(results), GRID, 99)
    mixed = unconditional_process(list(enumerate(cell_list)), GRID, 99)
    np.testing.assert_array_equal(mixed.values, reference.values)
    assert (mixed.n_control, mixed.n_treated) == (reference.n_control, reference.n_treated)


@settings(max_examples=100, deadline=None)
@given(cells(), st.integers(0, 2**16), st.sampled_from(["multinomial", "dirichlet"]))
def test_counterfactual_cdf_equals_scalar_reference(cell_list, seed, scheme):
    """The one-row case of the counterfactual construction, unweighted and
    under one draw's weights (multinomial ones leave units at weight 0)."""
    (cell,) = cell_list
    for w in (None, per_draw_weights(cell.arm_sizes(), scheme, inference.substream(seed, 0))):
        result, reference = counterfactual_cdf(cell, w), scalar_counterfactual_cdf(cell, w)
        assert_same_distribution(result.treated, reference.treated)
        assert_same_distribution(result.counterfactual, reference.counterfactual)
        np.testing.assert_array_equal(result.transformed_outcomes, reference.transformed_outcomes)


configs = st.builds(
    BootstrapConfig,
    iterations=st.integers(1, 9),
    seed=st.integers(0, 2**16),
    scheme=st.sampled_from(["multinomial", "dirichlet"]),
)
# with arms of at most 12 units these (chunk, block) budgets give chunks
# and blocks of 1 to 40 draws
budgets = st.tuples(st.integers(1, 40), st.integers(1, 40))


def sized(budget):
    """Set the chunk and block budgets; the per-draw references read the
    block budget too."""
    chunk, block = budget
    return mock.patch.multiple(inference, CHUNK_ELEMENTS=chunk, BLOCK_ELEMENTS=block)


@settings(max_examples=120, deadline=None)
@given(cells(), configs, budgets, st.sampled_from(["ddid", "cic"]))
def test_bootstrap_process_equals_per_draw_loop(cell_list, config, budget, estimator):
    (cell,) = cell_list
    with sized(budget):
        draws = bootstrap_process(cell, GRID, config, estimator, cell_index=3, key_prefix=(2,))
        reference = per_draw_bootstrap(
            cell, GRID, config, estimator, cell_index=3, key_prefix=(2,)
        )
    np.testing.assert_array_equal(draws, reference)


@settings(max_examples=60, deadline=None)
@given(cells(), configs, budgets)
def test_estimators_share_each_draw(cell_list, config, budget):
    (cell,) = cell_list
    with sized(budget):
        both = bootstrap_process(cell, GRID, config, ("ddid", "cic"), cell_index=1)
        for est in ("ddid", "cic"):
            np.testing.assert_array_equal(
                both[est], per_draw_bootstrap(cell, GRID, config, est, cell_index=1)
            )


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: cells(count=k)), configs, budgets)
def test_unconditional_equals_per_draw_loop(cell_list, config, budget):
    indexed = list(zip((0, 2, 5), cell_list))
    with sized(budget):
        draws = bootstrap_unconditional(indexed, GRID, config)
        np.testing.assert_array_equal(draws, per_draw_unconditional(indexed, GRID, config, 50))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: cells(count=k)), configs, budgets, st.data())
def test_draw_blocks_fill_each_cells_and_the_mixtures_draws(cell_list, config, budget, data):
    """Blocks over any split of range(B) write what the unconditional
    bootstrap gives and, for each of the first cells, what its own
    bootstrap gives; the other cells only enter the mixture. Without a
    mixture array, the blocks write the first cells' draws alone."""
    indexed = list(zip((0, 2, 5), cell_list))
    names = ("ddid", "cic")
    cuts = data.draw(st.lists(st.integers(0, config.iterations), max_size=3))
    bounds = [0, *sorted(cuts), config.iterations]
    kept = data.draw(st.integers(0, len(indexed)))
    stores = [np.full((2, config.iterations, GRID.size), np.nan) for _ in range(kept)]
    mixture = None
    if data.draw(st.booleans()):
        mixture = np.full((config.iterations, GRID.size), np.nan)
    chunk, block = budget
    with mock.patch.object(inference, "BLOCK_ELEMENTS", block):
        with mock.patch.object(inference, "CHUNK_ELEMENTS", chunk):
            for a, b in zip(bounds, bounds[1:]):
                bootstrap_block(indexed, GRID, config, names, stores, mixture, range(a, b))
        for (index, cell), store in zip(indexed, stores):
            draws = bootstrap_process(cell, GRID, config, names, cell_index=index)
            for e, est in enumerate(names):
                np.testing.assert_array_equal(store[e], draws[est])
        if mixture is not None:
            np.testing.assert_array_equal(mixture, bootstrap_unconditional(indexed, GRID, config))


@pytest.mark.parametrize(
    "budget, cells, kept", [(910, 8, 6), (910, 3, 3), (209, 2, 0), (210, 2, 1), (50, 2, 0)]
)
def test_draw_stores_keep_the_cells_that_fit_the_budget(monkeypatch, budget, cells, kept):
    """The mixture's array (here 10 x 7 entries) is always made; a cell's (2
    x 10 x 7) while the arrays together stay within STORE_ELEMENTS, and for
    one cell even when they do not, so that every round makes progress."""
    monkeypatch.setattr(inference, "STORE_ELEMENTS", budget)
    mixture, stores = inference._draw_stores(cells, 2, BootstrapConfig(iterations=10), 7, True)
    assert mixture.shape == (10, 7) and not mixture.any()
    assert [s.shape for s in stores] == [(2, 10, 7)] * max(kept, 1)


@pytest.mark.parametrize(
    "budget, cells, kept", [(910, 8, 6), (910, 3, 3), (279, 3, 1), (280, 3, 2), (50, 2, 1)]
)
def test_a_round_without_the_mixture_stores_the_cells_that_fit(monkeypatch, budget, cells, kept):
    """Without the mixture's array, the cells' arrays (2 x 10 x 7) take the
    whole budget, and at least one is made."""
    monkeypatch.setattr(inference, "STORE_ELEMENTS", budget)
    mixture, stores = inference._draw_stores(cells, 2, BootstrapConfig(iterations=10), 7, False)
    assert mixture is None
    assert [s.shape for s in stores] == [(2, 10, 7)] * kept


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**16))
def test_mixture_layout_equals_step_rows_mixture(count, rows, seed):
    """Refits on fixed supports that share values across components, some
    weights zero: the pooled supports, sorted once as one ``SortedSample``,
    refit under the components' probabilities mix them as
    ``StepRows.mixture``, on the positive-mass points of each row (the refit
    has one point per distinct value, the mixture one per component point)."""
    rng = np.random.default_rng(seed)
    samples = [SortedSample(rng.integers(-3, 4, size=rng.integers(1, 9)) / 2.0)
               for _ in range(count)]
    components = []
    for s in samples:
        weights = rng.integers(0, 3, size=(rows, len(s))).astype(float)
        weights[:, rng.integers(len(s))] += 0.5
        components.append(s.fit_rows(weights))
    shares = rng.dirichlet(np.ones(count))
    layout = SortedSample(np.concatenate([s.support for s in samples]))
    reference = StepRows.mixture(components, shares)
    # one component is its own mixture, as in inference._mixture_rows
    mixed = layout.fit_rows(_mixture_probs(components, shares)) if count > 1 else reference
    np.testing.assert_array_equal(mixed.total, reference.total)
    points = [np.broadcast_to(x.support, x.masses.shape) for x in (mixed, reference)]
    pairs = [points, (mixed.masses, reference.masses), (mixed.cum_probs, reference.cum_probs)]
    for r in range(rows):
        here, there = mixed.masses[r] > 0, reference.masses[r] > 0
        for a, b in pairs:
            np.testing.assert_array_equal(a[r][here], b[r][there])
    np.testing.assert_array_equal(mixed.quantile(GRID), reference.quantile(GRID))


def test_block_draw_ranges_are_checked():
    cell = edge_cells()[0]
    config = BootstrapConfig(iterations=4)
    stores, mixture = [np.zeros((1, 4, GRID.size))], np.zeros((4, GRID.size))
    for draws in (range(0, 5), range(0, 4, 2), range(-1, 2)):
        for kept in (mixture, None):
            with pytest.raises(ValueError, match="draws must be"):
                bootstrap_block([(0, cell)], GRID, config, ("ddid",), stores, kept, draws)


def test_a_block_needs_a_cell():
    config = BootstrapConfig(iterations=4)
    with pytest.raises(ValueError, match="^need at least one viable cell$"):
        bootstrap_block([], GRID, config, ("ddid",), [], np.zeros((4, GRID.size)), range(4))


def test_run_mc_equals_per_draw_loop():
    spec = DgpSpec(variant=1, n_per_arm=12, te=0.5)
    for scheme in ("multinomial", "dirichlet"):
        # 3 draws per chunk, in blocks of 2
        with mock.patch.multiple(inference, CHUNK_ELEMENTS=40, BLOCK_ELEMENTS=24):
            res = run_mc(spec, reps=3, taus=(0.1, 0.5, 0.9), bootstrap_iterations=7,
                         alpha=0.2, scheme=scheme, seed=8)
            reference = per_draw_mc_rejections(spec, 3, (0.1, 0.5, 0.9), ("ddid", "cic"),
                                               7, 0.2, scheme, 8)
        for est in ("ddid", "cic"):
            np.testing.assert_array_equal(res.rejection[est], reference[est])


def edge_weights(cell):
    """Weights per arm, 2 rows: ones, and uneven weights with the smallest
    value of every sample and one middle unit zeroed. Row 1 gives control
    pre-period points rank 0 and leaves zero-mass points at the bottom and
    in the middle of cic's control post-period sample."""
    weights = {arm: np.ones((2, n)) for arm, n in cell.arm_sizes().items()}
    for matrix in weights.values():
        matrix[1] = np.linspace(0.5, 2.0, matrix.shape[1])
        matrix[1, 2] = 0.0
    for arm, s in zip(cell.SAMPLE_ARMS, cell.samples):
        weights[arm][1, s.values == s.support[0]] = 0.0
    return weights


def edge_cells():
    """Cells whose treated pre-period sample lies above the control's, then
    cells whose control pre-period points fall below the treated pre-period
    support, on and between its points, and above it, and a cell whose
    control pre-period points start inside that support."""
    a = np.array([0.0, 1.0, 1.0, 2.0, 3.0])
    b = np.array([0.5, 1.0, 2.0, 2.0, 4.0])
    c = np.array([-1.0, 0.5, 1.0, 1.5, 2.0, 2.0, 5.0])
    t = np.array([0.5, 0.5, 1.0, 2.0, 3.0])
    return [
        PanelCell((), control_pre=a, control_post=b, treated_pre=b + 10.0, treated_post=b),
        RcsCell((), control_pre=a, control_post=b, treated_pre=b + 10.0, treated_post=a + b),
        PanelCell((), control_pre=c, control_post=c + np.linspace(1.0, -1.0, c.size),
                  treated_pre=t, treated_post=t * 2.0 - 0.25),
        RcsCell((), control_pre=c, control_post=c[::-1] * 0.5 + 1.0, treated_pre=t, treated_post=b),
        RcsCell((), control_pre=t + 1.5, control_post=b, treated_pre=t, treated_post=a),
    ]


def test_kernel_rows_equal_estimate_process_at_rank_zero_and_zero_mass():
    for cell in edge_cells():
        weights = edge_weights(cell)
        rows = estimate_rows(cell, GRID, weights, ("ddid", "cic"))
        treated, counterfactual = counterfactual_rows(cell, weights)
        for r in range(2):
            w = {arm: m[r] for arm, m in weights.items()}
            for est in ("ddid", "cic"):
                np.testing.assert_array_equal(
                    rows[est][r], scalar_estimate_process(cell, GRID, est, w).values
                )
            reference = scalar_counterfactual_cdf(cell, w)
            np.testing.assert_array_equal(
                treated.quantile(GRID)[r], reference.treated.quantile(GRID)
            )
            np.testing.assert_array_equal(
                counterfactual.quantile(GRID)[r], reference.counterfactual.quantile(GRID)
            )
            # the one-row API, through each of its names: the treated CDF
            # keeps zero-mass points and the counterfactual drops them
            for name in (counterfactual_cdf, counterfactual_cdf_panel, counterfactual_cdf_rcs):
                result = name(cell, w)
                assert_same_distribution(result.treated, reference.treated)
                assert_same_distribution(result.counterfactual, reference.counterfactual)
                np.testing.assert_array_equal(
                    result.transformed_outcomes, reference.transformed_outcomes
                )
                assert (result.code, result.n_control, result.n_treated) == (
                    reference.code, reference.n_control, reference.n_treated
                )
        # the zeroed row exercises the rank-0 clamp: the smallest control
        # pre-period value has rank 0 under row 1
        pre = scalar_refit(cell.samples[0], weights[cell.SAMPLE_ARMS[0]][1])
        assert pre.cdf(pre.support[0]) == 0.0
        assert 0.0 in scalar_refit(cell.samples[3], weights[cell.SAMPLE_ARMS[3]][1]).masses


def test_cic_edge_cells_reach_every_branch_of_the_composed_cdf():
    """The edge cells send control pre-period points below the treated
    pre-period support (CDF 0), between its points and above it (CDF 1),
    and their uneven rows leave control post-period points at zero mass,
    the first of them with rank 0 even where the smallest control
    pre-period point has a positive treated CDF."""
    reached = set()
    for cell in edge_cells():
        pre_control, pre_treated = cell.samples[0].support, cell.samples[2].support
        at = np.searchsorted(pre_treated, pre_control, side="right")
        between = ~np.isin(pre_control, pre_treated) & (at > 0) & (at < pre_treated.size)
        reached |= {"below"} if at[0] == 0 else {"starts inside"}
        reached |= {"between"} if between.any() else set()
        reached |= {"above"} if at[-1] == pre_treated.size else set()
        post = scalar_refit(cell.samples[1], edge_weights(cell)[cell.SAMPLE_ARMS[1]][1])
        assert post.masses[0] == 0.0
    assert reached == {"below", "between", "above", "starts inside"}


def test_estimators_together_equal_each_alone():
    """ddid and cic share the treated quantile within one kernel call."""
    for cell in edge_cells():
        weights = edge_weights(cell)
        both = estimate_rows(cell, GRID, weights, ("ddid", "cic"))
        for est in ("ddid", "cic"):
            alone = estimate_rows(cell, GRID, weights, (est,))[est]
            assert both[est].dtype == alone.dtype and both[est].tobytes() == alone.tobytes()


def test_single_cell_unconditional_equals_cell_draws():
    cell = edge_cells()[0]
    config = BootstrapConfig(iterations=5, seed=3)
    np.testing.assert_array_equal(
        bootstrap_unconditional([(4, cell)], GRID, config),
        bootstrap_process(cell, GRID, config, cell_index=4),
    )



def test_cic_alone_builds_no_counterfactual(monkeypatch):
    """Only ddid and the mixture read a cell's counterfactual rows: cic
    alone, per cell or in a round without the mixture, builds none."""
    config = BootstrapConfig(iterations=6, seed=2)
    indexed = list(enumerate(edge_cells()))
    plain = [bootstrap_process(cell, GRID, config, "cic", cell_index=i) for i, cell in indexed]

    def refuse(*args):
        raise AssertionError("counterfactual rows were built")

    monkeypatch.setattr(estimators, "_counterfactual_rows", refuse)
    stores = [np.zeros((1, 6, GRID.size)) for _ in indexed]
    bootstrap_block(indexed, GRID, config, ("cic",), stores, None, range(6))
    for (i, cell), store, reference in zip(indexed, stores, plain):
        np.testing.assert_array_equal(bootstrap_process(cell, GRID, config, "cic", cell_index=i),
                                      reference)
        np.testing.assert_array_equal(store[0], reference)


def test_ddid_alone_on_a_panel_never_refits_the_control_post_period(monkeypatch):
    """A panel cell observes its control change, so ddid, alone or with the
    mixture, reads nothing of the control post-period fit."""
    config = BootstrapConfig(iterations=6, seed=2)
    indexed = [(i, cell) for i, cell in enumerate(edge_cells()) if cell.observed_dy is not None]
    unread = {id(cell.samples[1]) for _, cell in indexed}
    fit_rows = SortedSample.fit_rows

    def guarded(sample, weights):
        assert id(sample) not in unread, "the control post-period sample was refit"
        return fit_rows(sample, weights)

    monkeypatch.setattr(SortedSample, "fit_rows", guarded)
    stores = [np.zeros((1, 6, GRID.size)) for _ in indexed]
    bootstrap_block(indexed, GRID, config, ("ddid",), stores, np.zeros((6, GRID.size)), range(6))
    bootstrap_block(indexed, GRID, config, ("ddid",), stores, None, range(6))
    bootstrap_unconditional(indexed, GRID, config)
    for i, cell in indexed:
        bootstrap_process(cell, GRID, config, "ddid", cell_index=i)


def test_every_bootstrap_runs_the_one_walk(monkeypatch):
    """Every bootstrap, of a cell, of the mixture, of a round with and
    without the mixture, and of an mc rep, runs ``bootstrap_block``, the one
    draw loop: each reaches ``inference._weight_rows``, which only that loop
    calls, and writes the same rows through a delegate that counts its
    calls."""
    config = BootstrapConfig(iterations=6, seed=2)
    names = ("ddid", "cic")
    indexed = list(zip((0, 3), edge_cells()))

    def block(mixture):
        stores = [np.zeros((2, 6, GRID.size))]
        mixed = np.zeros((6, GRID.size)) if mixture else None
        bootstrap_block(indexed, GRID, config, names, stores, mixed, range(6))
        return stores, mixed

    runs = {
        "bootstrap_process": lambda: bootstrap_process(indexed[0][1], GRID, config, names),
        "bootstrap_unconditional": lambda: bootstrap_unconditional(indexed, GRID, config),
        "bootstrap_block, mixture": lambda: block(True),
        "bootstrap_block, no mixture": lambda: block(False),
        "run_mc": lambda: run_mc(DgpSpec(variant=1, n_per_arm=12), 2, bootstrap_iterations=6)
        .rejection,
    }
    monkeypatch.setattr(inference, "_workers", lambda: 1)  # run_mc's reps in process
    weight_rows = inference._weight_rows
    for name, run in runs.items():
        plain, calls = run(), []
        with monkeypatch.context() as patch:
            patch.setattr(inference, "_weight_rows",
                          lambda *a, **k: calls.append(name) or weight_rows(*a, **k))
            counted = run()
        assert calls, f"{name} does not run the draw loop"
        np.testing.assert_equal(counted, plain)
