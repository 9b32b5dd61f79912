"""The batched bootstrap kernel against the per-draw references in oracles.py.

Every comparison is exact: the kernel sums and divides in the same order as
the per-draw estimators, so replicates must agree bit for bit.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    mixture,
    per_draw_bootstrap,
    per_draw_mc_rejections,
    per_draw_unconditional,
    scalar_estimate_process,
    unconditional_qtt,
)
from qdid import inference
from qdid.empirical import SortedSample, StepDistribution, StepRows, rank_rows, rank_transform
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
                    sample(draw, n0, spread, resolution),
                    sample(draw, n0, spread, resolution),
                    sample(draw, n1, spread, resolution, shift),
                    sample(draw, n1, spread, resolution),
                )
            )
        else:
            n = [draw(st.integers(1, 12)) for _ in range(4)]
            out.append(
                RcsCell(
                    (),
                    sample(draw, n[0], spread, resolution),
                    sample(draw, n[1], spread, resolution),
                    sample(draw, n[2], spread, resolution, shift),
                    sample(draw, n[3], spread, resolution),
                )
            )
    return out


@st.composite
def weighted_rows(draw):
    """(C, n) tied values and uneven weights, some zero, every row positive."""
    rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    values = rng.integers(-3, 4, size=(rows, n)) / 4.0
    weights = rng.dirichlet(np.ones(n), size=rows) * n
    weights[rng.random((rows, n)) < 0.3] = 0.0
    weights[:, rng.integers(n)] += 1.0
    return values, weights


def compacted(rows, r):
    """Row r of a StepRows without its zero-mass points."""
    keep = rows.masses[r] > 0
    support = np.broadcast_to(rows.support, rows.masses.shape)[r]
    return support[keep], rows.masses[r][keep], rows.cum_probs[r][keep]


@settings(max_examples=100, deadline=None)
@given(weighted_rows())
def test_step_rows_equal_step_distributions(case):
    values, weights = case
    fitted = StepRows.fit(values, weights)
    refit = SortedSample(values[0]).fit_rows(weights)
    shares = np.array([0.25, 0.75])
    mixed = StepRows.mixture([fitted, refit], shares)
    for r in range(values.shape[0]):
        one = StepDistribution.fit(values[r], weights[r])
        same_sample = SortedSample(values[0]).fit(weights[r])
        mix = mixture([one, same_sample], shares)
        for rows, dist in ((fitted, one), (mixed, mix)):
            support, masses, cum_probs = compacted(rows, r)
            np.testing.assert_array_equal(support, dist.support)
            np.testing.assert_array_equal(masses, dist.masses)
            np.testing.assert_array_equal(cum_probs, dist.cum_probs)
        np.testing.assert_array_equal(refit.masses[r], same_sample.masses)
        np.testing.assert_array_equal(refit.cum_probs[r], same_sample.cum_probs)
        np.testing.assert_array_equal(fitted.quantile(GRID)[r], one.quantile(GRID))
        source = SortedSample(values[0])
        np.testing.assert_array_equal(
            rank_rows(refit, source.inverse, fitted)[r],
            rank_transform(same_sample, one, values[0]),
        )


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
    results = [counterfactual_cdf(cell) for cell in cell_list]
    reference = unconditional_qtt(results, treated_shares(results), GRID, 99)
    mixed = unconditional_process(list(enumerate(cell_list)), GRID, 99)
    np.testing.assert_array_equal(mixed.values, reference.values)
    assert (mixed.n_control, mixed.n_treated) == (reference.n_control, reference.n_treated)


configs = st.builds(
    BootstrapConfig,
    iterations=st.integers(1, 9),
    seed=st.integers(0, 2**16),
    scheme=st.sampled_from(["multinomial", "dirichlet"]),
)
# with arms of at most 12 units these budgets give chunks of 1 to 40 draws
budgets = st.integers(1, 40)


@settings(max_examples=120, deadline=None)
@given(cells(), configs, budgets, st.sampled_from(["ddid", "cic"]))
def test_bootstrap_process_equals_per_draw_loop(cell_list, config, budget, estimator):
    (cell,) = cell_list
    with mock.patch.object(inference, "CHUNK_ELEMENTS", budget):
        draws = bootstrap_process(cell, GRID, config, estimator, cell_index=3, key_prefix=(2,))
    reference = per_draw_bootstrap(cell, GRID, config, estimator, cell_index=3, key_prefix=(2,))
    np.testing.assert_array_equal(draws, reference)


@settings(max_examples=60, deadline=None)
@given(cells(), configs, budgets)
def test_estimators_share_each_draw(cell_list, config, budget):
    (cell,) = cell_list
    with mock.patch.object(inference, "CHUNK_ELEMENTS", budget):
        both = bootstrap_process(cell, GRID, config, ("ddid", "cic"), cell_index=1)
    for est in ("ddid", "cic"):
        np.testing.assert_array_equal(
            both[est], per_draw_bootstrap(cell, GRID, config, est, cell_index=1)
        )


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: cells(count=k)), configs, budgets)
def test_unconditional_equals_per_draw_loop(cell_list, config, budget):
    indexed = list(zip((0, 2, 5), cell_list))
    with mock.patch.object(inference, "CHUNK_ELEMENTS", budget):
        draws = bootstrap_unconditional(indexed, GRID, config)
    np.testing.assert_array_equal(draws, per_draw_unconditional(indexed, GRID, config, 50))


def test_run_mc_equals_per_draw_loop():
    spec = DgpSpec(variant=1, n_per_arm=12, te=0.5)
    for scheme in ("multinomial", "dirichlet"):
        with mock.patch.object(inference, "CHUNK_ELEMENTS", 40):  # 3 draws per chunk
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
    samples = (cell._control_pre, cell._control_post, cell._treated_pre, cell._treated_post)
    for arm, s in zip(cell.SAMPLE_ARMS, samples):
        weights[arm][1, s.values == s.support[0]] = 0.0
    return weights


def edge_cells():
    a = np.array([0.0, 1.0, 1.0, 2.0, 3.0])
    b = np.array([0.5, 1.0, 2.0, 2.0, 4.0])
    return [
        PanelCell((), a, b - a, b + 10.0, b),
        RcsCell((), a, b, b + 10.0, a + b),
    ]


def test_kernel_rows_equal_estimate_process_at_rank_zero_and_zero_mass():
    for cell in edge_cells():
        weights = edge_weights(cell)
        rows = estimate_rows(cell, GRID, weights, ("ddid", "cic"))
        treated, counterfactual = counterfactual_rows(cell, weights)
        per_draw_cf = (
            counterfactual_cdf_panel if isinstance(cell, PanelCell) else counterfactual_cdf_rcs
        )
        for r in range(2):
            w = {arm: m[r] for arm, m in weights.items()}
            for est in ("ddid", "cic"):
                np.testing.assert_array_equal(
                    rows[est][r], scalar_estimate_process(cell, GRID, est, w).values
                )
            result = per_draw_cf(cell, w)
            np.testing.assert_array_equal(treated.quantile(GRID)[r], result.treated.quantile(GRID))
            np.testing.assert_array_equal(
                counterfactual.quantile(GRID)[r], result.counterfactual.quantile(GRID)
            )
        # the zeroed row exercises the rank-0 clamp: the smallest control
        # pre-period value has rank 0 under row 1
        pre = cell._control_pre.fit(weights[cell.SAMPLE_ARMS[0]][1])
        assert pre.cdf(pre.support[0]) == 0.0


def test_single_cell_unconditional_equals_cell_draws():
    cell = edge_cells()[0]
    config = BootstrapConfig(iterations=5, seed=3)
    np.testing.assert_array_equal(
        bootstrap_unconditional([(4, cell)], GRID, config),
        bootstrap_process(cell, GRID, config, cell_index=4),
    )
