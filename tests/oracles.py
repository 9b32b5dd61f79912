"""References used as oracles in tests.

The brute-force references are deliberately naive: explicit lookup tables,
linear scans, no shared code with the package. Floating-point results
coincide bit-for-bit with the engine on integer-valued inputs because both
reduce to ratios of small integer counts.

The ingest references are the row-by-row reader and cell partition the
package ran before its columnar ingest, and the dataset constructors' row
rules as plain loops. The columnar code must give the same arrays, dtypes and
row order, and the same errors.

The scalar estimators are the one-weight-vector code the package ran for
every point estimate before each reported number became a row of the
bootstrap kernel: the ECDF fit and refit, the rank map with its rank-0
clamp and the counterfactual construction, which the package's
one-weight-vector API now takes from the kernel's one-row case; ``cqtt`` of
the counterfactual, the scalar changes-in-changes body, their dispatch, and
the share-weighted mixture of ``StepDistribution``s behind
``unconditional_qtt``. They build ``StepDistribution``s directly from their
support and masses, and represent each tie group by its first value in
sample order, so a group of 0.0 and -0.0 takes the sign that comes first.
``stable_sort_layout`` is the package's sort layout before it used numpy's
default sort: the reference for ``empirical._sort_layout``, bit for bit.

The per-draw references at the end are the draw loops the package ran
before its batched bootstrap kernel: one weight vector per arm and one full
``scalar_estimate_process`` per draw. Draw b's weights are row b mod K of
block b // K (K = max(1, BLOCK_ELEMENTS // the largest arm)), drawn from
``substream(seed, *key, b // K)`` with numpy's own samplers, arm by arm in
sorted order: the counts of each row of ``integers(0, n, size=(K, n))``, or
``dirichlet(np.ones(n), size=K)`` scaled by n. The block is drawn again
for every draw, and nothing is shared with the package's draw walk. The
kernel and the batched weights must reproduce them bit for bit.
"""

import csv
import math

import numpy as np

from qdid import inference
from qdid.cli import LoadError, _parse_binary, _parse_code, _parse_float, _parse_unit
from qdid.data_model import DEFAULT_MIN_CELL_SIZE, PanelData, RcsData
from qdid.empirical import SortedSample, StepDistribution
from qdid.estimators import CounterfactualResult, CqttProcess, PanelCell, RcsCell, treated_shares
from qdid.inference import empirical_quantile, substream
from qdid.simulation import simulate


def brute_ecdf_table(values, weights=None):
    """Sorted (support, cdf value) pairs by direct counting."""
    if weights is None:
        weights = [1.0] * len(values)
    total = float(sum(weights))
    support = sorted(set(values))
    table = []
    for y in support:
        mass_le = sum(w for v, w in zip(values, weights) if v <= y)
        table.append((float(y), mass_le / total))
    return table


def brute_cdf(table, y):
    out = 0.0
    for point, f in table:
        if point <= y:
            out = f
        else:
            break
    return out


def brute_quantile(table, tau):
    """inf { y : F(y) >= tau } by linear scan."""
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau out of range")
    for point, f in table:
        if f >= tau:
            return point
    return table[-1][0]


def brute_rank_transform(source_values, target_values, y):
    src = brute_ecdf_table(source_values)
    tgt = brute_ecdf_table(target_values)
    u = brute_cdf(src, y)
    if u == 0.0:
        return tgt[0][0]
    return brute_quantile(tgt, u)


def brute_counterfactual_panel(control_pairs, treated_pre):
    """Transformed outcomes and the counterfactual (support, weights) table.

    control_pairs: iterable of (y_pre, dy) for control units.
    Returns (sorted transformed list, [(support point, mass)] with integer
    masses, one per distinct transformed value).
    """
    transformed = []
    for y_pre, dy in control_pairs:
        transformed.append(dy + brute_rank_transform(
            [p for p, _ in control_pairs], treated_pre, y_pre
        ))
    support = sorted(set(transformed))
    masses = [(y, float(sum(1 for t in transformed if t == y))) for y in support]
    return sorted(transformed), masses


# -- scalar point estimators -------------------------------------------------


def sample_weights(cell, weights):
    """Each sample's weight vector, or None for each when ``weights`` is None."""
    return (None,) * 4 if weights is None else cell.sample_weights(weights)


def stable_sort_layout(values):
    """The stable sort of each row of (C, n) values: the order, the sorted
    rows, and at each sorted position the position of the first value of
    its tie group. The package's sort layout before it used numpy's default
    sort, and the reference for ``empirical._sort_layout``."""
    order = np.argsort(values, axis=1, kind="stable")
    support = np.take_along_axis(values, order, axis=1)
    first = np.empty(values.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(support[:, 1:], support[:, :-1], out=first[:, 1:])
    head = np.maximum.accumulate(np.where(first, np.arange(values.shape[1]), 0), axis=1)
    return order, support, head


def first_occurrences(values):
    """The distinct values of a sample in increasing order, each tie group
    represented by its first value in sample order, and each value's index
    into them. A dict keeps the first key of equal keys, and 0.0 == -0.0,
    so a group of zeros takes the sign that comes first."""
    first = {}
    for v in np.asarray(values, dtype=float).tolist():
        first.setdefault(v, v)
    support = sorted(first.values())
    index = {v: k for k, v in enumerate(support)}
    return np.array(support), np.array([index[v] for v in values.tolist()], dtype=np.intp)


def scalar_fit(values, weights=None):
    """Weighted ECDF of one sample: its first occurrences carry the merged
    ties and one bincount sums their weights; zero-mass points are dropped."""
    values = np.asarray(values, dtype=float)
    support, inverse = first_occurrences(values)
    weights = np.ones(values.size) if weights is None else np.asarray(weights, dtype=float)
    masses = np.bincount(inverse, weights=weights, minlength=support.size)
    keep = masses > 0
    return StepDistribution(support[keep], masses[keep])


def scalar_refit(sample, weights=None):
    """A ``SortedSample`` refit under one weight vector: one bincount over
    the first occurrences of its values, zero-mass points kept."""
    support, inverse = first_occurrences(sample.values)
    weights = np.ones(len(sample)) if weights is None else np.asarray(weights, dtype=float)
    masses = np.bincount(inverse, weights=weights, minlength=support.size)
    return StepDistribution(support, masses)


def scalar_rank_transform(source, target, y):
    """quantile_target(cdf_source(y)); a value of rank 0 goes to the
    smallest positive-mass target point, found by its own search."""
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    u = np.atleast_1d(np.asarray(source.cdf(y), dtype=float))
    out = np.empty(u.shape, dtype=float)
    pos = u > 0.0
    if pos.any():
        out[pos] = target.quantile(u[pos])
    if not pos.all():
        out[~pos] = target.support[np.searchsorted(target.cum_probs, 0.0, side="right")]
    return float(out[0]) if scalar else out


def scalar_counterfactual_cdf(cell, weights=None):
    """The cell's treated and counterfactual CDFs under one weight vector
    per arm (None: all ones), built from scalar fits and rank maps."""
    w_cpre, w_cpost, w_tpre, w_tpost = sample_weights(cell, weights)
    control_pre, control_post, treated_pre, treated_post = cell.samples
    pre_control = scalar_refit(control_pre, w_cpre)
    y = control_pre.values
    dy = cell.observed_dy
    if dy is None:
        dy = scalar_rank_transform(pre_control, scalar_refit(control_post, w_cpost), y) - y
    transformed = dy + scalar_rank_transform(pre_control, scalar_refit(treated_pre, w_tpre), y)
    return CounterfactualResult(
        code=cell.code,
        treated=scalar_refit(treated_post, w_tpost),
        counterfactual=scalar_fit(transformed, w_cpre),
        transformed_outcomes=transformed,
        n_control=cell.n_control,
        n_treated=cell.n_treated,
    )


def mixture(components, shares):
    """Share-weighted mixture of step CDFs on the merged support."""
    components = list(components)
    shares = np.asarray(shares, dtype=float)
    if not components:
        raise ValueError("mixture of zero components")
    if shares.shape != (len(components),) or np.any(shares < 0):
        raise ValueError("one non-negative share per component required")
    if not math.isclose(float(shares.sum()), 1.0, abs_tol=1e-8):
        raise ValueError("shares must sum to 1")
    if len(components) == 1:
        # exact: a one-component mixture is the component itself
        return components[0]
    points = np.concatenate([c.support for c in components])
    probs = np.concatenate(
        [s * (c.masses / c.total) for s, c in zip(shares, components)]
    )
    return scalar_fit(points, probs)


def cqtt(result, tau_grid, n_total=None):
    """Quantile difference between the treated and counterfactual CDFs."""
    taus = np.asarray(tau_grid, dtype=float)
    values = np.asarray(result.treated.quantile(taus)) - np.asarray(
        result.counterfactual.quantile(taus)
    )
    return CqttProcess(
        taus=taus,
        values=values,
        code=result.code,
        n_control=result.n_control,
        n_treated=result.n_treated,
        n_total=result.n_control + result.n_treated if n_total is None else n_total,
    )


def unconditional_qtt(results, shares, tau_grid, n_total=None):
    """QTT on the whole treated population: share-weighted mixture of the
    per-cell CDFs, inverted with the same generalized inverse."""
    results = list(results)
    if not results:
        raise ValueError("need at least one cell")
    taus = np.asarray(tau_grid, dtype=float)
    mix_treated = mixture([r.treated for r in results], shares)
    mix_counterfactual = mixture([r.counterfactual for r in results], shares)
    values = np.asarray(mix_treated.quantile(taus)) - np.asarray(
        mix_counterfactual.quantile(taus)
    )
    n_control = sum(r.n_control for r in results)
    n_treated = sum(r.n_treated for r in results)
    return CqttProcess(
        taus=taus,
        values=values,
        code=(),
        n_control=n_control,
        n_treated=n_treated,
        n_total=n_control + n_treated if n_total is None else n_total,
    )


def scalar_cic_qtt(control_pre, control_post, treated_pre, treated_post, tau_grid,
                   weights=None, code=(), n_total=None):
    """Changes in changes for one weight vector per sample (None: all ones)."""
    w = weights if weights is not None else (None, None, None, None)
    dists = []
    for sample, wv in zip((control_pre, control_post, treated_pre, treated_post), w):
        if isinstance(sample, SortedSample):
            dists.append(scalar_refit(sample, wv))
        else:
            dists.append(scalar_fit(sample, wv))
    pre_c, post_c, pre_t, post_t = dists
    taus = np.asarray(tau_grid, dtype=float)

    keep = post_c.masses > 0
    support = post_c.support[keep]
    back = pre_c.quantile(post_c.cum_probs[keep])
    composed = np.asarray(pre_t.cdf(back))
    idx = np.minimum(np.searchsorted(composed, taus, side="left"), support.size - 1)
    values = np.asarray(post_t.quantile(taus)) - support[idx]

    n_control = len(control_pre) + len(control_post)
    n_treated = len(treated_pre) + len(treated_post)
    return CqttProcess(
        taus=taus,
        values=np.atleast_1d(values),
        code=code,
        n_control=n_control,
        n_treated=n_treated,
        n_total=n_control + n_treated if n_total is None else n_total,
    )


def scalar_estimate_process(cell, tau_grid, estimator="ddid", weights=None, n_total=None):
    """One estimator on one cell under one weight vector per arm (None: all ones)."""
    if estimator == "ddid":
        return cqtt(scalar_counterfactual_cdf(cell, weights), tau_grid, n_total)
    if estimator == "cic":
        return scalar_cic_qtt(
            *cell.samples,
            tau_grid,
            weights=sample_weights(cell, weights),
            code=cell.code,
            n_total=cell.n_control + cell.n_treated if n_total is None else n_total,
        )
    raise ValueError(f"unknown estimator {estimator!r} (expected 'ddid' or 'cic')")


# -- per-draw bootstrap references ------------------------------------------


def literal_weight_vector(n, scheme, rng):
    """One arm's weight vector, from numpy's own samplers."""
    if scheme == "multinomial":
        return np.bincount(rng.integers(0, n, size=n), minlength=n).astype(float)
    if scheme == "dirichlet":
        return rng.dirichlet(np.ones(n)) * n
    raise ValueError(f"unknown scheme {scheme!r}")


def per_draw_weights(arm_sizes, scheme, rng):
    """One weight vector per arm, drawn in sorted-name order."""
    return {arm: literal_weight_vector(arm_sizes[arm], scheme, rng) for arm in sorted(arm_sizes)}


def block_weights(arm_sizes, scheme, seed, key, b):
    """Draw b's weight vector per arm, in sorted-name order: row b mod K of
    its block, drawn whole from substream (seed, *key, b // K). K is read
    from the package at each call, so that tests may change it."""
    size = max(1, inference.BLOCK_ELEMENTS // max(arm_sizes.values()))
    rng = substream(seed, *key, b // size)
    block = {}
    for arm in sorted(arm_sizes):
        n = arm_sizes[arm]
        if scheme == "multinomial":
            rows = rng.integers(0, n, size=(size, n))
            block[arm] = np.stack([np.bincount(r, minlength=n) for r in rows]).astype(float)
        elif scheme == "dirichlet":
            block[arm] = rng.dirichlet(np.ones(n), size=size) * n
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
    return {arm: rows[b % size] for arm, rows in block.items()}


def per_draw_weight_rows(arm_sizes, config, key, draws):
    """The weight rows of ``draws``, one draw at a time: row i of each arm's
    matrix is ``block_weights`` of draws[i]."""
    rows = [block_weights(arm_sizes, config.scheme, config.seed, key, b) for b in draws]
    return {arm: np.stack([w[arm] for w in rows]) for arm in sorted(arm_sizes)}


def per_draw_bootstrap(cell, tau_grid, config, estimator="ddid", n_total=None,
                       cell_index=0, key_prefix=()):
    """bootstrap_process, one draw at a time; shape (B, len(grid))."""
    taus = np.asarray(tau_grid, dtype=float)
    draws = np.empty((config.iterations, taus.size))
    for b in range(config.iterations):
        weights = block_weights(
            cell.arm_sizes(), config.scheme, config.seed, (*key_prefix, cell_index), b
        )
        draws[b] = scalar_estimate_process(cell, taus, estimator, weights, n_total).values
    return draws


def per_draw_unconditional(cells, tau_grid, config, n_total):
    """analyze_unconditional's bootstrap replicates, one draw at a time."""

    def counterfactuals(weights_by_cell):
        return [scalar_counterfactual_cdf(cell, w) for (_, cell), w in zip(cells, weights_by_cell)]

    taus = np.asarray(tau_grid, dtype=float)
    shares = treated_shares(counterfactuals([None] * len(cells)))
    draws = np.empty((config.iterations, taus.size))
    for b in range(config.iterations):
        weights_by_cell = [
            block_weights(cell.arm_sizes(), config.scheme, config.seed, (cell_index,), b)
            for cell_index, cell in cells
        ]
        star = counterfactuals(weights_by_cell)
        draws[b] = unconditional_qtt(star, shares, taus, n_total).values
    return draws


def per_draw_mc_rejections(spec, reps, taus, estimators, bootstrap_iterations,
                           alpha, scheme, seed):
    """run_mc's rejection rates per estimator, one draw at a time: draw b of
    rep r is ``block_weights`` under the key (r, 0), shared by the
    estimators."""
    grid = np.asarray(taus, dtype=float)
    rejections = {est: np.empty((reps, grid.size), dtype=bool) for est in estimators}
    for r in range(reps):
        data = simulate(spec, substream(seed, r))
        t = data.treated
        cell = PanelCell(
            (),
            control_pre=data.y_pre[~t],
            control_post=data.y_post[~t],
            treated_pre=data.y_pre[t],
            treated_post=data.y_post[t],
        )
        point = {
            est: scalar_estimate_process(cell, grid, est, None, data.n_total).values
            for est in estimators
        }
        draws = {est: np.empty((bootstrap_iterations, grid.size)) for est in estimators}
        for b in range(bootstrap_iterations):
            weights = block_weights(cell.arm_sizes(), scheme, seed, (r, 0), b)
            for est in estimators:
                draws[est][b] = scalar_estimate_process(
                    cell, grid, est, weights, data.n_total
                ).values
        for est in estimators:
            deviations = np.abs(draws[est] - point[est])
            for j in range(grid.size):
                crit = empirical_quantile(deviations[:, j], 1.0 - alpha)
                rejections[est][r, j] = abs(point[est][j]) > crit
    return {est: rejections[est].mean(axis=0) for est in estimators}


def row_by_row_load_csv(config):
    """The loader before columnar ingest: every field parsed on its own."""
    try:
        handle = open(config.input_path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise LoadError(f"cannot open {config.input_path}: {exc}") from None
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError("empty file") from None
        header = [h.strip() for h in header]
        required = [config.period_col, config.outcome_col, config.treatment_col]
        required += list(config.covariate_cols)
        has_unit = config.unit_col in header
        if config.mode == "panel" and not has_unit:
            required = [config.unit_col] + required
        missing = [c for c in required if c not in header]
        if missing:
            raise LoadError(f"missing columns: {', '.join(missing)}")
        pos = {c: header.index(c) for c in header}

        rows = []
        for i, row in enumerate(reader):
            line = i + 2
            if not row:
                continue
            if len(row) != len(header):
                raise LoadError(f"line {line}: expected {len(header)} fields, got {len(row)}")
            y = _parse_float(row[pos[config.outcome_col]], line, config.outcome_col)
            period = _parse_binary(row[pos[config.period_col]], line, config.period_col)
            d = _parse_binary(row[pos[config.treatment_col]], line, config.treatment_col)
            covs = tuple(
                _parse_code(row[pos[c]], line, c) for c in config.covariate_cols
            )
            unit = None
            if has_unit:
                unit = _parse_unit(row[pos[config.unit_col]], line, config.unit_col)
            rows.append((unit, period, y, d, covs, line))
        if not rows:
            raise LoadError("no data rows")

    if has_unit:
        seen = set()
        for unit, period, *_, line in rows:
            if (unit, period) in seen:
                raise LoadError(f"line {line}: duplicate (unit={unit}, period={period}) row")
            seen.add((unit, period))

    if config.mode == "rcs":
        unit_ids = np.array([r[0] for r in rows]) if has_unit else None
        return RcsData(
            y=np.array([r[2] for r in rows]),
            period=np.array([r[1] for r in rows]),
            treated=np.array([r[3] for r in rows], dtype=bool),
            covariates=np.array([r[4] for r in rows], dtype=int).reshape(
                len(rows), len(config.covariate_cols)
            ),
            unit_ids=unit_ids,
        )

    by_unit: dict[str, dict[int, tuple]] = {}
    for unit, period, y, d, covs, line in rows:
        by_unit.setdefault(unit, {})[period] = (y, d, covs, line)
    units = list(by_unit)
    for unit in units:
        periods = by_unit[unit]
        if set(periods) != {0, 1}:
            raise LoadError(
                f"unit {unit}: panel mode requires exactly one row per period "
                f"(found periods {sorted(periods)})"
            )
        y0, d0, x0, line0 = periods[0]
        y1, d1, x1, line1 = periods[1]
        if x0 != x1:
            raise LoadError(
                f"unit {unit}: covariates differ across periods "
                f"(lines {line0} and {line1})"
            )
        if d0 not in (0, d1):
            raise LoadError(
                f"unit {unit}: pre-period treatment flag {d0} inconsistent with "
                f"post-period {d1} (no one is treated before the policy)"
            )
    return PanelData(
        unit_ids=np.array(units),
        y_pre=np.array([by_unit[u][0][0] for u in units]),
        y_post=np.array([by_unit[u][1][0] for u in units]),
        treated=np.array([by_unit[u][1][1] for u in units], dtype=bool),
        covariates=np.array(
            [by_unit[u][1][2] for u in units], dtype=int
        ).reshape(len(units), len(config.covariate_cols)),
    )


def row_by_row_refusal(dataset_type, **columns):
    """The message with which ``dataset_type(**columns)`` refuses its rows, or
    None: the first row rule broken, in the constructors' order (covariate
    codes, finite outcomes, then for ``RcsData`` periods in {0, 1}, and a
    repeated unit or (unit, period) pair, found with a set)."""

    def column(name):
        return None if columns.get(name) is None else np.asarray(columns[name]).tolist()

    def repeated(keys):
        seen, rows = set(), []
        for i, key in enumerate(keys):
            if key in seen:
                rows.append(i)
            seen.add(key)
        return rows

    def code(v):
        return math.isfinite(v) and v == math.floor(v) and -(2**63) <= v < 2**63

    checks = [("covariates must hold integer codes",
               [i for i, row in enumerate(column("covariates")) if not all(map(code, row))])]
    if dataset_type is RcsData:
        y, period, units = column("y"), column("period"), column("unit_ids")
        checks += [
            ("non-finite outcome", [i for i, v in enumerate(y) if not math.isfinite(v)]),
            ("period not in {0, 1}", [i for i, p in enumerate(period) if p not in (0, 1)]),
        ]
        if units is not None:
            checks.append(("duplicate (unit, period) row", repeated(zip(units, period))))
    else:
        outcomes = zip(column("y_pre"), column("y_post"))
        checks += [
            ("non-finite outcome",
             [i for i, pair in enumerate(outcomes) if not all(map(math.isfinite, pair))]),
            ("duplicate unit id", repeated(column("unit_ids"))),
        ]
    for rule, rows in checks:
        if rows:
            shown = ", ".join(map(str, rows[:10])) + (", ..." if len(rows) > 10 else "")
            return f"{rule} at rows [{shown}]"
    return None


def dict_build_cells(dataset, min_cell_size=DEFAULT_MIN_CELL_SIZE):
    """``build_cells`` grouping rows in a dict keyed by covariate tuples and
    gathering each cell's samples row by row."""
    x = dataset.covariates
    n = x.shape[0]
    if x.shape[1] == 0:
        groups: dict[tuple[int, ...], list[int]] = {(): list(range(n))}
    else:
        groups = {}
        for i, row in enumerate(x.tolist()):
            groups.setdefault(tuple(int(v) for v in row), []).append(i)

    treated = dataset.treated.tolist()
    cells = []
    for code in sorted(groups):
        control = [i for i in groups[code] if not treated[i]]
        treat = [i for i in groups[code] if treated[i]]
        if isinstance(dataset, RcsData):
            y, period = dataset.y.tolist(), dataset.period.tolist()
            samples = [
                [y[i] for i in group if period[i] == p]
                for group in (control, treat)
                for p in (0, 1)
            ]
            names = ["control pre", "control post", "treated pre", "treated post"]
            arms = dict(zip(names, map(len, samples)))
            kind = RcsCell
        else:
            pre, post = dataset.y_pre.tolist(), dataset.y_post.tolist()
            samples = [
                [pre[i] for i in control],
                [post[i] for i in control],
                [pre[i] for i in treat],
                [post[i] for i in treat],
            ]
            arms = {"control": len(control), "treated": len(treat)}
            kind = PanelCell
        short = {name: size for name, size in arms.items() if size < min_cell_size}
        reason = None
        if short:
            parts = ", ".join(f"{name} arm has {size} rows" for name, size in short.items())
            reason = f"{parts} (< min_cell_size {min_cell_size})"
        fields = ("control_pre", "control_post", "treated_pre", "treated_post")
        values = {name: np.array(v, dtype=float) for name, v in zip(fields, samples)}
        cells.append(kind(code, **values, reason=reason))
    return cells
