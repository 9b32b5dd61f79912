"""References used as oracles in tests.

The brute-force references are deliberately naive: explicit lookup tables,
linear scans, no shared code with the package. Floating-point results
coincide bit-for-bit with the engine on integer-valued inputs because both
reduce to ratios of small integer counts.

The ingest references are the row-by-row reader, validator and cell
partition the package ran before its columnar ingest. The columnar code must
give the same arrays, dtypes and row order, and the same errors.

The per-draw references at the end are the draw loops the package ran
before its batched bootstrap kernel: one substream, one weight vector per
arm and one full ``estimate_process`` per draw. The kernel must reproduce
them bit for bit.
"""

import csv

import numpy as np

from qdid.cli import LoadError, _parse_binary, _parse_code, _parse_float
from qdid.data_model import (
    DEFAULT_MIN_CELL_SIZE,
    CovariateCell,
    PanelData,
    RcsData,
    ValidationIssue,
    ValidationReport,
    _rows_msg,
)
from qdid.estimators import (
    PanelCell,
    counterfactual_cdf_panel,
    counterfactual_cdf_rcs,
    estimate_process,
    treated_shares,
    unconditional_qtt,
)
from qdid.inference import draw_weights, empirical_quantile, substream
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


# -- per-draw bootstrap references ------------------------------------------


def _per_draw_weights(cell, scheme, seed, key):
    return draw_weights(cell.arm_sizes(), scheme, substream(seed, *key))


def per_draw_bootstrap(cell, tau_grid, config, estimator="ddid", n_total=None,
                       cell_index=0, key_prefix=()):
    """bootstrap_process, one draw at a time; shape (B, len(grid))."""
    taus = np.asarray(tau_grid, dtype=float)
    draws = np.empty((config.iterations, taus.size))
    for b in range(config.iterations):
        weights = _per_draw_weights(
            cell, config.scheme, config.seed, (*key_prefix, cell_index, b)
        )
        draws[b] = estimate_process(cell, taus, estimator, weights, n_total).values
    return draws


def per_draw_unconditional(cells, tau_grid, config, n_total):
    """analyze_unconditional's bootstrap replicates, one draw at a time."""

    def counterfactuals(weights_by_cell):
        out = []
        for (_, cell), w in zip(cells, weights_by_cell):
            if isinstance(cell, PanelCell):
                out.append(counterfactual_cdf_panel(cell, w))
            else:
                out.append(counterfactual_cdf_rcs(cell, w))
        return out

    taus = np.asarray(tau_grid, dtype=float)
    shares = treated_shares(counterfactuals([None] * len(cells)))
    draws = np.empty((config.iterations, taus.size))
    for b in range(config.iterations):
        weights_by_cell = [
            _per_draw_weights(cell, config.scheme, config.seed, (cell_index, b))
            for cell_index, cell in cells
        ]
        star = counterfactuals(weights_by_cell)
        draws[b] = unconditional_qtt(star, shares, taus, n_total).values
    return draws


def per_draw_mc_rejections(spec, reps, taus, estimators, bootstrap_iterations,
                           alpha, scheme, seed):
    """run_mc's rejection rates per estimator, one draw at a time: draw b of
    rep r comes from substream (seed, r, 0, b), shared by the estimators."""
    grid = np.asarray(taus, dtype=float)
    rejections = {est: np.empty((reps, grid.size), dtype=bool) for est in estimators}
    for r in range(reps):
        data = simulate(spec, substream(seed, r))
        t = data.treated
        cell = PanelCell(
            code=(),
            control_y_pre=data.y_pre[~t],
            control_dy=data.y_post[~t] - data.y_pre[~t],
            treated_y_pre=data.y_pre[t],
            treated_y_post=data.y_post[t],
        )
        point = {
            est: estimate_process(cell, grid, est, None, data.n_total).values
            for est in estimators
        }
        draws = {est: np.empty((bootstrap_iterations, grid.size)) for est in estimators}
        for b in range(bootstrap_iterations):
            weights = _per_draw_weights(cell, scheme, seed, (r, 0, b))
            for est in estimators:
                draws[est][b] = estimate_process(
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
        handle = open(config.input_path, newline="", encoding="utf-8")
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
            unit = row[pos[config.unit_col]].strip() if has_unit else None
            rows.append((unit, period, y, d, covs, line))
        if not rows:
            raise LoadError("no data rows")

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
        periods = by_unit.setdefault(unit, {})
        if period in periods:
            raise LoadError(f"line {line}: duplicate (unit={unit}, period={period}) row")
        periods[period] = (y, d, covs, line)
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


def row_by_row_validate(dataset):
    """``validate`` with the (unit, period) duplicate check as a dict loop."""
    issues: list[ValidationIssue] = []

    if isinstance(dataset, PanelData):
        bad = np.flatnonzero(~np.isfinite(dataset.y_pre) | ~np.isfinite(dataset.y_post))
        if bad.size:
            issues.append(_rows_msg(bad, "non-finite outcome"))
        ids, counts = np.unique(dataset.unit_ids, return_counts=True)
        dup = ids[counts > 1]
        if dup.size:
            issues.append(
                ValidationIssue(
                    "duplicate unit",
                    (),
                    f"duplicate unit ids: {', '.join(map(str, dup[:10]))}",
                )
            )
    else:
        bad = np.flatnonzero(~np.isfinite(dataset.y))
        if bad.size:
            issues.append(_rows_msg(bad, "non-finite outcome"))
        bad = np.flatnonzero(~np.isin(dataset.period, (0, 1)))
        if bad.size:
            issues.append(_rows_msg(bad, "period not in {0, 1}"))
        if dataset.unit_ids is not None:
            pairs = list(zip(dataset.unit_ids.tolist(), dataset.period.tolist()))
            seen: dict[tuple, int] = {}
            dup_rows = []
            for i, key in enumerate(pairs):
                if key in seen:
                    dup_rows.append(i)
                else:
                    seen[key] = i
            if dup_rows:
                issues.append(_rows_msg(np.asarray(dup_rows), "duplicate (unit, period) row"))

    x = dataset.covariates
    if x.size:
        if not np.issubdtype(x.dtype, np.integer):
            as_float = x.astype(float)
            frac = np.flatnonzero(np.any(as_float != np.floor(as_float), axis=1))
            if frac.size or not np.all(np.isfinite(as_float)):
                issues.append(
                    _rows_msg(
                        frac if frac.size else np.arange(len(as_float)),
                        "non-integer covariate value (covariates must be discrete codes)",
                    )
                )
    return ValidationReport(tuple(issues))


def dict_build_cells(dataset, min_cell_size=DEFAULT_MIN_CELL_SIZE):
    """``build_cells`` grouping rows in a dict keyed by covariate tuples."""
    x = dataset.covariates
    n = x.shape[0]
    if x.shape[1] == 0:
        groups: dict[tuple[int, ...], list[int]] = {(): list(range(n))}
    else:
        groups = {}
        for i, row in enumerate(x.tolist()):
            groups.setdefault(tuple(int(v) for v in row), []).append(i)

    treated = dataset.treated
    cells = []
    for code in sorted(groups):
        rows = np.asarray(groups[code], dtype=int)
        t_rows = rows[treated[rows]]
        c_rows = rows[~treated[rows]]
        viable, reason = True, None
        if isinstance(dataset, RcsData):
            arms = {
                "control pre": int(np.sum(dataset.period[c_rows] == 0)),
                "control post": int(np.sum(dataset.period[c_rows] == 1)),
                "treated pre": int(np.sum(dataset.period[t_rows] == 0)),
                "treated post": int(np.sum(dataset.period[t_rows] == 1)),
            }
        else:
            arms = {"control": len(c_rows), "treated": len(t_rows)}
        short = {name: size for name, size in arms.items() if size < min_cell_size}
        if short:
            viable = False
            parts = ", ".join(f"{name} arm has {size} rows" for name, size in short.items())
            reason = f"{parts} (< min_cell_size {min_cell_size})"
        cells.append(
            CovariateCell(
                code=code,
                treated_rows=t_rows,
                control_rows=c_rows,
                viable=viable,
                reason=reason,
            )
        )
    return cells
