"""References used as oracles in tests.

The brute-force references are deliberately naive: explicit lookup tables,
linear scans, no shared code with the package. Floating-point results
coincide bit-for-bit with the engine on integer-valued inputs because both
reduce to ratios of small integer counts.

The per-draw references at the end are the draw loops the package ran
before its batched bootstrap kernel: one substream, one weight vector per
arm and one full ``estimate_process`` per draw. The kernel must reproduce
them bit for bit.
"""

import numpy as np

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
