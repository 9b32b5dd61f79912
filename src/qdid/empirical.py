"""Weighted empirical distributions and generalized-inverse quantiles.

Everything downstream (counterfactual construction, bootstrap, bands) is
built from the two primitives in this module: a right-continuous step CDF
fitted to a weighted sample, and its left-continuous generalized inverse
``inf { y : F(y) >= tau }``. No interpolation or smoothing anywhere.

``StepRows`` stacks many such CDFs, one per bootstrap draw, and evaluates
them together; the estimators run on it alone, the point estimate being the
row whose weights are all 1. ``SortedSample`` refits one sample's rows
without sorting it again, and ``rank_rows`` maps a sample's values to the
points of another CDF at the same rank.

Every fit sorts through ``_sort_layout``: numpy's default (SIMD) argsort,
then, where a row has ties, one sort of the integer keys ``group * n +
position``, which puts each tie group back in index order. The layout is
the stable sort's, bit for bit, so each tie group is represented by its
first value in sample order (a group of 0.0 and -0.0 takes the sign that
comes first) and its weights are summed in sample order.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "StepRows",
    "SortedSample",
    "rank_rows",
    "searchsorted_rows",
]


class StepDistribution:
    """One row of ``StepRows``, for one weight vector; kept while bench/tracer.py wraps it."""

    __slots__ = ("support", "masses", "total", "cum_probs")

    def __init__(self, support, masses):
        support = np.asarray(support, dtype=float)
        masses = np.asarray(masses, dtype=float)
        if support.ndim != 1 or support.size == 0:
            raise ValueError("support must be a nonempty 1-d array")
        if masses.shape != support.shape:
            raise ValueError("masses must have the same shape as support")
        if support.size > 1 and not np.all(np.diff(support) > 0):
            raise ValueError("support must be strictly increasing")
        if not np.all(np.isfinite(support)):
            raise ValueError("support must be finite")
        if np.any(masses < 0) or not np.all(np.isfinite(masses)):
            raise ValueError("masses must be finite and non-negative")
        cum = np.cumsum(masses)
        total = float(cum[-1])
        if not total > 0:
            raise ValueError("total mass must be positive")
        self.support = support
        self.masses = masses
        self.total = total
        # last entry is total/total == 1.0 exactly
        self.cum_probs = cum / total

    @classmethod
    def fit(cls, values, weights=None) -> "StepDistribution":
        """Row 0 of ``StepRows.fit`` under one checked weight vector (None: all ones)."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("need at least one value")
        n = values.size
        weights = np.ones((1, n)) if weights is None else _weight_row(weights, n)
        return _first_row(StepRows.fit(values[None], weights), compact=True)

    @property
    def n_points(self) -> int:
        return self.support.size

    def cdf(self, y):
        """Right-continuous evaluation; 0 below the support, 1 above."""
        y = np.asarray(y, dtype=float)
        idx = np.searchsorted(self.support, y, side="right")
        out = np.where(idx > 0, self.cum_probs[np.maximum(idx - 1, 0)], 0.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, tau):
        """Generalized inverse inf { y : F(y) >= tau } for tau in (0, 1]."""
        tau = np.asarray(tau, dtype=float)
        if not np.all((tau > 0.0) & (tau <= 1.0)):
            raise ValueError("quantile level must lie in (0, 1]")
        idx = np.searchsorted(self.cum_probs, tau, side="left")
        out = self.support[idx]
        return float(out) if out.ndim == 0 else out

    def __repr__(self) -> str:  # pragma: no cover
        return f"StepDistribution({self.n_points} points on [{self.support[0]}, {self.support[-1]}])"


def _weight_row(weights, n: int) -> np.ndarray:
    """One weight vector as a (1, n) row, after checking that it is 1-d and
    n long, finite and non-negative, with a positive total."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise ValueError("weights must have the same shape as values")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ValueError("weights must be finite and non-negative")
    if not weights.sum() > 0:
        raise ValueError("weights sum to zero")
    return weights[None, :]


def _first_row(rows: StepRows, compact: bool) -> StepDistribution:
    """Row 0 of ``rows`` as a ``StepDistribution``; ``compact`` drops its
    zero-mass points, which a support with repeated points needs."""
    support, masses = np.broadcast_to(rows.support, rows.masses.shape)[0], rows.masses[0]
    keep = masses > 0 if compact else slice(None)
    return StepDistribution(support[keep], masses[keep])


def _row_bincount(index, weights, width: int) -> np.ndarray:
    """Row-wise ``np.bincount``: row r of the (C, width) result is
    ``np.bincount(index[r], weights[r], minlength=width)`` (the counts when
    ``weights`` is None), summed in the same order, from one bincount over
    row-offset indices."""
    rows = index.shape[0]
    flat = (index + width * np.arange(rows)[:, None]).ravel()
    weights = None if weights is None else weights.ravel()
    return np.bincount(flat, weights=weights, minlength=rows * width).reshape(rows, width)


def searchsorted_rows(rows, levels, side="left") -> np.ndarray:
    """``np.searchsorted`` of each nondecreasing row of a (C, S) array, at one
    1-d array of levels or at the matching row of (C, m) levels; ``side`` is
    ``np.searchsorted``'s: "left" counts the row values below each level,
    "right" those at or below it.

    One search per row: a single search over row-offset values is not
    exact, since adding an offset to values in [0, 1] rounds low bits away.
    Exact batched searches were slower at a block's shapes (8 rows of 220;
    91 shared levels / 200 levels per row; microseconds per call on one
    x86_64 core, numpy 2.4): this loop 17 / 32 (numpy's ``np.searchsorted``
    wrapper and list stacking made it 20 / 43); a lexicographic search on
    complex (row, value) keys 52 / 66; a merge by stable argsort 63 / 74;
    one search of the values in the shared grid, then ``bincount`` and
    ``cumsum``, 39; vectorized bisection 187 / 231. Where a row has about
    as many levels as values, as in the rank maps, one SIMD sort of integer
    keys wins instead (``_merge_rows``: 264 against 511 us at 81 rows of
    200 + 200, 281 against 436 at one row of 12500 + 12500, and 52 against
    48 at 8 rows of 250 + 250). The sort pays for all m + S keys, so at the
    few tau levels of a quantile (m much smaller than S) the loop stays.
    """
    out = np.empty((rows.shape[0], levels.shape[-1]), dtype=np.intp)
    if levels.ndim == 1:
        for r, row in enumerate(rows):
            out[r] = row.searchsorted(levels, side)
    else:
        for r, row in enumerate(rows):
            out[r] = row.searchsorted(levels[r], side)
    return out


def _merge_rows(rows, levels) -> np.ndarray:
    """``searchsorted_rows(rows, levels)`` for (C, n) rows and (C, m) levels,
    each row nondecreasing and every value a nonnegative double (0.0 or
    -0.0 included), by one sort of (C, m + n) integer keys.

    A nonnegative double's bits, read as an unsigned integer, sort in the
    order of its value; shifted left by one they drop the sign bit, so -0.0
    takes +0.0's key. A level's key is its shifted bits and a row value's
    the same plus 1, so a level sorts after every smaller row value and
    before every equal or larger one, which is the left-side search. In a
    sorted key row the k-th level key is level k (the levels are
    nondecreasing, and equal levels have equal counts), and its position
    minus k counts the row values before it.
    """
    m = levels.shape[1]
    keys = np.empty((rows.shape[0], m + rows.shape[1]), dtype=np.uint64)
    np.left_shift(levels.view(np.uint64), 1, out=keys[:, :m])
    np.left_shift(rows.view(np.uint64), 1, out=keys[:, m:])
    keys[:, m:] |= 1
    keys.sort(axis=1)
    # in place: a fresh temporary of the keys' size took about 120 page faults a call
    keys &= 1
    position = np.flatnonzero(keys == 0).reshape(levels.shape)
    position -= keys.shape[1] * np.arange(keys.shape[0])[:, None]
    position -= np.arange(m)
    return position


def _take_rows(a, index) -> np.ndarray:
    """``a[index]`` row by row: a 1-d ``a`` is shared by every row of
    ``index``, and row r of a (C, S) ``a`` is gathered at row r of (C, m)
    ``index`` by one take from the flat array, with no index grid to build."""
    if a.ndim == 1:
        return a[index]
    return a.ravel().take(index + a.shape[1] * np.arange(index.shape[0])[:, None])


def _sort_layout(values):
    """The stable sort of each row of (C, n) values: the order, the sorted
    rows, at each sorted position the position of the first value of its tie
    group, and whether any row has ties.

    numpy's default argsort (SIMD on float64) is several times faster than
    its stable sort, but it leaves tied values in no fixed order. When some
    row has ties, one in-place sort of the integer keys ``group * n +
    position`` puts each tie group back in index order (the keys of a row
    without ties are in order already), and the rows are gathered again by
    that order, so a group holding both 0.0 and -0.0 shows each where the
    stable sort puts it.
    """
    n = values.shape[1]
    order = np.argsort(values, axis=1)
    support = _take_rows(values, order)
    first = np.empty(values.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(support[:, 1:], support[:, :-1], out=first[:, 1:])
    tied = not first.all()
    if tied:
        offset = np.cumsum(first, axis=1)
        offset *= n
        key = offset + order
        key.sort(axis=1)
        order = np.subtract(key, offset, out=key)
        support = _take_rows(values, order)
    head = np.maximum.accumulate(np.where(first, np.arange(n), 0), axis=1)
    return order, support, head, tied


def _mixture_probs(components, shares) -> np.ndarray:
    """The components' rows side by side, each scaled to probabilities times its share."""
    return np.concatenate(
        [s * (c.masses / c.total[:, None]) for s, c in zip(shares, components)], axis=1
    )


class StepRows:
    """A stack of right-continuous step CDFs, one per row.

    ``masses`` is (C, S); ``support`` is a nondecreasing (S,) array shared by
    every row or a (C, S) array of nondecreasing rows. A repeated support
    point carries its mass on its first occurrence and zero after it, and
    zero-mass points carry no probability, so rows are never compacted:
    cumulative sums over zero masses are unchanged, and every generalized
    inverse below lands on a positive-mass point, as it would on the row
    with its zero-mass points dropped.
    """

    __slots__ = ("support", "masses", "total", "cum_probs")

    def __init__(self, support, masses):
        cum = np.cumsum(masses, axis=1)
        self.support = support
        self.masses = masses
        self.total = cum[:, -1].copy()
        cum /= self.total[:, None]
        self.cum_probs = cum

    @classmethod
    def fit(cls, values, weights) -> "StepRows":
        """Row-wise weighted ECDF of (C, n) values under (C, n) weights: row r
        is F(y) = sum_i w_ri 1{v_ri <= y} / sum_i w_ri.

        Without ties the masses are the weights in sorted order. With ties,
        each tie group's summed weight sits on its first point:
        ``_sort_layout`` keeps tied values in index order, so one bincount
        sums each group in the order ``np.bincount`` of the row alone sums
        it, and a row's masses do not depend on the rows beside it.
        (``reduceat`` would not: it adds segments of eight or more pairwise.)
        """
        order, support, head, tied = _sort_layout(values)
        masses = _take_rows(np.asarray(weights, dtype=float), order)
        if tied:
            masses = _row_bincount(head, masses, values.shape[1])
        return cls(support, masses)

    @classmethod
    def mixture(cls, components, shares) -> "StepRows":
        """Row-wise mixture of components with equal row counts: row r is the
        share-weighted mixture of every component's row r on their merged
        support."""
        components = list(components)
        if len(components) == 1:
            return components[0]
        points = np.concatenate(
            [np.broadcast_to(c.support, c.masses.shape) for c in components], axis=1
        )
        return cls.fit(points, _mixture_probs(components, shares))

    def cdf(self, y) -> np.ndarray:
        """Row-wise right-continuous evaluation at (C, m) points; needs a shared support."""
        count = np.searchsorted(self.support, y, side="right")
        below = _take_rows(self.cum_probs, np.maximum(count - 1, 0))
        return np.where(count > 0, below, 0.0)

    def quantile(self, levels) -> np.ndarray:
        """Row-wise generalized inverse ``inf { y : F(y) >= level }`` at
        levels in (0, 1]: one 1-d array for every row, or a (C, m) array."""
        return _take_rows(self.support, searchsorted_rows(self.cum_probs, levels))


class SortedSample:
    """Sort/tie layout of a sample, precomputed once and refit many times.

    Bootstrap draws reweight the same observations thousands of times; the
    support and tie structure never change, so ``fit`` here skips sorting.
    ``order`` is the stable sort of the values (``_sort_layout``),
    ``support`` holds each tie group's first value in index order, so a
    group of 0.0 and -0.0 takes the sign of its first occurrence, as in
    ``StepRows.fit``, and ``inverse`` maps each value to its tie group.
    Zero-weight points are kept in the layout (harmless for evaluation).
    """

    __slots__ = ("values", "order", "support", "inverse")

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("need at least one value")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        order, support, head, _ = _sort_layout(values[None])
        first = head[0] == np.arange(values.size)
        self.values = values
        self.order = order[0]
        self.support = support[0][first]
        self.inverse = np.empty(values.size, dtype=np.intp)
        self.inverse[self.order] = np.cumsum(first) - 1

    def __len__(self) -> int:
        return self.values.size

    def fit(self, weights=None) -> StepDistribution:
        """Row 0 of ``fit_rows`` under one checked weight vector (None: all ones)."""
        weights = np.ones((1, len(self))) if weights is None else _weight_row(weights, len(self))
        return _first_row(self.fit_rows(weights), compact=False)

    def fit_rows(self, weights) -> StepRows:
        """Refit under each row of a (C, n) weight matrix, on the fixed
        support: the weights in sorted order when the sample has no ties."""
        if self.support.size == len(self):
            return StepRows(self.support, np.asarray(weights, dtype=float)[:, self.order])
        index = np.broadcast_to(self.inverse, weights.shape)
        return StepRows(self.support, _row_bincount(index, weights, self.support.size))


def rank_transform(source: StepDistribution, target: StepDistribution, y):
    """One row of ``rank_rows`` at any points; kept while bench/tracer.py rebinds it."""
    return target.quantile(np.maximum(source.cdf(y), np.nextafter(0.0, 1.0)))


def rank_rows(source: StepRows, inverse, target: StepRows) -> np.ndarray:
    """Map a sample's own values to the target points at the same rank, row
    by row: quantile_target(cdf_source(y)).

    ``source`` is the sample refit by ``SortedSample.fit_rows`` and
    ``inverse`` its tie layout, so each value's source rank is the
    cumulative probability of its support point. A rank of 0 is raised to
    the smallest positive double, whose generalized inverse is the first
    positive-mass target point, so every value lands on the target support:
    the search index is raised to that point's. A value's rank is 0 only
    when its own weight in that row is 0, so the clamp never moves an
    estimate.

    The ranks and the target's cumulative probabilities are nondecreasing
    rows of nonnegative doubles, so ``_merge_rows`` gives the same integer
    as ``target.quantile``'s search at every positive rank.
    """
    index = _merge_rows(target.cum_probs, source.cum_probs)
    first = np.argmax(target.cum_probs > 0, axis=1)  # the last entry is 1.0
    np.maximum(index, first[:, None], out=index)
    return _take_rows(target.support, index)[:, inverse]
