"""Weighted empirical distributions and generalized-inverse quantiles.

Everything downstream (counterfactual construction, bootstrap, bands) is
built from the two primitives in this module: a right-continuous step CDF
fitted to a weighted sample, and its left-continuous generalized inverse
``inf { y : F(y) >= tau }``. No interpolation or smoothing anywhere.

``StepRows`` stacks many such CDFs, one per bootstrap draw, and evaluates
them together; the estimators run on it alone, the point estimate being the
row whose weights are all 1. ``StepDistribution`` is the same CDF for one
weight vector: its fits are the one-row case of ``StepRows.fit`` and
``SortedSample.fit_rows``, and ``rank_transform`` clamps rank 0 as
``rank_rows`` does.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "StepDistribution",
    "StepRows",
    "MixtureLayout",
    "SortedSample",
    "rank_transform",
    "rank_rows",
    "searchsorted_rows",
]


class StepDistribution:
    """Step CDF over a finite, strictly increasing support.

    ``masses`` are unnormalized point masses; individual masses may be zero
    (a bootstrap draw can assign weight zero to an observation), and all
    evaluation routines treat zero-mass points as carrying no probability.
    The total mass must be positive.
    """

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
        """Weighted ECDF: F(y) = sum_i w_i 1{v_i <= y} / sum_i w_i.

        Ties are merged by summing weights; points whose merged weight is
        zero are dropped. With ``weights=None`` every value has weight 1.
        The one-row case of ``StepRows.fit``.
        """
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


def searchsorted_rows(rows, levels) -> np.ndarray:
    """Left-side ``np.searchsorted`` of each nondecreasing row of a (C, S)
    array, at one 1-d array of levels or at the matching row of (C, m) levels.

    One search per row: a single search over row-offset values is not
    exact, since adding an offset to values in [0, 1] rounds low bits away.
    """
    if levels.ndim == 1:
        return np.array([np.searchsorted(row, levels) for row in rows])
    return np.array([np.searchsorted(row, lv) for row, lv in zip(rows, levels)])


def _sort_layout(values):
    """The stable sort of each row of (C, n) values: the order, the sorted
    rows, and at each sorted position the position of the first value of its
    tie group."""
    order = np.argsort(values, axis=1, kind="stable")
    support = np.take_along_axis(values, order, axis=1)
    first = np.empty(values.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(support[:, 1:], support[:, :-1], out=first[:, 1:])
    head = np.maximum.accumulate(np.where(first, np.arange(values.shape[1]), 0), axis=1)
    return order, support, head


def _mixture_probs(components, shares) -> np.ndarray:
    """The components' rows side by side, each scaled to probabilities times its share."""
    return np.concatenate(
        [s * (c.masses / c.total[:, None]) for s, c in zip(shares, components)], axis=1
    )


def _take_rows(support, index) -> np.ndarray:
    """``support[index]`` row by row; a 1-d support is shared by all rows."""
    if support.ndim == 1:
        return support[index]
    return np.take_along_axis(support, index, axis=1)


class StepRows:
    """A stack of step CDFs, one per row: the batched ``StepDistribution``.

    ``masses`` is (C, S); ``support`` is a nondecreasing (S,) array shared by
    every row or a (C, S) array of nondecreasing rows. A repeated support
    point carries its mass on its first occurrence and zero after it, and
    zero-mass points carry no probability, so rows are never compacted:
    cumulative sums over zero masses are unchanged, and every generalized
    inverse below lands on a positive-mass point, as the per-row
    ``StepDistribution`` (which drops zero-mass points) would.
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
        """Row-wise weighted ECDF of (C, n) values under (C, n) weights.

        Each tie group's mass sits on its first point: a stable sort keeps
        tied values in index order, so one bincount sums each group in the
        order ``np.bincount`` of the row alone sums it, and row r without its
        zero-mass points is ``StepDistribution.fit(values[r], weights[r])``.
        (``reduceat`` would not: it adds segments of eight or more pairwise.)
        """
        order, support, head = _sort_layout(values)
        masses = _row_bincount(head, np.take_along_axis(weights, order, axis=1), values.shape[1])
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
        idx = np.searchsorted(self.support, y, side="right")
        below = np.take_along_axis(self.cum_probs, np.maximum(idx - 1, 0), axis=1)
        return np.where(idx > 0, below, 0.0)

    def quantile(self, levels) -> np.ndarray:
        """Row-wise generalized inverse ``inf { y : F(y) >= level }`` at
        levels in (0, 1]: one 1-d array for every row, or a (C, m) array."""
        return _take_rows(self.support, searchsorted_rows(self.cum_probs, levels))


class MixtureLayout:
    """``StepRows.mixture`` for components whose supports never change, each a
    1-d support shared by its rows (as ``SortedSample.fit_rows`` gives): the
    merged support is sorted once, so each mixture is a gather of the
    components' probabilities and one bincount."""

    __slots__ = ("order", "support", "head")

    def __init__(self, supports):
        order, support, head = _sort_layout(np.concatenate(supports)[None])
        self.order, self.support, self.head = order[0], support[0], head[0]

    def mixture(self, components, shares) -> StepRows:
        """``StepRows.mixture(components, shares)`` bit for bit, for components
        on the supports of this layout, in their order."""
        components = list(components)
        if len(components) == 1:
            return components[0]
        probs = _mixture_probs(components, shares)[:, self.order]
        head = np.broadcast_to(self.head, probs.shape)
        return StepRows(self.support, _row_bincount(head, probs, self.head.size))


class SortedSample:
    """Sort/tie layout of a sample, precomputed once and refit many times.

    Bootstrap draws reweight the same observations thousands of times; the
    support and tie structure never change, so ``fit`` here skips sorting.
    Zero-weight points are kept in the layout (harmless for evaluation).
    """

    __slots__ = ("values", "support", "inverse")

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("need at least one value")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        self.values = values
        self.support, self.inverse = np.unique(values, return_inverse=True)

    def __len__(self) -> int:
        return self.values.size

    def fit(self, weights=None) -> StepDistribution:
        """Refit under one checked weight vector (None: all ones), zero-mass
        points kept: the one-row case of ``fit_rows``."""
        weights = np.ones((1, len(self))) if weights is None else _weight_row(weights, len(self))
        return _first_row(self.fit_rows(weights), compact=False)

    def fit_rows(self, weights) -> StepRows:
        """Refit under each row of a (C, n) weight matrix, on the fixed support."""
        index = np.broadcast_to(self.inverse, weights.shape)
        return StepRows(self.support, _row_bincount(index, weights, self.support.size))


def rank_transform(source: StepDistribution, target: StepDistribution, y):
    """Map y to the target point at the same rank: quantile_target(cdf_source(y)).

    A rank of 0 is clamped as in ``rank_rows``, to the smallest positive-mass
    target point, so the output stays on the target support.
    """
    return target.quantile(np.maximum(source.cdf(y), np.nextafter(0.0, 1.0)))


def rank_rows(source: StepRows, inverse, target: StepRows) -> np.ndarray:
    """``rank_transform`` of a sample's own values, row by row.

    ``source`` is the sample refit by ``SortedSample.fit_rows`` and
    ``inverse`` its tie layout, so each value's source rank is the
    cumulative probability of its support point. A rank of 0 is raised to
    the smallest positive double, whose generalized inverse is the
    smallest positive-mass target point. A value's rank is 0 only when its
    own weight in that row is 0, so the clamp never moves an estimate.
    """
    ranks = np.maximum(source.cum_probs, np.nextafter(0.0, 1.0))
    return target.quantile(ranks)[:, inverse]
