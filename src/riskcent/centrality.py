"""Risk-dependent node centralities and their rankings.

Three measures are derived from the matrix exponential of the adjacency at
an effective coupling ``zeta``:

* risk centrality   R_i = (exp(zeta A) 1)_i, walks of any length leaving i;
* circulability     C_i = (exp(zeta A))_ii, walks returning to i;
* transmissibility  T_i = R_i - C_i, walks leaving i that end elsewhere.

``sweep`` evaluates all three on a zeta grid, R and C each from one
``spectral.expm`` call.  In the SI reading,
``zeta = (1 - beta) * gamma * t`` couples the infection rate and horizon;
R_i orders nodes by how exposed they are.  ``rank`` is the one ranking:
rank 1 = largest value, ties (up to ``tie_tol``) broken by node index.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .spectral import expm

MEASURES = ("R", "C", "T")
_EPS = float(np.finfo(float).eps)


def _check_measure(name):
    """``name`` if it is one of ``MEASURES``, else a ValueError."""
    if name not in MEASURES:
        raise ValueError("measure must be one of %r, got %r"
                         % (MEASURES, name))
    return name


def default_zeta_grid():
    """The default grid ``0.01, 0.02, ..., 1.00`` (100 values)."""
    grid = 0.01 * np.arange(1, 101)
    grid[-1] = 1.0
    return grid


def _grid(zeta_grid):
    if zeta_grid is None:
        return default_zeta_grid()
    grid = np.asarray(zeta_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("zeta grid must be a nonempty 1-D array")
    if (grid <= 0).any() or not np.isfinite(grid).all():
        raise ValueError("zeta grid values must be positive and finite")
    if (np.diff(grid) <= 0).any():
        raise ValueError("zeta grid must be strictly increasing")
    return grid


@dataclass
class RiskProfile:
    """Measure values over a zeta grid; rows follow the grid, columns nodes."""

    zeta_grid: np.ndarray
    R: np.ndarray
    C: np.ndarray
    T: np.ndarray
    labels: list = field(default_factory=list)

    def measure(self, name):
        return getattr(self, _check_measure(name))

    def to_csv(self, path, measure):
        write_grid_csv(path, "zeta", self.zeta_grid, self.measure(measure),
                       self.labels)


def sweep(g, zeta_grid=None):
    """Evaluate all three measures on a zeta grid.

    The default grid is 0.01, 0.02, ..., 1.00.  R is the power-series
    action ``expm(g, grid, 1)`` on every graph, a sum of nonnegative terms,
    so each entry is accurate relative to itself.  C is the diagonal
    ``expm(g, grid)``, one connected component at a time on the route
    ``expm`` chooses for each, its own eigensystem or its power moments,
    so an isolated node reads C = 1 and T = 0 exactly.
    """
    grid = _grid(zeta_grid)
    r = expm(g, grid, np.ones(g.n))
    c = expm(g, grid)
    return RiskProfile(grid, r, c, r - c, labels=list(g.labels))


def write_grid_csv(path, head, grid, matrix, labels):
    """Write a header of ``head`` and ``labels`` (quoted by ``csv.writer``),
    then one row per grid value: the value and its matrix row, each cell
    ``repr`` of a float (integer ranks read ``3.0``), ending in CRLF.

    An integer matrix whose values span at most its size (ranks) indexes
    a table of the cell strings instead of formatting every cell.
    """
    matrix = np.asarray(matrix)
    lo, hi = ((int(matrix.min()), int(matrix.max()))
              if matrix.dtype.kind in "iu" and matrix.size else (0, -1))
    if 0 <= hi - lo <= matrix.size:
        table = np.array([repr(float(k)) for k in range(lo, hi + 1)],
                         dtype=object)
        cells = table[matrix - lo].tolist()
    else:
        cells = [list(map(repr, row))
                 for row in np.asarray(matrix, dtype=float).tolist()]
    buf = io.StringIO()
    csv.writer(buf).writerow([head] + list(labels))
    buf.writelines(
        ",".join([repr(z)] + row) + "\r\n"
        for z, row in zip(np.asarray(grid, dtype=float).tolist(), cells))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def write_rows(path, header, rows):
    """Write ``header`` and ``rows`` through ``csv.writer``, in UTF-8 with
    CRLF line endings.

    A row holds Python values: ``None`` and NaN cells are written empty,
    every other cell as ``str`` of its value, which for a float is its
    shortest round-trip ``repr``.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        # NaN is the one value unequal to itself; csv.writer writes None
        # empty and a float through repr
        w.writerows([None if x != x else x for x in row] for row in rows)


# -- rankings ----------------------------------------------------------------


def rank(values, tie_tol=0.0):
    """Integer ranks along the last axis, 1 = largest value.

    Sorted values fall into tie groups: a new group starts wherever the gap
    to the next larger value exceeds ``tie_tol * max|row|``.  Groups rank in
    value order and the nodes of one group in node-index order, so each row
    is a permutation of 1..n.  With ``tie_tol=0`` only equal values tie.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 0 or values.shape[-1] == 0:
        raise ValueError("values must be a nonempty array")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite to rank")
    if not tie_tol >= 0.0:
        raise ValueError("tie_tol must be nonnegative")
    n = values.shape[-1]
    order = np.argsort(-values, axis=-1)
    desc = np.take_along_axis(values, order, axis=-1)
    scale = np.maximum(np.abs(values).max(axis=-1, keepdims=True), 1e-300)
    step = desc[..., :-1] - desc[..., 1:] > tie_tol * scale
    if step.all():  # no ties: every group is one node, in the sort's order
        ranked = order
    else:
        group = np.zeros(values.shape, dtype=np.int64)
        group[..., 1:] = np.cumsum(step, axis=-1)
        # equal values share a group whatever order the sort left them
        # in; sorting group * n + node index puts each group in node-index
        # order
        key = np.empty_like(group)
        np.put_along_axis(key, order, group * n, axis=-1)
        ranked = np.sort(key + np.arange(n), axis=-1) % n
    out = np.empty(values.shape, dtype=np.int64)
    np.put_along_axis(out, ranked, np.broadcast_to(np.arange(1, n + 1),
                                                   values.shape), axis=-1)
    return out


@dataclass
class RankingSweep:
    """Per-zeta rankings of one measure plus each node's rank volatility."""

    zeta_grid: np.ndarray
    rank_matrix: np.ndarray     # (grid, n) integer ranks, 1 = largest
    per_node_std: np.ndarray    # population std of each node's rank path
    labels: list = field(default_factory=list)

    @classmethod
    def from_values(cls, zeta_grid, values, labels):
        """Rank every grid row of ``values``, one row per grid value."""
        ranks = rank(values)
        return cls(zeta_grid, ranks, ranks.std(axis=0, ddof=0),
                   labels=list(labels))

    def to_csv(self, path):
        write_grid_csv(path, "zeta", self.zeta_grid, self.rank_matrix,
                       self.labels)

    def std_to_csv(self, path):
        write_rows(path, ["node", "rank_std"], zip(self.labels, np.asarray(
            self.per_node_std, dtype=float).tolist()))


def ranking_sweep(profile, measure="R"):
    """Rank every grid row of a measure; std uses the population convention."""
    return RankingSweep.from_values(profile.zeta_grid,
                                    profile.measure(measure), profile.labels)


def spearman(x, y):
    """Spearman rank correlation of two 1-D arrays, on average ranks.

    Returns NaN when either input is constant up to rounding (its spread
    is within ``n eps max|x|``), where the coefficient is undefined.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two equal-length 1-D arrays with >= 2 entries")
    return float(_row_spearman(x, y))


def _flat(x):
    """Whether each row of a ``(..., n)`` array is constant up to rounding:
    its spread ``max - min`` is within ``n eps max|row|``."""
    return np.ptp(x, axis=-1) <= x.shape[-1] * _EPS * np.abs(x).max(axis=-1)


def _row_spearman(x, y):
    """Spearman correlation of matching rows of two ``(..., n)`` arrays.

    A row constant up to rounding (``_flat``) gives NaN: the rounding
    noise in it would rank too.
    """
    from scipy.stats import rankdata

    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("values must be finite to rank")
    # ranking ascending instead of descending negates the centred ranks of
    # both inputs, which leaves the coefficient unchanged
    out = _row_corr(rankdata(x, axis=-1), rankdata(y, axis=-1))
    return np.where(_flat(x) | _flat(y), np.nan, out)


def _row_corr(x, y):
    """Pearson correlation of matching rows of two ``(..., n)`` arrays.

    Rows constant up to rounding (``_flat``) give NaN, where the
    coefficient is undefined; the rest are clipped to [-1, 1] as
    ``np.corrcoef`` does.
    """
    ok = ~(_flat(x) | _flat(y))
    x = x - x.mean(axis=-1, keepdims=True)
    y = y - y.mean(axis=-1, keepdims=True)
    sxy = np.einsum("...i,...i->...", x, y)
    sxx = np.einsum("...i,...i->...", x, x)
    syy = np.einsum("...i,...i->...", y, y)
    out = np.full(sxy.shape, np.nan)
    ok &= (sxx > 0.0) & (syy > 0.0)
    out[ok] = np.clip(sxy[ok] / np.sqrt(sxx[ok] * syy[ok]), -1.0, 1.0)
    return out
