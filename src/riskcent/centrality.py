"""Risk-dependent node centralities and their rankings.

Three measures are derived from the matrix exponential of the adjacency at
an effective coupling ``zeta``:

* risk centrality   R_i = (exp(zeta A) 1)_i, walks of any length leaving i;
* circulability     C_i = (exp(zeta A))_ii, walks returning to i;
* transmissibility  T_i = R_i - C_i, walks leaving i that end elsewhere.

``sweep`` evaluates all three on a zeta grid (``spectral.expm`` gives R or C
alone, at one zeta or a grid, on any route).  In the SI reading,
``zeta = (1 - beta) * gamma * t`` couples the infection rate and horizon;
R_i orders nodes by how exposed they are.  ``rank`` is the one ranking:
rank 1 = largest value, ties (up to ``tie_tol``) broken by node index.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .spectral import decompose, expm_with_diagonal

MEASURES = ("R", "C", "T")


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
        if name not in MEASURES:
            raise ValueError("measure must be one of %r, got %r"
                             % (MEASURES, name))
        return getattr(self, name)

    def to_csv(self, path, measure):
        write_grid_csv(path, "zeta", self.zeta_grid, self.measure(measure),
                       self.labels)

    def to_json_dict(self):
        return {
            "zeta_grid": self.zeta_grid.tolist(),
            "labels": list(self.labels),
            "R": self.R.tolist(),
            "C": self.C.tolist(),
            "T": self.T.tolist(),
        }


def sweep(g, zeta_grid=None):
    """Evaluate all three measures on a zeta grid.

    The default grid is 0.01, 0.02, ..., 1.00.  R and C take the route
    ``expm`` chooses for the diagonal (``spectral.expm_with_diagonal``): on
    the dense route both come from the one decomposition, otherwise R from
    the Krylov action and C from the power moments, so the graph is
    never decomposed.
    """
    grid = _grid(zeta_grid)
    r, c = expm_with_diagonal(g, grid, np.ones(g.n))
    return RiskProfile(grid, r, c, r - c, labels=list(g.labels))


def write_grid_csv(path, head, grid, matrix, labels):
    """Write a header of ``head`` and ``labels`` (quoted by ``csv.writer``),
    then one row per grid value: the value and its matrix row, each cell
    ``repr`` of a float (integer ranks read ``3.0``), ending in CRLF.
    """
    rows = np.asarray(matrix, dtype=float).tolist()
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow([head] + list(labels))
        for z, row in zip(np.asarray(grid, dtype=float).tolist(), rows):
            fh.write(",".join(map(repr, [z] + row)) + "\r\n")


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
    group = np.zeros(values.shape, dtype=np.int64)
    group[..., 1:] = np.cumsum(step, axis=-1)
    # equal values share a group whatever order the sort left them in;
    # sorting group * n + node index puts each group in node-index order
    key = np.empty_like(group)
    np.put_along_axis(key, order, group * n, axis=-1)
    ranked = np.sort(key + np.arange(n), axis=-1) % n
    out = np.empty_like(group)
    np.put_along_axis(out, ranked, np.broadcast_to(np.arange(1, n + 1),
                                                   values.shape), axis=-1)
    return out


@dataclass
class RankingSweep:
    """Per-zeta rankings of one measure plus each node's rank volatility."""

    zeta_grid: np.ndarray
    measure: str
    rank_matrix: np.ndarray     # (grid, n) integer ranks, 1 = largest
    per_node_std: np.ndarray    # population std of each node's rank path
    labels: list = field(default_factory=list)

    def to_csv(self, path):
        write_grid_csv(path, "zeta", self.zeta_grid, self.rank_matrix,
                       self.labels)

    def std_to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["node", "rank_std"])
            for name, s in zip(self.labels, self.per_node_std):
                w.writerow([name, repr(float(s))])


def ranking_sweep(profile, measure="R"):
    """Rank every grid row of a measure; std uses the population convention."""
    ranks = rank(profile.measure(measure))
    return RankingSweep(profile.zeta_grid, measure, ranks,
                        ranks.std(axis=0, ddof=0), labels=list(profile.labels))


def spearman(x, y):
    """Spearman rank correlation of two 1-D arrays, on average ranks.

    Returns NaN when either input has zero rank variance (constant
    vector), where the coefficient is undefined.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two equal-length 1-D arrays with >= 2 entries")
    return float(_row_spearman(x, y))


def _row_spearman(x, y):
    """Spearman correlation of matching rows of two ``(..., n)`` arrays.

    A constant row has zero rank variance and gives NaN.
    """
    from scipy.stats import rankdata

    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("values must be finite to rank")
    # ranking ascending instead of descending negates the centred ranks of
    # both inputs, which leaves the coefficient unchanged
    return _row_corr(rankdata(x, axis=-1), rankdata(y, axis=-1))


def _row_corr(x, y):
    """Pearson correlation of matching rows of two ``(..., n)`` arrays.

    Rows with zero variance give NaN, where the coefficient is undefined;
    the rest are clipped to [-1, 1] as ``np.corrcoef`` does.
    """
    x = x - x.mean(axis=-1, keepdims=True)
    y = y - y.mean(axis=-1, keepdims=True)
    sxy = np.einsum("...i,...i->...", x, y)
    sxx = np.einsum("...i,...i->...", x, x)
    syy = np.einsum("...i,...i->...", y, y)
    out = np.full(sxy.shape, np.nan)
    ok = (sxx > 0.0) & (syy > 0.0)
    out[ok] = np.clip(sxy[ok] / np.sqrt(sxx[ok] * syy[ok]), -1.0, 1.0)
    return out


def limit_rankings(g):
    """Rankings at the two extremes of zeta for a connected graph.

    Returns ``(degree_ranks, eigenvector_ranks)``:  as zeta -> 0 the
    measures order nodes by degree (strength when weighted); as
    zeta -> infinity by the Perron eigenvector entry.
    """
    if not g.is_connected():
        raise ValueError("limit rankings need a connected graph "
                         "(the Perron vector is not unique otherwise)")
    return rank(g.strengths()), rank(decompose(g).eigenvectors[:, 0])
