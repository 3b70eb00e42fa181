"""Correlation-market and board-interlock pipelines.

Workflow (a): daily returns -> monthly-stepped six-month windows ->
pairwise-complete correlations -> Mantegna distances -> minimum spanning
tree -> centrality rank reports per window.  The windows run in batches:
``window_trees`` builds every tree of a batch in one vectorised Prim's
run (``msts``) over the stacked distance matrices, ties broken by the
strict order of ``(weight, min(u, v), max(u, v))``, and
``window_rank_reports`` takes R of every tree from one power-series
action (``spectral.expm``) on their disjoint union, never decomposing,
and C from one diagonal of that union.  ``mst`` and
``window_rank_report`` are the one-window calls of the batch functions.

Workflow (b): company-director memberships -> one-mode projection ->
rank shift between a low-risk and a high-risk regime (``delta_rank`` of
one measure's two value rows) -> one-dimensional discriminant
classification against outcome trends.
"""

from __future__ import annotations

import datetime
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .centrality import (RankingSweep, _check_measure, _grid, rank,
                         write_rows)
from .graph import Graph, _check_unique, _text_rows
from .spectral import expm


# -- returns panel ---------------------------------------------------------


@dataclass
class ReturnsPanel:
    """Dated return observations, one column per asset; NaN marks missing."""

    dates: list           # datetime.date, strictly ascending
    assets: list          # column labels
    returns: np.ndarray   # shape (len(dates), len(assets))

    def __post_init__(self):
        self.returns = np.asarray(self.returns, dtype=float)
        if len(self.assets) < 2:
            raise ValueError("a returns panel needs at least 2 assets")
        if self.returns.shape != (len(self.dates), len(self.assets)):
            raise ValueError("returns shape %s does not match %d dates x %d "
                             "assets" % (self.returns.shape, len(self.dates),
                                         len(self.assets)))
        _check_unique(self.assets, "asset", "asset columns", ValueError)
        for a, b in zip(self.dates, self.dates[1:]):
            if not a < b:
                raise ValueError("dates must be strictly ascending; %s is "
                                 "followed by %s" % (a, b))

    def __eq__(self, other):
        if not isinstance(other, ReturnsPanel):
            return NotImplemented
        return (self.dates == other.dates and self.assets == other.assets
                and np.array_equal(self.returns, other.returns,
                                   equal_nan=True))


def load_returns(path):
    """Read a returns CSV: header of asset labels, first column ISO dates.

    Empty cells and the token ``NaN`` (any case) mark missing values.  Rows
    may arrive in any order; they are sorted by date.  Duplicate dates,
    unparseable cells, blank asset labels and panels with fewer than 2
    assets are errors.
    """
    reader = _text_rows(path, cells=True)
    head_line, header = next(reader, (0, None))
    if header is None:
        raise ValueError("%s: empty file" % path)
    assets = [h.strip() for h in header[1:]]
    if "" in assets:
        raise ValueError("%s:%d: header column %d has no asset label"
                         % (path, head_line, assets.index("") + 2))
    if len(assets) < 2:
        raise ValueError("%s: need at least 2 asset columns" % path)
    rows = []
    for lineno, cells in reader:
        if len(cells) != len(assets) + 1:
            raise ValueError("%s:%d: expected %d cells, got %d"
                             % (path, lineno, len(assets) + 1, len(cells)))
        try:
            day = datetime.date.fromisoformat(cells[0].strip())
        except ValueError:
            raise ValueError("%s:%d: unparseable date %r"
                             % (path, lineno, cells[0])) from None
        # float() skips surrounding whitespace and reads "nan" in any
        # case, so only blank cells need a test of their own
        try:
            vals = [float(c) if c.strip() else math.nan for c in cells[1:]]
        except ValueError:
            raise ValueError(_bad_cell(path, lineno, cells[1:],
                                       assets)) from None
        rows.append((day, vals))
    if not rows:
        raise ValueError("%s: no data rows" % path)
    rows.sort(key=lambda r: r[0])
    for (a, _), (b, _) in zip(rows, rows[1:]):
        if a == b:
            raise ValueError("%s: duplicate date %s" % (path, a))
    return ReturnsPanel([r[0] for r in rows], assets,
                        np.array([r[1] for r in rows], dtype=float))


def _bad_cell(path, lineno, cells, assets):
    """The message for the first cell of a row that ``float`` rejects."""
    for cell, asset in zip(cells, assets):
        try:
            float(cell.strip() or "nan")
        except ValueError:
            return ("%s:%d: unparseable return %r for %s"
                    % (path, lineno, cell, asset))
    raise AssertionError("no unparseable cell in %r" % (cells,))


def save_returns(panel, path):
    """Inverse of load_returns; missing values become empty cells."""
    returns = np.asarray(panel.returns, dtype=float).tolist()
    write_rows(path, ["date"] + list(panel.assets),
               ([day.isoformat()] + row
                for day, row in zip(panel.dates, returns)))


# -- rolling windows -------------------------------------------------------


def _month_index(day):
    return day.year * 12 + (day.month - 1)


def _month_id(index):
    return "%d-%d" % (index % 12 + 1, index // 12)


@dataclass
class WindowSlice:
    """Rows of a panel covering one calendar window, filtered assets.

    ``rows`` is a view of the panel's rows in the window, every asset
    included; ``returns`` copies the kept columns out of it on each read,
    so a list of windows holds no copy of the panel.
    """

    window_id: str        # "M-YYYY" of the start month, no zero padding
    dates: list
    assets: list
    rows: np.ndarray      # (len(dates), panel assets), a view of the panel
    columns: np.ndarray   # panel column of each of ``assets``

    @property
    def returns(self):
        """(len(dates), len(assets)) returns, NaN preserved."""
        return self.rows[:, self.columns]


def rolling_windows(panel, width_months=6, step_months=1, min_obs=0.9):
    """Calendar windows of ``width_months``, stepped by ``step_months``.

    A window starting in month M keeps every panel row dated within months
    M..M+width-1 and every asset with at least ``min_obs`` of the window's
    rows observed.  Ids name the start month, e.g. "1-2001".  A window
    left without rows or without assets is an error.
    """
    if width_months < 1 or step_months < 1:
        raise ValueError("window width and step must be positive")
    if not 0.0 <= min_obs <= 1.0:
        raise ValueError("min_obs is a fraction of the window length")
    months = np.array([_month_index(d) for d in panel.dates])
    first, last = int(months[0]), int(months[-1])
    if last - first + 1 < width_months:
        raise ValueError("panel spans %d months, shorter than the %d-month "
                         "window" % (last - first + 1, width_months))
    out = []
    for start in range(first, last - width_months + 2, step_months):
        wid = _month_id(start)
        # the dates ascend, so a window's rows are one contiguous run
        lo, hi = np.searchsorted(months, [start, start + width_months])
        if lo == hi:
            raise ValueError("window %s contains no observations" % wid)
        rows = panel.returns[lo:hi]
        need = min_obs * rows.shape[0]
        keep = np.nonzero((~np.isnan(rows)).sum(axis=0) >= need)[0]
        if keep.size == 0:
            raise ValueError("window %s has no asset with enough "
                             "observations" % wid)
        out.append(WindowSlice(
            window_id=wid,
            dates=panel.dates[lo:hi],
            assets=[panel.assets[j] for j in keep],
            rows=rows, columns=keep))
    return out


# -- correlations and distances --------------------------------------------


def correlation_and_distance(returns):
    """Pairwise-complete correlations and Mantegna distances.

    ``returns`` is an (observations x assets) array with NaN for missing
    values.  Assets whose observed values are all equal (or that have none,
    or an infinite one) are dropped with a warning.  Returns ``(rho, dist,
    kept)`` where ``kept`` indexes the surviving input columns; ``dist =
    sqrt(2 (1 - rho))`` with zero diagonal.  Correlations nudged outside
    [-1, 1] by rounding are clamped with a warning, so distances always
    land in [0, 2].  Two columns at distance 0 move as one asset, which
    the tree cannot link: each such pair is merged into its first column,
    i.e. the later column is dropped with a warning.  Every other entry is
    as without the dropped columns, as each pair is correlated on its own
    overlap.

    A pair is at distance 0 when 1 - rho lies within the rounding bound
    of rho, so that identical columns merge however the sums round.  On
    an overlap of n observations, with unit roundoff u = 2^-53, each
    variance var = S - m^2 (S the mean square, m the mean) and the
    covariance are sums of n products less a product of means: by
    Cauchy-Schwarz they err by at most 2 (n + 3) u t, t = S + m^2 for a
    variance and sqrt(t_i t_j) for the covariance.  With kappa = t / var,
    the computed rho = cov / sqrt(var_i var_j) then errs, to first order
    in u and with |rho| <= 1, by at most (n + 3) eps (kappa_i + kappa_j)
    + 3/2 eps, eps = 2u: 6e-14 for n = 126 and centred columns.
    """
    x = np.asarray(returns, dtype=float)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError("need a 2-D returns array with >= 2 columns")
    present = ~np.isnan(x)
    # a column is kept when its observed values are not all equal; an
    # empty column has hi = -inf < lo = inf, and one holding +-inf is
    # dropped too, as its moments are undefined
    hi = np.where(present, x, -np.inf).max(axis=0)
    lo = np.where(present, x, np.inf).min(axis=0)
    keep = (hi > lo) & np.isfinite(hi) & np.isfinite(lo)
    for j in np.flatnonzero(~keep):
        warnings.warn("asset column %d is constant or empty in this "
                      "window; dropped" % j)
    kept = np.flatnonzero(keep)
    if kept.size < 2:
        raise ValueError("fewer than 2 non-constant assets remain")
    x = x[:, kept]
    present = present[:, kept]

    # pairwise-complete moments; columns are globally centered first so
    # the E[xy] - E[x]E[y] form does not cancel catastrophically
    x0 = np.where(present, x, 0.0)
    shift = x0.sum(axis=0) / present.sum(axis=0)
    x0 = np.where(present, x - shift, 0.0)
    m = present.astype(float)
    counts = m.T @ m
    if (counts < 2).any():
        i, j = np.unravel_index(int(np.argmin(counts)), counts.shape)
        raise ValueError(
            "columns %d and %d share only %d observations (< 2)"
            % (kept[i], kept[j], int(counts[i, j])))
    sums = x0.T @ m          # sums[i, j] = sum of x_i over overlap(i, j)
    sqs = (x0 * x0).T @ m
    cross = x0.T @ x0
    mean_ij = sums / counts
    cov = cross / counts - mean_ij * mean_ij.T
    var = sqs / counts - mean_ij**2
    if (var <= 0.0).any() or (var.T <= 0.0).any():
        i, j = np.unravel_index(int(np.argmin(var)), var.shape)
        raise ValueError(
            "columns %d and %d have zero variance on their overlap"
            % (kept[i], kept[j]))
    rho = cov / np.sqrt(var * var.T)
    iu = np.triu_indices(rho.shape[0], k=1)
    rho[(iu[1], iu[0])] = rho[iu]

    # the diagonal is 1 by definition; only off-diagonal drift is reported
    np.fill_diagonal(rho, 1.0)
    drift = np.abs(rho) - 1.0
    if (drift > 0.0).any():
        warnings.warn("clamped %d correlations outside [-1, 1] "
                      "(worst drift %.3g)" % (int((drift > 0).sum()),
                                              float(drift.max())))
        rho = np.clip(rho, -1.0, 1.0)
    dist = np.sqrt(np.maximum(2.0 * (1.0 - rho), 0.0))
    np.fill_diagonal(dist, 0.0)
    kappa = (sqs / counts + mean_ij**2) / var
    eps = np.finfo(float).eps
    same = 1.0 - rho <= eps * ((counts + 3.0) * (kappa + kappa.T) + 1.5)
    twin = np.triu(same, k=1).any(axis=0)
    if twin.any():
        for j in np.flatnonzero(twin):
            # the diagonal is the same too, but a twin i < j comes first
            i = int(np.argmax(same[:, j]))
            warnings.warn("asset column %d is at distance 0 from column %d "
                          "in this window; dropped" % (kept[j], kept[i]))
        if (~twin).sum() < 2:
            raise ValueError("fewer than 2 distinct assets remain")
        pick = np.ix_(~twin, ~twin)
        rho, dist, kept = rho[pick], dist[pick], kept[~twin]
    return rho, dist, kept


# -- minimum spanning tree -------------------------------------------------


def mst(dist, labels=None):
    """Minimum spanning tree of a symmetric distance matrix: ``msts`` of
    the one matrix."""
    return msts([dist], None if labels is None else [labels])[0]


def msts(dists, labels=None):
    """Minimum spanning trees of a sequence of symmetric distance matrices.

    Edge weights carry the distances.  Non-finite entries mean "no edge";
    if they disconnect a graph this is an error, and so is a finite
    off-diagonal distance that is not positive.  ``labels`` holds one
    label list (or None) per matrix.  Ties are broken by the strict total
    order of ``(weight, min(u, v), max(u, v))``, under which the tree is
    unique: the one Kruskal's algorithm builds when it sorts the edges in
    that order.

    One vectorised Prim's run builds every tree.  The matrices are padded
    to the largest; a padded node has no edge and counts as already inside
    its tree.  Each step adds to every tree the node outside it whose
    least edge to the tree comes first in the order above.
    """
    mats = [np.asarray(d, dtype=float) for d in dists]
    for d in mats:
        if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] < 2:
            raise ValueError("need a square distance matrix of size >= 2")
    if not mats:
        return []
    count = len(mats)
    sizes = np.array([d.shape[0] for d in mats])
    n = int(sizes.max())

    def fail(k, message):
        raise ValueError(message if count == 1 else
                         "distance matrix %d: %s" % (k, message))

    # w[k] holds matrix k's upper triangle both ways round, with inf
    # for "no edge": off the matrix, on the diagonal and where an entry is
    # not finite
    w = np.full((count, n, n), np.inf)
    for k, d in enumerate(mats):
        d = np.where(np.isfinite(d), d, np.inf)
        with np.errstate(invalid="ignore"):  # inf - inf where both are absent
            bad = np.abs(d - d.T) > 1e-12
        # the first entry in row order lies in the upper triangle, since a
        # bad pair is bad both ways round
        if bad.any():
            i, j = np.argwhere(bad)[0]
            fail(k, "distances between %d and %d are not symmetric" % (i, j))
        bad = np.triu(d <= 0.0, k=1)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            fail(k, "distance %r between %d and %d is not positive"
                 % (float(d[i, j]), i, j))
        up = np.triu(d, k=1)
        up += up.T
        np.fill_diagonal(up, np.inf)
        w[k, :d.shape[0], :d.shape[0]] = up
    nodes = np.arange(n)
    # key[u, v] orders the edges of equal weight, and names the edge as
    # min(u, v) n + max(u, v)
    key = np.minimum.outer(nodes, nodes) * n + np.maximum.outer(nodes, nodes)
    # node 0 starts each tree.  A node inside a tree has no least edge
    # left (inf), and no edge leads to it any more
    w[:, :, 0] = np.inf
    best, best_key = w[:, 0].copy(), np.repeat(key[:1], count, axis=0)
    rows = np.arange(count)
    added = np.empty((n - 1, count), dtype=np.int64)
    weights = np.empty((n - 1, count))
    for step in range(n - 1):
        low = best.min(axis=1)
        pick = np.where(best == low[:, None], best_key, n * n).argmin(axis=1)
        added[step], weights[step] = best_key[rows, pick], low
        best[rows, pick] = np.inf
        w[rows, :, pick] = np.inf
        new, new_key = w[rows, pick], key[pick]
        better = (new < best) | ((new == best) & (new_key < best_key))
        np.copyto(best, new, where=better)
        np.copyto(best_key, new_key, where=better)
    # a tree that had to take a missing edge (inf) before its last node
    # came in does not span
    cut = np.isinf(weights) & (np.arange(n - 1)[:, None] < sizes - 1)
    if cut.any():
        fail(int(np.argmax(cut.any(axis=0))), "distances leave the graph "
             "disconnected; no spanning tree exists")
    ends = np.divmod(added, n)
    trees = []
    for k, d in enumerate(mats):
        e = slice(d.shape[0] - 1)
        trees.append(Graph(d.shape[0], np.column_stack(
            [ends[0][e, k], ends[1][e, k], weights[e, k]]),
            labels=None if labels is None else labels[k]))
    return trees


# -- market windows --------------------------------------------------------


def window_trees(windows):
    """The minimum spanning tree of each window slice, from one ``msts``
    run over their Mantegna distances (``correlation_and_distance``), each
    tree labelled by its window's kept assets."""
    parts = [correlation_and_distance(w.returns) for w in windows]
    return msts([dist for _, dist, _ in parts],
                [[w.assets[j] for j in kept]
                 for w, (_, _, kept) in zip(windows, parts)])


def window_rank_report(tree, zeta_grid=None, measure="R",
                       weight_mode="distance"):
    """Centrality rankings of one window's MST over a zeta grid:
    ``window_rank_reports`` of the one tree."""
    return window_rank_reports([tree], zeta_grid, measure, weight_mode)[0]


def window_rank_reports(trees, zeta_grid=None, measure="R",
                        weight_mode="distance"):
    """Centrality rankings of each window's MST over a zeta grid.

    ``weight_mode='distance'`` feeds the Mantegna distances straight into
    the adjacency (large distance = heavy edge); ``'inverse'`` uses their
    reciprocals so tightly correlated assets couple strongly instead.

    R (the action) or C (the diagonal) of every tree, or both for T = R -
    C, come from one ``spectral.expm`` call each on the disjoint union of
    the trees: each tree is a component of its own, with its own spectral
    bound and shift, and its C takes the route the tree alone would take.
    Each window's grid rows are ranked on their own
    (``RankingSweep.from_values``).
    """
    if weight_mode not in ("distance", "inverse"):
        raise ValueError("weight_mode must be 'distance' or 'inverse'")
    _check_measure(measure)
    grid = _grid(zeta_grid)
    offsets = np.cumsum([0] + [t.n for t in trees])
    edges = np.vstack([t.edge_array() + [off, off, 0.0]
                       for t, off in zip(trees, offsets)])
    if weight_mode == "inverse":
        edges[:, 2] = 1.0 / edges[:, 2]
    union = Graph(offsets[-1], edges)
    values = expm(union, grid, None if measure == "C" else np.ones(union.n))
    if measure == "T":
        values -= expm(union, grid)
    return [RankingSweep.from_values(grid, values[:, lo:hi], tree.labels)
            for tree, lo, hi in zip(trees, offsets[:-1], offsets[1:])]


# -- delta rank ------------------------------------------------------------


_TIE_TOL = 1e-9


def delta_rank(values):
    """Rank shift between two risk regimes: rank(zeta_lo) - rank(zeta_hi).

    ``values`` is a ``(2, n)`` array of one measure, its rows at zeta_lo
    and at zeta_hi.  Rank 1 is the most central node, so a positive entry
    means the node climbs the ranking as external risk grows (increased
    risk exposure).  The shifts sum to zero over the nodes.  Values
    within ``_TIE_TOL`` = 1e-9 (relative) are treated as tied and ranked
    by node index, so symmetric nodes whose values differ only by
    floating-point noise report a zero shift.
    """
    lo, hi = rank(values, _TIE_TOL)
    return lo - hi


# -- linear discriminant ---------------------------------------------------


@dataclass
class LdaModel:
    """1-D two-class discriminant: score = intercept + slope * x > 0.

    The positive class is +1; confusion counts always sum to the training
    size.
    """

    intercept: float
    slope: float
    accuracy: float
    tp: int
    fn: int
    fp: int
    tn: int

    def to_json_dict(self):
        return {
            "intercept": self.intercept,
            "slope": self.slope,
            "accuracy": self.accuracy,
            "confusion": {"tp": self.tp, "fn": self.fn,
                          "fp": self.fp, "tn": self.tn},
        }


def lda_fit(x, labels):
    """Fisher discriminant for one predictor and labels in {-1, +1}.

    Equal-variance model: slope = (mu+ - mu-) / s2 with the pooled
    (ddof = n - 2) variance, intercept = -(mu+ + mu-) slope / 2 +
    log(n+ / n-).  Empirical class frequencies act as priors.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(labels)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("need equal-length 1-D predictor and labels")
    if not np.isin(y, (-1, 1)).all():
        raise ValueError("labels must be -1 or +1")
    pos = y == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be nonempty")
    mu_pos, mu_neg = x[pos].mean(), x[~pos].mean()
    ss = ((x[pos] - mu_pos) ** 2).sum() + ((x[~pos] - mu_neg) ** 2).sum()
    if ss == 0.0:
        raise ValueError("zero pooled variance; the discriminant is "
                         "undefined")
    s2 = ss / (x.size - 2)
    slope = (mu_pos - mu_neg) / s2
    intercept = -0.5 * (mu_pos + mu_neg) * slope + math.log(n_pos / n_neg)
    pred = np.where(intercept + slope * x > 0.0, 1, -1)
    tp = int(((pred == 1) & pos).sum())
    fn = int(((pred == -1) & pos).sum())
    fp = int(((pred == 1) & ~pos).sum())
    tn = int(((pred == -1) & ~pos).sum())
    return LdaModel(intercept=float(intercept), slope=float(slope),
                    accuracy=(tp + tn) / x.size, tp=tp, fn=fn, fp=fp, tn=tn)


# -- outcome trends --------------------------------------------------------


@dataclass
class SvcTrend:
    """Per-company outcome trend: correlation with 1/year and class label."""

    rho: float
    label: int  # +1 growing outcome, -1 shrinking


def load_svc(path):
    """Read ``company,year,value`` CSV rows into {company: {year: value}}.

    A first non-blank row equal to ``company,year,value`` (any case) is a
    header.  Rows are read as CSV, so a quoted company name may hold a
    comma; blank lines are skipped and cells are stripped of surrounding
    whitespace.  Duplicate (company, year) pairs are an error.
    """
    out = {}
    for lineno, cells in _text_rows(path, cells=True,
                                    header=["company", "year", "value"]):
        parts = [c.strip() for c in cells]
        if len(parts) != 3 or not parts[0]:
            raise ValueError("%s:%d: expected 'company,year,value', got %r"
                             % (path, lineno, ",".join(cells)))
        try:
            year, value = int(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError("%s:%d: unparseable year or value in %r"
                             % (path, lineno, ",".join(cells))) from None
        years = out.setdefault(parts[0], {})
        if year in years:
            raise ValueError("%s:%d: duplicate year %d for %s"
                             % (path, lineno, year, parts[0]))
        years[year] = value
    if not out:
        raise ValueError("%s: no data rows" % path)
    return out


def svc_trend(svc_by_year, threshold=0.05):
    """Classify outcome trends by correlation against the reciprocal year.

    For each company the Pearson correlation rho between its values and
    1/year is computed over its years (>= 3 required).  Growing values
    give rho < 0 and the label +1; shrinking values give rho > 0 and -1.
    Companies with |rho| < threshold are dropped.  A constant value
    series is an error, and so is a threshold that is negative or not
    finite.
    """
    if not 0.0 <= threshold < np.inf:
        raise ValueError("threshold must be finite and nonnegative")
    out = {}
    for company, series in svc_by_year.items():
        years = sorted(series)
        if len(years) < 3:
            raise ValueError("company %s has %d years of data; need >= 3"
                             % (company, len(years)))
        vals = np.array([series[y] for y in years], dtype=float)
        recip = 1.0 / np.array(years, dtype=float)
        if vals.std() == 0.0:
            raise ValueError("company %s has a constant value series; "
                             "its trend is undefined" % company)
        v = vals - vals.mean()
        r = recip - recip.mean()
        rho = float((v @ r) / np.sqrt((v @ v) * (r @ r)))
        if abs(rho) < threshold:
            continue
        out[company] = SvcTrend(rho=rho, label=1 if rho < 0.0 else -1)
    return out
