"""Ranking interlacement: where two nodes swap order along the zeta axis.

For a node pair (i, j) and a measure M in {R, C, T}, the difference

    f(zeta) = M_i(zeta) - M_j(zeta) = sum_k d_k exp(zeta * lam_k)

is an exponential sum over the adjacency spectrum.  An interlacement is a
zeta* > 0 where f changes sign: the pair's ranking depends on which side of
zeta* the analysis sits.  This module locates crossings numerically
(``detect``) and predicts them from leading walk counts
(``heuristic_linear``, ``heuristic_poly``).  Detection and the heuristics
also come in batched forms over a list of pairs (``detect_pairs``,
``heuristic_linear_pairs``, ``heuristic_poly_pairs``); the single-pair
functions call into them.
The batched heuristics count closed walks only at the endpoints of their
pairs, and ``heuristic_poly_pairs`` finds the roots of a block's
polynomials with one companion-matrix eigenvalue call per degree.

All computations run on the scaled difference exp(-zeta*lam_1) * f, whose
sign pattern is identical and which stays finite for any zeta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .centrality import MEASURES, _grid
from .graph import walk_counts
from .spectral import decompose

BRACKET_TOL_DEFAULT = 1e-8
TANGENCY_TOL_DEFAULT = 1e-10


class InterlacementError(ValueError):
    """A heuristic's preconditions fail for the requested pair."""


@dataclass
class InterlacementEvent:
    """One sign change of the measure difference.

    ``zeta_star`` is the bracket midpoint; the difference changes sign
    exactly once inside ``bracket``, from ``sign_before`` to ``sign_after``
    (+1 means node i above node j).
    """

    i: int
    j: int
    measure: str
    zeta_star: float
    bracket: tuple
    sign_before: int
    sign_after: int
    method: str = "detect"


@dataclass
class DetectionResult:
    """Crossings on a grid, plus near-touches that never flip sign."""

    events: list
    tangencies: list


@dataclass
class SeriesPolynomial:
    """Truncated-series crossing polynomial for one pair and measure.

    ``coefficients`` are ascending powers of the reduced polynomial (the
    common leading power of zeta is divided out).  ``roots`` holds the
    positive real roots in ascending order with their normalized residuals;
    ``descartes_bound`` caps how many there can be.
    """

    i: int
    j: int
    measure: str
    k: int
    k0: int
    coefficients: np.ndarray
    roots: np.ndarray
    residuals: np.ndarray
    descartes_bound: int


# -- spectral difference -------------------------------------------------------

# Entries (about 2 MB of float64) that one block of pairs may hold in a
# (pairs x n) or (pairs x grid) temporary: bounds the memory of the batched
# detector and series heuristics whatever the number of pairs.
_BLOCK_ENTRIES = 1 << 18


def _pair_coefficients(dec, i, j, measure):
    """Coefficients d_k with M_i - M_j = sum_k d_k exp(zeta lam_k).

    With index arrays ``i`` and ``j``, row p holds the coefficients of the
    pair (i[p], j[p]).
    """
    u = dec.eigenvectors
    if measure == "C":
        return u[i] ** 2 - u[j] ** 2
    if measure == "R":
        return u.sum(axis=0) * (u[i] - u[j])
    if measure == "T":
        return u.sum(axis=0) * (u[i] - u[j]) - (u[i] ** 2 - u[j] ** 2)
    raise ValueError("measure must be one of %r, got %r" % (MEASURES, measure))


def _pair_index(g, pairs):
    """Endpoint arrays ``(i, j)`` of a sequence of node pairs, validated."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    i, j = pairs[:, 0], pairs[:, 1]
    if ((i < 0) | (i >= g.n) | (j < 0) | (j >= g.n)).any():
        raise ValueError("node indices out of range 0..%d" % (g.n - 1))
    if (i == j).any():
        raise ValueError("need two distinct nodes")
    return i, j


# -- detection -------------------------------------------------------------------


def detect(g, i, j, measure="C", zeta_grid=None,
           bracket_tol=BRACKET_TOL_DEFAULT, tangency_tol=TANGENCY_TOL_DEFAULT):
    """Scan a zeta grid for sign changes of M_i - M_j and bisect each one.

    The single-pair form of ``detect_pairs``, which documents the rules.
    """
    return detect_pairs(g, [(i, j)], measure=measure, zeta_grid=zeta_grid,
                        bracket_tol=bracket_tol, tangency_tol=tangency_tol)[0]


def detect_pairs(g, pairs, measure="C", zeta_grid=None,
                 bracket_tol=BRACKET_TOL_DEFAULT,
                 tangency_tol=TANGENCY_TOL_DEFAULT):
    """``DetectionResult`` of every node pair (i, j) in ``pairs``, in order.

    Each pair's scaled difference exp(-zeta lam_1) (M_i - M_j) is
    evaluated on the grid.  Grid values within the numerical noise floor
    1e-12 * max(1, sum_k |d_k|) count as zero: exactly tied pairs
    (automorphic nodes) produce no spurious events.  Every sign change
    between consecutive nonzero grid values is bisected until its bracket
    is at most ``bracket_tol`` wide.  A grid-local minimum of
    |M_i - M_j| below ``tangency_tol`` without a sign flip is reported as
    a tangency candidate rather than a crossing.

    Pairs run in blocks: one matrix product evaluates a block on the grid,
    and all of its brackets are bisected together.
    """
    ii, jj = _pair_index(g, pairs)
    grid = _grid(zeta_grid)
    if grid.size < 2:
        raise ValueError("zeta grid must have >= 2 points")
    d = decompose(g)
    lam = d.eigenvalues
    shift = lam - lam[0]
    scale = np.exp(np.outer(grid, shift))  # (grid, n)
    block = max(1, _BLOCK_ENTRIES // max(g.n, grid.size))
    results = []
    for s in range(0, ii.size, block):
        bi, bj = ii[s:s + block], jj[s:s + block]
        coef = _pair_coefficients(d, bi, bj, measure)
        results += _detect_block(bi, bj, measure, coef, grid, scale, shift,
                                 float(lam[0]), bracket_tol, tangency_tol)
    return results


def _detect_block(ii, jj, measure, coef, grid, scale, shift, lam1,
                  bracket_tol, tangency_tol):
    """``detect_pairs`` on one block, ``coef`` holding its (pairs x n) rows."""
    vals = coef @ scale.T  # (pairs, grid)
    floor = 1e-12 * np.maximum(1.0, np.abs(coef).sum(axis=1))
    absvals = np.abs(vals)
    signs = np.where(absvals <= floor[:, None], 0,
                     np.sign(vals)).astype(np.int8)

    # consecutive nonzero grid values of one pair with opposite signs, read
    # off the pairs whose grid values take both signs
    mixed = np.flatnonzero((signs > 0).any(axis=1) & (signs < 0).any(axis=1))
    p, m = np.nonzero(signs[mixed])  # row-major: grid indices ascend
    p = mixed[p]
    flip = np.flatnonzero((p[1:] == p[:-1])
                          & (signs[p[1:], m[1:]] != signs[p[:-1], m[:-1]]))
    owner, a, b = p[flip], m[flip], m[flip + 1]
    lo, hi, flo = grid[a], grid[b], vals[owner, a]
    active = np.flatnonzero(hi - lo > bracket_tol)
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        fm = np.einsum("bk,bk->b", np.exp(np.outer(mid, shift)),
                       coef[owner[active]])
        up = (fm != 0.0) & (np.sign(fm) == np.sign(flo[active]))
        lo[active[up]] = mid[up]
        flo[active[up]] = fm[up]
        hi[active[~up]] = mid[~up]
        active = active[hi[active] - lo[active] > bracket_tol]

    # no flip across a grid-local minimum of |f| = exp(zeta lam_1) |scaled|,
    # compared with the tolerance in log space
    inner = absvals[:, 1:-1]
    near = ((signs[:, :-2] != 0) & (signs[:, :-2] == signs[:, 2:])
            & (inner <= absvals[:, :-2]) & (inner <= absvals[:, 2:]))
    tp, tm = np.nonzero(near)
    tm += 1
    with np.errstate(divide="ignore"):
        logf = grid[tm] * lam1 + np.log(absvals[tp, tm])
    keep = logf < math.log(tangency_tol)

    events = [[] for _ in range(ii.size)]
    for x, left, right, before, after in zip(
            owner.tolist(), lo.tolist(), hi.tolist(),
            signs[owner, a].tolist(), signs[owner, b].tolist()):
        events[x].append(InterlacementEvent(
            i=int(ii[x]), j=int(jj[x]), measure=measure,
            zeta_star=0.5 * (left + right), bracket=(left, right),
            sign_before=before, sign_after=after))
    tangencies = [[] for _ in range(ii.size)]
    for x, zeta in zip(tp[keep].tolist(), grid[tm[keep]].tolist()):
        tangencies[x].append(zeta)
    return [DetectionResult(e, t) for e, t in zip(events, tangencies)]


# -- series heuristics -------------------------------------------------------------


def _series_coefficients(g, measure, kmax, nodes, walks=None):
    """Per-order walk counts feeding the measure's series at ``nodes``.

    C draws on closed walks from order 2; R on walk totals from order 1; T
    on open walks (total minus closed) from order 1.  Returns (start,
    series) with series[m, c] the float count of walk order start + m at
    node ``nodes[c]``.  For C and T, ``walks`` must hold the closed walks
    at every one of ``nodes``; without ``walks`` they are counted there.
    """
    if measure not in MEASURES:
        raise ValueError("measure must be one of %r, got %r"
                         % (MEASURES, measure))
    if walks is None:
        walks = walk_counts(g, kmax, nodes=nodes)
    if len(walks) <= kmax:
        raise ValueError("walks cover order %d, need %d"
                         % (len(walks) - 1, kmax))
    start = 2 if measure == "C" else 1
    orders = range(start, kmax + 1)
    total = np.array([walks[m].per_node_total[nodes] for m in orders],
                     dtype=float)
    if measure == "R":
        return start, total
    cols = _closed_columns(walks[0].nodes, nodes)
    closed = np.array([walks[m].per_node_closed[cols] for m in orders],
                      dtype=float)
    return start, closed if measure == "C" else total - closed


def _closed_columns(have, want):
    """Positions in ``per_node_closed`` (over nodes ``have``, None for all)
    of the nodes ``want``."""
    if have is None:
        return want
    missing = np.setdiff1d(want, have)
    if missing.size:
        raise ValueError("walks hold no closed walks at node %d"
                         % missing[0])
    order = np.argsort(have, kind="stable")
    return order[np.searchsorted(have[order], want)]


def _pair_series(g, pairs, measure, kmax, walks):
    """Validated endpoints ``(i, j)`` of ``pairs`` and the series at them:
    ``(i, j, start, series, ci, cj)`` with ``series[:, ci[p]]`` the series
    of node ``i[p]`` and ``series[:, cj[p]]`` that of ``j[p]``."""
    ii, jj = _pair_index(g, pairs)
    nodes, cols = np.unique(np.concatenate([ii, jj]), return_inverse=True)
    start, series = _series_coefficients(g, measure, kmax, nodes, walks)
    return ii, jj, start, series, cols[:ii.size], cols[ii.size:]


def heuristic_linear(g, i, j, measure="C", walks=None):
    """Leading-order crossing estimate from the first two series terms.

    For C the truncation 'k_i - k_j + zeta * (2t_i - 2t_j)/3 = 0' (closed
    walks of orders 2 and 3) gives zeta* = 3 (w2_i - w2_j) / (w3_j - w3_i);
    R and T use their first two orders the same way.  Returns None when the
    two leading differences do not have strictly opposite signs, i.e. the
    minimal-order truncation has no positive root.
    """
    return heuristic_linear_pairs(g, [(i, j)], measure=measure,
                                  walks=walks)[0]


def heuristic_linear_pairs(g, pairs, measure="C", walks=None):
    """``heuristic_linear`` of every pair in ``pairs``: floats and Nones."""
    _, _, start, series, ci, cj = _pair_series(
        g, pairs, measure, 3 if measure == "C" else 2, walks)
    a = series[0, ci] - series[0, cj]
    b = series[1, ci] - series[1, cj]
    # reduced linear truncation: a/start! + b zeta/(start+1)! = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        est = -(start + 1) * a / b
    absent = (a == 0.0) | (b == 0.0) | (np.sign(a) == np.sign(b))
    return [None if no else x for no, x in zip(absent.tolist(), est.tolist())]


def heuristic_poly(g, i, j, measure="C", k=6, walks=None):
    """Roots of the order-k series truncation of the measure difference.

    The reduced polynomial has ascending coefficients ``delta_m / m!`` for
    walk orders m up to k, divided by the common leading power of zeta.
    The pair is rejected (``InterlacementError``) unless ``k >= k0``, where
    k0 is the order at which the coefficient sequence first changes sign
    (zero counts as positive).  Roots come from the eigenvalues of the
    companion matrix; only positive real roots with small normalized
    residual are kept.
    """
    result = heuristic_poly_pairs(g, [(i, j)], measure=measure, k=k,
                                  walks=walks)[0]
    if isinstance(result, InterlacementError):
        raise result
    return result


def heuristic_poly_pairs(g, pairs, measure="C", k=6, walks=None):
    """``heuristic_poly`` of every pair in ``pairs``.

    One entry per pair: its ``SeriesPolynomial``, or the
    ``InterlacementError`` that ``heuristic_poly`` raises for it.  Roots
    are sought only for the pairs that pass ``k >= k0``, a block of pairs
    at a time (``_positive_real_roots_rows``).
    """
    horizon = max(k, 60)
    ii, jj, start, series, ci, cj = _pair_series(g, pairs, measure, horizon,
                                                 walks)
    orders = np.arange(start, k + 1)
    factorials = np.array([float(math.factorial(m)) for m in orders])
    block = max(1, _BLOCK_ENTRIES // series.shape[0])
    out = []
    for s in range(0, ii.size, block):
        bi, bj = ii[s:s + block].tolist(), jj[s:s + block].tolist()
        deltas = series[:, ci[s:s + block]] - series[:, cj[s:s + block]]
        pos = deltas >= 0  # zero counts as positive
        change = pos[1:] != pos[:-1]
        never = ~change.any(axis=0)
        k0 = change.argmax(axis=0) + 1 + start
        coeffs = (deltas[:orders.size] / factorials[:, None]).T
        solve = np.flatnonzero(~never & (k >= k0))
        solved = dict(zip(solve.tolist(), zip(
            _positive_real_roots_rows(coeffs[solve]),
            _sign_changes(coeffs[solve]).tolist())))
        never, k0 = never.tolist(), k0.tolist()
        for p, (i, j) in enumerate(zip(bi, bj)):
            if never[p]:
                out.append(InterlacementError(
                    "pair (%d, %d): the %s series coefficients never change "
                    "sign through order %d; no crossing is indicated at "
                    "series level" % (i, j, measure, horizon)))
            elif p not in solved:
                out.append(InterlacementError(
                    "pair (%d, %d): truncation order k=%d is below the first "
                    "sign change k0=%d" % (i, j, k, k0[p])))
            else:
                (roots, residuals), bound = solved[p]
                out.append(SeriesPolynomial(
                    i=i, j=j, measure=measure, k=k, k0=k0[p],
                    coefficients=coeffs[p].copy(), roots=roots,
                    residuals=residuals, descartes_bound=bound))
    return out


def _sign_changes(rows):
    """Sign changes between consecutive nonzero entries of each row: the
    Descartes bound on a polynomial's positive roots."""
    p, m = np.nonzero(rows)  # row-major: entries ascend
    signs = np.sign(rows[p, m])
    flips = (p[1:] == p[:-1]) & (signs[1:] != signs[:-1])
    return np.bincount(p[1:][flips], minlength=rows.shape[0])


def _positive_real_roots_rows(coeffs, imag_tol=1e-8, residual_tol=1e-10):
    """Positive real roots of each row of ascending coefficients.

    Returns one ``(roots, residuals)`` per row, roots ascending.  The
    roots are the eigenvalues of the companion matrix that ``np.roots``
    builds (zero coefficients stripped from both ends, first row
    ``-desc[1:] / desc[0]``, ones below the diagonal), solved in one
    ``eigvals`` call per degree.  A root is kept when its imaginary part
    is negligible, its real part positive and its backward-error residual
    |p(x)| / sum_m |c_m| x^m, summed by Horner's rule as ``np.polyval``
    does, falls below ``residual_tol``.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    rows, width = coeffs.shape
    if not coeffs.size:
        return [(np.zeros(0), np.zeros(0)) for _ in range(rows)]
    nonzero = coeffs != 0.0
    lo = nonzero.argmax(axis=1)
    hi = width - 1 - nonzero[:, ::-1].argmax(axis=1)
    degree = np.where(nonzero.any(axis=1), hi - lo, 0)
    owner, real = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for d in np.unique(degree[degree > 0]).tolist():
        r = np.flatnonzero(degree == d)
        desc = coeffs[r[:, None], hi[r, None] - np.arange(d + 1)]
        companion = np.zeros((r.size, d, d))
        companion[:, 0, :] = -desc[:, 1:] / desc[:, :1]
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        z = np.linalg.eigvals(companion)
        skip = (np.abs(z.imag) > imag_tol * (1.0 + np.abs(z))) | (z.real <= 0.0)
        p, c = np.nonzero(~skip)
        owner.append(r[p])
        real.append(z.real[p, c])
    owner, x = np.concatenate(owner), np.concatenate(real)
    desc = coeffs[owner, ::-1]
    value, scale = np.zeros_like(x), np.zeros_like(x)
    # a residual that overflows or divides zero by zero reads inf or nan,
    # and is dropped
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for m in range(width):
            value = value * x + desc[:, m]
            scale = scale * x + np.abs(desc[:, m])
        res = np.abs(value) / scale
    keep = res <= residual_tol
    owner, x, res = owner[keep], x[keep], res[keep]
    order = np.lexsort((res, x, owner))
    x, res = x[order], res[order]
    ends = np.cumsum(np.bincount(owner, minlength=rows)).tolist()
    return [(x[a:b], res[a:b]) for a, b in zip([0] + ends[:-1], ends)]
