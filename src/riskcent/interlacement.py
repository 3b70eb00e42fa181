"""Ranking interlacement: where two nodes swap order along the zeta axis.

For a node pair (i, j) and a measure M in {R, C, T}, an interlacement is a
zeta* > 0 where the difference f(zeta) = M_i(zeta) - M_j(zeta) changes
sign: the pair's ranking depends on which side of zeta* the analysis
sits.  This module locates crossings numerically (``detect``) and
predicts them from leading walk counts (``heuristic_linear``,
``heuristic_poly``).  Over a list of pairs, ``detect_pairs`` and
``heuristic_pairs`` return arrays indexed by pair; the single-pair
functions are their calls on one pair.

Detection reads no spectrum.  With b the spectral bound of the adjacency
and s = zeta b, every measure of node i is a Poisson-weighted power series

    exp(-s) M_i(zeta) = sum_k w_k(s) t_ik,   w_k(s) = exp(-s) s^k / k!,

over a table t_ik taken once at the pairs' endpoints: the moments
(A/b)^k_ii for C, the powers ((A/b)^k 1)_i for R, their difference for T.
The scaled value has the sign pattern of M_i - M_j and stays finite for
any zeta.  The table runs to the degree the top of the grid needs
(``spectral._series_degree``), whatever that top and the graph's size, and
summed in the fixed order of ``spectral._series_sum``, as R and C are.
Only the pairs that swap between two consecutive sorted grid rows
(``_flips``) or lie within the tangency tolerance on one row are
scanned.  A sign change is bisected on its Poisson-shifted series: the
weights at s0 + h are those at s0 convolved with those at h, so with the
bracket anchored at its lower end z0, s0 = z0 b,

    sum_k w_k(s0 + h) t_k = exp(-h) sum_j g_j h^j / j!,
    g_j = sum_i w_i(s0) t_{i+j},

and a bisection step takes the sign of the sum over j for the pair's
table difference by Horner's rule at h = b (midpoint - z0): the g_j come
from one evaluation of the weights, and no step calls exp, log or
gammaln per term (``_detect_block``).

The heuristics read the walk tables of ``graph.walk_counts`` at the
endpoints of their pairs only, with closed walks for C and T only;
``heuristic_pairs`` counts them once for both estimates and finds the
roots of a block's polynomials with one eigenvalue call per degree.
"""

from __future__ import annotations

import math

import numpy as np

from .centrality import _check_measure, _grid
from .graph import walk_counts
from .spectral import (_REACH, _moment_table, _poisson_weights,
                       _series_degree, _series_sum, _spectral_bound)

BRACKET_TOL_DEFAULT = 1e-8
TANGENCY_TOL_DEFAULT = 1e-10
# grid values of a pair closer than this share of the larger one are noise
_NOISE = 1e-12
# a root of a series truncation is kept when its imaginary part is at most
# this share of 1 + |root| and its backward-error residual at most this
_IMAG_TOL = 1e-8
_RESIDUAL_TOL = 1e-10


# Entries (about 2 MB of float64) that one block of pairs may hold in a
# (pairs x grid) or (pairs x degree) temporary: bounds the memory of the
# batched detector and series heuristics whatever the number of pairs.
_BLOCK_ENTRIES = 1 << 18


def _pair_index(g, pairs):
    """Endpoint arrays ``(i, j)`` of a sequence of node pairs, validated:
    the first pair that is not two distinct nodes of ``g`` is named."""
    # checked before the cast to int64, which an index past it overflows
    pairs = np.asarray(pairs).reshape(-1, 2)
    i, j = pairs[:, 0], pairs[:, 1]
    bad = (i < 0) | (i >= g.n) | (j < 0) | (j >= g.n) | (i == j)
    if bad.any():
        x = bad.argmax()
        raise ValueError("pair (%d, %d) is not two distinct nodes in 0..%d"
                         % (i[x], j[x], g.n - 1))
    return i.astype(np.int64), j.astype(np.int64)


# -- power-series tables -----------------------------------------------------


def _measure_table(a, b, nodes, measure, degree):
    """Table ``t[k, c]``, k = 0..degree, of the measure's power series at
    node ``nodes[c]`` of the CSR adjacency ``a`` with spectral bound b:
    ``(A/b)^k_ii`` for C, ``((A/b)^k 1)_i`` for R and their difference for
    T.  Every entry of the C and R tables is a sum of products of numbers
    >= 0."""
    ah = a / b if b > 0.0 else a
    if measure != "C":
        total = np.empty((degree + 1, nodes.size))
        x = np.ones(a.shape[0])
        for k in range(degree + 1):
            total[k] = x[nodes]
            if k < degree:
                x = ah @ x
        if measure == "R":
            return total
    closed = _moment_table(ah, nodes, degree)
    return closed if measure == "C" else total - closed


def _order_keys(vals):
    """Integer keys that sort like ``vals`` up to noise: the low 11 of the
    52 mantissa bits of |value| are dropped, a bucket narrower than 2^-41
    < 1e-12 of the value, and negative values take negative keys.

    Two values whose gap passes the noise floor 1e-12 * max(|v_i|, |v_j|)
    lie in different buckets in their own order, so every sign change of
    a pair is still a flip of the keys; ties made of rounding noise (the
    nodes of a complete graph) mostly share a key and flip nothing.
    """
    keys = np.abs(vals).view(np.int64) >> 11
    return np.where(vals < 0, -keys, keys)


def _pair_keys(u, v, q):
    """Keys ``lo * q + hi`` of the column pairs ``(u, v)`` out of q."""
    return np.minimum(u, v) * q + np.maximum(u, v)


def _flips(order):
    """Column pairs that swap places between consecutive rows of ``order``.

    Row k of ``order`` is the argsort of grid row k.  A pair swaps between
    rows k and k + 1 exactly when it is an inversion of x, the places in
    row k + 1 of the nodes of row k.  An inversion a < b, x_a > x_b has
    (x_a - a) + (b - x_b) > b - a, so one of its nodes moved more than
    (b - a) / 2 places: with M the largest move of the step, comparing
    ``x[:-d] > x[d:]`` for d = 1 .. 2 M - 1 finds each inversion once, at
    d = b - a.  Steps are taken by descending M, so each d compares a
    prefix of them.  Returns the keys ``lo * q + hi`` of the pairs, q
    being the number of columns, one per swap.
    """
    q = order.shape[1]
    place = np.empty_like(order)
    np.put_along_axis(place, order, np.arange(q)[None], axis=1)
    x = np.take_along_axis(place[1:], order[:-1], axis=1)
    move = np.abs(x - np.arange(q)).max(axis=1, initial=0)
    by = np.argsort(-move, kind="stable")
    x, before, band = x[by], order[:-1][by], 2 * move[by] - 1
    keys = [np.zeros(0, dtype=np.int64)]
    for d in range(1, q):
        m = np.count_nonzero(band >= d)
        if not m:
            break
        k, p = np.nonzero(x[:m, :-d] > x[:m, d:])
        keys.append(_pair_keys(before[k, p], before[k, p + d], q))
    return np.concatenate(keys)


def _close(order, srt, reach):
    """Column pairs within ``reach[k]`` of each other on some grid row k,
    as ``lo * q + hi`` keys: on sorted rows ``srt`` (``order`` their
    argsort) the pairs d places apart, for d = 1, 2, ... while any is
    within reach.  Each distance keeps its distinct pairs only, so tied
    nodes (a star's leaves) cost their pairs once, not once per row."""
    q = order.shape[1]
    keys = [np.zeros(0, dtype=np.int64)]
    for d in range(1, q):
        k, p = np.nonzero(srt[:, d:] - srt[:, :-d] <= reach[:, None])
        if not k.size:
            break
        keys.append(np.unique(_pair_keys(order[k, p], order[k, p + d], q)))
    return np.concatenate(keys)


# -- detection -------------------------------------------------------------------


def detect(g, i, j, measure="C", zeta_grid=None,
           bracket_tol=BRACKET_TOL_DEFAULT, tangency_tol=TANGENCY_TOL_DEFAULT):
    """Crossings and tangencies of M_i - M_j on a zeta grid:
    ``detect_pairs`` of the one pair (i, j), which documents the rules."""
    return detect_pairs(g, [(i, j)], measure=measure, zeta_grid=zeta_grid,
                        bracket_tol=bracket_tol, tangency_tol=tangency_tol)


def detect_pairs(g, pairs, measure="C", zeta_grid=None,
                 bracket_tol=BRACKET_TOL_DEFAULT,
                 tangency_tol=TANGENCY_TOL_DEFAULT):
    """Crossings and tangencies of the node pairs (i, j) in ``pairs``.

    Returns two groups of arrays, each sorted by pair, then by zeta, with
    ``pair`` the index of a pair in ``pairs``:

    - ``crossings = (pair, lo, hi, before, after)``: the bisected bracket
      of each sign change, whose midpoint is its zeta*, and the int8 signs
      of M_i - M_j before and after it (+1 means node i above node j);
    - ``tangencies = (pair, zeta)``: the grid zetas of near-touches that
      do not flip sign.

    The scaled values exp(-zeta scale) M_i of every endpoint are evaluated
    on the grid as one product of weights and a table (``_basis``).  A
    pair's grid value within the noise floor 1e-12 * max(|M_i|, |M_j|)
    counts as zero: exactly tied pairs (automorphic nodes) produce no
    spurious events, at any scale.  Every sign change between consecutive
    nonzero grid values is bisected until its bracket is at most
    ``bracket_tol`` wide, each step one Horner sum of the pair's
    Poisson-shifted series at the midpoint (``_detect_block``), with
    coefficients built once from the weights at the bracket's lower end.
    A grid-local minimum of |M_i - M_j|, read as zeta scale +
    log|scaled difference|, below ``tangency_tol`` without a sign flip is
    reported as a tangency candidate rather than a crossing.

    Only candidate pairs are scanned, taken from the distinct grid columns
    of the endpoints.  Two endpoints with one column (a star's leaves) tie
    at every grid point: every sign of their pair is 0, so it neither
    crosses nor touches, a tangency needing nonzero neighbours.  A pair
    can change sign only where its order flips between two consecutive
    grid rows sorted by ``_order_keys``, which leave out the noise below
    the floor; ``_flips`` compares each step's places d apart, for d below
    twice the step's largest move.  A pair can touch within
    ``tangency_tol`` at grid point k only where it lies that close on
    sorted row k (``_close``).  The noise floor adds no candidates: it
    only turns signs to zero, and every sign change across zeros is still
    a flip between some two sorted rows.  Candidates run in blocks: one
    block's grid values are differences of table values, and all of its
    brackets are bisected together.
    """
    ii, jj = _pair_index(g, pairs)
    grid = _grid(zeta_grid)
    if grid.size < 2:
        raise ValueError("zeta grid must have >= 2 points")
    _check_measure(measure)
    nodes, cols = np.unique(np.concatenate([ii, jj]), return_inverse=True)
    ci, cj = cols[:ii.size], cols[ii.size:]
    weights, table, scale = _basis(g, nodes, measure, grid)
    vals = _series_sum(weights(grid), table)  # (grid, endpoints)
    rows = np.ascontiguousarray(vals.T)

    # candidates are sought among the columns with distinct bytes; two
    # endpoints sharing one give their pair the key lo == hi, which no flip
    # or closeness yields
    _, first, col = np.unique(
        rows.view(np.dtype((np.void, rows.itemsize * grid.size))).ravel(),
        return_index=True, return_inverse=True)
    uniq = vals[:, first]
    order = np.argsort(uniq, axis=1, kind="stable")
    srt = np.take_along_axis(uniq, order, axis=1)
    s = grid * scale
    # twice the tolerance covers the rounding of the log-space comparison
    reach = 2.0 * tangency_tol * np.exp(-s)
    flips = _flips(np.argsort(_order_keys(uniq), axis=1, kind="stable"))
    wanted = np.isin(_pair_keys(col[ci], col[cj], uniq.shape[1]),
                     np.concatenate([flips, _close(order, srt, reach)]))
    cand = np.flatnonzero(wanted)

    block = max(1, _BLOCK_ENTRIES // max(grid.size, table.shape[0]))
    # np.split gives one block at least: no candidates still give arrays
    found = [_detect_block(p, ci, cj, rows, table, weights, grid, scale,
                           bracket_tol, tangency_tol)
             for p in np.split(cand, np.arange(block, cand.size, block))]
    crossings, tangencies = zip(*found)
    return (tuple(map(np.concatenate, zip(*crossings))),
            tuple(map(np.concatenate, zip(*tangencies))))


def _basis(g, nodes, measure, grid):
    """``(weights, table, scale)`` with ``_series_sum(weights(z), table)``
    the scaled values exp(-z scale) M(z) of the measure at ``nodes`` for
    the zetas z: the Poisson weights of s = z b and the series table
    (module docstring) to the degree the top of the grid needs, scale
    being the spectral bound b.
    """
    a = g.sparse_adjacency()
    (b,) = _spectral_bound(a, [0])
    degree = int(_series_degree(grid.max() * b))
    return (lambda z: _poisson_weights(z * b, degree, z * b),
            _measure_table(a, b, nodes, measure, degree), b)


def _detect_block(p, ci, cj, rows, table, weights, grid, scale,
                  bracket_tol, tangency_tol):
    """``detect_pairs`` on the pairs ``p`` of one block, whose endpoints
    are the rows ``ci[p]``, ``cj[p]`` of the grid values ``rows`` and the
    same columns of ``table`` (``_basis``, with ``scale`` its b).  Returns
    the block's two groups of arrays.

    A bracket is bisected on its Poisson-shifted series.  Anchored at its
    lower end z0, s0 = z0 b, the weights at s0 + h are those at s0
    convolved with those at h, so with c the pair's table difference

        exp(h) sum_k w_k(s0 + h) c_k = sum_j g_j h^j / j!,
        g_j = sum_i w_i(s0) c_{i+j},

    whose sign at a midpoint, h = b (mid - z0), is that of the scaled
    difference.  The g_j are built once from the weights at the anchors,
    for j to the degree ``_series_degree`` gives the widest bracket, and a
    bisection step sums them by Horner's rule, ``p = g_j + h / (j + 1)
    p``: one multiply-add per term, no factorial to underflow and nothing
    past float range while h <= ``_REACH``.  A bracket wider than
    ``_REACH / b`` is first halved on the weights at its midpoints until
    it is not.  The weights are thus evaluated a number of times that
    does not depend on ``bracket_tol``.
    """
    ci, cj = ci[p], cj[p]
    vi, vj = rows[ci], rows[cj]  # (pairs, grid)
    diff = vi - vj
    # 0 within the noise floor, else the sign of the difference; the
    # floor 1e-12 max(|M_i|, |M_j|) is built in the copies vi, vj
    floor = np.maximum(np.abs(vi, out=vi), np.abs(vj, out=vj), out=vi)
    floor *= _NOISE
    signs = (diff > floor).view(np.int8)
    signs -= (diff < np.negative(floor, out=floor)).view(np.int8)

    # consecutive nonzero grid values of one pair with opposite signs: the
    # nonzero values in row-major order, each against the one before it,
    # kept where both lie in one row
    flat = np.flatnonzero(signs)
    nz = signs.ravel()[flat]
    k = np.flatnonzero(nz[1:] != nz[:-1])
    row, col = np.divmod(flat[np.stack([k, k + 1])], grid.size)
    same = row[0] == row[1]
    owner, (lo_at, hi_at) = row[1, same], col[:, same]
    before, after = signs[owner, lo_at], signs[owner, hi_at]
    lo, hi = grid[lo_at], grid[hi_at]
    active = np.flatnonzero(hi - lo > bracket_tol)
    # (table rows, brackets) differences of the open brackets
    coef = table[:, ci[owner[active]]] - table[:, cj[owner[active]]]

    # a midpoint where the difference keeps its sign at lo is the new lo
    # of its bracket, any other the new hi
    while True:
        width = hi[active] - lo[active]
        far = np.flatnonzero((width > bracket_tol) & (scale * width > _REACH))
        if not far.size:
            break
        at = active[far]
        mid = 0.5 * (lo[at] + hi[at])
        up = (np.einsum("bk,kb->b", weights(mid), coef[:, far]) * before[at]
              > 0.0)
        lo[at[up]] = mid[up]
        hi[at[~up]] = mid[~up]
    wide = hi[active] - lo[active] > bracket_tol
    active, coef = active[wide], coef[:, wide]

    if active.size:
        anchor = lo[active]
        w = weights(anchor)
        top = min(int(_series_degree(scale * (hi[active] - anchor).max())),
                  coef.shape[0] - 1)
        g = np.stack([np.einsum("bi,ib->b", w[:, :w.shape[1] - j], coef[j:])
                      for j in range(top + 1)])
        # the open brackets' ends and lower signs as arrays of their own,
        # written back to lo and hi as brackets close.  Each step is
        # computed in place: a product or a sum with its operands swapped
        # is the same float, so every sign is kept bit for bit
        blo, bhi, bsign = anchor.copy(), hi[active], before[active]
        terms = np.arange(1, top + 1)[:, None]
        while active.size:
            mid = blo + bhi
            mid *= 0.5
            h = mid - anchor
            h *= scale
            step = h / terms  # row j - 1: h / j
            fm = g[top].copy()
            for j in range(top, 0, -1):
                fm *= step[j - 1]
                fm += g[j - 1]
            fm *= bsign
            up = fm > 0.0
            np.copyto(blo, mid, where=up)
            np.copyto(bhi, mid, where=~up)
            wide = bhi - blo > bracket_tol
            if not wide.all():
                lo[active], hi[active] = blo, bhi
                active, anchor, g, blo, bhi, bsign = (
                    x[..., wide] for x in (active, anchor, g, blo, bhi,
                                           bsign))

    s = grid * scale
    absvals = np.abs(diff, out=diff)
    # no flip across a grid-local minimum of log |M_i - M_j| = s + log
    # |scaled difference| below log(tangency_tol), sought only at the
    # inner grid points within twice the tolerance
    tp, tm = np.nonzero(absvals[:, 1:-1]
                        < 2.0 * tangency_tol * np.exp(-s[1:-1]))
    at = tm[:, None] + np.arange(3)  # the point and its two neighbours
    with np.errstate(divide="ignore"):
        logf = s[at] + np.log(absvals[tp[:, None], at])
    side = signs[tp[:, None], at[:, ::2]]
    near = ((side[:, 0] != 0) & (side[:, 0] == side[:, 1])
            & (logf[:, 1] <= logf[:, 0]) & (logf[:, 1] <= logf[:, 2])
            & (logf[:, 1] < math.log(tangency_tol)))
    tp, tm = tp[near], tm[near]

    return ((p[owner], lo, hi, before, after),
            (p[tp], grid[tm + 1]))


# -- series heuristics -------------------------------------------------------------


def _pair_series(g, pairs, measure, kmax):
    """``(start, deltas)`` of the measure's series at the validated
    ``pairs``: ``deltas[m, p]`` is the float walk count of order start + m
    feeding the series of node i less that of node j, for pair p = (i, j).

    C draws on closed walks from order 2; R on walk totals from order 1; T
    on open walks (total minus closed) from order 1.  Walks are counted at
    the pairs' endpoints only, through order ``kmax``, and closed walks
    only for C and T.
    """
    ii, jj = _pair_index(g, pairs)
    _check_measure(measure)
    nodes, cols = np.unique(np.concatenate([ii, jj]), return_inverse=True)
    # R reads no closed walks
    total, closed = walk_counts(g, kmax,
                                nodes[:0] if measure == "R" else nodes)
    start = 2 if measure == "C" else 1
    series = (closed if measure == "C" else total[:, nodes] if measure == "R"
              else total[:, nodes] - closed)[start:]
    return start, series[:, cols[:ii.size]] - series[:, cols[ii.size:]]


def _poly_rows(start, deltas):
    """``(k0, coeffs)`` of the truncations through the orders of
    ``deltas``: pair p's ascending coefficients ``delta_m / m!`` first
    change sign at order ``k0[p]``, one past the last if they never do."""
    pos = deltas >= 0  # zero counts as positive
    # a closing row of changes puts k0 = k + 1 where none comes sooner
    change = np.vstack([pos[1:] != pos[:-1],
                        np.ones((1, pos.shape[1]), bool)])
    k0 = change.argmax(axis=0) + 1 + start
    factorials = np.array([float(math.factorial(m))
                           for m in range(start, start + len(deltas))])
    return k0, (deltas / factorials[:, None]).T


def heuristic_linear(g, i, j, measure="C"):
    """Leading-order crossing estimate from the first two series terms.

    For C the truncation 'k_i - k_j + zeta * (2t_i - 2t_j)/3 = 0' (closed
    walks of orders 2 and 3) gives zeta* = 3 (w2_i - w2_j) / (w3_j - w3_i);
    R and T use their first two orders the same way.  Returns None when the
    two leading differences do not have strictly opposite signs, i.e. the
    minimal-order truncation has no positive root.
    """
    (est,), _ = heuristic_pairs(g, [(i, j)], measure,
                                k=3 if measure == "C" else 2)
    return None if math.isnan(est) else float(est)


def heuristic_poly(g, i, j, measure="C", k=6):
    """Smallest positive root of the order-k series truncation of the
    measure difference, or None where it has none: the root of
    ``heuristic_pairs`` for the one pair.

    The reduced polynomial has ascending coefficients ``delta_m / m!`` for
    walk orders m up to k, divided by the common leading power of zeta.
    It is solved only if the coefficient sequence changes sign (zero
    counts as positive) at some order k0 <= k.  The root is the smallest
    positive real eigenvalue of the companion matrix with a small
    normalized residual (``_smallest_positive_roots``).
    """
    _, (root,) = heuristic_pairs(g, [(i, j)], measure, k)
    return None if math.isnan(root) else float(root)


def heuristic_pairs(g, pairs, measure="C", k=6):
    """``(linear, root)`` float arrays over the node pairs in ``pairs``:
    each pair's ``heuristic_linear`` and the smallest root of its
    ``heuristic_poly`` at order k, NaN where the heuristic gives none.

    Walks are counted once for both, through order k or the linear
    estimate's order if that is higher.  Roots are sought only for the
    pairs with k0 <= k, a block of pairs at a time
    (``_smallest_positive_roots``).
    """
    start, deltas = _pair_series(g, pairs, measure,
                                 max(k, 3 if measure == "C" else 2))
    a, b = deltas[0], deltas[1]
    # reduced linear truncation: a/start! + b zeta/(start+1)! = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        est = -(start + 1) * a / b
    absent = (a == 0.0) | (b == 0.0) | (np.sign(a) == np.sign(b))
    linear = np.where(absent, np.nan, est)
    k0, coeffs = _poly_rows(start, deltas[:max(0, k - start + 1)])
    root = np.full(linear.size, np.nan)
    solve = np.flatnonzero(k0 <= k)
    block = max(1, _BLOCK_ENTRIES // max(1, coeffs.shape[1]))
    for rows in np.split(solve, np.arange(block, solve.size, block)):
        root[rows] = _smallest_positive_roots(coeffs[rows])
    return linear, root


def _smallest_positive_roots(coeffs):
    """Smallest positive real root of each row of ascending coefficients,
    NaN where the row has none.

    The roots are the eigenvalues of the companion matrix that ``np.roots``
    builds (zero coefficients stripped from both ends, first row
    ``-desc[1:] / desc[0]``, ones below the diagonal), solved in one
    ``eigvals`` call per degree.  A root counts when its imaginary part is
    at most ``_IMAG_TOL (1 + |root|)``, its real part positive and its
    backward-error residual |p(x)| / sum_m |c_m| x^m, summed by Horner's
    rule as ``np.polyval`` does, at most ``_RESIDUAL_TOL``.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    width = coeffs.shape[1]
    smallest = np.full(coeffs.shape[0], np.nan)
    if not coeffs.size:
        return smallest
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
        skip = ((np.abs(z.imag) > _IMAG_TOL * (1.0 + np.abs(z)))
                | (z.real <= 0.0))
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
    keep = res <= _RESIDUAL_TOL
    # fmin skips NaN: a row's first kept root replaces its NaN
    np.fmin.at(smallest, owner[keep], x[keep])
    return smallest
