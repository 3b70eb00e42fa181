import numpy as np
import pytest

from riskcent.centrality import sweep
import math

from riskcent import interlacement
from riskcent.graph import Graph, generate_complete, generate_er, generate_star, walk_counts
from riskcent.interlacement import (
    TANGENCY_TOL_DEFAULT,
    _close,
    _flips,
    _measure_table,
    _order_keys,
    _pair_series,
    _poly_rows,
    _positive_real_roots_rows,
    detect,
    detect_pairs,
    heuristic_linear,
    heuristic_pairs,
    heuristic_poly,
)
from riskcent.spectral import (_eigensystem, _poisson_weights,
                               _series_degree, _spectral_bound)


def clique_plus_hub():
    """K_5 (nodes 0-4) bridged to a 6-leaf star hub (node 5, leaves 6-11).

    The hub out-degrees every clique node (7 vs 4) but the Perron mass sits
    on the clique, so pair (5, 1) must swap order at some finite zeta.
    """
    edges = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    edges += [(5, leaf) for leaf in range(6, 12)]
    edges += [(0, 5)]
    return Graph(12, edges)


def double_crossing():
    """Weighted 8-node graph whose pair (1, 4) crosses twice on C.

    Frozen from a seeded search; the two circulability crossings sit near
    zeta = 0.1232 and zeta = 2.3425.
    """
    edges = [
        (0, 6, 0.50382340306527451),
        (1, 2, 1.1187884425285808),
        (1, 4, 0.81008673344357263),
        (2, 3, 1.1418478305572213),
        (2, 5, 1.4390154663315418),
        (2, 6, 0.49179588065923108),
        (3, 5, 1.1083257304062109),
        (3, 6, 0.67043152945363704),
        (4, 5, 0.28331411459675515),
        (4, 6, 0.84291133250521111),
        (4, 7, 0.63628525983667206),
        (6, 7, 1.3031829291195867),
    ]
    return Graph(8, edges)


def disconnected():
    """K_5 (nodes 0-4), a 6-leaf star (hub 5, leaves 6-11), a 6-node path
    (12-17) and an isolated node (18), as four components.

    Pairs across components of different lambda_1 cross: the hub leads
    the clique nodes at small zeta and loses to them in the end, and the
    leaves swap with the path's inner nodes.
    """
    edges = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    edges += [(5, leaf) for leaf in range(6, 12)]
    edges += [(k, k + 1) for k in range(12, 17)]
    return Graph(19, edges)


WIDE_GRID = np.linspace(0.002, 4.0, 2500)


# -- per-pair references for the batched detector and heuristics -----------------


def reference_coefficients(u, i, j, measure):
    """The weights of exp(zeta lam_k) in M_i - M_j."""
    closed = u[i] ** 2 - u[j] ** 2
    total = u.sum(axis=0) * (u[i] - u[j])
    return {"C": closed, "R": total, "T": total - closed}[measure]


def reference_node(u, i, measure):
    """The weights of exp(zeta lam_k) in M_i."""
    closed = u[i] ** 2
    total = u.sum(axis=0) * u[i]
    return {"C": closed, "R": total, "T": total - closed}[measure]


def reference_detect(lam, u, i, j, measure, grid, bracket_tol, tangency_tol):
    """One pair's scan and bisection, one grid value and one midpoint at a
    time, on the eigensystem ``(lam, u)``: ``(events, tangencies)`` with
    events as (lo, hi, before, after).  A grid value within 1e-12 of the
    larger of the pair's own values |M_i| and |M_j| reads 0."""

    def scaled(z, coef):
        return np.exp(np.outer(np.atleast_1d(z), lam - lam[0])) @ coef

    coef = reference_coefficients(u, i, j, measure)
    vals = scaled(grid, coef)
    floor = 1e-12 * np.maximum(
        *(np.abs(scaled(grid, reference_node(u, k, measure))) for k in (i, j)))
    signs = np.where(np.abs(vals) <= floor, 0, np.sign(vals)).astype(int)
    events = []
    nz = np.nonzero(signs)[0]
    for a, b in zip(nz[:-1], nz[1:]):
        if signs[a] == signs[b]:
            continue
        lo, hi = float(grid[a]), float(grid[b])
        flo = float(vals[a])
        while hi - lo > bracket_tol:
            mid = 0.5 * (lo + hi)
            fm = float(scaled(mid, coef)[0])
            if fm != 0.0 and np.sign(fm) == np.sign(flo):
                lo, flo = mid, fm
            else:
                hi = mid
        events.append((lo, hi, int(signs[a]), int(signs[b])))
    # a grid-local minimum of log |M_i - M_j| = zeta lam_1 + log |scaled|
    tangencies = []
    logf = [grid[m] * lam[0] + (math.log(abs(vals[m])) if vals[m] != 0
                                else -math.inf) for m in range(grid.size)]
    for m in range(1, grid.size - 1):
        if signs[m - 1] == 0 or signs[m + 1] == 0 or signs[m - 1] != signs[m + 1]:
            continue
        if not (logf[m] <= logf[m - 1] and logf[m] <= logf[m + 1]):
            continue
        if logf[m] < math.log(tangency_tol):
            tangencies.append(float(grid[m]))
    return events, tangencies


def reference_deltas(walks, i, j, measure, kmax):
    """``(start, deltas)``: the pair's series count differences by order,
    from the walk tables ``(total, closed)`` of every node."""
    start = 2 if measure == "C" else 1
    total, closed = walks
    deltas = []
    for m in range(start, kmax + 1):
        counts = {"C": closed[m], "R": total[m],
                  "T": total[m] - closed[m]}[measure]
        deltas.append(counts[i] - counts[j])
    return start, np.array(deltas)


def reference_linear(walks, i, j, measure):
    start, (a, b) = reference_deltas(walks, i, j, measure,
                                     3 if measure == "C" else 2)
    if a == 0.0 or b == 0.0 or np.sign(a) == np.sign(b):
        return None
    return -(start + 1) * a / b


def reference_poly(walks, i, j, measure, k):
    """``(k0, coefficients, descartes)``, descartes being the Descartes
    bound on the positive roots, or None where the coefficients do not
    change sign through order k."""
    start, deltas = reference_deltas(walks, i, j, measure, k)
    pos = deltas >= 0
    change = np.nonzero(pos[1:] != pos[:-1])[0]
    if change.size == 0:
        return None
    k0 = int(change[0]) + 1 + start
    if k < k0:
        return None
    coeffs = deltas[:k - start + 1] / np.array(
        [math.factorial(m) for m in range(start, k + 1)])
    nz = np.abs(coeffs) > 0
    return k0, coeffs, int(np.count_nonzero(np.diff(np.sign(coeffs[nz])) != 0))


def reference_positive_real_roots(ascending, imag_tol=1e-8,
                                  residual_tol=1e-10):
    """One polynomial's positive real roots, one ``np.roots`` call and one
    ``np.polyval`` residual per root: ``(roots, residuals)``."""
    coeffs = np.asarray(ascending, dtype=float)
    while coeffs.size and coeffs[-1] == 0.0:
        coeffs = coeffs[:-1]
    if coeffs.size < 2:
        return np.zeros(0), np.zeros(0)
    desc = coeffs[::-1]
    keep = []
    for r in np.roots(desc):
        if abs(r.imag) > imag_tol * (1.0 + abs(r)):
            continue
        x = float(r.real)
        if x <= 0.0:
            continue
        res = abs(np.polyval(desc, x)) / np.polyval(np.abs(desc), x)
        if res <= residual_tol:
            keep.append((x, res))
    keep.sort()
    if not keep:
        return np.zeros(0), np.zeros(0)
    xs, rs = zip(*keep)
    return np.array(xs), np.array(rs)


def by_pair(found, count):
    """``detect_pairs``' arrays as one ``(events, tangencies)`` per pair of
    ``count``: events as (lo, hi, before, after), tangencies as zetas.
    Checks that both groups are sorted by pair, then by zeta."""
    out = [([], []) for _ in range(count)]
    for group, slot in zip(found, (0, 1)):
        keys = list(zip(group[0].tolist(), group[1].tolist()))
        assert keys == sorted(keys)
        for p, *row in zip(*(x.tolist() for x in group)):
            out[p][slot].append(tuple(row) if slot == 0 else row[0])
    return out


def series_poly(g, i, j, measure, k):
    """One pair's order-k truncation from the private row forms:
    ``(coefficients, roots, residuals, descartes)``.  Its k0 and
    coefficients equal ``reference_poly``'s, the roots it finds stay
    within the reference's Descartes bound, and its smallest root is
    ``heuristic_poly``'s."""
    (k0,), (coeffs,) = _poly_rows(*_pair_series(g, [(i, j)], measure, k))
    ref_k0, ref_coeffs, descartes = reference_poly(walk_counts(g, k), i, j,
                                                   measure, k)
    assert k0 == ref_k0
    assert np.array_equal(coeffs, ref_coeffs)
    _, roots, residuals = _positive_real_roots_rows(coeffs[None])
    assert roots.size <= descartes
    assert heuristic_poly(g, i, j, measure, k=k) == (
        roots[0] if roots.size else None)
    return coeffs, roots, residuals, descartes


def frozen_beyond(g, i, j):
    """Closed-form horizon past which the C order of pair (i, j) is frozen.

    With d = u[i]^2 - u[j]^2, the tail sum_{k>=2} |d_k| exp(zeta (lam_k -
    lam_1)) is at most exp(-zeta (lam_1 - lam_2)) sum_{k>=2} |d_k|, so past
    max(0, log(sum_{k>=2} |d_k| / |d_1|)) / (lam_1 - lam_2) the leading term
    fixes the sign of C_i - C_j and no crossing can follow.  The pair's
    Perron entries must differ.
    """
    lam, u = _eigensystem(g.adjacency())
    assert abs(u[i, 0] - u[j, 0]) > 1e-12
    d = u[i] ** 2 - u[j] ** 2
    return (max(0.0, math.log(np.abs(d[1:]).sum() / abs(d[0])))
            / (lam[0] - lam[1]))


# -- detect ---------------------------------------------------------------------


def test_symmetric_pair_has_no_events():
    g = Graph(3, [(0, 1), (1, 2)])  # nodes 0 and 2 are automorphic
    for m in "RCT":
        res = detect(g, 0, 2, measure=m, zeta_grid=WIDE_GRID)
        assert by_pair(res, 1) == [([], [])]
    star = generate_star(6)
    (events, _), = by_pair(detect(star, 1, 2, measure="C",
                                  zeta_grid=WIDE_GRID), 1)
    assert events == []


def test_tied_endpoints_never_reach_the_scan(monkeypatch):
    # a star's leaves share one grid column: none of their pairs is scanned
    g = generate_star(40)
    scanned = []
    scan = interlacement._detect_block
    pairs = np.column_stack(np.triu_indices(g.n, 1))

    def spy(p, *args):
        scanned.extend(map(tuple, pairs[p].tolist()))
        return scan(p, *args)

    monkeypatch.setattr(interlacement, "_detect_block", spy)
    results = by_pair(detect_pairs(g, pairs, measure="C"), len(pairs))
    # the hub leads every leaf throughout
    assert results == [([], [])] * len(pairs)
    assert [p for p in scanned if 0 not in p] == []


def test_clique_hub_crossing_each_measure():
    g = clique_plus_hub()
    for m in "RCT":
        (events, _), = by_pair(detect(g, 5, 1, measure=m,
                                      zeta_grid=WIDE_GRID), 1)
        assert len(events) == 1
        lo, hi, before, after = events[0]
        # hub leads at small zeta, clique node wins in the end
        assert before == 1 and after == -1
        assert hi - lo <= 1e-8
        zeta_star = 0.5 * (lo + hi)
        assert lo <= zeta_star <= hi
        # root contract: the measures actually tie at zeta_star
        vals = sweep(g, [zeta_star]).measure(m)[0]
        assert abs(vals[5] - vals[1]) < 1e-6 * max(vals.max(), 1.0)


def test_double_crossing_pair():
    g = double_crossing()
    (pair, lo, hi, before, after), _ = detect(g, 1, 4, measure="C",
                                              zeta_grid=WIDE_GRID)
    assert pair.tolist() == [0, 0]
    zeta_star = 0.5 * (lo + hi)
    assert zeta_star[0] == pytest.approx(0.123204, abs=1e-4)
    assert zeta_star[1] == pytest.approx(2.342520, abs=1e-4)
    assert (before.tolist(), after.tolist()) == ([1, -1], [-1, 1])
    assert ((lo <= zeta_star) & (zeta_star <= hi)).all()


def test_detect_rejects_bad_input():
    g = generate_complete(4)
    with pytest.raises(ValueError, match="distinct"):
        detect(g, 1, 1)
    with pytest.raises(ValueError, match="positive"):
        detect(g, 0, 1, zeta_grid=[0.0, 0.5])
    with pytest.raises(ValueError, match="increasing"):
        detect(g, 0, 1, zeta_grid=[0.5, 0.2])
    for grid in ([0.1, 0.5, np.inf], [0.1, 0.2, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            detect(g, 0, 1, zeta_grid=grid)
    with pytest.raises(ValueError, match="2 points"):
        detect(g, 0, 1, zeta_grid=[0.5])
    with pytest.raises(ValueError, match="measure"):
        detect(g, 0, 1, measure="Q", zeta_grid=[0.1, 0.2])


def test_tangency_is_a_local_minimum_of_the_difference_itself():
    # |R_15 - R_28| only grows around zeta = 1.39, where the difference
    # scaled by exp(-zeta lam_1) has its grid-local minimum: no tangency
    g = generate_er(40, 0.15, seed=4, require_connected=True)
    grid = np.linspace(0.01, 3.0, 300)
    gap = np.abs(np.diff(sweep(g, grid).measure("R")[:, [15, 28]], axis=1))
    k = int(np.argmin(np.abs(grid - 1.39)))
    assert (np.diff(gap[k - 2:k + 3, 0]) > 0).all()
    assert 500.0 < gap[k, 0] < 1e3
    res = detect(g, 15, 28, measure="R", zeta_grid=grid, tangency_tol=1e3)
    assert by_pair(res, 1) == [([], [])]


def brute_force_pairs(vals, reach):
    """Keys of the column pairs that swap between consecutive rows of
    ``vals`` (stable order) and of those within ``reach`` on some row, and
    the number of swaps."""
    rows, q = vals.shape
    place = np.argsort(np.argsort(vals, axis=1, kind="stable"), axis=1)
    flips, close = set(), set()
    for a in range(q):
        for b in range(a + 1, q):
            before = place[:-1, a] < place[:-1, b]
            after = place[1:, a] < place[1:, b]
            if (before != after).any():
                flips.add(a * q + b)
            if (np.abs(vals[:, a] - vals[:, b]) <= reach).any():
                close.add(a * q + b)
    above = place[:, :, None] < place[:, None, :]
    return flips, close, int(np.triu(above[1:] != above[:-1], 1).sum())


@pytest.mark.parametrize("entries", [interlacement._BLOCK_ENTRIES, 64])
def test_flips_and_close_pairs_match_brute_force(entries, monkeypatch):
    # the banded scans take the whole grid in one pass: no block bound,
    # however small, may change the keys they return
    monkeypatch.setattr(interlacement, "_BLOCK_ENTRIES", entries)
    rng = np.random.default_rng(16)
    # few distinct values, so rows hold ties
    cases = [rng.integers(0, q // 2 + 2, (rows, q)).astype(float)
             for rows, q in ((2, 2), (9, 5), (30, 17), (12, 64), (5, 70))]
    up = np.arange(40.0)
    jump = up.copy()
    jump[0] = 40.0  # the first node jumps to the end, and back
    cases += [
        np.array([up, -up, up]),  # full reversals
        np.array([up, jump, up]),
        np.array([[1.0], [3.0], [2.0]]),  # one column
        rng.normal(size=(2, 30)),  # one step
        np.zeros((1, 6)),  # no step
    ]
    for vals in cases:
        order = np.argsort(vals, axis=1, kind="stable")
        srt = np.take_along_axis(vals, order, axis=1)
        reach = rng.uniform(0.0, 2.0, vals.shape[0])
        flips, close, swaps = brute_force_pairs(vals, reach)
        got = _flips(order)
        # one key per swap: repeats only across steps
        assert got.size == swaps
        assert set(got.tolist()) == flips
        assert set(_close(order, srt, reach).tolist()) == close


def test_order_keys_keep_every_sign_change_and_drop_noise():
    # values tied to within rounding, or apart by just over the noise
    # floor, around a few magnitudes of both signs; the last columns
    # change sign from row to row
    rng = np.random.default_rng(18)
    base = np.repeat(rng.uniform(0.3, 3.0, 6) * [1, 1, 1, -1, -1, 1e-3], 6)
    base = np.concatenate([base, [0.0, 0.0], np.repeat(base[:1], 4)])
    # +-0.51e-12 apart by just over the floor, +-0.49e-12 by just under
    scale = rng.choice([0.0, 1e-15, 0.49e-12, 0.51e-12], (40, base.size))
    vals = base * (1.0 + rng.choice([-1.0, 1.0], scale.shape) * scale)
    vals[:, -4:] *= rng.choice([-1.0, 1.0], (40, 4))
    flips = set(_flips(np.argsort(_order_keys(vals), axis=1,
                                  kind="stable")).tolist())
    q, changing = base.size, 0
    for a in range(q):
        for b in range(a + 1, q):
            d = vals[:, a] - vals[:, b]
            floor = 1e-12 * np.maximum(np.abs(vals[:, a]), np.abs(vals[:, b]))
            signs = np.where(np.abs(d) <= floor, 0, np.sign(d))
            if (signs > 0).any() and (signs < 0).any():
                assert a * q + b in flips
                changing += 1
    assert changing > 100
    # the nodes of a complete graph differ by rounding only, in the grid
    # values that detect_pairs reads
    g = generate_complete(60)
    pairs = [(i, j) for i in range(60) for j in range(i + 1, 60)]
    grid = np.linspace(0.01, 1.0, 100)
    a = g.sparse_adjacency()
    b = _spectral_bound(a)
    degree = int(_series_degree(grid.max() * b))
    rows = _poisson_weights(grid * b, degree, grid * b) @ _measure_table(
        a, b, np.arange(60), "C", degree)
    assert _flips(np.argsort(rows, axis=1, kind="stable")).size > 1000
    assert _flips(np.argsort(_order_keys(rows), axis=1,
                             kind="stable")).size == 0
    assert by_pair(detect_pairs(g, pairs, measure="C", zeta_grid=grid),
                   len(pairs)) == [([], [])] * len(pairs)


def test_no_pairs_give_no_results():
    # what `interlace --all-pairs` passes on a one-node graph
    for g in (Graph(1), generate_complete(3)):
        crossings, tangencies = detect_pairs(g, np.zeros((0, 2), dtype=int))
        # empty, typed as if they held events
        assert [(x.size, x.dtype) for x in crossings + tangencies] == [
            (0, np.int64), (0, float), (0, float), (0, np.int8),
            (0, np.int8), (0, np.int64), (0, float)]


def test_opposite_limit_orderings_give_odd_event_count():
    # degree order vs eigenvector order disagreeing forces at least one
    # crossing, and any count through the certified horizon must be odd
    for seed in (3, 11, 29):
        g = generate_er(20, 0.2, seed=seed, require_connected=True)
        k = g.degrees().astype(float)
        psi = np.abs(_eigensystem(g.adjacency())[1][:, 0])
        checked = 0
        for i in range(g.n):
            for j in range(i + 1, g.n):
                if (k[i] - k[j]) * (psi[i] - psi[j]) >= 0:
                    continue
                if abs(k[i] - k[j]) < 1:
                    continue
                grid = np.linspace(1e-3, frozen_beyond(g, i, j) + 0.5, 3000)
                (pair, *_), _ = detect(g, i, j, measure="C", zeta_grid=grid)
                assert pair.size % 2 == 1
                checked += 1
        assert checked > 0


def test_walk_dominance_means_no_events():
    # star hub vs leaf: closed-walk counts dominate at every order, and no
    # crossing shows up through the certified horizon
    g = generate_star(8)
    _, closed = walk_counts(g, 60)
    assert (closed[:, 0] >= closed[:, 1]).all()
    grid = np.linspace(1e-3, frozen_beyond(g, 0, 1) + 5.0, 3000)
    (pair, *_), _ = detect(g, 0, 1, measure="C", zeta_grid=grid)
    assert pair.size == 0


BATCH_CASES = [
    ("clique_plus_hub", clique_plus_hub, WIDE_GRID),
    ("double_crossing", double_crossing, WIDE_GRID),
    ("er40", lambda: generate_er(40, 0.15, seed=4, require_connected=True),
     np.linspace(0.01, 3.0, 300)),
    ("disconnected", disconnected, WIDE_GRID),
]
# zeta b passes 255 from zeta = 62.5 on: the series table runs to degree
# 487 at the grid's top, 80
DETECT_CASES = BATCH_CASES + [
    ("past_reach", clique_plus_hub, np.linspace(0.01, 80.0, 2000)),
]


@pytest.mark.parametrize("make,grid", [c[1:] for c in DETECT_CASES],
                         ids=[c[0] for c in DETECT_CASES])
@pytest.mark.parametrize("measure", "RCT")
def test_detect_pairs_matches_per_pair_reference(make, grid, measure,
                                                 monkeypatch):
    g = make()
    lam, u = _eigensystem(g.adjacency())
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
    tol = 1e-8

    def interval(lo, hi):
        return (int(np.searchsorted(grid, lo, side="right")) - 1,
                int(np.searchsorted(grid, hi, side="left")))

    # the default tolerance and a loose one that reports tangencies
    for tangency_tol in (1e-10, 1e3):
        ref = [reference_detect(lam, u, i, j, measure, grid, tol,
                                tangency_tol) for i, j in pairs]
        want = {(pair, interval(lo, hi), before, after)
                for pair, (events, _) in zip(pairs, ref)
                for lo, hi, before, after in events}
        # one block, and blocks of a few pairs
        for entries in (interlacement._BLOCK_ENTRIES, 700):
            monkeypatch.setattr(interlacement, "_BLOCK_ENTRIES", entries)
            got = by_pair(detect_pairs(
                g, pairs, measure=measure, zeta_grid=grid, bracket_tol=tol,
                tangency_tol=tangency_tol), len(pairs))
            assert {(pair, interval(lo, hi), before, after)
                    for pair, (events, _) in zip(pairs, got)
                    for lo, hi, before, after in events} == want
            for (events, tangencies), res in zip(ref, got):
                assert len(res[0]) == len(events)
                for (lo, hi, _, _), (left, right, _, _) in zip(events, res[0]):
                    assert right - left <= tol
                    assert abs(0.5 * (left + right) - 0.5 * (lo + hi)) <= tol
                assert res[1] == tangencies
        # detect gives the same arrays for its one pair
        loud = [p for p, res in enumerate(got) if res != ([], [])]
        for p in loud[:5]:
            (i, j) = pairs[p]
            res = detect(g, i, j, measure=measure, zeta_grid=grid,
                         bracket_tol=tol, tangency_tol=tangency_tol)
            assert by_pair(res, 1) == [got[p]]
    assert want  # every case crosses somewhere


# grids past exp's range: b is 4.08 on clique_plus_hub, so its 1000 and
# 99.5 wide steps are s steps of about 4080 and 406; the ER graph's (b =
# 6.5) steps of s = 6.6 run to s = 650.  On disconnected the star's leaves
# cross the path's inner nodes on C (24 crossings) where both lie far below
# the clique, which the pair's own noise floor keeps in view
WIDE_STEP_CASES = [
    ("hub_0.01:2000:3", clique_plus_hub, np.linspace(0.01, 2000.0, 3)),
    ("hub_1:200:3", clique_plus_hub, np.linspace(1.0, 200.0, 3)),
    ("er40_0.01:100:100",
     lambda: generate_er(40, 0.15, seed=4, require_connected=True),
     np.linspace(0.01, 100.0, 100)),
    ("disconnected_1:200:3", disconnected, np.linspace(1.0, 200.0, 3)),
]


@pytest.mark.parametrize("make,grid", [c[1:] for c in WIDE_STEP_CASES],
                         ids=[c[0] for c in WIDE_STEP_CASES])
@pytest.mark.parametrize("measure", "RCT")
def test_detect_pairs_past_exp_range_matches_reference(make, grid, measure):
    # a bracket too wide for the shifted series is halved on the weights
    # first: every sign change still matches the per-pair reference
    g = make()
    lam, u = _eigensystem(g.adjacency())
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
    tol = 1e-8
    got = by_pair(detect_pairs(g, pairs, measure=measure, zeta_grid=grid,
                               bracket_tol=tol), len(pairs))
    for (i, j), (events, tangencies) in zip(pairs, got):
        ref, ref_tangencies = reference_detect(
            lam, u, i, j, measure, grid, tol, TANGENCY_TOL_DEFAULT)
        assert tangencies == ref_tangencies
        assert len(events) == len(ref)
        for (lo, hi, before, after), (rlo, rhi, rb, ra) in zip(events, ref):
            assert (before, after) == (rb, ra)
            assert 0.0 < hi - lo <= tol
            assert abs(0.5 * (lo + hi) - 0.5 * (rlo + rhi)) <= tol


def test_wide_step_brackets_are_pinned():
    # brackets over grid steps past exp's range, as the weights at every
    # midpoint found them: the hub's crossing over a 1000 wide step
    (pair, lo, hi, before, after), _ = detect_pairs(
        clique_plus_hub(), [(5, 1)], "C", np.linspace(0.01, 2000.0, 3))
    assert pair.tolist() == [0]
    assert (lo.tolist(), hi.tolist()) == ([0.5575884441563175],
                                          [0.5575884514322387])
    assert (before.tolist(), after.tolist()) == ([1], [-1])
    # and the star's leaves rising past the path's inner nodes over a 99.5
    # wide step (s = 398): at zeta = 100 they lie e^-200 below the clique
    g = disconnected()
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
    (pair, lo, hi, before, after), (tp, _) = detect_pairs(
        g, pairs, "C", np.linspace(1.0, 200.0, 3))
    outer = (1.6954421628033742, 1.6954421685950365)
    inner = (1.864767791412305, 1.8647677972039673)
    assert {pairs[p]: (a, b) for p, a, b in zip(pair.tolist(), lo.tolist(),
                                                hi.tolist())} == {
        (leaf, node): outer if node in (13, 16) else inner
        for leaf in range(6, 12) for node in range(13, 17)}
    assert (before == -1).all() and (after == 1).all() and tp.size == 0


# (pair, repr of zeta*, bracket_lo, bracket_hi) of the first two crossings
# of each case, captured while the Horner step still built a new array per
# term: the in-place step must reproduce every bit
PINNED_BRACKETS = {
    ("hub", "R"): [
        ((0, 5), "0.26979411542415627",
         "0.26979411244392404", "0.2697941184043885"),
        ((1, 5), "0.49025823771953586",
         "0.49025823473930363", "0.4902582406997681"),
    ],
    ("hub", "C"): [
        ((0, 5), "0.38930406868457784",
         "0.3893040657043456", "0.38930407166481007"),
        ((1, 5), "0.5575884431600571",
         "0.5575884401798249", "0.5575884461402894"),
    ],
    ("hub", "T"): [
        ((0, 5), "0.25884897410869606",
         "0.25884897112846383", "0.2588489770889283"),
        ((1, 5), "0.47833994328975665",
         "0.4783399403095244", "0.4783399462699889"),
    ],
    ("hubwide", "R"): [
        ((0, 5), "0.26979411999249336",
         "0.26979411635453276", "0.269794123630454"),
        ((1, 5), "0.49025823683858105",
         "0.49025823320062045", "0.4902582404765417"),
    ],
    ("hubwide", "C"): [
        ((0, 5), "0.38930406573961585",
         "0.38930406210165525", "0.38930406937757644"),
        ((1, 5), "0.5575884477942781",
         "0.5575884441563175", "0.5575884514322387"),
    ],
    ("hubwide", "T"): [
        ((0, 5), "0.25884897350735614",
         "0.25884896986939554", "0.2588489771453168"),
        ((1, 5), "0.47833994316426465",
         "0.47833993952630405", "0.47833994680222525"),
    ],
    ("er40", "R"): [
        ((1, 37), "0.6063380200788377",
         "0.6063380163162946", "0.606338023841381"),
        ((2, 11), "0.37924179371446365",
         "0.3792417899519204", "0.3792417974770068"),
    ],
    ("er40", "C"): [
        ((1, 8), "0.2593066580966114",
         "0.2593066543340682", "0.25930666185915463"),
        ((1, 28), "1.1943334998562931",
         "1.19433349609375", "1.1943335036188363"),
    ],
    ("er40", "T"): [
        ((1, 37), "0.5573170712962745",
         "0.5573170675337313", "0.5573170750588178"),
        ((2, 11), "0.36538552101701494",
         "0.3653855172544717", "0.3653855247795581"),
    ],
}
PINNED_CASES = {
    "hub": (clique_plus_hub, np.linspace(0.05, 3.0, 60)),
    "hubwide": (clique_plus_hub, np.linspace(0.01, 2000.0, 3)),
    "er40": (lambda: generate_er(40, 0.15, seed=4, require_connected=True),
             np.linspace(0.01, 100.0, 100)),
}


@pytest.mark.parametrize("case,measure", list(PINNED_BRACKETS),
                         ids=["%s-%s" % c for c in PINNED_BRACKETS])
def test_bracket_bits_are_pinned(case, measure):
    # the in-place Horner step takes every sign decision bit for bit: the
    # brackets keep their last bit, on grids whose steps the shifted series
    # covers (hub, er40) and past exp's range (hubwide: halved first)
    make, grid = PINNED_CASES[case]
    g = make()
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
    (pair, lo, hi, _, _), _ = detect_pairs(g, pairs, measure, grid)
    got = [(pairs[p], repr(0.5 * (a + b)), repr(a), repr(b))
           for p, a, b in zip(pair[:2].tolist(), lo[:2].tolist(),
                              hi[:2].tolist())]
    assert got == PINNED_BRACKETS[case, measure]


@pytest.mark.parametrize("make,grid", [
    (clique_plus_hub, np.linspace(0.01, 2000.0, 3)),
    (double_crossing, WIDE_GRID),
    (lambda: generate_er(40, 0.15, seed=4, require_connected=True),
     np.linspace(0.01, 100.0, 100)),
], ids=["hub_wide_steps", "double_crossing", "er40"])
def test_weights_evaluations_do_not_depend_on_bracket_tol(make, grid,
                                                          monkeypatch):
    # a bisection step sums the shifted series: the Poisson weights are
    # evaluated at the grid, while halving brackets past exp's range and
    # at the anchors, however many steps the tolerance asks for
    calls = []

    def counted(*args):
        calls.append(args)
        return _poisson_weights(*args)

    monkeypatch.setattr(interlacement, "_poisson_weights", counted)
    g = make()
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
    counts = []
    for tol in (1e-8, 1e-12):
        calls.clear()
        (cp, *_), _ = detect_pairs(g, pairs, "C", grid, bracket_tol=tol)
        assert cp.size
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("make", [c[1] for c in BATCH_CASES],
                         ids=[c[0] for c in BATCH_CASES])
@pytest.mark.parametrize("measure", "RCT")
def test_batched_heuristics_match_per_pair_reference(make, measure,
                                                     monkeypatch):
    g = make()
    walks = walk_counts(g, 60)
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
    for k in (3, 6):
        linear_ref = [reference_linear(walks, i, j, measure) for i, j in pairs]
        poly_ref = [reference_poly(walks, i, j, measure, k) for i, j in pairs]
        assert 0 < poly_ref.count(None) < len(pairs)
        roots_ref = [reference_positive_real_roots(ref[1])[0]
                     if ref is not None else np.zeros(0) for ref in poly_ref]
        root_ref = [r[0] if r.size else np.nan for r in roots_ref]
        # one block, and blocks of a few pairs
        for entries in (interlacement._BLOCK_ENTRIES, 700):
            monkeypatch.setattr(interlacement, "_BLOCK_ENTRIES", entries)
            linear, root = heuristic_pairs(g, pairs, measure=measure, k=k)
            assert [None if math.isnan(x) else x
                    for x in linear.tolist()] == linear_ref
            assert np.array_equal(root, root_ref, equal_nan=True)
        # the single-pair forms and the private row forms agree,
        # rejections included
        for (i, j), linear, ref in zip(pairs, linear_ref, poly_ref):
            assert heuristic_linear(g, i, j, measure) == linear
            if ref is None:
                assert heuristic_poly(g, i, j, measure, k=k) is None
                continue
            coeffs, roots, residuals, _ = series_poly(g, i, j, measure, k)
            want = reference_positive_real_roots(coeffs)
            assert np.array_equal(roots, want[0])
            assert np.array_equal(residuals, want[1])


def random_polynomials(rng, rows, width):
    """Ascending coefficient rows of mixed degrees, shifted by a random
    power of x and zero-padded above: random coefficients, small integers
    (some zero), double positive roots, complex roots only, and rows that
    are zero or a monomial."""
    poly = np.polynomial.polynomial
    out = np.zeros((rows, width))
    for r in range(rows):
        kind = r % 5
        degree = int(rng.integers(1, width))
        if kind == 0:
            c = (rng.standard_normal(degree + 1)
                 * 10.0 ** rng.integers(-3, 4, degree + 1))
        elif kind == 1:
            c = rng.integers(-3, 4, degree + 1).astype(float)
        elif kind == 2:
            roots = np.repeat(rng.uniform(0.1, 5.0, (degree + 1) // 2), 2)
            c = rng.uniform(-2.0, 2.0) * poly.polyfromroots(roots[:degree])
        elif kind == 3:
            z = (rng.uniform(0.5, 3.0, degree // 2)
                 * np.exp(1j * rng.uniform(0.3, 2.8, degree // 2)))
            c = poly.polyfromroots(np.concatenate([z, z.conj()])).real
        else:
            c = np.array([rng.choice([0.0, -1.5, 2.0])])
        shift = int(rng.integers(0, width - c.size + 1))
        out[r, shift:shift + c.size] = c
    return out


def test_batched_roots_match_np_roots_reference():
    rng = np.random.default_rng(14)
    coeffs = random_polynomials(rng, 400, 7)
    degrees = {int(np.ptp(np.flatnonzero(c))) if c.any() else -1
               for c in coeffs}
    assert degrees >= {-1, 0, 1, 2, 3, 4, 5, 6}
    owner, roots, residuals = _positive_real_roots_rows(coeffs)
    assert (np.diff(owner) >= 0).all()  # by row, then by root
    for r, c in enumerate(coeffs):
        want = reference_positive_real_roots(c)
        mine = owner == r
        assert np.array_equal(roots[mine], want[0])
        assert np.array_equal(residuals[mine], want[1])
        single = _positive_real_roots_rows(c[None])
        assert np.array_equal(single[0], np.zeros(want[0].size))
        assert np.array_equal(single[1], want[0])
        assert np.array_equal(single[2], want[1])
    assert roots.size > 100
    for empty in (np.zeros((0, 4)), np.zeros((2, 0))):
        assert [x.size for x in _positive_real_roots_rows(empty)] == [0] * 3


# -- linear heuristic -------------------------------------------------------------


def test_linear_heuristic_closed_forms():
    g = clique_plus_hub()
    # C: walk differences 3 and -12 -> 3*3/12 = 0.75
    assert heuristic_linear(g, 5, 1, "C") == pytest.approx(0.75)
    # R: strength diff 3, second-order totals 11 vs 17 -> 2*3/6 = 1.0
    assert heuristic_linear(g, 5, 1, "R") == pytest.approx(1.0)
    # T: open-walk diffs 3 and -9 -> 2*3/9 = 2/3
    assert heuristic_linear(g, 5, 1, "T") == pytest.approx(2.0 / 3.0)


def test_linear_heuristic_matches_walk_formula():
    g = double_crossing()
    _, closed = walk_counts(g, 3)
    w2, w3 = closed[2], closed[3]
    for i in range(g.n):
        for j in range(g.n):
            if i == j:
                continue
            got = heuristic_linear(g, i, j, "C")
            a, b = w2[i] - w2[j], w3[i] - w3[j]
            if a == 0 or b == 0 or np.sign(a) == np.sign(b):
                assert got is None
            else:
                assert got == pytest.approx(3 * a / (w3[j] - w3[i]))
                assert got > 0


def test_linear_heuristic_absent_cases():
    g = clique_plus_hub()
    # clique nodes 1 and 2 are degree-tied: no leading-order signal
    assert heuristic_linear(g, 1, 2, "C") is None
    # both leading differences positive for clique node vs leaf
    assert heuristic_linear(g, 1, 6, "C") is None


def test_linear_heuristic_sign_is_symmetric():
    g = clique_plus_hub()
    assert heuristic_linear(g, 1, 5, "C") == pytest.approx(
        heuristic_linear(g, 5, 1, "C"))


# -- polynomial heuristic -----------------------------------------------------------


def test_poly_first_order_has_single_root():
    g = clique_plus_hub()
    (k0,), _ = _poly_rows(*_pair_series(g, [(5, 1)], "C", 3))
    assert k0 == 3
    _, roots, _, descartes = series_poly(g, 5, 1, "C", 3)
    assert roots.size == 1
    assert descartes == 1
    # at k = k0 the truncation is the linear heuristic
    assert heuristic_poly(g, 5, 1, "C", k=3) == pytest.approx(
        heuristic_linear(g, 5, 1, "C"))


def test_poly_roots_sharpen_with_order():
    g = clique_plus_hub()
    (_, lo, hi, _, _), _ = detect(g, 5, 1, "C", zeta_grid=WIDE_GRID)
    true = 0.5 * (lo[0] + hi[0])
    errs = []
    for k in (3, 6, 9, 12):
        _, roots, residuals, descartes = series_poly(g, 5, 1, "C", k)
        assert roots.size >= 1
        assert roots.size <= descartes
        assert (residuals <= 1e-10).all()
        errs.append(abs(roots[0] - true))
    assert errs[-1] < errs[0]
    assert errs[-1] < 5e-3


def test_poly_rejects_complete_graph():
    # the nodes are automorphic: every coefficient is 0, none changes sign
    g = generate_complete(5)
    (k0,), _ = _poly_rows(*_pair_series(g, [(0, 3)], "C", 6))
    assert k0 == 7
    assert heuristic_poly(g, 0, 3, "C", k=6) is None


def test_poly_rejects_below_k0():
    # k0 = 3 for this pair; at k = 2 (and below) C has one coefficient or
    # none, which cannot change sign
    g = clique_plus_hub()
    for k in (2, 1):
        assert heuristic_poly(g, 5, 1, "C", k=k) is None
    assert heuristic_poly(g, 5, 1, "R", k=0) is None


def test_poly_double_crossing_bound():
    # the truncated series for the double-crossing pair keeps both roots
    g = double_crossing()
    _, roots, _, descartes = series_poly(g, 1, 4, "C", 14)
    assert roots.size <= descartes
    assert roots.size >= 1
    assert roots[0] == pytest.approx(0.123204, abs=2e-3)


# -- finiteness --------------------------------------------------------------------


def test_finiteness_bounds_all_crossings():
    g = double_crossing()
    zeta_bar = frozen_beyond(g, 1, 4)
    (pair, lo, hi, _, _), _ = detect(g, 1, 4, "C", zeta_grid=WIDE_GRID)
    assert pair.size and (0.5 * (lo + hi) < zeta_bar).all()
    beyond = np.linspace(zeta_bar, zeta_bar + 20.0, 2000)
    (pair, *_), _ = detect(g, 1, 4, "C", zeta_grid=beyond)
    assert pair.size == 0


def test_events_csv(tmp_path):
    # events.csv of `interlace` is the one events schema: its crossing rows
    # carry the detect events of the pair, bracket included
    from riskcent.cli import main
    from riskcent.graph import save_json

    g = double_crossing()
    (_, lo, hi, _, _), _ = detect(g, 1, 4, "C", zeta_grid=WIDE_GRID)
    graph = str(tmp_path / "g.json")
    save_json(g, graph)
    out = tmp_path / "out"
    assert main(["interlace", graph, "--out", str(out), "--pairs", "1,4",
                 "--measure", "C", "--zeta-grid", "0.002:4.0:2500"]) == 0
    lines = (out / "events.csv").read_text().strip().splitlines()
    assert lines[0].split(",")[:7] == ["i", "j", "measure", "kind",
                                       "zeta_star", "bracket_lo",
                                       "bracket_hi"]
    assert len(lines) == 3
    for line, a, b in zip(lines[1:], lo.tolist(), hi.tolist()):
        cells = line.split(",")
        assert cells[:4] == ["1", "4", "C", "crossing"]
        assert float(cells[4]) == 0.5 * (a + b)
        assert (float(cells[5]), float(cells[6])) == (a, b)
        assert float(cells[5]) <= float(cells[4]) <= float(cells[6])
