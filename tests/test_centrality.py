import csv

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy.stats import rankdata

import riskcent.spectral
from riskcent.centrality import (
    RiskProfile,
    default_zeta_grid,
    rank,
    ranking_sweep,
    spearman,
    sweep,
    write_grid_csv,
    write_rows,
)
from riskcent.finance import delta_rank
from riskcent.graph import (Graph, generate_complete, generate_er,
                            generate_star, relabel)
from riskcent.spectral import _eigensystem, _exp_rows, expm


def measures(g, zeta):
    """R, C and T at one zeta through the one evaluator."""
    r = expm(g, zeta, np.ones(g.n))
    c = expm(g, zeta)
    return r, c, r - c


def complete_closed_forms(n, zeta):
    """Closed forms on K_n: only two distinct eigenvalues, n-1 and -1."""
    r = np.exp((n - 1) * zeta)
    c = (n - 1) / n * (np.exp((n - 1) * zeta) / (n - 1) + np.exp(-zeta))
    t = (n - 1) / n * (np.exp((n - 1) * zeta) - np.exp(-zeta))
    return r, c, t


# -- measures -----------------------------------------------------------------


def test_k3_values_at_unit_zeta():
    g = generate_complete(3)
    r, c, t = measures(g, 1.0)
    assert np.allclose(r, np.e**2, rtol=1e-12)
    want_c = np.e**2 / 3 + (2 / 3) * np.exp(-1.0)
    assert np.allclose(c, want_c, rtol=1e-12)
    assert np.allclose(t, np.e**2 - want_c, rtol=1e-12)


def test_complete_graph_closed_forms():
    for n in (3, 6, 11):
        g = generate_complete(n)
        for zeta in (0.1, 0.7, 2.0):
            r, c, t = complete_closed_forms(n, zeta)
            got_r, got_c, got_t = measures(g, zeta)
            assert np.allclose(got_r, r, rtol=1e-11)
            assert np.allclose(got_c, c, rtol=1e-11)
            assert np.allclose(got_t, t, rtol=1e-11)


def test_measures_match_full_exponential():
    g = generate_er(25, 0.2, seed=2)
    zeta = 0.8
    e = scipy.linalg.expm(zeta * g.adjacency())
    r, c, t = measures(g, zeta)
    assert np.allclose(r, e.sum(axis=1), rtol=1e-10)
    assert np.allclose(c, np.diag(e), rtol=1e-10)
    assert np.allclose(t, e.sum(axis=1) - np.diag(e), rtol=1e-10)


def test_zeta_zero_baseline():
    g = generate_er(15, 0.3, seed=1)
    r, c, t = measures(g, 0.0)
    assert np.allclose(r, 1.0, atol=1e-14)
    assert np.allclose(c, 1.0, atol=1e-14)
    assert np.allclose(t, 0.0, atol=1e-14)


def test_measures_reject_bad_zeta():
    g = generate_er(15, 0.3, seed=1)
    for zeta in (float("nan"), float("inf"), -0.5):
        for v in (np.ones(g.n), None):
            for scaled in (False, True):
                with pytest.raises(ValueError, match="zeta"):
                    expm(g, zeta, v, scaled=scaled)


def test_transmissibility_positive_on_connected():
    for seed in range(4):
        g = generate_er(30, 0.15, seed=seed, require_connected=True)
        assert (measures(g, 0.5)[2] > 0).all()


def test_small_zeta_series_structure():
    # R ~ 1 + zeta k_i and C ~ 1 + zeta^2 k_i / 2 for small zeta
    g = generate_er(30, 0.2, seed=4)
    k = g.degrees().astype(float)
    z = 1e-7
    r, c, _ = measures(g, z)
    assert np.allclose(r - 1.0, z * k, rtol=1e-5)
    assert np.allclose(c - 1.0, 0.5 * z**2 * k, rtol=1e-4)


# -- sweep --------------------------------------------------------------------


def test_default_grid():
    grid = default_zeta_grid()
    assert grid.size == 100
    assert grid[0] == pytest.approx(0.01)
    assert grid[-1] == 1.0
    assert np.allclose(np.diff(grid), 0.01)


def test_sweep_matches_pointwise():
    g = generate_er(20, 0.25, seed=7)
    prof = sweep(g, [0.05, 0.3, 0.9])
    for row, zeta in enumerate([0.05, 0.3, 0.9]):
        r, c, _ = measures(g, zeta)
        assert np.allclose(prof.R[row], r, rtol=1e-12)
        assert np.allclose(prof.C[row], c, rtol=1e-12)
        assert np.allclose(prof.T[row], prof.R[row] - prof.C[row])


def test_sweep_monotone_and_convex():
    g = generate_er(25, 0.2, seed=3, require_connected=True)
    prof = sweep(g)
    for m in (prof.R, prof.C):
        assert (np.diff(m, axis=0) > 0).all()
        assert (np.diff(m, n=2, axis=0) > -1e-9).all()


def weighted_tree(n, seed):
    """Random recursive tree with edge weights in [0.2, 2], the range of the
    Mantegna distances of a market tree."""
    rng = np.random.default_rng(seed)
    parents = [int(rng.integers(0, i)) for i in range(1, n)]
    weights = rng.uniform(0.2, 2.0, size=n - 1)
    return Graph(n, [(p, i, w) for i, (p, w)
                     in enumerate(zip(parents, weights), start=1)])


def eigensystem_sizes(monkeypatch):
    """The sizes of the blocks ``spectral._eigensystem`` decomposes from
    now on, in the order of the calls."""
    sizes = []
    eigensystem = riskcent.spectral._eigensystem

    def counted(a):
        sizes.append(a.shape[0])
        return eigensystem(a)

    monkeypatch.setattr(riskcent.spectral, "_eigensystem", counted)
    return sizes


def test_sweep_routes_by_predicted_cost(monkeypatch, sparse_er):
    # a 2000-node sparse graph takes no eigensystem: R by the power-series
    # action, C by the power moments of each component
    big = sparse_er(2000, 8.0, seed=3)
    calls = eigensystem_sizes(monkeypatch)
    prof = sweep(big)
    assert calls == []
    monkeypatch.undo()
    lam, u = _eigensystem(big.adjacency())
    for got, want in ((prof.R, _exp_rows(lam, u, prof.zeta_grid,
                                         np.ones(2000))),
                      (prof.C, _exp_rows(lam, u, prof.zeta_grid))):
        err = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
        assert err.max() <= 1e-10
    assert np.array_equal(prof.T, prof.R - prof.C)
    # small or dense graphs take the eigensystem of their one component for
    # C, which keeps the dense rows bit for bit; R is the action on every
    # graph, within 1e-12 of each dense entry here
    calls = eigensystem_sizes(monkeypatch)
    for g in (generate_complete(30), weighted_tree(100, 0),
              generate_er(100, 0.5, seed=2)):
        calls.clear()
        prof = sweep(g)
        assert calls == [g.n]
        lam, u = _eigensystem(g.adjacency())
        assert np.array_equal(prof.C, _exp_rows(lam, u, prof.zeta_grid))
        assert np.array_equal(prof.R, expm(g, prof.zeta_grid, np.ones(g.n)))
        dense = _exp_rows(lam, u, prof.zeta_grid, np.ones(g.n))
        assert np.abs(prof.R / dense - 1.0).max() <= 1e-12


def test_sweep_r_accurate_entry_by_entry_on_the_dense_route(monkeypatch):
    # a 60-clique, a 10-node path off node 0 and an isolated node: the
    # diagonal takes the dense route on the 70-node component, whose
    # eigenvector sum loses every R entry far below exp(zeta lambda_1),
    # down to -1e241 here.  R is the action, a sum of nonnegative terms,
    # so every entry is >= 1 and accurate relative to itself; the isolated
    # node keeps v = 1, exactly in the scaled form and to the unscaling's
    # one rounding in R
    clique = [[i, j] for i in range(60) for j in range(i + 1, 60)]
    tail = [[0, 60]] + [[i, i + 1] for i in range(60, 69)]
    g = Graph(71, clique + tail)
    grid = np.linspace(0.05, 10, 20)
    calls = eigensystem_sizes(monkeypatch)
    prof = sweep(g, grid)
    assert calls == [70]
    eps = np.finfo(float).eps
    assert (prof.R[:, :70] >= 1.0).all()
    assert np.abs(prof.R[:, 70] - 1.0).max() <= eps
    scaled, shifts = expm(g, grid, np.ones(71), scaled=True)
    assert np.array_equal(scaled[:, 70], np.exp(-shifts))
    want = scipy.sparse.linalg.expm_multiply(
        g.sparse_adjacency(), np.ones(71), start=grid[0], stop=grid[-1],
        num=grid.size, endpoint=True)
    assert np.abs(prof.R / want - 1.0).max() <= 1e-12


def test_sweep_rejects_bad_grid():
    g = generate_complete(4)
    with pytest.raises(ValueError, match="increasing"):
        sweep(g, [0.5, 0.2])
    with pytest.raises(ValueError, match="positive"):
        sweep(g, [0.0, 0.1])


def test_profile_csv_layout(tmp_path):
    g = Graph(3, [(0, 1), (1, 2)], labels=["a", "b", "c"])
    prof = sweep(g, [0.1, 0.2])
    path = tmp_path / "r.csv"
    prof.to_csv(path, "R")
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["zeta", "a", "b", "c"]
    assert len(rows) == 3
    back = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
    assert np.array_equal(back, prof.R)


def loop_grid_csv(path, head, grid, matrix, labels):
    """Reference writer: every cell through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([head] + list(labels))
        for z, row in zip(grid, matrix):
            w.writerow([repr(float(z))] + [repr(float(x)) for x in row])


def test_write_grid_csv_matches_csv_writer_loop(tmp_path):
    grid = np.array([5e-324, 0.1, 1.0 / 3.0, 1e22])
    extreme = np.array([[0.0, -0.0, 2.2250738585072014e-308, 1e-300],
                        [1.7976931348623157e308, np.inf, -np.inf, np.nan],
                        [123456789.125, -1e-5, 1e16, 0.1 + 0.2],
                        [np.nextafter(1.0, 2.0), -2.5, 7.0, 1e100]])
    ranks = np.array([[1, 2, 3, 4], [4, 3, 2, 1], [2, 1, 4, 3],
                      [3, 4, 1, 2]], dtype=np.int64)
    labels = ["a", 'x,"y"', "c d", "7"]
    for head, matrix in (("zeta", extreme), ("t", extreme), ("t", ranks)):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_grid_csv(new, head, grid, matrix, labels)
        loop_grid_csv(old, head, grid, matrix, labels)
        assert new.read_bytes() == old.read_bytes()
    lines = new.read_bytes().split(b"\r\n")
    assert lines[0] == b't,a,"x,""y""",c d,7'
    assert lines[1] == b"5e-324,1.0,2.0,3.0,4.0"
    # integer grids through the string table: ranks past 100, one row,
    # negative entries, and a span too wide for a table
    rng = np.random.default_rng(5)
    wide = np.array([rng.permutation(150) + 1 for _ in range(7)])
    negative = np.array([[-3, 0, 2, -1], [5, -7, 0, 1], [-7, -7, 4, 3],
                         [0, 1, 2, 3]])
    for zetas, matrix in ((np.linspace(0.01, 1.0, 7), wide),
                          (np.array([0.5]), wide[:1]), (grid, negative),
                          (np.array([0.5]), np.array([[0, 10**6]]))):
        labels = ["n%d" % k for k in range(matrix.shape[1])]
        write_grid_csv(new, "zeta", zetas, matrix, labels)
        loop_grid_csv(old, "zeta", zetas, matrix, labels)
        assert new.read_bytes() == old.read_bytes()


def test_write_rows_matches_csv_writer_loop(tmp_path):
    header = ["x", "y", "n", "label"]
    rows = [[0.1, 1e-300, 7, 'x,"y"'],
            [123456789.123, -0.0, -3, "Zürich"],
            [5e-324, 1e22, 0, "plain"],
            [None, np.nan, 12, None]]
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_rows(new, header, rows)
    # the loop each report used to run: floats through repr, a missing
    # value as an empty cell, the rest as csv.writer formats them
    with open(old, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(["" if x is None or x != x
                        else repr(x) if isinstance(x, float) else x
                        for x in row])
    assert new.read_bytes() == old.read_bytes()
    lines = new.read_bytes().split(b"\r\n")
    assert lines[1] == b'0.1,1e-300,7,"x,""y"""'
    assert lines[2] == "123456789.123,-0.0,-3,Zürich".encode()
    assert lines[4] == b",,12,"
    assert lines[5] == b"" and len(lines) == 6


# -- scaled forms -------------------------------------------------------------


def test_scaled_measures_agree_with_plain():
    g = generate_er(20, 0.3, seed=9)
    r, s = expm(g, 0.6, np.ones(g.n), scaled=True)
    c, sc = expm(g, 0.6, scaled=True)
    want_r, want_c, want_t = measures(g, 0.6)
    # the action shifts by zeta b, the dense diagonal by zeta lam_1
    assert np.allclose(r * np.exp(s), want_r, rtol=1e-10)
    assert np.allclose(c * np.exp(sc), want_c, rtol=1e-10)
    assert np.allclose(r * np.exp(s) - c * np.exp(sc), want_t, rtol=1e-10)


def test_scaled_measures_rank_at_extreme_zeta():
    # at zeta=50 the unscaled values overflow for K_60; the scaled ranking
    # must match the eigenvector ranking exactly
    g = generate_er(60, 0.3, seed=0, require_connected=True)
    r, s = expm(g, 50.0, np.ones(g.n), scaled=True)
    assert np.isfinite(r).all()
    _, u = _eigensystem(g.adjacency())
    assert np.array_equal(rank(r), rank(np.abs(u[:, 0])))


# -- ranks and correlation ------------------------------------------------------


def test_rank_conventions():
    vals = np.array([3.0, 1.0, 3.0, 5.0])
    assert list(rank(vals)) == [2, 4, 3, 1]
    assert list(rank(np.array([7.0]))) == [1]
    # a gap of exactly tie_tol * max|row| still ties, so node index decides
    assert list(rank(np.array([0.5, 1.0]), tie_tol=0.5)) == [1, 2]
    assert list(rank(np.array([0.5, 1.0]), tie_tol=0.4)) == [2, 1]
    with pytest.raises(ValueError):
        rank(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="tie_tol"):
        rank(vals, tie_tol=-1e-9)


def test_rank_is_permutation():
    rng = np.random.default_rng(0)
    for _ in range(10):
        vals = rng.normal(size=17)
        r = rank(vals)
        assert sorted(r) == list(range(1, 18))


def tie_snap_loop_ranks(values, rel_tol):
    """Reference: the two-loop tie snap that ``rank(values, tie_tol)``
    replaced; values closer than ``rel_tol * max|values|`` rank by node
    index."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(-values, kind="stable")
    sv = values[order]
    cluster = np.zeros(values.size, dtype=np.int64)
    scale = max(float(np.abs(values).max()), 1e-300)
    for k in range(1, values.size):
        step = sv[k - 1] - sv[k] > rel_tol * scale
        cluster[k] = cluster[k - 1] + (1 if step else 0)
    out = np.empty(values.size, dtype=np.int64)
    pos = 1
    for c in range(cluster[-1] + 1):
        members = np.sort(order[cluster == c])
        out[members] = np.arange(pos, pos + members.size)
        pos += members.size
    return out


def per_row_ranking_sweep(profile, measure):
    """Reference: the per-row loop ``ranking_sweep`` ran before ``rank``
    took whole matrices; returns the rank matrix and the rank std."""
    rows = []
    for row in profile.measure(measure):
        order = np.argsort(-row, kind="stable")
        out = np.empty(row.size, dtype=np.int64)
        out[order] = np.arange(1, row.size + 1)
        rows.append(out)
    ranks = np.vstack(rows)
    return ranks, ranks.std(axis=0, ddof=0)


TIE_TOLS = (0.0, 1e-12, 1e-9, 1e-3)


def test_rank_matches_tie_snap_loop_on_tie_heavy_rows():
    rng = np.random.default_rng(23)
    ints = rng.integers(-3, 4, size=(40, 17)).astype(float)
    # exact ties, ties up to relative noise of 1e-13 to 1e-4, and one
    # constant row
    noisy = ints * (1.0 + rng.choice([0.0, 1e-13, 1e-10, 1e-4],
                                     size=ints.shape))
    noisy[0] = 2.5
    # rows of different magnitude: the tolerance scales with each row's max
    spread = noisy * 10.0 ** rng.integers(-3, 4, size=(40, 1))
    for values in (ints, noisy, spread, 1e-200 * ints):
        for tol in TIE_TOLS:
            want = np.vstack([tie_snap_loop_ranks(row, tol) for row in values])
            assert np.array_equal(rank(values, tol), want)
            assert np.array_equal(rank(values[3], tol), want[3])
            # any leading shape: ranks run along the last axis
            assert np.array_equal(rank(values.reshape(4, 10, 17), tol),
                                  want.reshape(4, 10, 17))
        assert np.array_equal(rank(values),
                              per_row_ranking_sweep(
                                  RiskProfile(np.arange(40.0), values,
                                              values, values), "R")[0])


def test_rank_matches_references_on_symmetric_sweeps():
    # K30, C8 and the star's leaves are tied by symmetry up to noise
    cycle = Graph(8, [(i, (i + 1) % 8) for i in range(8)])
    for g in (generate_complete(30), cycle, generate_star(9)):
        prof = sweep(g)
        for m in "RCT":
            values = prof.measure(m)
            ranks, std = per_row_ranking_sweep(prof, m)
            rs = ranking_sweep(prof, measure=m)
            assert rs.rank_matrix.dtype == ranks.dtype
            assert np.array_equal(rs.rank_matrix, ranks)
            assert np.array_equal(rs.per_node_std, std)
            for tol in TIE_TOLS:
                want = np.vstack([tie_snap_loop_ranks(row, tol)
                                  for row in values])
                assert np.array_equal(rank(values, tol), want)
            # delta_rank ties values within 1e-9, so the noise between
            # symmetric nodes shifts no rank
            assert np.array_equal(
                delta_rank(values[[0, -1]]),
                tie_snap_loop_ranks(values[0], 1e-9)
                - tie_snap_loop_ranks(values[-1], 1e-9))


def test_symmetric_nodes_tie_exactly_in_r():
    # R sums each entry's series in a fixed order, so nodes mapped onto
    # each other by a symmetry (every node of K30 and C8, the leaves of
    # S9 and S70) have equal R in every grid row, on relabelled copies too
    cycle = Graph(8, [(i, (i + 1) % 8) for i in range(8)])
    rng = np.random.default_rng(26)
    for g, sym in ((generate_complete(30), np.arange(30)),
                   (cycle, np.arange(8)),
                   (generate_star(9), np.arange(1, 9)),
                   (generate_star(70), np.arange(1, 70))):
        perms = [np.arange(g.n)] + [rng.permutation(g.n) for _ in range(4)]
        for perm in perms:
            prof = sweep(relabel(g, perm))
            r = prof.R[:, perm[sym]]
            assert (r == r[:, :1]).all()
            assert (ranking_sweep(prof, "R").per_node_std == 0.0).all()


def test_spearman_textbook_cases():
    x = np.arange(10.0)
    assert spearman(x, x) == pytest.approx(1.0)
    assert spearman(x, -x) == pytest.approx(-1.0)
    # hand case: d^2 formula for untied data
    y = np.array([2.0, 1.0, 4.0, 3.0])
    dx = rankdata(-np.arange(4.0))
    dy = rankdata(-y)
    d2 = ((dx - dy) ** 2).sum()
    want = 1 - 6 * d2 / (4 * 15)
    assert spearman(np.arange(4.0), y) == pytest.approx(want)


def test_spearman_constant_is_nan():
    assert np.isnan(spearman(np.ones(5), np.arange(5.0)))


def test_spearman_with_ties_matches_pearson_of_ranks():
    x = np.array([1.0, 2.0, 2.0, 3.0, 5.0])
    y = np.array([0.5, 0.5, 2.0, 1.0, 4.0])
    rx = rankdata(-x)
    ry = rankdata(-y)
    want = np.corrcoef(rx, ry)[0, 1]
    assert spearman(x, y) == pytest.approx(want, abs=1e-12)


def test_ranking_sweep_stats():
    g = generate_er(20, 0.2, seed=11, require_connected=True)
    prof = sweep(g)
    rs = ranking_sweep(prof, measure="C")
    assert rs.rank_matrix.shape == (100, 20)
    for row in rs.rank_matrix:
        assert sorted(row) == list(range(1, 21))
    want_std = rs.rank_matrix.std(axis=0, ddof=0)
    assert np.allclose(rs.per_node_std, want_std)


def test_frozen_ranking_has_zero_std():
    # weighted star with distinct leaf weights: the ranking never moves,
    # so every rank path is constant and its std is exactly zero
    g = Graph(4, [(0, 1, 3.0), (0, 2, 2.0), (0, 3, 1.0)])
    prof = sweep(g)
    for m in "RCT":
        rs = ranking_sweep(prof, measure=m)
        assert (rs.rank_matrix == [1, 2, 3, 4]).all()
        assert np.array_equal(rs.per_node_std, np.zeros(4))


def test_star_hub_always_first():
    # unweighted star: the leaves are exact ties, but the hub leads the
    # ranking at every zeta
    prof = sweep(generate_star(6))
    rs = ranking_sweep(prof, measure="R")
    assert (rs.rank_matrix[:, 0] == 1).all()
    assert rs.per_node_std[0] == 0.0
    # leaves agree to tie tolerance at every grid point
    leaf_spread = prof.R[:, 1:].max(axis=1) - prof.R[:, 1:].min(axis=1)
    assert (leaf_spread <= 1e-10 * prof.R[:, 1:].max(axis=1)).all()


# -- limit rankings -------------------------------------------------------------


def test_limit_rankings_star():
    # the hub leads at both ends of zeta: by degree as zeta -> 0 and by
    # the Perron entry as zeta -> infinity
    ranks = ranking_sweep(sweep(generate_star(5), [1e-6, 50.0])).rank_matrix
    assert (ranks[:, 0] == 1).all()


def test_limit_rankings_bracket_sweep():
    # tiny zeta ranking refines the degree ranking; huge zeta follows the
    # Perron vector
    g = generate_er(40, 0.15, seed=21, require_connected=True)
    eig_ranks = rank(np.abs(_eigensystem(g.adjacency())[1][:, 0]))
    r_small = expm(g, 1e-6, np.ones(g.n))
    k = g.degrees()
    # refinement: any strict degree gap is preserved at small zeta
    gap = np.subtract.outer(k, k)
    small = np.subtract.outer(r_small, r_small)
    assert (np.sign(small[gap > 0]) > 0).all()
    r_big, _ = expm(g, 60.0, np.ones(g.n), scaled=True)
    assert np.array_equal(rank(r_big), eig_ranks)
