"""Tests for the market-window and board-interlock pipelines."""

import datetime
import heapq
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.stats import ttest_rel

from riskcent.centrality import sweep
from riskcent.finance import (
    MarketWindow,
    ReturnsPanel,
    build_market_windows,
    correlation_and_distance,
    delta_rank,
    lda_fit,
    load_returns,
    load_svc,
    mst,
    rolling_windows,
    save_returns,
    svc_trend,
    window_rank_report,
)
from riskcent.graph import Graph, load_memberships


def business_days(start, count):
    out = []
    d = start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += datetime.timedelta(days=1)
    return out


def make_panel(data, start=datetime.date(2001, 1, 1), assets=None):
    data = np.asarray(data, dtype=float)
    if assets is None:
        assets = ["A%d" % j for j in range(data.shape[1])]
    return ReturnsPanel(business_days(start, data.shape[0]), assets, data)


def prufer_decode(seq, n):
    """Labeled tree for a Prufer sequence; bijective over n^(n-2) trees."""
    deg = np.ones(n, dtype=int)
    for s in seq:
        deg[s] += 1
    leaves = [i for i in range(n) if deg[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        deg[s] -= 1
        if deg[s] == 1:
            heapq.heappush(leaves, s)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


# -- returns panel ---------------------------------------------------------


def test_load_returns_toy(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text(
        "date,AAA,BBB,CCC\n"
        "2001-01-01,0.01,-0.02,0.005\n"
        "2001-01-02,0.00,0.01,-0.01\n"
        "2001-01-03,0.02,0.00,0.00\n"
        "2001-01-04,-0.01,0.03,0.01\n"
        "2001-01-05,0.01,0.01,0.02\n")
    panel = load_returns(str(path))
    assert panel.returns.shape == (5, 3)
    assert panel.assets == ["AAA", "BBB", "CCC"]
    assert panel.dates[0] == datetime.date(2001, 1, 1)
    assert panel.returns[0, 1] == -0.02


def test_load_returns_missing_cells(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("date,A,B\n2001-01-01,0.1,\n2001-01-02,NaN,0.2\n")
    panel = load_returns(str(path))
    assert np.isnan(panel.returns[0, 1])
    assert np.isnan(panel.returns[1, 0])
    assert panel.returns[1, 1] == 0.2


def test_load_returns_sorts_rows(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("date,A,B\n2001-01-03,3,30\n2001-01-01,1,10\n"
                    "2001-01-02,2,20\n")
    panel = load_returns(str(path))
    assert [d.day for d in panel.dates] == [1, 2, 3]
    assert panel.returns[:, 0].tolist() == [1.0, 2.0, 3.0]


def test_load_returns_cell_forms(tmp_path):
    # blank cells and NaN in any case are missing; whitespace around a
    # number and exponent notation parse as float() reads them
    path = tmp_path / "r.csv"
    path.write_text(
        "date, A ,B,C\n"
        "2001-01-04, 1e-3 ,\t-2.5E+01,NAN\n"
        "2001-01-02,,  ,nan\n"
        " 2001-01-03 ,NaN, 0.25 ,4\n")
    panel = load_returns(str(path))
    assert panel.assets == ["A", "B", "C"]
    assert [d.day for d in panel.dates] == [2, 3, 4]
    assert panel.returns.dtype == np.float64
    want = np.array([[np.nan, np.nan, np.nan],
                     [np.nan, 0.25, 4.0],
                     [1e-3, -25.0, np.nan]])
    assert np.array_equal(panel.returns, want, equal_nan=True)


def test_load_returns_unparseable_cell_message(tmp_path):
    # the first cell float() rejects is named, as written, with its asset
    path = tmp_path / "r.csv"
    path.write_text("date,A,B,C\n2001-01-01,1,2,3\n"
                    "2001-01-02,0.5, oops ,1.2.3\n")
    with pytest.raises(ValueError) as err:
        load_returns(str(path))
    assert str(err.value) == "%s:3: unparseable return ' oops ' for B" % path


def test_load_returns_reports_physical_line_numbers(tmp_path):
    # a quoted header cell that holds a newline spans two lines, so the
    # bad cell sits on physical line 4; below a blank line, the short row
    # sits on line 5
    path = tmp_path / "r.csv"
    path.write_text('date,"A\nfund",B\n2001-01-01,1,2\n2001-01-02,3,oops\n')
    with pytest.raises(ValueError) as err:
        load_returns(str(path))
    assert str(err.value) == "%s:4: unparseable return 'oops' for B" % path
    path.write_text('date,"A\nfund",B\n2001-01-01,1,2\n\n2001-01-03,1\n')
    with pytest.raises(ValueError, match=r":5: expected 3 cells"):
        load_returns(str(path))


@pytest.mark.parametrize("header,column", [("date,,B", 2),
                                           ("date,A, ,C", 3)])
def test_load_returns_blank_asset_label(tmp_path, header, column):
    # an empty or blank header cell used to load as the asset ''
    path = tmp_path / "r.csv"
    path.write_text("\n%s\n2001-01-01,1,2,3\n" % header)
    with pytest.raises(ValueError) as err:
        load_returns(str(path))
    assert str(err.value) == ("%s:2: header column %d has no asset label"
                              % (path, column))


def test_returns_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(9, 4))
    data[2, 1] = np.nan
    data[7, 3] = np.nan
    panel = make_panel(data)
    path = tmp_path / "rt.csv"
    save_returns(panel, str(path))
    assert load_returns(str(path)) == panel


def test_load_returns_errors(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("date,A,B\n2001-01-01,1,2\n2001-01-01,3,4\n")
    with pytest.raises(ValueError, match="duplicate date"):
        load_returns(str(path))
    path.write_text("date,A\n2001-01-01,1\n")
    with pytest.raises(ValueError, match="at least 2 asset"):
        load_returns(str(path))
    path.write_text("date,A,B\nnot-a-date,1,2\n")
    with pytest.raises(ValueError, match="unparseable date"):
        load_returns(str(path))
    path.write_text("date,A,B\n2001-01-01,1,oops\n")
    with pytest.raises(ValueError, match="unparseable return"):
        load_returns(str(path))
    path.write_text("date,A,B\n2001-01-01,1\n")
    with pytest.raises(ValueError, match="expected 3 cells"):
        load_returns(str(path))
    path.write_text("date,A,B\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_returns(str(path))


def test_duplicate_assets_rejected(tmp_path):
    # a name given twice is named with both of its positions, by the panel
    # and so by the loader, before market writes anything
    from riskcent.cli import main

    days = business_days(datetime.date(2001, 1, 1), 3)
    with pytest.raises(ValueError) as err:
        ReturnsPanel(days, ["A", "B", "A", "B"], np.zeros((3, 4)))
    assert str(err.value) == ("asset 'A' is given twice, at asset columns 0 "
                              "and 2")
    path = tmp_path / "r.csv"
    path.write_text("date,S000,S001,S000\n2001-01-01,1,2,3\n")
    with pytest.raises(ValueError, match="'S000' is given twice, at asset "
                                         "columns 0 and 2"):
        load_returns(str(path))
    out = tmp_path / "out"
    assert main(["market", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_panel_validation():
    days = business_days(datetime.date(2001, 1, 1), 3)
    with pytest.raises(ValueError, match="at least 2 assets"):
        ReturnsPanel(days, ["A"], np.zeros((3, 1)))
    with pytest.raises(ValueError, match="shape"):
        ReturnsPanel(days, ["A", "B"], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="ascending"):
        ReturnsPanel([days[0], days[2], days[1]], ["A", "B"], np.zeros((3, 2)))


# -- rolling windows -------------------------------------------------------


def test_windows_one_year():
    rng = np.random.default_rng(1)
    panel = make_panel(rng.normal(size=(260, 3)))  # Jan..Dec 2001 weekdays
    assert panel.dates[-1].year == 2001 and panel.dates[-1].month == 12
    windows = rolling_windows(panel, width_months=6)
    assert len(windows) == 7
    assert windows[0].window_id == "1-2001"
    assert windows[-1].window_id == "7-2001"
    assert windows[0].dates[0] == panel.dates[0]
    assert windows[0].dates[-1].month == 6


def test_windows_seventeen_years():
    months = []
    day = datetime.date(2001, 1, 15)
    while day <= datetime.date(2017, 12, 15):
        months.append(day)
        nxt = day.year * 12 + day.month  # zero-based index of next month
        day = datetime.date(nxt // 12, nxt % 12 + 1, 15)
    assert len(months) == 204
    rng = np.random.default_rng(2)
    panel = ReturnsPanel(months, ["A", "B"], rng.normal(size=(204, 2)))
    windows = rolling_windows(panel, width_months=6)
    assert len(windows) == 199
    assert windows[0].window_id == "1-2001"
    assert windows[-1].window_id == "7-2017"


def test_windows_step_and_width():
    rng = np.random.default_rng(3)
    panel = make_panel(rng.normal(size=(260, 2)))
    windows = rolling_windows(panel, width_months=3, step_months=3)
    assert [w.window_id for w in windows] == ["1-2001", "4-2001",
                                              "7-2001", "10-2001"]


def test_windows_min_obs_drops_asset():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(40, 3))
    data[:20, 1] = np.nan  # asset 1 misses half the window
    panel = make_panel(data)
    (window,) = rolling_windows(panel, width_months=2, min_obs=0.9)
    assert window.assets == ["A0", "A2"]
    full = rolling_windows(panel, width_months=2, min_obs=0.4)[0]
    assert full.assets == ["A0", "A1", "A2"]


def test_windows_view_the_panel_until_read():
    # a window holds a view of the panel's rows and the kept column
    # indices; its returns, NaN included, are copied out on each read
    rng = np.random.default_rng(4)
    data = rng.normal(size=(70, 3))
    data[:20, 1] = np.nan  # asset 1 misses a third of the first window
    data[3, 0] = np.nan
    panel = make_panel(data)
    windows = rolling_windows(panel, width_months=2, min_obs=0.9)
    lo = 0
    for window in windows:
        lo = panel.dates.index(window.dates[0])
        rows = data[lo:lo + len(window.dates)]
        keep = [k for k in range(3)
                if np.isfinite(rows[:, k]).sum() >= 0.9 * len(rows)]
        assert window.assets == ["A%d" % k for k in keep]
        assert np.shares_memory(window.rows, panel.returns)
        assert np.array_equal(window.returns, rows[:, keep], equal_nan=True)
        assert not np.shares_memory(window.returns, panel.returns)
    assert windows[0].assets == ["A0", "A2"] and lo > 0


def test_windows_errors():
    rng = np.random.default_rng(5)
    panel = make_panel(rng.normal(size=(20, 2)))  # one month of data
    with pytest.raises(ValueError, match="shorter than"):
        rolling_windows(panel, width_months=6)
    with pytest.raises(ValueError):
        rolling_windows(panel, width_months=0)
    with pytest.raises(ValueError):
        rolling_windows(panel, width_months=1, min_obs=1.5)
    # interior month with no observations at all
    days = [datetime.date(2001, 1, 2), datetime.date(2001, 1, 3),
            datetime.date(2001, 3, 2)]
    gappy = ReturnsPanel(days, ["A", "B"], rng.normal(size=(3, 2)))
    with pytest.raises(ValueError, match="2-2001 contains no observations"):
        rolling_windows(gappy, width_months=1)
    allnan = make_panel(np.full((40, 2), np.nan))
    with pytest.raises(ValueError, match="no asset"):
        rolling_windows(allnan, width_months=2)


# -- correlations and distances ---------------------------------------------


def test_correlation_exact_values():
    x = np.array([1.0, -1.0, 1.0, -1.0])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    data = np.column_stack([x, 2.0 * x, -x, y])
    rho, dist, kept = correlation_and_distance(data[:, [0, 2, 3]])
    assert kept.tolist() == [0, 1, 2]
    assert rho[0, 1] == pytest.approx(-1.0, abs=1e-15)
    assert rho[0, 2] == pytest.approx(0.0, abs=1e-15)
    assert dist[0, 1] == pytest.approx(2.0, abs=1e-12)
    assert dist[0, 2] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert np.all(dist.diagonal() == 0.0)
    # 2x correlates with x to exactly 1, distance 0: merged into x
    with pytest.warns(UserWarning, match="column 1 is at distance 0 from "
                      "column 0"):
        merged, _, kept = correlation_and_distance(data)
    assert kept.tolist() == [0, 2, 3]
    assert np.array_equal(merged, rho)


def test_correlation_matches_numpy_when_complete():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(30, 5))
    rho, dist, kept = correlation_and_distance(data)
    assert np.allclose(rho, np.corrcoef(data.T), atol=1e-14)
    assert np.all(dist >= 0.0) and np.all(dist <= 2.0)


def test_correlation_pairwise_complete_matches_per_pair():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(60, 4))
    mask = rng.random(data.shape) < 0.2
    data[mask] = np.nan
    # the only entries past [-1, 1] here are diagonal rounding drift, which
    # the diagonal of 1 replaces, so no clamp may be reported
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho, dist, kept = correlation_and_distance(data)
    assert kept.size == 4
    for i in range(4):
        for j in range(i + 1, 4):
            both = ~np.isnan(data[:, i]) & ~np.isnan(data[:, j])
            ref = np.corrcoef(data[both, i], data[both, j])[0, 1]
            assert rho[i, j] == pytest.approx(ref, abs=1e-10)
            assert rho[j, i] == rho[i, j]


def test_correlation_drops_constant_asset():
    rng = np.random.default_rng(8)
    data = rng.normal(size=(20, 3))
    data[:, 1] = 7.0
    with pytest.warns(UserWarning, match="constant or empty"):
        rho, dist, kept = correlation_and_distance(data)
    assert kept.tolist() == [0, 2]
    assert rho.shape == (2, 2)


def test_correlation_drops_asset_constant_at_a_tenth():
    # np.full(126, 0.1).std() is 1.4e-17, not 0: the column must still be
    # dropped, and the other columns' correlations stay as without it
    rng = np.random.default_rng(12)
    data = rng.normal(size=(126, 4))
    data[rng.random(data.shape) < 0.1] = np.nan
    data[:, 2] = 0.1
    with pytest.warns(UserWarning) as record:
        rho, dist, kept = correlation_and_distance(data)
    assert [str(w.message) for w in record] == [
        "asset column 2 is constant or empty in this window; dropped"]
    assert kept.tolist() == [0, 1, 3]
    want, _, _ = correlation_and_distance(data[:, [0, 1, 3]])
    assert np.array_equal(rho, want)


def test_correlation_merges_zero_distance_pair_into_first():
    # integer columns with mean 0 over 16 rows correlate to exactly 1, so
    # columns 1 and 3 are at distance 0 and column 3 goes
    twin = np.array([3, -1, 2, -4, 1, 0, -2, 1, 5, -3, 2, -1, 0, -2, 1, -2.0])
    data = np.random.default_rng(5).normal(size=(16, 5))
    data[:, 1] = data[:, 3] = twin
    data[2, 4] = np.nan
    with pytest.warns(UserWarning) as record:
        rho, dist, kept = correlation_and_distance(data)
    assert [str(w.message) for w in record] == [
        "asset column 3 is at distance 0 from column 1 in this window; "
        "dropped"]
    assert kept.tolist() == [0, 1, 2, 4]
    want_rho, want_dist, _ = correlation_and_distance(data[:, [0, 1, 2, 4]])
    assert np.array_equal(rho, want_rho)
    assert np.array_equal(dist, want_dist)
    assert (dist[np.triu_indices(4, k=1)] > 0.0).all()
    # three copies merge into the first; two copies alone leave one asset
    data[:, 0] = twin
    with pytest.warns(UserWarning):
        _, _, kept = correlation_and_distance(data)
    assert kept.tolist() == [0, 2, 4]
    with pytest.warns(UserWarning), \
            pytest.raises(ValueError, match="fewer than 2 distinct"):
        correlation_and_distance(data[:, [1, 3]])


def test_correlation_overlap_too_small():
    data = np.full((6, 2), np.nan)
    data[:3, 0] = [1.0, 2.0, 1.5]
    data[3:, 1] = [3.0, 1.0, 2.0]
    with pytest.raises(ValueError, match="share only 0 observations"):
        correlation_and_distance(data)


def test_correlation_rejects_thin_input():
    with pytest.raises(ValueError):
        correlation_and_distance(np.zeros(5))
    with pytest.raises(ValueError):
        correlation_and_distance(np.zeros((5, 1)))
    data = np.column_stack([np.full(4, 1.0), np.full(4, 2.0),
                            [0.0, 1.0, 0.5, 0.2]])
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError, match="fewer than 2"):
            correlation_and_distance(data)


# -- minimum spanning tree ---------------------------------------------------


def test_mst_three_assets():
    d = np.array([[0.0, 0.1, 0.3],
                  [0.1, 0.0, 0.2],
                  [0.3, 0.2, 0.0]])
    tree = mst(d, labels=["x", "y", "z"])
    assert tree.m == 2
    got = {(int(a), int(b)) for a, b, _ in tree.edge_array()}
    assert got == {(0, 1), (1, 2)}
    assert tree.labels == ["x", "y", "z"]


def test_mst_tree_contract():
    rng = np.random.default_rng(9)
    for n in (2, 5, 9):
        m = rng.uniform(0.2, 1.8, size=(n, n))
        d = (m + m.T) / 2.0
        np.fill_diagonal(d, 0.0)
        tree = mst(d)
        assert tree.m == n - 1
        assert tree.is_connected()


def test_mst_matches_exhaustive_minimum():
    rng = np.random.default_rng(10)
    n = 6
    seqs = list(itertools.product(range(n), repeat=n - 2))
    for _ in range(8):
        m = rng.uniform(0.1, 2.0, size=(n, n))
        d = (m + m.T) / 2.0
        np.fill_diagonal(d, 0.0)
        best = min(sum(d[a, b] for a, b in prufer_decode(s, n)) for s in seqs)
        total = mst(d).edge_array()[:, 2].sum()
        assert total == pytest.approx(best, rel=1e-12)


def test_mst_deterministic_tie_break():
    d = np.ones((5, 5))
    np.fill_diagonal(d, 0.0)
    tree = mst(d)
    got = {(int(a), int(b)) for a, b, _ in tree.edge_array()}
    assert got == {(0, 1), (0, 2), (0, 3), (0, 4)}


def test_mst_tie_rule_exhaustive():
    # with heavy ties, the tree must be the one Kruskal builds over the
    # (weight, u, v) order: the unique tree of least position-sum there
    rng = np.random.default_rng(12)
    n = 6
    trees = np.sort([prufer_decode(s, n) for s in
                     itertools.product(range(n), repeat=n - 2)], axis=2)
    iu, ju = np.triu_indices(n, k=1)
    for _ in range(200):
        w = rng.choice([0.25, 0.5, 0.75], size=iu.size)
        d = np.zeros((n, n))
        d[iu, ju] = d[ju, iu] = w
        position = np.zeros((n, n), dtype=int)
        position[iu, ju] = np.argsort(np.lexsort((ju, iu, w)))
        sums = position[trees[..., 0], trees[..., 1]].sum(axis=1)
        best = np.argsort(sums)[:2]
        assert sums[best[0]] < sums[best[1]]
        got = {(int(a), int(b)) for a, b, _ in mst(d).edge_array()}
        assert got == {(int(a), int(b)) for a, b in trees[best[0]]}


def test_mst_rejects_nonpositive_distance():
    d = np.full((4, 4), 0.5)
    np.fill_diagonal(d, 0.0)
    for bad in (0.0, -0.25):
        d[1, 3] = d[3, 1] = bad
        with pytest.raises(ValueError, match="between 1 and 3"):
            mst(d)


def test_mst_constant_shift_invariance():
    rng = np.random.default_rng(11)
    m = rng.uniform(0.1, 1.5, size=(7, 7))
    d = (m + m.T) / 2.0
    np.fill_diagonal(d, 0.0)
    shifted = d + 0.4
    np.fill_diagonal(shifted, 0.0)
    before = {(int(a), int(b)) for a, b, _ in mst(d).edge_array()}
    after = {(int(a), int(b)) for a, b, _ in mst(shifted).edge_array()}
    assert before == after


def test_mst_non_finite_entries():
    d = np.array([[0.0, np.inf, 0.5],
                  [np.inf, 0.0, 0.4],
                  [0.5, 0.4, 0.0]])
    tree = mst(d)  # skips the missing edge, still spans
    got = {(int(a), int(b)) for a, b, _ in tree.edge_array()}
    assert got == {(0, 2), (1, 2)}
    d[0, 2] = d[2, 0] = np.inf
    d[0, 1] = d[1, 0] = np.inf
    with pytest.raises(ValueError, match="disconnected"):
        mst(d)


def test_mst_input_validation():
    with pytest.raises(ValueError):
        mst(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        mst(np.zeros((1, 1)))
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        mst(bad)


# -- market windows ----------------------------------------------------------


def window_from_returns(data, seed_label="1-2001"):
    panel = make_panel(np.asarray(data, dtype=float))
    return rolling_windows(panel, width_months=6)[0]


def test_build_market_window():
    rng = np.random.default_rng(12)
    f = rng.normal(size=(130, 1))
    data = 0.6 * f + 0.8 * rng.normal(size=(130, 5))
    mw = build_market_windows([window_from_returns(data)])[0]
    assert mw.window_id == "1-2001"
    assert mw.tree.m == 4
    assert mw.tree.labels == mw.assets
    assert mw.rho.shape == (5, 5)
    assert np.all(mw.dist >= 0.0) and np.all(mw.dist <= 2.0)


def test_window_report_star_hub_is_stable():
    tree = Graph(5, [(0, 1, 2.0), (0, 2, 1.5), (0, 3, 1.0), (0, 4, 0.5)],
                 labels=list("abcde"))
    mw = MarketWindow("1-2001", list("abcde"), np.eye(5), np.eye(5), tree)
    report = window_rank_report(mw)
    assert np.all(report.rank_matrix[:, 0] == 1)
    # distinct leaf weights freeze the whole ranking across the grid
    assert np.all(report.per_node_std == 0.0)


def test_window_report_inverse_weight_mode():
    tree = Graph(3, [(0, 1, 0.5), (1, 2, 2.0)], labels=list("abc"))
    mw = MarketWindow("1-2001", list("abc"), np.eye(3), np.eye(3), tree)
    by_dist = window_rank_report(mw)
    by_inv = window_rank_report(mw, weight_mode="inverse")
    assert np.all(by_dist.rank_matrix[:, 1] == 1)
    assert np.all(by_inv.rank_matrix[:, 1] == 1)
    # the heavy edge flips sides under reciprocal weights
    assert np.all(by_dist.rank_matrix[:, 2] == 2)
    assert np.all(by_inv.rank_matrix[:, 0] == 2)
    with pytest.raises(ValueError):
        window_rank_report(mw, weight_mode="sqrt")


def test_window_report_crisis_more_volatile_than_diffuse():
    # one tight cluster with graded loadings vs weakly coupled noise;
    # frozen seed, deterministic pipeline
    rng = np.random.default_rng(0)
    t, n = 126, 12
    f = rng.normal(size=t)
    load = np.linspace(0.95, 0.55, n)
    crisis = load * f[:, None] + 0.25 * rng.normal(size=(t, n))
    diffuse = 0.15 * f[:, None] + 1.0 * rng.normal(size=(t, n))
    stds = []
    for data in (crisis, diffuse):
        mw = build_market_windows([window_from_returns(data)])[0]
        stds.append(window_rank_report(mw).per_node_std.mean())
    assert stds[0] > stds[1]


def test_window_reports_feed_paired_t_test():
    rng = np.random.default_rng(14)
    t, n = 126, 8
    f = rng.normal(size=t)
    first = 0.8 * f[:, None] + 0.3 * rng.normal(size=(t, n))
    second = 0.1 * f[:, None] + rng.normal(size=(t, n))
    stds = []
    for data in (first, second):
        mw = build_market_windows([window_from_returns(data)])[0]
        stds.append(window_rank_report(mw).per_node_std)
    res = ttest_rel(stds[0], stds[1])
    assert res.df == n - 1
    assert 0.0 < res.pvalue <= 1.0


# -- delta rank --------------------------------------------------------------


def test_delta_rank_sums_to_zero():
    rng = np.random.default_rng(15)
    from riskcent.graph import generate_er

    grid = np.array([0.01, 0.5, 1.0])
    for trial in range(5):
        g = generate_er(12, 0.3, seed=100 + trial, require_connected=True)
        edges = [(int(a), int(b), float(rng.uniform(0.5, 2.0)))
                 for a, b, _ in g.edge_array()]
        prof = sweep(Graph(12, edges), grid)
        dr = delta_rank(prof)
        assert dr.sum() == 0


def test_delta_rank_complete_graph_is_flat():
    from riskcent.graph import generate_complete

    prof = sweep(generate_complete(4), np.array([0.01, 1.0]))
    assert np.all(delta_rank(prof) == 0)


def test_delta_rank_engineered_swap():
    # weighted path whose ends trade places between the two regimes
    g = Graph(4, [(0, 1, 1.0), (1, 2, 1.7), (2, 3, 2.3)])
    prof = sweep(g, np.array([0.01, 1.0]))
    dr = delta_rank(prof)
    assert dr.tolist() == [0, -1, 0, 1]


def test_delta_rank_needs_grid_points():
    g = Graph(4, [(0, 1, 1.0), (1, 2, 1.7), (2, 3, 2.3)])
    prof = sweep(g, np.array([0.01, 1.0]))
    with pytest.raises(ValueError, match="not on the profile grid"):
        delta_rank(prof, zeta_hi=0.7)


# -- linear discriminant ------------------------------------------------------


def test_lda_matches_gaussian_log_ratio():
    rng = np.random.default_rng(16)
    x = np.concatenate([rng.normal(1.5, 1.0, size=40),
                        rng.normal(-0.5, 1.0, size=25)])
    y = np.concatenate([np.ones(40, dtype=int), -np.ones(25, dtype=int)])
    model = lda_fit(x, y)
    # independent oracle: the equal-variance Gaussian posterior log-ratio
    pos = y == 1
    mu_p, mu_n = x[pos].mean(), x[~pos].mean()
    s2 = (((x[pos] - mu_p) ** 2).sum()
          + ((x[~pos] - mu_n) ** 2).sum()) / (x.size - 2)
    prior = math.log(pos.sum() / (~pos).sum())
    for t in np.linspace(-4.0, 4.0, 17):
        ref = prior + ((t - mu_n) ** 2 - (t - mu_p) ** 2) / (2.0 * s2)
        assert model.intercept + model.slope * t == pytest.approx(
            ref, rel=1e-10, abs=1e-10)


def test_lda_symmetric_means_give_prior_intercept():
    x = np.array([1.0, 3.0, -1.0, -3.0, -2.0, -2.0])
    y = np.array([1, 1, -1, -1, -1, -1])
    model = lda_fit(x, y)
    assert model.slope == pytest.approx(4.0, rel=1e-12)
    assert model.intercept == pytest.approx(math.log(0.5), rel=1e-12)


def test_lda_perfect_separation():
    rng = np.random.default_rng(17)
    x = np.concatenate([10.0 + 0.1 * rng.normal(size=12),
                        -10.0 + 0.1 * rng.normal(size=9)])
    y = np.concatenate([np.ones(12, dtype=int), -np.ones(9, dtype=int)])
    model = lda_fit(x, y)
    assert model.accuracy == 1.0
    assert (model.tp, model.fn, model.fp, model.tn) == (12, 0, 0, 9)
    pred = np.where(model.intercept + model.slope * x > 0.0, 1, -1)
    assert np.array_equal(pred, y)


def test_lda_confusion_counts_sum():
    rng = np.random.default_rng(18)
    x = np.concatenate([rng.normal(0.4, 1.0, size=30),
                        rng.normal(-0.4, 1.0, size=30)])
    y = np.concatenate([np.ones(30, dtype=int), -np.ones(30, dtype=int)])
    model = lda_fit(x, y)
    assert model.tp + model.fn + model.fp + model.tn == 60
    assert model.accuracy == (model.tp + model.tn) / 60.0
    assert 0.0 < model.accuracy <= 1.0
    pred = np.where(model.intercept + model.slope * x > 0.0, 1, -1)
    assert (pred == y).sum() == model.tp + model.tn


def test_lda_errors():
    with pytest.raises(ValueError, match="both classes"):
        lda_fit([1.0, 2.0], [1, 1])
    with pytest.raises(ValueError, match="zero pooled variance"):
        lda_fit([2.0, 2.0, 2.0], [1, -1, 1])
    with pytest.raises(ValueError, match="labels"):
        lda_fit([1.0, 2.0], [1, 0])
    with pytest.raises(ValueError):
        lda_fit([1.0, 2.0], [1])


# -- outcome trends -----------------------------------------------------------


def test_svc_trend_directions():
    data = {
        "grow": {1999: 1.0, 2000: 2.0, 2001: 3.0, 2002: 4.0, 2003: 5.0},
        "shrink": {1999: 5.0, 2000: 4.0, 2001: 3.0, 2002: 2.0, 2003: 1.0},
    }
    out = svc_trend(data)
    assert out["grow"].rho < 0.0
    assert out["grow"].label == 1
    assert out["shrink"].rho > 0.0
    assert out["shrink"].label == -1


def test_svc_trend_drops_weak_correlation():
    years = np.arange(1999, 2004)
    recip = 1.0 / years
    r = recip - recip.mean()
    w = np.array([0.3, -0.1, 0.4, 0.0, -0.6])
    orth = w - (w @ r / (r @ r)) * r  # exactly uncorrelated with 1/year
    data = {
        "flat": dict(zip(years.tolist(), orth.tolist())),
        "grow": {1999: 1.0, 2000: 2.0, 2001: 3.0, 2002: 4.0, 2003: 5.0},
    }
    out = svc_trend(data, threshold=0.05)
    assert "flat" not in out
    assert "grow" in out


def test_svc_trend_errors():
    with pytest.raises(ValueError, match="need >= 3"):
        svc_trend({"short": {1999: 1.0, 2000: 2.0}})
    with pytest.raises(ValueError, match="constant"):
        svc_trend({"flat": {1999: 1.0, 2000: 1.0, 2001: 1.0}})
    for threshold in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            svc_trend({"grow": {1999: 1.0, 2000: 2.0, 2001: 3.0}},
                      threshold=threshold)


def test_load_svc(tmp_path):
    path = tmp_path / "svc.csv"
    path.write_text("company,year,value\nacme,1999,1.5\nacme,2000,2.5\n"
                    "zenith,1999,-0.5\n")
    data = load_svc(str(path))
    assert data == {"acme": {1999: 1.5, 2000: 2.5}, "zenith": {1999: -0.5}}
    path.write_text("acme,1999,1.5\nacme,1999,2.0\n")
    with pytest.raises(ValueError, match="duplicate year"):
        load_svc(str(path))
    path.write_text("acme,notayear,1.0\n")
    with pytest.raises(ValueError, match="unparseable"):
        load_svc(str(path))
    path.write_text("\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_svc(str(path))


def test_load_svc_reads_quoted_names_back(tmp_path):
    from riskcent.centrality import write_rows
    path = tmp_path / "svc.csv"
    write_rows(str(path), ["company", "year", "value"],
               [["Acme, Inc.", 1999, 1.5], ['Bolt "B"', 2000, -0.25]])
    assert load_svc(str(path)) == {"Acme, Inc.": {1999: 1.5},
                                   'Bolt "B"': {2000: -0.25}}
    path.write_text('company,year,value\n"Acme, Inc.",1999\n')
    with pytest.raises(ValueError, match=r"svc.csv:2: expected"):
        load_svc(str(path))


def test_text_inputs_after_a_utf8_bom(tmp_path):
    svc = tmp_path / "svc.csv"
    svc.write_text("company,year,value\nacme,1999,1.5\n",
                   encoding="utf-8-sig")
    assert load_svc(str(svc)) == {"acme": {1999: 1.5}}
    returns = tmp_path / "r.csv"
    returns.write_text("date,A,B\n2001-01-01,0.1,0.2\n",
                       encoding="utf-8-sig")
    assert load_returns(str(returns)).assets == ["A", "B"]


CSV_INPUTS = [
    (load_memberships, "company,director\nAcme,smith\nBolt,smith\n"),
    (load_svc, "Company,Year,Value\nacme,1999,1.5\nacme,2000,2.5\n"),
    (load_returns, "date,A,B\n2001-01-01,0.1,0.2\n2001-01-02,,0.3\n"),
]


@pytest.mark.parametrize("load, text", CSV_INPUTS,
                         ids=["memberships", "svc", "returns"])
def test_csv_header_is_the_first_non_blank_row(tmp_path, load, text):
    plain = tmp_path / "plain.csv"
    plain.write_text(text)
    want = load(str(plain))
    path = tmp_path / "blank.csv"
    for prefix, encoding in (("\n", "utf-8"), ("\n \n", "utf-8-sig")):
        path.write_text(prefix + text, encoding=encoding)
        assert load(str(path)) == want
    # a bad row is named by its physical line
    path.write_text("\n" + text + "x\n", encoding="utf-8-sig")
    with pytest.raises(ValueError, match="blank.csv:5: "):
        load(str(path))


@pytest.mark.parametrize("load, text", CSV_INPUTS,
                         ids=["memberships", "svc", "returns"])
def test_csv_read_errors_name_path_and_line(tmp_path, load, text):
    path = tmp_path / "bad.csv"
    head, _, tail = text.encode().partition(b"\n")
    path.write_bytes(head + b"\n\xff" + tail[1:])
    with pytest.raises(ValueError, match="bad.csv:2: 'utf-8' codec can't "
                                         "decode byte 0xff"):
        load(str(path))
    # past csv's field limit of 131072 characters
    path.write_text(text + "x" * 200_000 + "\n")
    with pytest.raises(ValueError, match="bad.csv:4: field larger than "
                                         "field limit"):
        load(str(path))
