"""Acceptance suite: one test per release criterion.

Each test pins the published anchor values and tolerances for one
criterion, so `pytest -v tests/test_acceptance.py` reads as a pass/fail
line per criterion.  Anything slow states its measured budget.
"""

import heapq
import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from riskcent.centrality import default_zeta_grid, sweep
from riskcent.cli import main
from riskcent.epidemics import SIParams, si_exact, si_lee, si_meanfield
from riskcent.experiments import ExperimentConfig, child_seed, spearman_table
from riskcent.finance import lda_fit, mst
from riskcent.graph import Graph, generate_complete, generate_er
from riskcent.interlacement import detect, heuristic_linear
from riskcent.spectral import _eigensystem


def weighted_er(n, p, seed, w_lo=0.3, w_hi=2.0):
    rng = np.random.default_rng(seed)
    base = generate_er(n, p, seed=seed, require_connected=True)
    edges = [(int(u), int(v),
              float(np.exp(rng.uniform(np.log(w_lo), np.log(w_hi)))))
             for u, v, _ in base.edge_array()]
    return Graph(n, edges)


def groups_by_value(values, snap=None):
    """Group ids per node, ordered by descending value.

    With ``snap`` set, values within that relative gap of their sorted
    neighbour share a group (needed for eigenvector components, which
    carry solver noise on automorphic nodes).
    """
    v = np.asarray(values, dtype=float)
    order = np.argsort(-v)
    s = v[order]
    gid_sorted = np.zeros(v.size, dtype=int)
    for k in range(1, v.size):
        gap = s[k - 1] - s[k]
        scale = max(abs(s[k - 1]), abs(s[k]), 1e-300)
        is_new = gap > 0 if snap is None else gap > snap * scale
        gid_sorted[k] = gid_sorted[k - 1] + (1 if is_new else 0)
    gid = np.empty(v.size, dtype=int)
    gid[order] = gid_sorted
    return gid


def dominates(reference_groups, values):
    """True when every higher reference group strictly beats the next."""
    values = np.asarray(values, dtype=float)
    for g in range(reference_groups.max()):
        if values[reference_groups == g].min() <= \
                values[reference_groups == g + 1].max():
            return False
    return True


# -- criterion 1: complete-graph closed forms ---------------------------------


def test_c01_complete_graph_closed_forms():
    started = time.perf_counter()
    zetas = np.array([0.1, 0.5, 1.0, 5.0, 50.0])
    for n in (3, 5, 10):
        prof = sweep(generate_complete(n), zetas)
        r_exact = np.exp(zetas * (n - 1))
        c_exact = r_exact / n + (n - 1) * np.exp(-zetas) / n
        t_exact = (n - 1) / n * (r_exact - np.exp(-zetas))
        for k in range(4):  # zeta in {0.1, 0.5, 1, 5}
            assert prof.R[k] == pytest.approx(r_exact[k], rel=1e-10)
            assert prof.C[k] == pytest.approx(c_exact[k], rel=1e-10)
            assert prof.T[k] == pytest.approx(t_exact[k], rel=1e-10)
        # zeta = 50: limiting shares of the row sum
        assert prof.C[4] / prof.R[4] == pytest.approx(1.0 / n, abs=1e-6)
        assert prof.C[4] / prof.T[4] == pytest.approx(1.0 / (n - 1),
                                                      abs=1e-6)
    assert time.perf_counter() - started < 1.0


# -- criterion 2: degree and eigenvector ranking limits -----------------------


def test_c02_limit_rankings_on_er_graphs():
    started = time.perf_counter()
    for s in range(50):
        g = generate_er(60, 0.1, seed=3000 + s, require_connected=True)
        _, u = _eigensystem(g.adjacency())
        prof = sweep(g, np.array([1e-6, 50.0]))
        deg_groups = groups_by_value(g.degrees())
        psi = np.abs(u[:, 0])
        psi_groups = groups_by_value(psi, snap=1e-9)
        for vals in (prof.R, prof.C, prof.T):
            # ranking agreement up to tie groups of the reference
            assert dominates(deg_groups, vals[0])
            assert dominates(psi_groups, vals[1])
    assert time.perf_counter() - started < 30.0


# -- criterion 3: published correlation table ---------------------------------

PUBLISHED_TABLE = {
    0.1: (0.9947, 0.9844, 0.9813),
    0.3: (0.9967, 0.9950, 0.9950),
    0.5: (0.9971, 0.9966, 0.9966),
    0.7: (0.9994, 0.9994, 0.9994),
    0.9: (0.9998, 0.9998, 0.9998),
}


def test_c03_published_table_within_001():
    config = ExperimentConfig(n=100,
                              densities=(0.1, 0.3, 0.5, 0.7, 0.9),
                              zetas=(0.1, 0.5, 1.0),
                              replications=1000, seed=0)
    rank_corr, value_corr, _ = spearman_table(config)
    for d_idx, density in enumerate(config.densities):
        for z_idx in range(3):
            published = PUBLISHED_TABLE[density][z_idx]
            got = value_corr[d_idx, z_idx]
            assert abs(got - published) <= 0.01, (
                "cell (%g, %g): %0.4f vs published %0.4f"
                % (density, config.zetas[z_idx], got, published))
    # the published sub-1 plateau is a value correlation: the rank
    # statistic saturates far above it at the high-risk sparse cell
    assert rank_corr[0, 2] > PUBLISHED_TABLE[0.1][2] + 0.01


# -- criterion 4: ratio dispersion at n=100, density 0.1 ----------------------


def connected_er_m(n, m, seed):
    """A connected G(n, M) draw: ``m`` of the n(n-1)/2 pairs taken
    uniformly without replacement, redrawn from the same stream until the
    graph is connected."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    while True:
        idx = rng.choice(iu.size, size=m, replace=False)
        g = Graph(n, np.column_stack([iu[idx], ju[idx]]))
        if g.is_connected():
            return g


def test_c04_ratio_dispersion_claims():
    # ensemble of exact-density ER graphs; ratios are taken against the
    # ensemble expectation, the literal E(R_i) of the claim
    n, m, reps = 100, 495, 1000
    R = np.empty((reps, 2, n))
    C = np.empty((reps, n))
    for rep in range(reps):
        g = connected_er_m(n, m, seed=4000 + rep)
        prof = sweep(g, np.array([0.1, 1.0]))
        R[rep] = prof.R
        C[rep] = prof.C[1]
    std_low = (R[:, 0] / R[:, 0].mean()).std()
    std_high = (R[:, 1] / R[:, 1].mean()).std()
    assert abs(std_low - 0.20) <= 0.03, "std at zeta=0.1: %.4f" % std_low
    assert abs(std_high - 0.37) <= 0.03, "std at zeta=1.0: %.4f" % std_high
    # C/R span at zeta=1: per-graph 1%/99% node quantiles, extremes over
    # the ensemble, against the published 0.15%..2.5% range, each +-30%
    ratio = C / R[:, 1]
    q = np.percentile(ratio, [1.0, 99.0], axis=1)
    span_lo, span_hi = q[0].min(), q[1].max()
    assert 0.0015 * 0.7 <= span_lo <= 0.0015 * 1.3, "lo %.5f" % span_lo
    assert 0.025 * 0.7 <= span_hi <= 0.025 * 1.3, "hi %.5f" % span_hi


# -- criterion 5: C/R concentration along a size ladder -----------------------


def ratio_limit_deviations(n_values, density, zeta, replications, seed):
    """Mean deviation |n * C_i / R_i - 1| along a ladder of graph sizes.

    The measures concentrate as n grows: C/R approaches 1/n node by node.
    Replication r of size b draws ``child_seed(seed, b, r)``.
    """
    out = np.empty(len(n_values))
    for b, n in enumerate(n_values):
        devs = []
        for rep in range(replications):
            g = generate_er(n, density, seed=child_seed(seed, b, rep),
                            require_connected=True)
            prof = sweep(g, [zeta])
            devs.append(np.abs(n * prof.C[0] / prof.R[0] - 1.0).mean())
        out[b] = float(np.mean(devs))
    return out


def test_c05_ratio_limit_strictly_decreasing_in_n():
    for zeta in (0.1, 1.0):
        devs = ratio_limit_deviations((50, 100, 200, 400), density=0.5,
                                      zeta=zeta, replications=20, seed=7)
        assert (np.diff(devs) < 0).all(), (
            "zeta=%g: %s" % (zeta, np.array2string(devs)))


# -- criterion 6: SI bound chain ----------------------------------------------


def test_c06_si_bound_chain_and_meanfield_geometry():
    t_grid = np.linspace(0.0, 50.0, 26)
    for k in range(20):
        n = 25 + (k % 4) * 5
        p = 0.1 + (k % 3) * 0.05
        g = generate_er(n, p, seed=6000 + k, require_connected=True)
        for gamma in (0.001, 0.002):
            params = SIParams(gamma=gamma, beta=0.01, t_grid=t_grid)
            exact = si_exact(g, params).x
            lee = si_lee(g, params).x
            assert (exact <= lee + 1e-9).all()
            assert (lee <= 1.0 + 1e-9).all()
            mean_lee = lee.mean(axis=1)
            mf = si_meanfield(g.mean_degree(), params).x[:, 0]
            assert (mean_lee >= mf - 1e-12).all()
            assert mean_lee[-1] > mf[-1]


# -- criterion 7: interlacement refinement and the linear heuristic -----------


def test_c07_refined_crossings_and_linear_heuristic():
    # suite: weighted ER pairs whose single refined crossing is small in
    # magnitude (zeta* <= 0.15, the truncation's validity region), all
    # inside (0, 0.5); membership never looks at the heuristic error
    grid = np.linspace(0.002, 0.7, 350)
    suite = []
    seed = 0
    while len(suite) < 20 and seed < 200:
        g = weighted_er(10, 0.35, 7000 + seed)
        seed += 1
        for i in range(g.n):
            for j in range(i + 1, g.n):
                (_, lo, hi, _, _), (tp, _) = detect(g, i, j, measure="C",
                                                    zeta_grid=grid)
                if lo.size != 1 or tp.size:
                    continue
                zeta_star = 0.5 * (lo[0] + hi[0])
                if not 0.0 < zeta_star <= 0.15:
                    continue
                linear = heuristic_linear(g, i, j, measure="C")
                if linear is None:
                    continue
                suite.append((g, i, j, zeta_star, linear))
    assert len(suite) >= 20
    for g, i, j, zeta_star, linear in suite:
        assert 0.0 < zeta_star < 0.5
        prof = sweep(g, np.array([zeta_star]))
        ci, cj = prof.C[0, i], prof.C[0, j]
        assert abs(ci - cj) < 1e-6 * max(abs(ci), abs(cj))
        assert abs(linear - zeta_star) < 0.05, (
            "pair (%d, %d): linear %.4f vs refined %.4f"
            % (i, j, linear, zeta_star))


# -- criterion 8: monotonicity and convexity in zeta --------------------------


def test_c08_growth_and_convexity_along_grid():
    grid = default_zeta_grid()
    assert grid.size == 100
    count = 0
    for s in range(60):
        n = (10, 20, 30)[s % 3]
        p = (0.15, 0.3, 0.5)[(s // 3) % 3]
        g = generate_er(n, p, seed=8000 + s, require_connected=True)
        prof = sweep(g, grid)
        for vals in (prof.R, prof.C):
            assert (np.diff(vals, axis=0) > 0).all()
            assert (np.diff(vals, 2, axis=0) >= -1e-9).all()
        count += 1
    for s in range(40):
        g = weighted_er((10, 20)[s % 2], 0.3, seed=8500 + s)
        prof = sweep(g, grid)
        for vals in (prof.R, prof.C):
            assert (np.diff(vals, axis=0) > 0).all()
            assert (np.diff(vals, 2, axis=0) >= -1e-9).all()
        count += 1
    assert count == 100


# -- criterion 9: MST against exhaustive enumeration --------------------------


def prufer_trees(n):
    """Edge sets of all n^(n-2) labelled trees, as flat pair indices."""
    trees = np.empty((n ** (n - 2), n - 1), dtype=np.int32)
    for t, seq in enumerate(itertools.product(range(n), repeat=n - 2)):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        leaves = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(leaves)
        for v in seq:
            leaf = heapq.heappop(leaves)
            edges.append((leaf, v) if leaf < v else (v, leaf))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(leaves, v)
        u, v = sorted(leaves)
        edges.append((u, v))
        trees[t] = [a * n + b for a, b in edges]
    return trees


def test_c09_mst_matches_exhaustive_minimum():
    n = 8
    trees = prufer_trees(n)
    assert trees.shape == (8 ** 6, 7)
    rng = np.random.default_rng(90)
    for _ in range(50):
        half = rng.uniform(0.05, 2.0, size=(n, n))
        dist = np.triu(half, 1) + np.triu(half, 1).T
        tree = mst(dist)
        got = sum(w for _, _, w in tree.edge_array())
        best = dist.ravel()[trees].sum(axis=1).min()
        assert got == pytest.approx(best, rel=1e-12)


# -- criterion 10: LDA closed form and corporate fixture ----------------------


def test_c10_lda_oracle_and_corporate_fixture(tmp_path):
    for s in range(5):
        rng = np.random.default_rng(40 + s)
        x_pos = rng.normal(1.2, 0.9, size=17)
        x_neg = rng.normal(-0.7, 0.9, size=13)
        x = np.concatenate([x_pos, x_neg])
        y = np.array([1] * 17 + [-1] * 13)
        model = lda_fit(x, y)
        mp, mn = x_pos.mean(), x_neg.mean()
        ss = ((x_pos - mp) ** 2).sum() + ((x_neg - mn) ** 2).sum()
        s2 = ss / (x.size - 2)
        slope = (mp - mn) / s2
        intercept = -0.5 * (mp + mn) * slope + math.log(17.0 / 13.0)
        assert model["slope"] == pytest.approx(slope, rel=1e-10)
        assert model["intercept"] == pytest.approx(intercept, rel=1e-10)
    # end-to-end synthetic corporate run with consistent confusion counts
    from test_cli import write_corporate
    memb, svc = write_corporate(tmp_path)
    out = str(tmp_path / "out")
    assert main(["corporate", memb, svc, "--out", out]) == 0
    with open(os.path.join(out, "lda.json")) as fh:
        doc = json.load(fh)
    conf = doc["confusion"]
    assert conf["tp"] + conf["fn"] + conf["fp"] + conf["tn"] == doc["n"]
    assert doc["accuracy"] == pytest.approx(
        (conf["tp"] + conf["tn"]) / doc["n"])
    assert min(conf["tp"] + conf["fn"], conf["fp"] + conf["tn"]) > 0


# -- criterion 11: ratio-derivative closed form -------------------------------


def ratio_derivative(kbar, z):
    """Closed-form slope of the truncated mean ratio
    (2 + k z^2) / (2 + 2 k z + k^2 z^2) at mean degree k:
    (2 k^2 z^2 - 4 k (k - 1) z - 4 k) / (2 + 2 k z + k^2 z^2)^2."""
    z = np.asarray(z, dtype=float)
    num = 2.0 * kbar**2 * z**2 - (4.0 * kbar * (kbar - 1.0) * z + 4.0 * kbar)
    return num / (2.0 + 2.0 * kbar * z + kbar**2 * z**2) ** 2


def test_c11_ratio_derivative_sign_and_origin():
    grid = np.linspace(0.0, 1.0, 501)
    for kbar in (1.0, 2.0, 5.0, 10.0):
        curve = ratio_derivative(kbar, grid)
        assert (curve < 0).all()
    assert ratio_derivative(1.0, np.array([0.0]))[0] == -1.0
