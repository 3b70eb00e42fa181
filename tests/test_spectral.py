import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.special

import riskcent.spectral
from riskcent.centrality import sweep
from riskcent.epidemics import SIParams, si_lee
from riskcent.graph import Graph, generate_complete, generate_er, generate_star
from riskcent.interlacement import _basis
from riskcent.spectral import (
    DENSE_LIMIT_DEFAULT,
    _MOMENT_BLOCK,
    _eigensystem,
    _exp_rows,
    _moment_rows,
    _REACH,
    _power_action,
    _power_moments,
    _power_sum,
    _series_degree,
    _series_sum,
    _spectral_bound,
    _tail_ok,
    decompose,
    expm,
)


def diag_on(route, g, zetas, scaled=False):
    """``expm``'s diagonal with every run sent to one route through the
    constants of the cost rule: a dense limit of 0 leaves only the
    moments, an infinite moments cost only the eigensystems."""
    with pytest.MonkeyPatch.context() as mp:
        if route == "moments":
            mp.setattr(riskcent.spectral, "DENSE_LIMIT_DEFAULT", 0)
        else:
            mp.setattr(riskcent.spectral, "_MOMENTS_PER_DENSE", np.inf)
        return expm(g, zetas, scaled=scaled)


def taylor_expm_action(a, zeta, v, order=80):
    """Oracle: truncated series sum_k (zeta A)^k v / k! with exact recursion."""
    term = v.astype(float).copy()
    acc = term.copy()
    for k in range(1, order + 1):
        term = (zeta / k) * (a @ term)
        acc = acc + term
    return acc


# -- decomposition ----------------------------------------------------------


def test_k3_spectrum():
    lam, _ = _eigensystem(generate_complete(3).adjacency())
    assert np.allclose(lam, [2.0, -1.0, -1.0], atol=1e-12)
    assert lam[0] - lam[1] == pytest.approx(3.0, abs=1e-12)


def test_star_leading_eigenvalue():
    # S_5: lam_1 = sqrt(n-1) = 2
    lam, _ = _eigensystem(generate_star(5).adjacency())
    assert lam[0] == pytest.approx(2.0, abs=1e-12)


def test_eigenpairs_reconstruct():
    g = generate_er(40, 0.2, seed=3)
    a = g.adjacency()
    lam, u = _eigensystem(a)
    norm = np.abs(a).max()
    assert np.all(np.diff(lam) <= 1e-12)
    assert np.abs(a @ u - u * lam).max() < 1e-10 * max(norm, 1.0)
    assert np.abs(u.T @ u - np.eye(g.n)).max() < 1e-10


def test_dense_limit_refused(monkeypatch):
    g = generate_er(30, 0.2, seed=0)
    monkeypatch.setattr(riskcent.spectral, "DENSE_LIMIT_DEFAULT", 10)
    with pytest.raises(ValueError, match="dense limit"):
        decompose(g)


def test_decompose_is_the_eigensystem_of_the_adjacency():
    # the benchmark's span recorder wraps decompose by name
    g = generate_er(30, 0.2, seed=0, require_connected=True)
    got, want = decompose(g), _eigensystem(g.adjacency())
    assert len(got) == len(want) == 2
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_exp_rows_do_not_read_eigenvector_signs():
    # each column of U enters the rows twice, so flipping the signs of any
    # columns changes no bit of the diagonal or the action, scaled or not
    rng = np.random.default_rng(11)
    weighted = generate_er(40, 0.15, seed=3)
    weighted = Graph(40, np.column_stack([
        weighted.edge_array()[:, :2],
        rng.uniform(0.2, 3.0, size=weighted.m)]))
    graphs = [generate_er(n, p, seed=seed) for n, p, seed in
              ((20, 0.3, 1), (60, 0.1, 2), (100, 0.5, 3), (120, 0.05, 4))]
    graphs += [weighted, generate_complete(12), generate_star(9),
               Graph(8, [[0, 1], [1, 2], [2, 0], [3, 4]])]
    # unscaled to zeta lam_1 = 250, scaled past exp's range
    zetas = np.array([0.0, 1e-9, 0.3, 1.0, 5.0, 40.0])
    for g in graphs:
        lam, u = _eigensystem(g.adjacency())
        flipped = u * rng.choice([-1.0, 1.0], size=g.n)
        assert not np.array_equal(flipped, u)
        for v in (None, np.ones(g.n), rng.normal(size=g.n)):
            want = _exp_rows(lam, u, zetas, v, scaled=True)
            got = _exp_rows(lam, flipped, zetas, v, scaled=True)
            assert all(map(np.array_equal, got, want))
            assert np.array_equal(_exp_rows(lam, flipped, zetas[:-1], v),
                                  _exp_rows(lam, u, zetas[:-1], v))


# -- dense exponential action ------------------------------------------------


def test_action_zeta_zero_identity():
    g = generate_er(20, 0.3, seed=1)
    v = np.random.default_rng(0).normal(size=20)
    assert np.allclose(expm(g, 0.0, v), v, atol=1e-14)
    assert np.allclose(expm(g, 0.0), 1.0, atol=1e-14)


def test_k3_action_closed_form():
    # K_3 at zeta=1: exp(A) 1 = e^2 * 1 since 1 is the Perron direction
    g = generate_complete(3)
    y = expm(g, 1.0, np.ones(3))
    assert np.allclose(y, np.e**2, rtol=1e-12)


def test_action_matches_taylor_oracle():
    g = generate_er(8, 0.5, seed=9)
    a = g.adjacency()
    rng = np.random.default_rng(4)
    v = rng.normal(size=8)
    want = taylor_expm_action(a, 0.3, v)
    got = expm(g, 0.3, v)
    assert np.abs(got - want).max() < 1e-9


def test_action_matches_pade_oracle():
    weighted = Graph(6, [(0, 1, 0.5), (1, 2, 2.0), (2, 3, 1.5), (3, 4, 0.25),
                         (4, 5, 1.0), (0, 5, 3.0), (1, 4, 0.7)])
    zetas = [0.0, 0.3, 0.7]
    for g in (generate_er(25, 0.2, seed=12), weighted):
        lam, u = _eigensystem(g.adjacency())
        v = np.random.default_rng(1).normal(size=g.n)
        # the grid form of the kernel, one row per zeta
        rows = _exp_rows(lam, u, zetas, v)
        diags = _exp_rows(lam, u, zetas)
        for k, zeta in enumerate(zetas):
            e = scipy.linalg.expm(zeta * g.adjacency())
            assert np.allclose(expm(g, zeta, v), e @ v,
                               rtol=1e-10, atol=1e-12)
            assert np.allclose(expm(g, zeta), np.diag(e), rtol=1e-10)
            assert np.allclose(rows[k], e @ v, rtol=1e-10, atol=1e-12)
            assert np.allclose(diags[k], np.diag(e), rtol=1e-10)


def test_small_zeta_signal_not_lost():
    # exp(zeta A) 1 - 1 is of order zeta*deg; expm1 keeps it to full precision
    g = generate_er(30, 0.3, seed=2)
    z = 1e-9
    y = expm(g, z, np.ones(30))
    want = 1.0 + z * g.degrees() + 0.5 * z**2 * (g.adjacency() @ g.degrees())
    assert np.abs((y - want) / (y - 1.0)).max() < 1e-6


def test_semigroup_property():
    g = generate_er(15, 0.3, seed=6)
    rng = np.random.default_rng(8)
    v = rng.normal(size=15)
    one_shot = expm(g, 0.9, v)
    two_step = expm(g, 0.5, expm(g, 0.4, v))
    assert np.allclose(one_shot, two_step, rtol=1e-10)


def test_diagonal_bounds():
    # diag entries of exp(zeta A) are >= 1 (even closed-walk series)
    for seed in range(4):
        g = generate_er(20, 0.25, seed=seed)
        d = expm(g, 0.8)
        assert (d >= 1.0 - 1e-12).all()


def test_negative_zeta_rejected():
    g = generate_complete(3)
    with pytest.raises(ValueError, match="zeta"):
        expm(g, -0.1, np.ones(3))
    with pytest.raises(ValueError, match="zeta"):
        expm(g, -1.0)


def test_vector_shape_checked():
    g = generate_complete(3)
    with pytest.raises(ValueError, match="shape"):
        expm(g, 1.0, np.ones(4))


# -- scaled variants ----------------------------------------------------------


def test_scaled_action_consistent():
    g = generate_er(20, 0.3, seed=3)
    v = np.abs(np.random.default_rng(2).normal(size=20)) + 0.1
    y, s = expm(g, 0.8, v, scaled=True)
    assert np.allclose(y * np.exp(s), expm(g, 0.8, v), rtol=1e-10)
    d, sd = expm(g, 0.8, scaled=True)
    assert np.allclose(d * np.exp(sd), expm(g, 0.8), rtol=1e-10)


def test_scaled_action_survives_huge_zeta():
    # zeta lam_1 ~ 50 * 59 would overflow exp; the scaled form stays finite
    g = generate_complete(60)
    y, s = expm(g, 50.0, np.ones(60), scaled=True)
    assert np.isfinite(y).all() and y.max() > 0
    d, sd = expm(g, 50.0, scaled=True)
    assert np.isfinite(d).all() and (d > 0).all()
    assert s == pytest.approx(50.0 * 59.0, rel=1e-12)
    lam, u = _eigensystem(g.adjacency())
    for v in (np.ones(60), None):
        rows, scales = _exp_rows(lam, u, [0.0, 1.0, 50.0], v, scaled=True)
        assert np.isfinite(rows).all() and (rows > 0).all()
        assert np.allclose(scales, [0.0, 59.0, 50.0 * 59.0], rtol=1e-12)
        assert np.allclose(rows[:2] * np.exp(scales[:2, None]),
                           _exp_rows(lam, u, [0.0, 1.0], v), rtol=1e-12)


# -- Krylov route -------------------------------------------------------------


def test_krylov_matches_dense():
    for seed, zeta in [(0, 0.5), (1, 1.0), (2, 2.0)]:
        g = generate_er(120, 0.05, seed=seed)
        rng = np.random.default_rng(seed + 10)
        v = rng.normal(size=120)
        dense = _exp_rows(*_eigensystem(g.adjacency()), zeta, v)
        kry = expm(g, zeta, v)
        assert np.abs(kry - dense).max() < 1e-8 * np.abs(dense).max()


def test_krylov_diagonal_matches_dense():
    g = generate_er(60, 0.1, seed=4)
    dense = diag_on("dense", g, 1.0)
    kry = diag_on("moments", g, 1.0)
    assert np.abs(kry - dense).max() < 1e-8 * dense.max()


def test_krylov_zero_vector():
    g = generate_er(30, 0.2, seed=5)
    y = expm(g, 1.0, np.zeros(30))
    assert np.array_equal(y, np.zeros(30))


def test_krylov_diagonal_at_large_zeta_matches_dense():
    # zeta b = 30 * 10.4 needs a diagonal degree of 470, which the moments
    # reach as any other; the action restarts instead
    g = generate_er(200, 0.05, seed=7)
    assert _series_degree(30.0 * _spectral_bound(g.sparse_adjacency())) > 450
    want = _exp_rows(*_eigensystem(g.adjacency()), 30.0)
    got = diag_on("moments", g, 30.0)
    assert np.abs(got - want).max() <= 1e-10 * want.max()


def test_krylov_invariant_subspace_exit():
    # 1 is an eigenvector of K_n, and a star's hub reads cosh(zeta
    # sqrt(n - 1)) on the diagonal: the Krylov spaces from them are
    # invariant after one and two steps
    g = generate_complete(12)
    for zeta in (0.3, 2.0):
        kry = expm(g, zeta, np.ones(12))
        dense = _exp_rows(*_eigensystem(g.adjacency()), zeta, np.ones(12))
        assert np.allclose(kry, dense, rtol=1e-12)
    star = generate_star(9)
    kry = diag_on("moments", star, 1.3)
    dense = diag_on("dense", star, 1.3)
    assert np.allclose(kry, dense, rtol=1e-12)
    assert kry[0] == pytest.approx(np.cosh(1.3 * np.sqrt(8.0)), rel=1e-12)


def test_series_degree_is_the_first_that_passes():
    # against a search whose range doubles until some degree passes
    ss = [0.0, 1e-9, 1.0, 255.0, 256.0, 1e3, 1e4]
    want = []
    for s in ss:
        m = np.arange(64)
        while not _tail_ok(s, m).any():
            m = np.arange(2 * m.size)
        want.append(int(np.argmax(_tail_ok(s, m))))
        assert _series_degree(s) == want[-1]
    assert _series_degree(np.array(ss)).tolist() == want
    assert want[0] == 0 and want[-1] > 10000


def test_series_sum_gives_equal_columns_at_every_position():
    # each entry is summed over ascending k whatever its column, so equal
    # columns of the terms give equal sums, also in strided column spans
    # like _power_sum's component spans; a BLAS GEMM rounds them apart
    rng = np.random.default_rng(12)
    for _ in range(200):
        j, k, w = rng.integers(1, 40), rng.integers(1, 90), rng.integers(1, 70)
        coef = rng.random((j, k)) * 10.0 ** rng.integers(-3, 4)
        n = w + rng.integers(0, 60)
        lo = rng.integers(0, n - w + 1)
        terms = rng.random((k + 3, n))
        terms[:, lo:lo + w] = rng.random(k + 3)[:, None]
        span = terms[1:k + 1, lo:lo + w]
        got = _series_sum(coef, span)
        assert got.shape == (j, w)
        assert (got == got[:, :1]).all()
        np.testing.assert_allclose(got, coef @ span, rtol=1e-13)


def test_isolated_nodes_read_r_exactly_one():
    # an isolated node's row of exp(zeta A) is its unit row: R = 1 exactly
    g = generate_er(2000, 8 / 1999, seed=3)
    labels = g.component_labels()
    isolated = np.flatnonzero(np.bincount(labels)[labels] == 1)
    assert isolated.tolist() == [293, 616]
    rows = expm(g, np.linspace(0.05, 20.0, 20), np.ones(g.n))
    assert (rows[:, isolated] == 1.0).all()


def test_power_moments_and_action_memory_bounded_by_block(sparse_er):
    # one block of power moments on a 20 000-node graph: the powers hold
    # two (n, block) arrays at a time, whatever the degree; one power sum
    # of the action holds one block of powers, its row and two temporaries
    # of the row's size
    g = sparse_er(20000, 8.0, seed=0)
    a = g.sparse_adjacency()
    b = _spectral_bound(a)
    nodes = np.arange(_MOMENT_BLOCK)
    degree = int(np.argmax(_tail_ok(b, np.arange(100))))  # zeta = 1
    assert 2 < degree < 50
    block = g.n * nodes.size * 8
    ah = a / b
    for m in (degree, 4 * degree):
        tracemalloc.start()
        try:
            mu = _power_moments(ah, nodes, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mu.shape == (m + 1, nodes.size)
        assert 2 * block <= peak <= 2 * block + mu.nbytes + (1 << 16)
    x = np.ones(g.n)
    for s in (b, 4.0 * b):  # zeta = 1, 4: degree below, then past a block
        tracemalloc.start()
        try:
            rows = _power_sum(ah, np.array([s]), x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= block + 3 * rows.nbytes + (1 << 16)
    degree = int(np.argmax(_tail_ok(4.0 * b, np.arange(400))))
    assert degree + 1 > 1.5 * _MOMENT_BLOCK  # more powers than one block


def test_moment_diag_memory_bounded_by_block():
    # the diagonal of a 640-node ring to zeta b = 300, of degree 455: beside
    # the rows, the weights and the scaled adjacency, one block's moments
    # and its two (n, block) powers are live, far less than the (degree +
    # 1, n) table of every node's moments
    n = 640
    a = Graph(n, np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
              ).sparse_adjacency()
    z = np.array([1.0, 75.0, 150.0])
    degree = int(_series_degree(300.0))
    assert degree > 400
    s = 2.0 * z
    tracemalloc.start()
    try:
        rows = _moment_rows(a / 2.0, s, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.abs(rows / scipy.special.ive(0, s)[:, None] - 1.0).max() < 1e-12
    moments = (degree + 1) * _MOMENT_BLOCK * 8
    powers = 2 * n * _MOMENT_BLOCK * 8
    weights = z.size * (degree + 1) * 8
    scaled = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    assert peak <= (rows.nbytes + moments + powers + weights + scaled
                    + (1 << 16))
    assert peak < (degree + 1) * n * 8 / 2


# -- the routed evaluator -------------------------------------------------------


def assert_action_rows_match_dense(g, zetas, v, rtol=1e-10, entrywise=True):
    """Krylov grid rows, scaled and unscaled, against the dense rows.

    Each row agrees within ``rtol`` of its 2-norm, the norm the Lanczos
    estimate controls, and with ``entrywise`` within ``rtol`` of its
    largest entry too.  Rows whose dense value passes exp's range are
    compared scaled only.
    """
    lam, u = _eigensystem(g.adjacency())
    rows = expm(g, zetas, v)
    scaled, shifts = expm(g, zetas, v, scaled=True)
    want_scaled, want_shifts = _exp_rows(lam, u, zetas, v, scaled=True)
    norms = [np.linalg.norm] + ([lambda x: np.abs(x).max()] if entrywise
                                else [])
    for k, zeta in enumerate(zetas):
        # the two routes shift by their own top eigenvalue estimate
        pairs = [(scaled[k] * np.exp(shifts[k] - want_shifts[k]),
                  want_scaled[k])]
        if want_shifts[k] < 700.0:
            pairs.append((rows[k], _exp_rows(lam, u, zeta, v)))
        for got, want in pairs:
            big = np.abs(want).max()  # keeps the squares of the 2-norm finite
            for norm in norms:
                err = norm((got - want) / big) / norm(want / big)
                assert err <= rtol, (g, zeta, err)
        if zeta == 0.0:
            assert np.array_equal(rows[k], v)


def test_expm_krylov_grid_rows_equal_single_zeta_calls():
    g = generate_er(60, 0.1, seed=4)
    v = np.random.default_rng(6).normal(size=60)
    zetas = [0.0, 0.5, 1.3]
    diags = diag_on("moments", g, zetas)
    for k, zeta in enumerate(zetas):
        assert np.array_equal(diags[k], diag_on("moments", g, zeta))
    # one basis serves the whole action grid, so its rows agree with the
    # dense rows rather than bit for bit with one run per zeta
    assert_action_rows_match_dense(g, zetas, v)


def test_krylov_grid_action_matches_dense_rows():
    weighted = generate_er(40, 0.15, seed=3)
    w = np.random.default_rng(5).uniform(0.2, 3.0, size=weighted.m)
    weighted = Graph(40, np.column_stack([weighted.edge_array()[:, :2], w]))
    graphs = [generate_er(30, 0.2, seed=1), generate_er(300, 0.03, seed=2),
              generate_er(1999, 8.0 / 1998, seed=3), weighted,
              generate_complete(12), generate_star(9)]
    zetas = np.concatenate([[0.0, 1e-9, 1e-4], np.linspace(0.01, 1.0, 100),
                            [2.0, 5.0, 20.0]])
    for g in graphs:
        rng = np.random.default_rng(g.n)
        assert_action_rows_match_dense(g, zetas, np.ones(g.n))
        # the basis must serve every grid point, not only the last one
        assert_action_rows_match_dense(g, zetas[::-1], rng.normal(size=g.n))


def test_moments_diagonal_matches_dense_rows():
    # every grid row of the moments route, scaled and unscaled, within
    # 1e-10 of the dense row's largest entry
    base = generate_er(40, 0.15, seed=3)
    w = np.random.default_rng(5).uniform(0.2, 3.0, size=base.m)
    weighted = Graph(40, np.column_stack([base.edge_array()[:, :2], w]))
    isolated = Graph(8, [[0, 1], [1, 2], [2, 0], [3, 4]])
    graphs = [generate_er(30, 0.2, seed=1), generate_er(300, 0.03, seed=2),
              weighted, generate_complete(12), generate_star(9), isolated,
              path_graph(60), generate_er(100, 0.5, seed=2)]
    zetas = np.concatenate([[0.0, 1e-9, 1e-4], np.linspace(0.01, 1.0, 100),
                            [2.0, 5.0, 20.0]])
    # ER(100, 0.5) runs to zeta b = 20 * 50.2, of degree 1278.  Its
    # unscaled row at zeta = 20 passes float range, where the dense
    # reference's expm1 overflows, so unscaled rows are compared below it
    for g in graphs:
        lam, u = _eigensystem(g.adjacency())
        rows = diag_on("moments", g, zetas)
        scaled, shifts = diag_on("moments", g, zetas, scaled=True)
        want_scaled, want_shifts = _exp_rows(lam, u, zetas, scaled=True)
        assert np.array_equal(rows[0], np.ones(g.n))
        fits = want_shifts < 700.0
        pairs = [(scaled * np.exp(shifts - want_shifts)[:, None], want_scaled),
                 (rows[fits], _exp_rows(lam, u, zetas[fits]))]
        for got, want in pairs:
            rel = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
            assert rel.max() <= 1e-10, (g, zetas[np.argmax(rel)], rel.max())


def test_moments_diagonal_accurate_entry_by_entry():
    # every term of the moments sum is >= 0, so each entry is accurate
    # relative to itself: against the series sum_k zeta^k (A^k)_ii / k!,
    # whose terms are >= 0 as well, on isolated nodes, on components of
    # different lambda_1 and on a path hanging off a clique, whose far end
    # has a Perron weight near 1e-40; a sum that cancels at the scale
    # exp(zeta lambda_1) loses these entries
    k5 = [[i, j] for i in range(5) for j in range(i + 1, 5)]
    parts = Graph(12, k5 + [[5, j] for j in range(6, 11)])  # K5, S6, a node
    isolated = Graph(8, [[0, 1], [1, 2], [2, 0], [3, 4]])
    zetas = np.array([0.0, 1e-9, 1e-4, 0.3, 1.0, 2.0, 5.0, 20.0])
    for g in (isolated, parts, lollipop_graph()):
        a = g.adjacency()
        rows = diag_on("moments", g, zetas)
        scaled, shifts = diag_on("moments", g, zetas, scaled=True)
        for k, zeta in enumerate(zetas):
            want = np.diag(taylor_expm_action(a, zeta, np.eye(g.n), 700))
            for got in (rows[k], scaled[k] * np.exp(shifts[k])):
                rel = np.abs(got - want) / want
                assert rel.max() <= 1e-12, (g, zeta, rel.max())
        single = np.bincount(g.component_labels())[g.component_labels()] == 1
        assert (rows[:, single] == 1.0).all()


@pytest.mark.parametrize("route", ["picked", "moments", "dense"])
def test_diagonal_per_component_accurate_entry_by_entry(route):
    # the diagonal runs one component at a time, on the route expm picks
    # for each and on each route forced in turn: every entry against the
    # series sum_k zeta^k (A^k)_ii / k!, whose terms are >= 0, on isolated
    # nodes, on K5 + S6 + a node and on components of different lambda_1.
    # A dense run carries rounding of its own exp(zeta lambda_1) only, so
    # a small component keeps its entries and an isolated node reads 1
    # exactly at every zeta; zeta = 0 gives 1 exactly on both routes.  A
    # path hanging off a clique is left out: on the dense route its far
    # end is lost to rounding of the clique's exp(zeta lambda_1) (a known
    # defect; the moments test above holds it)
    k5 = [[i, j] for i in range(5) for j in range(i + 1, 5)]
    parts = Graph(12, k5 + [[5, j] for j in range(6, 11)])  # K5, S6, a node
    isolated = Graph(8, [[0, 1], [1, 2], [2, 0], [3, 4]])
    mixed = components_graph(np.random.default_rng(4).permutation(29))
    zetas = np.array([0.0, 1e-9, 1e-4, 0.3, 1.0, 2.0, 5.0, 20.0])
    for g in (isolated, parts, mixed):
        if route == "picked":
            rows = expm(g, zetas)
            scaled, shifts = expm(g, zetas, scaled=True)
        else:
            rows = diag_on(route, g, zetas)
            scaled, shifts = diag_on(route, g, zetas, scaled=True)
        a = g.adjacency()
        for k, zeta in enumerate(zetas):
            want = np.diag(taylor_expm_action(a, zeta, np.eye(g.n), 700))
            for got in (rows[k], scaled[k] * np.exp(shifts[k])):
                rel = np.abs(got - want) / want
                assert rel.max() <= 1e-12, (g, zeta, rel.max())
        single = np.bincount(g.component_labels())[g.component_labels()] == 1
        assert (rows[:, single] == 1.0).all()
        assert (rows[0] == 1.0).all()


def test_union_diagonal_equals_each_component():
    # C of a disjoint union is C of each component on its own: each is a
    # run with its own bound, route and shift, so one diagonal of the
    # union, as market takes for its trees, reads every component's rows
    # bit for bit, on dense runs (K30, S9, ER(100, 0.5)) and on a moments
    # run (the 600-node path); the two isolated nodes read 1
    parts = [generate_complete(30), generate_star(9), path_graph(600),
             generate_er(100, 0.5, seed=2)]
    offsets = np.cumsum([0] + [p.n for p in parts])
    union = Graph(offsets[-1] + 2, np.vstack(
        [p.edge_array() + [off, off, 0.0]
         for p, off in zip(parts, offsets)]))
    grid = np.linspace(0.01, 1.0, 100)
    rows = expm(union, grid)
    for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
        assert np.array_equal(rows[:, lo:hi], expm(part, grid)), part.n
    assert (rows[:, offsets[-1]:] == 1.0).all()


def test_isolated_nodes_read_c_one_and_t_zero():
    # the two isolated nodes are runs of their own for the diagonal too:
    # C = 1 and T = 0 exactly, where one eigensystem of the whole graph
    # read C up to 1.5e14 at the top of this grid
    g = generate_er(2000, 8 / 1999, seed=3)
    prof = sweep(g, np.linspace(0.05, 20.0, 20))
    assert (prof.C[:, [293, 616]] == 1.0).all()
    assert (prof.T[:, [293, 616]] == 0.0).all()


def lollipop_graph():
    """K12 with a 20-node path hanging off node 11."""
    k12 = [[i, j] for i in range(12) for j in range(i + 1, 12)]
    return Graph(32, k12 + [[i, i + 1] for i in range(11, 31)])


def test_interlacement_table_accurate_entry_by_entry_at_large_zeta():
    # zeta b runs to 30 * 11.0 = 330, of degree 492: the series table of
    # the closed walks keeps every entry of C to rounding level of itself,
    # the far end of the path included, as the moments route does
    g = lollipop_graph()
    grid = np.linspace(1.0, 30.0, 59)
    weights, table, b = _basis(g, np.arange(g.n), "C", grid)
    got = weights(grid) @ table
    # the oracle's terms for every zeta at once, one identity per zeta
    series = taylor_expm_action(g.adjacency(), grid[:, None, None],
                                np.tile(np.eye(g.n), (grid.size, 1, 1)), 700)
    want = np.diagonal(series, axis1=1, axis2=2) * np.exp(-grid * b)[:, None]
    rel = np.abs(got - want) / want
    assert rel.max() <= 1e-12, np.unravel_index(rel.argmax(), rel.shape)


def path_graph(n):
    return Graph(n, np.column_stack([np.arange(n - 1), np.arange(1, n)]))


def lattice_graph(k):
    idx = np.arange(k * k).reshape(k, k)
    return Graph(k * k, np.vstack([
        np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()]),
        np.column_stack([idx[:-1].ravel(), idx[1:].ravel()])]))


def test_krylov_action_past_overflow():
    # zeta * lam_1 runs to 1e4, far past exp's range (~709.78) and far past
    # what one power sum reaches: the runs restart at grid points, and on
    # the coarse grid at steps between them.  The lattice and the path have
    # clustered top eigenvalues
    weighted = generate_er(300, 0.03, seed=2)
    w = np.random.default_rng(8).uniform(0.2, 3.0, size=weighted.m)
    weighted = Graph(300, np.column_stack([weighted.edge_array()[:, :2], w]))
    for g in (generate_er(1999, 8.0 / 1998, seed=3), weighted,
              lattice_graph(30), path_graph(500)):
        lam_1 = _eigensystem(g.adjacency())[0][0]
        fine = np.linspace(0.0, 1e4 / lam_1, 51)
        rand = np.random.default_rng(g.n).normal(size=g.n)
        for zetas, v in ((fine, np.ones(g.n)), (fine[::-1], rand),
                         (fine[[50, 0, 25]], rand)):
            assert_action_rows_match_dense(g, zetas, v, entrywise=False)
        # v = 1 is positive on every component: past the range only the
        # entries that pass it overflow, to +inf
        rows = expm(g, fine, np.ones(g.n))
        assert (rows > 0).all()
        assert not np.isnan(rows).any()


def components_graph(perm=None):
    """K5, a weighted 6-cycle, a 7-node star, a weighted 8-node path and
    three isolated nodes: spectral radii 4, 2 w, sqrt(6) and below 2 max
    w, so each component has its own bound.  ``perm`` renames the nodes,
    so that the components interleave."""
    rng = np.random.default_rng(17)
    edges = [(a, b, 1.0) for a in range(5) for b in range(a + 1, 5)]
    edges += [(5 + k, 5 + (k + 1) % 6, 1.3) for k in range(6)]
    edges += [(11, 12 + k, 1.0) for k in range(6)]
    edges += [(18 + k, 19 + k, w) for k, w in
              enumerate(rng.uniform(0.2, 2.5, size=7))]
    n = 29
    edges = np.array(edges)
    if perm is not None:
        edges[:, :2] = perm[edges[:, :2].astype(int)]
    return Graph(n, edges)


def test_krylov_action_batches_components_with_their_own_bounds():
    # one power series over every component, each at s = zeta b_c, with
    # restarts set by the largest bound: zeta b runs past _REACH, between
    # grid points and in one step, so the components restart under
    # different bounds.  Every R entry matches its component's expm,
    # taken of zeta (A - lam_1 I): expm of zeta A itself errs by up to
    # 2e-11 relative at zeta lam_1 = 600 in its squarings
    zetas = np.array([0.0, 0.3, 10.0, 70.0, 150.0, 60.0])
    for perm in (None, np.random.default_rng(4).permutation(29)):
        g = components_graph(perm)
        labels = g.component_labels()
        assert np.bincount(np.bincount(labels)).tolist()[1] == 3
        a = g.adjacency()
        rows = expm(g, zetas, np.ones(g.n))
        assert 150.0 * 4.0 > 2 * _REACH and (60.0 - 10.0) * 4.0 < _REACH
        for comp in np.unique(labels):
            idx = np.flatnonzero(labels == comp)
            sub = a[np.ix_(idx, idx)]
            top = np.linalg.eigvalsh(sub)[-1]
            for zeta, row in zip(zetas, rows):
                want = np.exp(zeta * top) * scipy.linalg.expm(
                    zeta * (sub - top * np.eye(idx.size))).sum(axis=1)
                np.testing.assert_allclose(row[idx], want, rtol=1e-12)


def test_krylov_action_on_a_connected_graph_is_the_power_action():
    # on one component the batched series is _power_action's, bit for bit
    zetas = np.array([0.5, 40.0, 130.0, 2.0])
    v = np.random.default_rng(5).normal(size=40)
    for g in (generate_complete(5), generate_er(40, 0.15, seed=8,
                                                require_connected=True)):
        w = v[:g.n]
        rows, shifts = expm(g, zetas, w, scaled=True)
        order = np.argsort(zetas)
        a = g.sparse_adjacency()
        want, want_shifts = _power_action(a, zetas[order], w, [0],
                                          _spectral_bound(a, [0]))
        assert np.array_equal(rows[order], want)
        assert np.array_equal(shifts[order], want_shifts[0])


def test_krylov_action_overflows_by_component_and_entry():
    # K4 plus an isolated node: exp(zeta A) 1 is exp(3 zeta) on K4 and 1 on
    # the isolated node, whatever zeta
    g = Graph(5, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
    zetas = [0.0, 100.0, 236.6, 300.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or 0 * inf warning
        rows = expm(g, zetas, np.ones(5))
        scaled, shifts = expm(g, zetas, np.ones(5), scaled=True)
        # 0.1 exp(709.8) is finite though its shift passes exp's range
        near = expm(g, 236.6, np.full(5, 0.1))
    # each component is unscaled by its own shift, which is 0 on the
    # isolated node, so it keeps its value exactly
    assert np.array_equal(rows[:, 4], np.ones(4))
    assert rows[1, :4] == pytest.approx(np.exp(300.0), rel=1e-12)
    assert np.isposinf(rows[2:, :4]).all()
    assert np.array_equal(shifts, 3.0 * np.asarray(zetas))
    assert scaled[:, :4] == pytest.approx(1.0, rel=1e-12)
    assert scaled[:, 4] == pytest.approx(np.exp(-shifts), rel=1e-12)
    assert 3.0 * 236.6 > np.log(np.finfo(float).max)
    assert np.isfinite(near).all()
    assert near[:4] == pytest.approx(np.exp(709.8 + np.log(0.1)), rel=1e-12)
    assert near[4] == 0.1
    # the SI bound writes the isolated node's exact value, not the limit 1
    traj = si_lee(g, SIParams(1000.0, 0.1, [0.0, 0.5, 1.0]))
    assert (traj.x[1:, :4] == 1.0).all()
    assert np.array_equal(traj.x[:, 4], np.full(3, 1.0 - 0.9))


def test_krylov_action_unscales_without_overflow_warning(sparse_er):
    # scaled entries above 1 times exp(shift) pass float range inside exp's
    # range; they become +inf, and the SI bound reads 1 there, silently
    g = sparse_er(300, 8.0, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = si_lee(g, SIParams(1.0, 0.01, np.linspace(0.0, 100.0, 101)))
    assert np.isposinf(traj.y[-1]).any()
    assert ((traj.x >= 0.01) & (traj.x <= 1.0)).all()


def test_each_action_takes_one_bound_pass(monkeypatch, sparse_er):
    # one _spectral_bound pass per expm call bounds every component, the
    # isolated nodes one last run of bound 0, whatever the number of
    # components: sweep takes one for the action and one for the
    # diagonal.  Each bound equals the one of its component's own
    # adjacency bit for bit, and R and C equal the separate expm calls bit
    # for bit
    calls = []
    bound = riskcent.spectral._spectral_bound

    def counted(a, starts=None):
        calls.append((a, starts, bound(a, starts)))
        return calls[-1][2]

    monkeypatch.setattr(riskcent.spectral, "_spectral_bound", counted)
    lone = generate_er(1999, 8 / 1998, seed=3)
    edges = sparse_er(1000, 8.0, seed=4).edge_array()
    pair = Graph(2000, np.vstack([edges, edges + [1000, 1000, 0]]))
    parts = components_graph(np.random.default_rng(4).permutation(29))
    for g, runs in ((lone, 2), (pair, 2), (parts, 5)):
        sizes = np.bincount(g.component_labels())
        isolated = (sizes == 1).any()
        calls.clear()
        prof = sweep(g)
        # the action's one pass over its runs, then the diagonal's
        assert [c[1] is None for c in calls] == [False, False]
        a, starts, b = calls[0]
        assert len(starts) == (sizes > 1).sum() + isolated == runs
        assert (b[-1] == 0.0) == isolated
        for lo, hi, bc in zip(starts, np.append(starts[1:], g.n), b):
            assert bound(a[lo:hi, lo:hi]) == bc
        assert np.array_equal(calls[1][1], starts)
        assert np.array_equal(calls[1][2], b)
        assert np.array_equal(prof.R, expm(g, prof.zeta_grid, np.ones(g.n)))
        assert np.array_equal(prof.C, expm(g, prof.zeta_grid))
    # components of far apart scales: each run keeps its own maximum, where
    # one shared maximum would underflow the small run's power steps
    calls.clear()
    expm(Graph(5, [(0, 1, 1e30), (2, 3), (3, 4), (2, 4)]), 1e-31, np.ones(5))
    assert calls[0][2].tolist() == [1e30, 2.0]


def test_expm_result_shapes(monkeypatch):
    g = generate_er(20, 0.3, seed=3)
    v = np.ones(20)
    y, s = expm(g, [0.1, 0.4], scaled=True)
    assert y.shape == (2, 20) and s.shape == (2,)
    # the dense route, then the Krylov route with the limit below n
    for limit in (DENSE_LIMIT_DEFAULT, 10):
        monkeypatch.setattr(riskcent.spectral, "DENSE_LIMIT_DEFAULT", limit)
        for w in (v, None):
            assert expm(g, 0.4, w).shape == (20,)
            assert expm(g, [0.1, 0.4], w).shape == (2, 20)
        y, s = expm(g, 0.4, v, scaled=True)
        assert y.shape == (20,) and np.ndim(s) == 0
        y, s = expm(g, [0.1, 0.4], v, scaled=True)
        assert y.shape == (2, 20) and s.shape == (2,)


def test_expm_scaled_krylov_action_matches_unscaled():
    # each component is unscaled by its own shift z b_c: the unscaled rows
    # are exp(z b_c) times the component's power-series rows bit for bit,
    # so the isolated nodes keep v exactly, and the scaled rows share the
    # largest shift.  components_graph() has its components in runs and
    # its isolated nodes last, so the action runs it in place
    g = components_graph()
    labels = g.component_labels()
    single = np.bincount(labels)[labels] == 1
    key = np.where(single, labels.max() + 1, labels)
    assert (np.diff(key) >= 0).all()
    starts = np.flatnonzero(np.diff(key, prepend=-1) != 0)
    run = np.cumsum(np.diff(key, prepend=-1) != 0) - 1
    v = np.random.default_rng(11).normal(size=g.n)
    zetas = np.array([0.0, 0.5, 1.3, 50.0])
    a = g.sparse_adjacency()
    y, s = _power_action(a, zetas, v, starts, _spectral_bound(a, starts))
    rows = expm(g, zetas, v)
    assert np.array_equal(rows, y * np.exp(s).T[:, run])
    assert np.array_equal(rows[:, single], np.tile(v[single], (4, 1)))
    scaled, shifts = expm(g, zetas, v, scaled=True)
    assert np.array_equal(shifts, s.max(axis=0))
    assert np.array_equal(scaled, y * np.exp(s - shifts).T[:, run])
    for k, zeta in enumerate(zetas):
        assert np.array_equal(expm(g, zeta, v), rows[k])


def test_expm_rejects_bad_input(monkeypatch):
    g = generate_complete(4)
    bad = (float("nan"), float("inf"), -0.5, [0.1, float("nan")],
           [0.2, -0.1], [[0.1, 0.2]])
    # the dense route, then the Krylov route with the limit below n
    for limit in (DENSE_LIMIT_DEFAULT, 3):
        monkeypatch.setattr(riskcent.spectral, "DENSE_LIMIT_DEFAULT", limit)
        for zeta in bad:
            with pytest.raises(ValueError, match="zeta"):
                expm(g, zeta, np.ones(4))
    with pytest.raises(ValueError, match="shape"):
        expm(g, 0.5, np.ones(3))
    # the scaled diagonal has both routes: dense, then the moments with the
    # limit below n
    for limit in (DENSE_LIMIT_DEFAULT, 3):
        monkeypatch.setattr(riskcent.spectral, "DENSE_LIMIT_DEFAULT", limit)
        d, s = expm(g, 0.5, scaled=True)
        assert np.allclose(d * np.exp(s), expm(g, 0.5), rtol=1e-12)


def test_expm_auto_routes_large_graphs_to_krylov():
    # above the dense limit both run as power series: on the ring
    # exp(zeta A) 1 = exp(2 zeta) 1 and the diagonal is I_0(2 zeta)
    n = DENSE_LIMIT_DEFAULT + 1
    ring = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
    g = Graph(n, ring)
    assert np.allclose(expm(g, 0.5, np.ones(n)), np.e, rtol=1e-12)
    assert np.allclose(expm(g, 0.5), scipy.special.i0(1.0), rtol=1e-12)
    with pytest.raises(ValueError, match="dense limit"):
        decompose(g)
