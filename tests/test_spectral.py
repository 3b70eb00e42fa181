import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

import riskcent.spectral
from riskcent.centrality import limit_rankings, sweep
from riskcent.epidemics import SIParams, si_lee, si_linearized
from riskcent.graph import Graph, generate_complete, generate_er, generate_star
from riskcent.interlacement import detect_pairs
from riskcent.spectral import (
    DENSE_LIMIT_DEFAULT,
    KRYLOV_MAX_DIM_DEFAULT,
    KrylovConvergenceError,
    _MOMENT_BLOCK,
    _exp_rows,
    _expm_krylov,
    _power_moments,
    _power_sum,
    _spectral_bound,
    _tail_ok,
    decompose,
    expm,
)


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
    dec = decompose(generate_complete(3))
    assert np.allclose(dec.eigenvalues, [2.0, -1.0, -1.0], atol=1e-12)
    assert dec.gap == pytest.approx(3.0, abs=1e-12)


def test_star_leading_eigenvalue():
    # S_5: lam_1 = sqrt(n-1) = 2
    dec = decompose(generate_star(5))
    assert dec.eigenvalues[0] == pytest.approx(2.0, abs=1e-12)


def test_eigenpairs_reconstruct():
    g = generate_er(40, 0.2, seed=3)
    a = g.adjacency()
    dec = decompose(g)
    lam, u = dec.eigenvalues, dec.eigenvectors
    norm = np.abs(a).max()
    assert np.all(np.diff(lam) <= 1e-12)
    assert np.abs(a @ u - u * lam).max() < 1e-10 * max(norm, 1.0)
    assert np.abs(u.T @ u - np.eye(g.n)).max() < 1e-10


def test_perron_vector_positive():
    for seed in range(5):
        g = generate_er(30, 0.2, seed=seed, require_connected=True)
        dec = decompose(g)
        assert (dec.eigenvectors[:, 0] > 0).all()


def test_decomposition_cached_on_graph(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    g = generate_er(30, 0.2, seed=0, require_connected=True)
    params = SIParams(0.1, 0.1, np.linspace(0.0, 2.0, 5))
    sweep(g)
    detect_pairs(g, [(0, 1), (2, 3)])
    si_lee(g, params)
    si_linearized(g, params)
    limit_rankings(g)
    expm(g, 0.5, np.ones(g.n))
    expm(g, [0.1, 0.5])
    assert calls == [(30, 30)]
    dec = decompose(g)
    assert decompose(g) is dec
    with pytest.raises(ValueError):
        dec.eigenvalues[0] = 0.0
    with pytest.raises(ValueError):
        dec.eigenvectors[:, 0] *= -1.0
    with pytest.raises(AttributeError):
        dec.eigenvalues = -dec.eigenvalues
    # an equal but distinct graph owns its own decomposition
    twin = Graph(g.n, g.edge_array(), labels=g.labels)
    assert twin == g
    other = decompose(twin)
    assert other is not dec and len(calls) == 2
    assert np.array_equal(other.eigenvalues, dec.eigenvalues)
    assert np.array_equal(other.eigenvectors, dec.eigenvectors)


def test_dense_limit_refused(monkeypatch):
    g = generate_er(30, 0.2, seed=0)
    monkeypatch.setattr(riskcent.spectral, "DENSE_LIMIT_DEFAULT", 10)
    with pytest.raises(ValueError, match="dense limit"):
        decompose(g)


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
        dec = decompose(g)
        v = np.random.default_rng(1).normal(size=g.n)
        # the grid form of the kernel, one row per zeta
        rows, diags = _exp_rows(dec, zetas, v), _exp_rows(dec, zetas)
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
    dec = decompose(g)
    for v in (np.ones(60), None):
        rows, scales = _exp_rows(dec, [0.0, 1.0, 50.0], v, scaled=True)
        assert np.isfinite(rows).all() and (rows > 0).all()
        assert np.allclose(scales, [0.0, 59.0, 50.0 * 59.0], rtol=1e-12)
        assert np.allclose(rows[:2] * np.exp(scales[:2, None]),
                           _exp_rows(dec, [0.0, 1.0], v), rtol=1e-12)


# -- Krylov route -------------------------------------------------------------


def test_krylov_matches_dense():
    for seed, zeta in [(0, 0.5), (1, 1.0), (2, 2.0)]:
        g = generate_er(120, 0.05, seed=seed)
        rng = np.random.default_rng(seed + 10)
        v = rng.normal(size=120)
        dense = expm(g, zeta, v)
        kry = _expm_krylov(g, zeta, v, False)
        assert np.abs(kry - dense).max() < 1e-8 * np.abs(dense).max()


def test_krylov_diagonal_matches_dense():
    g = generate_er(60, 0.1, seed=4)
    dense = expm(g, 1.0)
    kry = _expm_krylov(g, 1.0, None, False)
    assert np.abs(kry - dense).max() < 1e-8 * dense.max()


def test_krylov_zero_vector():
    g = generate_er(30, 0.2, seed=5)
    y = _expm_krylov(g, 1.0, np.zeros(30), False)
    assert np.array_equal(y, np.zeros(30))


def test_krylov_reports_nonconvergence():
    # zeta b ~ 30 * 11 needs a diagonal degree past the cap; the action
    # restarts instead
    g = generate_er(200, 0.05, seed=7)
    with pytest.raises(KrylovConvergenceError) as err:
        _expm_krylov(g, 30.0, None, False)
    assert err.value.dimension == KRYLOV_MAX_DIM_DEFAULT
    assert err.value.achieved > 0


def test_krylov_invariant_subspace_exit():
    # 1 is an eigenvector of K_n, and a star's hub reads cosh(zeta
    # sqrt(n - 1)) on the diagonal: the Krylov spaces from them are
    # invariant after one and two steps
    g = generate_complete(12)
    for zeta in (0.3, 2.0):
        kry = _expm_krylov(g, zeta, np.ones(12), False)
        dense = expm(g, zeta, np.ones(12))
        assert np.allclose(kry, dense, rtol=1e-12)
    star = generate_star(9)
    kry = _expm_krylov(star, 1.3, None, False)
    dense = expm(star, 1.3)
    assert np.allclose(kry, dense, rtol=1e-12)
    assert kry[0] == pytest.approx(np.cosh(1.3 * np.sqrt(8.0)), rel=1e-12)


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


# -- the routed evaluator -------------------------------------------------------


def assert_action_rows_match_dense(g, zetas, v, rtol=1e-10, entrywise=True):
    """Krylov grid rows, scaled and unscaled, against the dense rows.

    Each row agrees within ``rtol`` of its 2-norm, the norm the Lanczos
    estimate controls, and with ``entrywise`` within ``rtol`` of its
    largest entry too.  Rows whose dense value passes exp's range are
    compared scaled only.
    """
    dec = decompose(g)
    rows = _expm_krylov(g, zetas, v, False)
    scaled, shifts = _expm_krylov(g, zetas, v, True)
    want_scaled, want_shifts = _exp_rows(dec, zetas, v, scaled=True)
    norms = [np.linalg.norm] + ([lambda x: np.abs(x).max()] if entrywise
                                else [])
    for k, zeta in enumerate(zetas):
        # the two routes shift by their own top eigenvalue estimate
        pairs = [(scaled[k] * np.exp(shifts[k] - want_shifts[k]),
                  want_scaled[k])]
        if want_shifts[k] < 700.0:
            pairs.append((rows[k], _exp_rows(dec, zeta, v)))
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
    diags = _expm_krylov(g, zetas, None, False)
    for k, zeta in enumerate(zetas):
        assert np.array_equal(diags[k], _expm_krylov(g, zeta, None, False))
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
    # zeta b = 6 * 51 needs a degree past 2 (KRYLOV_MAX_DIM_DEFAULT - 1)
    with pytest.raises(KrylovConvergenceError) as err:
        _expm_krylov(graphs[-1], 6.0, None, False)
    assert err.value.dimension == KRYLOV_MAX_DIM_DEFAULT
    for g in graphs:
        if g is graphs[-1]:
            zetas = zetas[zetas <= 2.0]
        dec = decompose(g)
        rows = _expm_krylov(g, zetas, None, False)
        scaled, shifts = _expm_krylov(g, zetas, None, True)
        want_scaled, want_shifts = _exp_rows(dec, zetas, scaled=True)
        assert np.array_equal(rows[0], np.ones(g.n))
        pairs = [(scaled * np.exp(shifts - want_shifts)[:, None], want_scaled),
                 (rows, _exp_rows(dec, zetas))]
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
    k12 = [[i, j] for i in range(12) for j in range(i + 1, 12)]
    lollipop = Graph(32, k12 + [[i, i + 1] for i in range(11, 31)])
    zetas = np.array([0.0, 1e-9, 1e-4, 0.3, 1.0, 2.0, 5.0, 20.0])
    for g in (isolated, parts, lollipop):
        a = g.adjacency()
        rows = _expm_krylov(g, zetas, None, False)
        scaled, shifts = _expm_krylov(g, zetas, None, True)
        for k, zeta in enumerate(zetas):
            want = np.diag(taylor_expm_action(a, zeta, np.eye(g.n), 700))
            for got in (rows[k], scaled[k] * np.exp(shifts[k])):
                rel = np.abs(got - want) / want
                assert rel.max() <= 1e-12, (g, zeta, rel.max())
        single = np.bincount(g.component_labels())[g.component_labels()] == 1
        assert (rows[:, single] == 1.0).all()


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
        fine = np.linspace(0.0, 1e4 / decompose(g).eigenvalues[0], 51)
        rand = np.random.default_rng(g.n).normal(size=g.n)
        for zetas, v in ((fine, np.ones(g.n)), (fine[::-1], rand),
                         (fine[[50, 0, 25]], rand)):
            assert_action_rows_match_dense(g, zetas, v, entrywise=False)
        # v = 1 is positive on every component: past the range only the
        # entries that pass it overflow, to +inf
        rows = _expm_krylov(g, fine, np.ones(g.n), False)
        assert (rows > 0).all()
        assert not np.isnan(rows).any()


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
    # rows within exp's range are exp(shift) times the scaled ones, to
    # rounding off the top component; past it each component is unscaled
    # on its own
    assert rows[:2, 4] == pytest.approx(1.0, rel=1e-15)
    assert np.array_equal(rows[2:, 4], [1.0, 1.0])
    assert rows[1, :4] == pytest.approx(np.exp(300.0), rel=1e-12)
    assert np.isposinf(rows[2:, :4]).all()
    assert np.array_equal(shifts, 3.0 * np.asarray(zetas))
    assert scaled[:, :4] == pytest.approx(1.0, rel=1e-12)
    assert scaled[:, 4] == pytest.approx(np.exp(-shifts), rel=1e-12)
    assert 3.0 * 236.6 > np.log(np.finfo(float).max)
    assert np.isfinite(near).all()
    assert near[:4] == pytest.approx(np.exp(709.8 + np.log(0.1)), rel=1e-12)
    assert near[4] == pytest.approx(0.1, rel=1e-15)
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
    g = generate_er(120, 0.05, seed=1)
    v = np.random.default_rng(11).normal(size=120)
    for zeta in (0.0, 0.5, 1.3, 50.0):
        y, s = _expm_krylov(g, zeta, v, True)
        assert np.array_equal(y * np.exp(s), _expm_krylov(g, zeta, v, False))
    rows, shifts = _expm_krylov(g, [0.5, 1.3], v, True)
    plain = _expm_krylov(g, [0.5, 1.3], v, False)
    for k in range(2):
        assert np.array_equal(rows[k] * np.exp(shifts[k]), plain[k])


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
    n = DENSE_LIMIT_DEFAULT + 1
    ring = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
    g = Graph(n, ring)
    v = np.random.default_rng(2).normal(size=n)
    assert np.array_equal(expm(g, 0.5, v), _expm_krylov(g, 0.5, v, False))
    with pytest.raises(ValueError, match="dense limit"):
        decompose(g)
