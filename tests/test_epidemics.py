import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

from riskcent.spectral import expm
from riskcent.epidemics import (
    SIParams,
    si_exact,
    si_lee,
    si_lee_general,
    si_linearized,
    si_meanfield,
    survival_ratio,
)
from riskcent.graph import (Graph, generate_complete, generate_er,
                            generate_star, relabel)


def params(gamma=1.0, beta=0.01, t_end=5.0, steps=21):
    return SIParams(gamma, beta, np.linspace(0.0, t_end, steps))


# -- parameter validation ------------------------------------------------------


def test_siparams_validation():
    with pytest.raises(ValueError, match="beta"):
        SIParams(1.0, 0.0, [0.0, 1.0])
    with pytest.raises(ValueError, match="beta"):
        SIParams(1.0, 1.0, [0.0, 1.0])
    with pytest.raises(ValueError, match="gamma"):
        SIParams(-1.0, 0.5, [0.0, 1.0])
    with pytest.raises(ValueError, match="increasing"):
        SIParams(1.0, 0.5, [1.0, 0.5])
    for bad in (np.nan, np.inf):
        for t_grid in ([0.0, bad], [bad], [0.0, 1.0, bad]):
            with pytest.raises(ValueError, match="finite"):
                SIParams(0.1, 0.1, t_grid)
    p = SIParams(2.0, 0.2, [0.0, 1.0])
    assert p.alpha == pytest.approx(0.8)
    assert p.zeta_at(1.0) == pytest.approx(1.6)


# -- exact integrator ----------------------------------------------------------


def test_exact_two_node_logistic():
    # a single edge with equal seeding reduces to the scalar logistic
    g = Graph(2, [(0, 1)])
    p = params(gamma=1.0, beta=0.01, t_end=6.0, steps=25)
    traj = si_exact(g, p)
    t = p.t_grid
    want = p.beta * np.exp(t) / (1 - p.beta + p.beta * np.exp(t))
    assert np.abs(traj.x[:, 0] - want).max() < 1e-9
    assert np.abs(traj.x[:, 1] - want).max() < 1e-9


def test_exact_equilibria():
    g = generate_er(20, 0.2, seed=0)
    p = params()
    frozen = si_exact(g, p, x0=np.zeros(20))
    assert np.abs(frozen.x).max() == 0.0
    saturated = si_exact(g, p, x0=np.ones(20))
    assert np.abs(saturated.x - 1.0).max() < 1e-12


def test_exact_monotone_and_bounded():
    g = generate_er(25, 0.15, seed=3, require_connected=True)
    p = params(gamma=0.5, beta=0.05, t_end=8.0, steps=33)
    traj = si_exact(g, p)
    assert (np.diff(traj.x, axis=0) >= -1e-12).all()
    assert traj.x.min() >= -1e-12 and traj.x.max() <= 1.0 + 1e-12


def test_exact_time_rate_scaling():
    # the dynamics depend on gamma*t only
    g = generate_er(15, 0.25, seed=5)
    p1 = SIParams(0.002, 0.02, np.linspace(0, 500, 11))
    p2 = SIParams(0.001, 0.02, np.linspace(0, 1000, 11))
    a = si_exact(g, p1)
    b = si_exact(g, p2)
    assert np.abs(a.x - b.x).max() < 1e-9


def test_exact_zero_gamma_and_zero_horizon():
    g = generate_complete(4)
    p = SIParams(0.0, 0.3, np.linspace(0, 2, 5))
    traj = si_exact(g, p)
    assert np.array_equal(traj.x, np.full((5, 4), 0.3))
    single = si_exact(g, SIParams(1.0, 0.3, [0.0]))
    assert single.x.shape == (1, 4)
    assert np.array_equal(single.x[0], np.full(4, 0.3))


# -- linearized flow -----------------------------------------------------------


def test_linearized_small_time_agreement():
    g = Graph(2, [(0, 1)])
    p = SIParams(1.0, 0.01, [0.0, 1e-4])
    lin = si_linearized(g, p)
    exact = si_exact(g, p)
    assert np.abs(lin.x - exact.x).max() < 1e-7


def test_linearized_dominates_exact():
    for seed in range(3):
        g = generate_er(20, 0.2, seed=seed, require_connected=True)
        p = params(gamma=0.3, beta=0.02, t_end=4.0, steps=17)
        lin = si_linearized(g, p)
        exact = si_exact(g, p)
        assert (lin.x >= exact.x - 1e-9).all()


def test_linearized_explicit_form():
    g = generate_er(10, 0.4, seed=2)
    p = SIParams(0.7, 0.1, [0.0, 0.5, 1.3])
    import scipy.linalg
    lin = si_linearized(g, p)
    x0 = np.full(10, 0.1)
    assert np.array_equal(lin.x[0], x0)  # exactly x0 at t = 0
    for k, t in enumerate(p.t_grid):
        want = scipy.linalg.expm(0.7 * t * g.adjacency()) @ x0
        assert np.allclose(lin.x[k], want, rtol=1e-10)


# -- survival-function bound -----------------------------------------------------


def test_lee_chain_of_bounds():
    for seed in range(3):
        g = generate_er(30, 0.15, seed=seed, require_connected=True)
        p = params(gamma=0.25, beta=0.02, t_end=6.0, steps=25)
        exact = si_exact(g, p)
        lee = si_lee(g, p)
        assert (exact.x <= lee.x + 1e-9).all()
        assert (lee.x <= 1.0 + 1e-12).all()


def test_exact_stays_below_one_and_the_bound():
    # integrating x itself, the step error carried the star's hub to
    # 1 + 1e-6, above 1 and the lee bound; the pressure y = -log(1 - x)
    # keeps x = -expm1(-y) at most 1
    g = generate_star(20)
    p = params(gamma=1.0, beta=0.01, t_end=20.0, steps=51)
    exact = si_exact(g, p).x
    assert (exact <= 1.0).all()
    assert (exact <= si_lee(g, p).x + 1e-9).all()
    # a hub seeded with certainty stays 1 and infects each leaf at rate
    # gamma: x_leaf = 1 - exp(-gamma t)
    x0 = np.zeros(20)
    x0[0] = 1.0
    traj = si_exact(g, p, x0=x0)
    assert (traj.x[:, 0] == 1.0).all()
    want = -np.expm1(-p.t_grid)
    assert np.abs(traj.x[:, 1:] - want[:, None]).max() < 1e-9


def test_lee_time_zero_and_y():
    g = generate_er(12, 0.3, seed=1)
    p = params(beta=0.07)
    lee = si_lee(g, p)
    assert np.allclose(lee.x[0], p.beta, atol=1e-12)
    assert np.allclose(lee.x, 1.0 - np.exp(-lee.y), atol=1e-12)
    # y at t=0 equals the seeding surprise -log(alpha)
    assert np.allclose(lee.y[0], -np.log(p.alpha), atol=1e-12)


def test_lee_vanishing_seed_limit():
    g = generate_complete(5)
    p = SIParams(1.0, 1e-12, [0.0, 1.0])
    lee = si_lee(g, p)
    # x ~ beta * R as beta -> 0, so values collapse toward zero
    assert lee.x.max() < 1e-9


def test_lee_general_reduces_to_uniform():
    g = generate_er(15, 0.25, seed=8, require_connected=True)
    p = params(gamma=0.4, beta=0.03, t_end=3.0, steps=13)
    uni = si_lee(g, p)
    gen = si_lee_general(g, p, np.full(15, p.beta))
    assert np.abs(uni.x - gen.x).max() < 1e-10


def test_lee_general_bounds_exact_nonuniform():
    g = generate_er(20, 0.2, seed=4, require_connected=True)
    rng = np.random.default_rng(0)
    x0 = rng.uniform(0.0, 0.08, size=20)
    p = params(gamma=0.3, beta=0.5, t_end=4.0, steps=17)  # beta unused here
    exact = si_exact(g, p, x0=x0)
    gen = si_lee_general(g, p, x0)
    assert (exact.x <= gen.x + 1e-9).all()
    assert gen.x.min() >= 0.0 and gen.x.max() <= 1.0


def test_lee_general_matches_nonsymmetric_exponential():
    # y = -log(1 - x0) + [exp(gamma t A D) - I] D^{-1} x0, D = diag(1 - x0),
    # from the dense exponential of the nonsymmetric A D, on a weighted
    # graph with an isolated node and a seeding that varies by node
    base = generate_er(19, 0.25, seed=3)
    w = np.random.default_rng(4).uniform(0.2, 3.0, size=base.m)
    g = Graph(20, np.column_stack([base.edge_array()[:, :2], w]))
    x0 = np.random.default_rng(5).uniform(0.0, 0.6, size=20)
    p = params(gamma=0.7, t_end=3.0, steps=7)
    gen = si_lee_general(g, p, x0)
    ad = g.adjacency() * (1.0 - x0)
    for k, t in enumerate(p.t_grid):
        want = -np.log1p(-x0) + (scipy.linalg.expm(p.gamma * t * ad)
                                 - np.eye(20)) @ (x0 / (1.0 - x0))
        assert np.allclose(gen.y[k], want, rtol=1e-10, atol=0)
    assert np.array_equal(gen.x, 1.0 - np.exp(-gen.y))


def test_lee_general_rejects_saturated_nodes():
    g = generate_complete(3)
    p = params()
    with pytest.raises(ValueError, match="x0 < 1"):
        si_lee_general(g, p, np.array([0.2, 1.0, 0.2]))


# -- mean field ------------------------------------------------------------------


def test_meanfield_matches_scalar_ode():
    p = SIParams(0.05, 0.03, np.linspace(0, 40, 17))
    kbar = 6.5
    mf = si_meanfield(kbar, p)

    def rhs(_, x):
        return 0.05 * kbar * x * (1 - x)

    sol = solve_ivp(rhs, (0, 40), [0.03], t_eval=p.t_grid[1:],
                    rtol=1e-11, atol=1e-13)
    assert np.abs(mf.x[1:, 0] - sol.y[0]).max() < 1e-9
    assert mf.x[0, 0] == pytest.approx(0.03)


def test_meanfield_limits():
    p = SIParams(1.0, 0.2, [0.0, 50.0])
    mf = si_meanfield(3.0, p)
    assert mf.x[0, 0] == pytest.approx(0.2)
    assert mf.x[1, 0] == pytest.approx(1.0, abs=1e-12)


# -- survival ratio ----------------------------------------------------------------


def test_survival_ratio_symmetry_and_bound_consistency():
    g = generate_er(15, 0.3, seed=6, require_connected=True)
    beta, gamma, t = 0.05, 0.5, 2.0
    zeta = (1 - beta) * gamma * t
    p = SIParams(gamma, beta, [0.0, t])
    lee = si_lee(g, p)
    surv = 1.0 - lee.x[1]
    r = expm(g, zeta, np.ones(g.n))
    i, j = int(np.argmax(r)), int(np.argmin(r))
    got = survival_ratio(g, zeta, beta, i, j)
    assert got == pytest.approx(surv[i] / surv[j], rel=1e-9)
    assert got < 1.0  # the more exposed node survives less often
    assert survival_ratio(g, zeta, beta, i, i) == 1.0
    assert survival_ratio(g, zeta, beta, j, i) == pytest.approx(1.0 / got)


def test_survival_ratio_complete_graph_is_one():
    g = generate_complete(6)
    assert survival_ratio(g, 0.8, 0.1, 0, 5) == pytest.approx(1.0)


# -- structural behavior -------------------------------------------------------------


def test_permutation_equivariance():
    g = generate_er(12, 0.3, seed=9, require_connected=True)
    perm = list(np.random.default_rng(3).permutation(12))
    h = relabel(g, perm)
    p = params(gamma=0.4, beta=0.05, t_end=3.0, steps=7)
    for solver in (si_exact, si_lee, si_linearized):
        a = solver(g, p)
        b = solver(h, p)
        # node i of g is node perm[i] of h
        assert np.abs(a.x - b.x[:, perm]).max() < 1e-8


def test_trajectory_csv(tmp_path):
    g = Graph(2, [(0, 1)], labels=["u", "v"])
    p = SIParams(1.0, 0.1, [0.0, 1.0])
    traj = si_lee(g, p)
    path = tmp_path / "x.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,u,v"
    assert len(lines) == 3
    back = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
    assert np.array_equal(back, traj.x)


def test_mean_curve():
    g = generate_complete(4)
    p = params(t_end=2.0, steps=5)
    traj = si_exact(g, p)
    assert np.allclose(traj.mean_curve(), traj.x.mean(axis=1))
