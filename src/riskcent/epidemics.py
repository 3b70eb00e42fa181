"""SI epidemic trajectories on a network and their analytic bounds.

The exact model evolves infection probabilities through

    dx_i/dt = gamma * (1 - x_i) * sum_j A_ij x_j,

and three approximations are provided: the linearized flow exp(gamma t A) x0,
the survival-function upper bound built from the risk centrality R_i at
zeta = (1-beta)*gamma*t (exact SI solution of the linearized infection
pressure; ``si_lee_general`` for any seeding), and the homogeneous
mean-field logistic.  The bound and the linearized flow both dominate the
exact solution componentwise.  Each is one ``expm`` action on the time
grid, a Poisson-weighted power series of the sparse adjacency (of its
symmetric rescaling ``D^{1/2} A D^{1/2}`` for a general seeding), and the
exact model multiplies by the sparse adjacency, so no solver decomposes A
or forms it densely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .graph import Graph
from .spectral import expm
from .centrality import write_grid_csv


class SIIntegrationError(RuntimeError):
    """The adaptive integrator of the exact SI equations failed."""


@dataclass
class SIParams:
    """Infection rate ``gamma``, uniform seed probability ``beta``, time grid."""

    gamma: float
    beta: float
    t_grid: np.ndarray

    def __post_init__(self):
        self.gamma = float(self.gamma)
        self.beta = float(self.beta)
        self.t_grid = np.asarray(self.t_grid, dtype=float)
        if self.gamma < 0 or not np.isfinite(self.gamma):
            raise ValueError("gamma must be finite and nonnegative")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie strictly inside (0, 1), got %g"
                             % self.beta)
        if self.t_grid.ndim != 1 or self.t_grid.size == 0:
            raise ValueError("t_grid must be a nonempty 1-D array")
        if not np.isfinite(self.t_grid).all():
            raise ValueError("t_grid must be finite")
        if (self.t_grid < 0).any() or (np.diff(self.t_grid) <= 0).any():
            raise ValueError("t_grid must be nonnegative and strictly increasing")

    @property
    def alpha(self):
        """Survival probability of the uniform seeding, 1 - beta."""
        return 1.0 - self.beta

    def zeta_at(self, t):
        """Effective coupling zeta = alpha * gamma * t."""
        return self.alpha * self.gamma * np.asarray(t, dtype=float)


@dataclass
class SITrajectory:
    """Per-node infection probabilities over a time grid.

    ``x[k, i]`` is node i at time ``t_grid[k]``.  The survival-function
    bounds also expose the cumulative infection pressure ``y`` with ``x =
    1 - exp(-y)``.
    """

    t_grid: np.ndarray
    x: np.ndarray
    labels: list = field(default_factory=list)
    y: np.ndarray | None = None

    def mean_curve(self):
        """Average infection probability at each time."""
        return self.x.mean(axis=1)

    def to_csv(self, path):
        names = self.labels or [str(i) for i in range(self.x.shape[1])]
        write_grid_csv(path, "t", self.t_grid, self.x, names)


def _initial_state(g, params, x0):
    if x0 is None:
        return np.full(g.n, params.beta)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (g.n,):
        raise ValueError("x0 has shape %r, expected (%d,)" % (x0.shape, g.n))
    if (x0 < 0).any() or (x0 > 1).any():
        raise ValueError("initial probabilities must lie in [0, 1]")
    return x0


def si_exact(g, params, x0=None, rtol=1e-10, atol=1e-12):
    """Integrate the exact SI equations with an adaptive explicit RK scheme.

    ``x0`` defaults to the uniform seeding ``beta``.  The integrated state
    is the infection pressure ``y = -log(1 - x)``, which obeys
    ``dy_i/dt = gamma sum_j A_ij x_j`` with ``x = -expm1(-y)``, so the
    reported x never passes 1 however the step error falls.  Nodes seeded
    with x0 = 1 (y = inf) stay at 1 and only feed the others.  The
    trajectory is reported on ``params.t_grid``; integration always starts
    from t = 0 where ``x0`` is defined.  A failed integration raises
    ``SIIntegrationError``.
    """
    x0 = _initial_state(g, params, x0)
    t = params.t_grid
    a = g.sparse_adjacency()
    gamma = params.gamma
    free = x0 < 1.0
    x = x0.copy()

    def rhs(_, y):
        x[free] = -np.expm1(-y)
        return gamma * (a @ x)[free]

    t_end = float(t[-1])
    if t_end == 0.0 or gamma == 0.0 or not free.any():
        return SITrajectory(t, np.tile(x0, (t.size, 1)),
                            labels=list(g.labels))
    sol = solve_ivp(rhs, (0.0, t_end), -np.log1p(-x0[free]), method="DOP853",
                    t_eval=t[t > 0], rtol=rtol, atol=atol)
    if not sol.success:
        raise SIIntegrationError("SI integration failed: %s" % sol.message)
    xs = np.tile(x0, (t.size, 1))
    xs[np.ix_(t > 0, free)] = -np.expm1(-sol.y.T)
    return SITrajectory(t, xs, labels=list(g.labels))


def si_linearized(g, params, x0=None):
    """Linearized flow x(t) = exp(gamma t A) x0.

    Accurate only for small t and small x0; the values eventually leave
    [0, 1] and are reported unclipped.  A flow that overflows float range
    raises ``ValueError`` naming the first such t.
    """
    x0 = _initial_state(g, params, x0)
    x = expm(g, params.gamma * params.t_grid, x0)
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        raise ValueError("linearized: exp(gamma t A) x0 overflows at t = %r"
                         % float(params.t_grid[bad][0]))
    return SITrajectory(params.t_grid, x, labels=list(g.labels))


def si_lee(g, params):
    """Survival-function upper bound for the uniform seeding.

    With R_i evaluated at zeta(t) = alpha*gamma*t,

        y_i(t) = -log(alpha) + (beta/alpha) * (R_i - 1)
        x_i(t) = 1 - alpha * exp(-(beta/alpha) * (R_i - 1)) = 1 - exp(-y_i).

    Where R_i passes float range, y_i is inf and x_i its limit 1.
    """
    r = expm(g, params.zeta_at(params.t_grid), np.ones(g.n))
    beta, alpha = params.beta, params.alpha
    pressure = (beta / alpha) * (r - 1.0)
    y = -np.log(alpha) + pressure
    x = 1.0 - alpha * np.exp(-pressure)
    return SITrajectory(params.t_grid, x, labels=list(g.labels), y=y)


def si_lee_general(g, params, x0):
    """Survival-function bound for an arbitrary seeding x0 in [0, 1).

    With ``D = diag(s)``, ``s = 1 - x0``,

        y(t) = -log s + [exp(gamma t A D) - I] D^{-1} x0.

    ``A D`` is similar to ``D^{1/2} A D^{1/2}``, the adjacency of g with
    weights ``w_uv sqrt(s_u s_v)``, so with ``w = x0 / sqrt(s)``, ``y(t) =
    -log s + (exp(gamma t D^{1/2} A D^{1/2}) w - w) / sqrt(s)``: one
    ``expm`` action on the time grid.  Nodes with x0 = 1 are rejected: D
    is singular there.
    """
    x0 = _initial_state(g, params, x0)
    if (x0 >= 1.0).any():
        raise ValueError("series path needs x0 < 1 at every node")
    surv = 1.0 - x0
    root = np.sqrt(surv)
    edges = g.edge_array()
    u, v = edges[:, 0].astype(int), edges[:, 1].astype(int)
    edges[:, 2] *= root[u] * root[v]
    w = x0 / root
    y = -np.log(surv) + (
        expm(Graph(g.n, edges), params.gamma * params.t_grid, w) - w) / root
    return SITrajectory(params.t_grid, 1.0 - np.exp(-y),
                        labels=list(g.labels), y=y)


def si_meanfield(kbar, params):
    """Homogeneous mean-field logistic at mean degree ``kbar``.

    x(t) = beta / (beta + (1 - beta) exp(-gamma kbar t)); returned as a
    one-column trajectory.
    """
    kbar = float(kbar)
    if kbar < 0:
        raise ValueError("mean degree must be nonnegative")
    beta = params.beta
    x = beta / (beta + (1.0 - beta) * np.exp(-params.gamma * kbar * params.t_grid))
    return SITrajectory(params.t_grid, x[:, None], labels=["mean"])
