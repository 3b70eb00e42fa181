"""SI epidemic trajectories on a network and their analytic bounds.

The exact model evolves infection probabilities through

    dx_i/dt = gamma * (1 - x_i) * sum_j A_ij x_j,

and three approximations are provided: the linearized flow exp(gamma t A) x0,
the survival-function upper bound built from the risk centrality R_i at
zeta = (1-beta)*gamma*t (exact SI solution of the linearized infection
pressure), and the homogeneous mean-field logistic.  The bound and the
linearized flow both dominate the exact solution componentwise.  Both are
``expm`` actions on the time grid and the exact model multiplies by the
sparse adjacency, so no solver decomposes A or forms it densely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

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

    ``x[k, i]`` is node i at time ``t_grid[k]``.  ``solver`` tags how the
    trajectory was produced.  The survival-function bound also exposes the
    cumulative infection pressure ``y`` with ``x = 1 - exp(-y)``, and the
    series path its truncation-tail estimates per time point.
    """

    t_grid: np.ndarray
    x: np.ndarray
    solver: str
    labels: list = field(default_factory=list)
    y: np.ndarray | None = None
    series_tail: np.ndarray | None = None

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

    ``x0`` defaults to the uniform seeding ``beta``.  The trajectory is
    reported on ``params.t_grid``; integration always starts from t = 0
    where ``x0`` is defined.  A failed integration raises
    ``SIIntegrationError``.
    """
    x0 = _initial_state(g, params, x0)
    t = params.t_grid
    a = g.sparse_adjacency()
    gamma = params.gamma

    def rhs(_, x):
        return gamma * (1.0 - x) * (a @ x)

    t_end = float(t[-1])
    if t_end == 0.0 or gamma == 0.0:
        return SITrajectory(t, np.tile(x0, (t.size, 1)), "exact",
                            labels=list(g.labels))
    sol = solve_ivp(rhs, (0.0, t_end), x0, method="DOP853",
                    t_eval=t[t > 0], rtol=rtol, atol=atol)
    if not sol.success:
        raise SIIntegrationError("SI integration failed: %s" % sol.message)
    rows = [x0[None, :]] * int((t == 0).sum()) + [sol.y.T]
    return SITrajectory(t, np.vstack(rows), "exact", labels=list(g.labels))


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
    return SITrajectory(params.t_grid, x, "linearized", labels=list(g.labels))


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
    return SITrajectory(params.t_grid, x, "lee", labels=list(g.labels), y=y)


def si_lee_general(g, params, x0, order=60):
    """Survival-function bound for an arbitrary seeding x0 in [0, 1).

    Evaluates the truncated series of

        y(t) = y0 + [exp(gamma t A D) - I] D^{-1} x0,   D = diag(1 - x0),

    with ``order`` terms per time point and a geometric estimate of the
    neglected tail (reported per time in ``series_tail``).  Nodes with
    x0 = 1 are rejected: D is singular there.
    """
    x0 = _initial_state(g, params, x0)
    if (x0 >= 1.0).any():
        raise ValueError("series path needs x0 < 1 at every node")
    a = g.sparse_adjacency()
    surv = 1.0 - x0
    u0 = x0 / surv
    y0 = -np.log(surv)
    t = params.t_grid
    x = np.empty((t.size, g.n))
    y = np.empty((t.size, g.n))
    tails = np.empty(t.size)
    # row sums of |A D|, D = diag(surv) with surv > 0
    row_norm = (abs(a) @ surv).max() if g.n else 0.0
    for k, tk in enumerate(t):
        coef = params.gamma * tk
        term = u0.copy()
        acc = np.zeros(g.n)
        for m in range(1, order + 1):
            term = (coef / m) * (a @ (surv * term))
            acc += term
        theta = coef * row_norm
        rho = theta / (order + 1)
        big = np.abs(term).max()
        tails[k] = big * rho / (1.0 - rho) if rho < 1.0 else np.inf
        yk = y0 + acc
        y[k] = yk
        x[k] = 1.0 - np.exp(-yk)
    return SITrajectory(t, x, "lee-general", labels=list(g.labels),
                        y=y, series_tail=tails)


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
    return SITrajectory(params.t_grid, x[:, None], "mean-field",
                        labels=["mean"])


def survival_ratio(g, zeta, beta, i, j):
    """Relative survival odds of node i against node j under the bound.

    (1 - x_i) / (1 - x_j) = exp((beta/alpha) * (R_j - R_i)) at the given
    zeta; values below 1 mean node i is the more exposed one.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly inside (0, 1)")
    r = expm(g, zeta, np.ones(g.n))
    alpha = 1.0 - beta
    return float(np.exp((beta / alpha) * (r[j] - r[i])))
