"""Spectral engine: eigendecompositions and the matrix exponential.

Everything downstream reduces to evaluating the action ``exp(z*A) @ v`` and
the diagonal ``diag(exp(z*A))`` for a symmetric adjacency A and z >= 0.
``expm`` is the one public evaluator, for a scalar z or a grid of them; the
node count alone picks one of two kernels:

* up to ``DENSE_LIMIT_DEFAULT`` nodes, a dense route through the graph's
  one eigendecomposition (``decompose``, computed once and cached on the
  ``Graph``): ``_exp_rows``, which ``sweep`` and the SI bounds also call
  directly on their grids;
* above it, a Krylov route that only touches A through matrix-vector
  products (``_expm_krylov``): one Lanczos loop with full
  reorthogonalization (``_lanczos``) serves the action and the
  Gauss-quadrature diagonal, which differ in start vector and stopping rule.

The dense formulas are written with ``expm1`` so that the small-z signal
``exp(z*A) - I`` is not lost to cancellation: since the eigenvectors are
orthonormal, ``exp(zA)v = v + U diag(expm1(z*lam)) U^T v`` holds exactly.
The scaled form returns ``(value * exp(-log_scale), log_scale)`` so rankings
stay finite when ``z * lam_1`` would overflow ``exp``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

DENSE_LIMIT_DEFAULT = 5000
KRYLOV_TOL_DEFAULT = 1e-10
KRYLOV_MAX_DIM_DEFAULT = 200


class EigensolverError(RuntimeError):
    """Dense eigendecomposition failed to converge."""


class KrylovConvergenceError(RuntimeError):
    """Lanczos iteration hit its dimension cap before the tolerance."""

    def __init__(self, message, achieved, dimension):
        super().__init__(message)
        self.achieved = achieved
        self.dimension = dimension


@dataclass(frozen=True)
class SpectralDecomposition:
    """Full eigensystem of a symmetric adjacency matrix.

    ``eigenvalues`` are sorted descending and ``eigenvectors[:, j]`` is the
    orthonormal eigenvector for ``eigenvalues[j]``.  Each eigenvector is
    sign-normalized so its largest-magnitude entry is positive; for a
    connected graph this makes the leading (Perron) vector entrywise
    positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self):
        return self.eigenvalues.size

    @property
    def gap(self):
        """Spectral gap lam_1 - lam_2 (0 for a single node)."""
        if self.n < 2:
            return 0.0
        return float(self.eigenvalues[0] - self.eigenvalues[1])


def decompose(g):
    """Dense eigendecomposition of the adjacency of ``g``.

    Computed on the first call and cached on the graph, read-only, so every
    measure of one graph reads the same ``U exp(zeta Lam) U^T``.  Refuses
    graphs above ``DENSE_LIMIT_DEFAULT`` nodes, which only ``expm`` can
    evaluate (by Lanczos).
    """
    if g._dec is not None:
        return g._dec
    if g.n > DENSE_LIMIT_DEFAULT:
        raise ValueError(
            "graph has %d nodes, above the dense limit %d; only expm "
            "evaluates such graphs, by Lanczos" % (g.n, DENSE_LIMIT_DEFAULT))
    try:
        lam, u = np.linalg.eigh(g.adjacency())
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            "symmetric eigensolver did not converge on n=%d: %s"
            % (g.n, exc)) from exc
    lam = lam[::-1].copy()
    u = u[:, ::-1].copy()
    # deterministic sign: largest-|entry| positive per column
    piv = np.argmax(np.abs(u), axis=0)
    flip = u[piv, np.arange(u.shape[1])] < 0
    u[:, flip] *= -1.0
    lam.setflags(write=False)
    u.setflags(write=False)
    g._dec = SpectralDecomposition(lam, u)
    return g._dec


def _check_vector(v, n):
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ValueError("vector has shape %r, expected (%d,)" % (v.shape, n))
    return v


# -- dense route -----------------------------------------------------------


def _exp_rows(dec, zetas, v=None, scaled=False):
    """Rows ``exp(zetas[k]*A) @ v``, or ``diag(exp(zetas[k]*A))`` if v is None.

    The one dense evaluator of the exponential.  ``zetas`` is a 1-D grid,
    giving one row per value, or a scalar, giving one 1-D result.  Unscaled
    rows are ``v + (expm1(z*lam) * (U^T v)) U^T`` (``1 + expm1(z*lam) (U*U)^T``
    for the diagonal).  With ``scaled=True`` returns ``(rows, s)`` with
    ``s = zetas * lam_1`` and each row ``exp(-s)`` times the unscaled one,
    finite for any z >= 0.
    """
    z = np.asarray(zetas, dtype=float)
    lam, u = dec.eigenvalues, dec.eigenvectors
    if scaled:
        e = np.exp(np.multiply.outer(z, lam - lam[0]))
    else:
        e = np.expm1(np.multiply.outer(z, lam))
    # scaling e by U^T v, not U, keeps the action free of an (n, n) temporary
    rows = e @ (u**2).T if v is None else (e * (u.T @ v)) @ u.T
    if scaled:
        return rows, z * lam[0]
    return (1.0 if v is None else v) + rows


# -- Krylov route ------------------------------------------------------------


def _expm_tridiag_e1(alphas, betas, zeta):
    """Scaled first column of exp(zeta*T) for symmetric tridiagonal T.

    Returns ``(col, s)`` with ``exp(zeta*T) e_1 = exp(s) * col`` and
    ``s = zeta * theta_max``, keeping the small solve finite for any zeta.
    """
    if len(alphas) == 1:
        return np.array([1.0]), zeta * alphas[0]
    theta, s = eigh_tridiagonal(np.asarray(alphas), np.asarray(betas))
    top = zeta * theta[-1]
    return s @ (np.exp(zeta * theta - top) * s[0]), top


def _lanczos(matvec, q, max_dim):
    """Lanczos process from the unit vector ``q`` with full reorthogonalization.

    After step m yields ``(alphas, betas, b, basis)``: the m diagonal and
    m - 1 off-diagonal entries of the tridiagonal T_m, the norm b of the
    next residual and the orthonormal basis ``(m, n)``.  b is reported as 0
    when the residual vanishes: the Krylov space is then invariant, T_m is
    exact and the process stops.  It also stops after ``min(max_dim, n)``
    steps.
    """
    n = q.size
    m_cap = min(max_dim, n)
    vs = np.empty((m_cap, n))
    vs[0] = q
    alphas = []
    betas = []
    for m in range(1, m_cap + 1):
        w = matvec(vs[m - 1])
        if m > 1:
            w = w - betas[-1] * vs[m - 2]
        a = float(vs[m - 1] @ w)
        alphas.append(a)
        w = w - a * vs[m - 1]
        # full reorthogonalization keeps the basis numerically orthogonal
        w = w - vs[:m].T @ (vs[:m] @ w)
        b = float(np.linalg.norm(w))
        norm_est = max(max(abs(x) for x in alphas), max(betas, default=0.0))
        exact = b < 1e-12 * max(1.0, norm_est)
        yield alphas, betas, 0.0 if exact else b, vs[:m]
        if exact or m == m_cap:
            return
        betas.append(b)
        vs[m] = w / b


def _lanczos_expm_action(matvec, zeta, v, tol, max_dim):
    """exp(zeta*A) v through the Lanczos process started from v/|v|.

    The error estimate is the magnitude of the first neglected term,
    ``beta_m * |[exp(zeta*T_m)]_{m,1}|``; iteration stops once two
    consecutive estimates fall below ``tol`` relative to the current
    approximation (measured on the scaled exponential to stay finite).
    """
    beta0 = np.linalg.norm(v)
    if beta0 == 0.0:
        return np.zeros(v.size), 0.0
    good = 0
    for alphas, betas, b, basis in _lanczos(matvec, v / beta0, max_dim):
        small, shift = _expm_tridiag_e1(alphas, betas, zeta)
        if b == 0.0:
            break  # invariant subspace: the small solve is exact
        rel = b * abs(small[-1]) / max(float(np.linalg.norm(small)), 1e-300)
        good = good + 1 if rel <= tol else 0
        if good >= 2:
            break
    else:
        raise KrylovConvergenceError(
            "Lanczos exp action did not reach rel tol %g in %d "
            "dimensions (achieved %g)" % (tol, len(alphas), rel),
            achieved=rel, dimension=len(alphas))
    return basis.T @ (beta0 * small), shift


def _lanczos_diag_entry(matvec, zeta, i, n, tol, max_dim):
    """(exp(zeta*A))_{ii} by Lanczos quadrature started from e_i.

    Convergence is declared when two consecutive iterates agree to ``tol``
    relatively; returns the scaled value and the log scale used.
    """
    q = np.zeros(n)
    q[i] = 1.0
    prev = None
    good = 0
    rel = np.inf
    for alphas, betas, b, _ in _lanczos(matvec, q, max_dim):
        col, shift = _expm_tridiag_e1(alphas, betas, zeta)
        val = float(col[0])
        if b == 0.0:
            break  # invariant subspace: the quadrature is exact
        if prev is not None:
            # compare on a common scale: prev carried its own shift
            rel = abs(val - prev[0] * np.exp(prev[1] - shift)) / max(abs(val), 1e-300)
            good = good + 1 if rel <= tol else 0
            if good >= 2:
                break
        prev = (val, shift)
    else:
        raise KrylovConvergenceError(
            "Lanczos quadrature for node %d did not reach rel tol %g "
            "in %d dimensions" % (i, tol, len(alphas)),
            achieved=rel, dimension=len(alphas))
    return val, shift


# -- the routed evaluator ----------------------------------------------------


def expm(g, zetas, v=None, scaled=False):
    """``exp(zetas[k]*A) @ v`` on the adjacency of ``g``, or the diagonal
    ``diag(exp(zetas[k]*A))`` if v is None.

    The one public evaluator: one row per value of a 1-D grid ``zetas`` or
    one 1-D result for a scalar, and with ``scaled=True`` the pair
    ``(rows, s)`` with the unscaled rows equal to ``exp(s)`` times
    ``rows``.  A graph of at most ``DENSE_LIMIT_DEFAULT`` nodes takes the
    dense route, ``_exp_rows`` on its cached eigendecomposition.  A larger
    one takes the Krylov route, which never forms a dense matrix; its
    diagonal has no scaled form.
    """
    z = np.asarray(zetas, dtype=float)
    if z.ndim > 1 or (z < 0).any() or not np.isfinite(z).all():
        raise ValueError("zeta must be a finite nonnegative scalar or 1-D "
                         "grid, got %r" % (zetas,))
    if v is not None:
        v = _check_vector(v, g.n)
    if g.n <= DENSE_LIMIT_DEFAULT:
        return _exp_rows(decompose(g), z, v, scaled)
    return _expm_krylov(g, z, v, scaled)


def _expm_krylov(g, z, v, scaled, tol=KRYLOV_TOL_DEFAULT,
                 max_dim=KRYLOV_MAX_DIM_DEFAULT):
    """``expm`` by Lanczos: one run per zeta for the action and one
    quadrature per node and zeta for the diagonal, each to relative ``tol``
    within ``max_dim`` dimensions.
    """
    if scaled and v is None:
        raise ValueError("the scaled diagonal has no Krylov route")
    a = g.sparse_adjacency()
    mv = lambda x: a @ x
    grid = np.atleast_1d(z)
    rows = np.empty((grid.size, g.n))
    shifts = np.empty(grid.size)
    for k, zeta in enumerate(grid):
        if v is None:
            for i in range(g.n):
                val, s = _lanczos_diag_entry(mv, zeta, i, g.n, tol, max_dim)
                rows[k, i] = val * np.exp(s)
        else:
            y, shifts[k] = _lanczos_expm_action(mv, zeta, v, tol, max_dim)
            rows[k] = y if scaled else y * np.exp(shifts[k])
    if np.ndim(z) == 0:
        rows, shifts = rows[0], shifts[0]
    return (rows, shifts) if scaled else rows
