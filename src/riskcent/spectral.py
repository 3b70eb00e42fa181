"""Spectral engine: eigendecompositions and the matrix exponential.

Everything downstream reduces to evaluating the action ``exp(z*A) @ v`` and
the diagonal ``diag(exp(z*A))`` for a symmetric adjacency A and z >= 0.
``expm`` is the one public evaluator, for a scalar z or a grid of them:

* the action takes one Krylov route at every graph size
  (``_krylov_action``), so it never decomposes: per connected component
  of the sparse adjacency, one Lanczos run (``_lanczos``, full
  reorthogonalization) from v/|v| whose basis serves every z of the grid
  (``_lanczos_action``), restarted from a computed row only when a run
  reaches ``KRYLOV_MAX_DIM_DEFAULT`` dimensions;
* the diagonal of a graph of up to ``DENSE_LIMIT_DEFAULT`` nodes comes
  from the graph's one eigendecomposition (``decompose``, computed once
  and cached on the ``Graph``) through ``_exp_rows``, which ``sweep`` also
  calls directly for R and C on its grid; above the limit, from one
  Gauss-quadrature Lanczos run per node and z (``_lanczos_diag_entry``).

The unscaled formulas are written with ``expm1`` so that the small-z
signal ``exp(z*A) - I`` is not lost to cancellation: with orthonormal
eigenvectors, ``exp(zA)v = v + U diag(expm1(z*lam)) U^T v`` holds exactly,
and likewise in the Lanczos basis (``_basis_rows``).  The scaled form returns
``(value * exp(-log_scale), log_scale)`` so rankings stay finite when
``z * lam_1`` would overflow ``exp``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

DENSE_LIMIT_DEFAULT = 5000
KRYLOV_TOL_DEFAULT = 1e-10
KRYLOV_MAX_DIM_DEFAULT = 200
_BASIS_BLOCK = 16  # first Lanczos basis allocation, in rows
_TAIL_RATIO_MAX = 0.9  # largest term ratio the action's tail estimate uses
_SUBSTEPS = (0.5, 0.25, 0.125)  # fractions of a step a stuck run may take
_EXP_MAX = float(np.log(np.finfo(float).max))  # largest finite exp argument


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


def _ritz_exp(alphas, betas, z):
    """exp(z*T_m) e_1 in the eigenbasis of the Lanczos tridiagonal T_m.

    Returns ``(theta, s, w, shift)`` with ``T_m = s diag(theta) s^T``,
    ``shift = z * theta_max`` and ``w = s^T exp(z*T_m) e_1 / exp(shift)``,
    finite for any z >= 0; a 1-D grid z gives one row of w per value.
    """
    theta, s = eigh_tridiagonal(np.asarray(alphas), np.asarray(betas))
    w = np.exp(np.multiply.outer(z, theta - theta[-1])) * s[0]
    return theta, s, w, z * theta[-1]


def _lanczos(matvec, q, max_dim):
    """Lanczos process from the unit vector ``q`` with full reorthogonalization.

    After step m yields ``(alphas, betas, b, basis)``: the m diagonal and
    m - 1 off-diagonal entries of the tridiagonal T_m, the norm b of the
    next residual and the orthonormal basis ``(m, n)``.  b is reported as 0
    when the residual vanishes: the Krylov space is then invariant, T_m is
    exact and the process stops.  It also stops after ``min(max_dim, n)``
    steps.  The basis buffer starts at ``_BASIS_BLOCK`` rows and doubles
    when full, so a run of m steps holds O(m n) memory, not O(max_dim n).
    """
    n = q.size
    m_cap = min(max_dim, n)
    vs = np.empty((min(_BASIS_BLOCK, m_cap), n))
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
        if m == vs.shape[0]:
            grown = np.empty((min(2 * m, m_cap), n))
            grown[:m] = vs
            vs = grown
        vs[m] = w / b


def _basis_rows(x, beta0, basis, theta, s, h):
    """Scaled rows ``exp(-sig) exp(h[k]*A) x`` from a Lanczos basis of x.

    ``exp(-sig) x + |x| V S c`` with ``sig = h theta_max`` and
    ``c = expm1(h theta) exp(-sig) S[0]`` (``exp(h theta - sig) -
    exp(-sig)`` where ``|h theta| >= 1``, which neither overflows nor
    cancels): h = 0 gives x exactly, and ``exp(sig)`` times a row keeps the
    expm1 form's small-h signal ``exp(hA)x - x``.
    """
    sig = np.multiply.outer(h, theta[-1:])
    e = np.exp(-sig)
    ht = np.multiply.outer(h, theta)
    small = np.abs(ht) < 1.0
    c = np.where(small, np.expm1(np.where(small, ht, 0.0)) * e,
                 np.exp(ht - sig) - e)
    return e * x + beta0 * ((c * s[0]) @ s.T) @ basis, sig[:, 0]


def _lanczos_action(matvec, z, v, tol, max_dim):
    """Scaled rows ``exp(-shifts[k]) exp(z[k]*A) @ v`` for an ascending grid z.

    K_m(A, x) does not depend on zeta, so one Lanczos run from x/|x| serves
    every grid point.  After each step T_m = S diag(theta) S^T is
    diagonalized once.  The error estimate at each point is the first
    neglected term relative to the approximation, in the 2-norm,
    ``beta_m |[exp(h T_m)]_{m,1}| / |exp(h T_m) e_1|`` with h the step from
    the run's start x (scale-free, so computed on the shifted exponential),
    divided by ``1 - q`` for the geometric tail of the neglected terms, q
    being the term's last ratio capped at ``_TAIL_RATIO_MAX``.  The run ends
    once the estimate is at most ``tol`` at every remaining point on two
    consecutive steps, or when the Krylov space is invariant.

    A run that reaches ``max_dim`` dimensions keeps the leading points that
    passed and restarts from the last of them.  If not even the next point
    passed, it steps the largest of ``_SUBSTEPS`` of the way to it that did
    (the candidates are tracked alongside the grid) and restarts there; if
    none did, it raises ``KrylovConvergenceError``.  Each restart halves the
    tolerance, so the errors the runs pass on sum to at most 2 ``tol``.
    """
    rows = np.empty((z.size, v.size))
    shifts = np.empty(z.size)
    x, base, scale, k, runs = v, 0.0, 0.0, 0, 0
    while k < z.size:
        beta0 = float(np.linalg.norm(x))
        if beta0 == 0.0:
            rows[k:] = 0.0
            shifts[k:] = scale
            break
        run_tol = tol * 0.5**runs
        runs += 1
        h = z[k:] - base
        # the sub-step candidates lead the grid: they pass no later than h[0]
        hs = np.concatenate([np.multiply(_SUBSTEPS[::-1], h[0]), h])
        good = np.zeros(hs.size, dtype=int)
        prev = np.full(hs.size, np.inf)
        for alphas, betas, b, basis in _lanczos(matvec, x / beta0, max_dim):
            theta, s, w, _ = _ritz_exp(alphas, betas, hs)
            if b == 0.0:
                good[:] = 2  # invariant subspace: T_m is exact
                break
            term = b * np.abs(w @ s[-1]) / np.maximum(
                np.linalg.norm(w, axis=1), 1e-300)
            with np.errstate(divide="ignore", invalid="ignore"):
                q = np.minimum(np.nan_to_num(term / prev), _TAIL_RATIO_MAX)
            prev = term
            rel = term / (1.0 - q)
            good = np.where(rel <= run_tol, good + 1, 0)
            if (good[len(_SUBSTEPS):] >= 2).all():
                break
        else:
            if len(alphas) == x.size:
                good[:] = 2  # the basis spans the whole space
        real = good[len(_SUBSTEPS):] >= 2
        done = h.size if real.all() else int(np.argmin(real))
        if done == 0:
            hops = np.flatnonzero(good[:len(_SUBSTEPS)] >= 2)
            if not hops.size:
                raise KrylovConvergenceError(
                    "Lanczos exp action did not reach rel tol %g at zeta = "
                    "%g in %d dimensions (achieved %g)"
                    % (run_tol, z[k], len(alphas), rel[len(_SUBSTEPS)]),
                    achieved=float(rel[len(_SUBSTEPS)]),
                    dimension=len(alphas))
            y, sig = _basis_rows(x, beta0, basis, theta, s, hs[hops[-1:]])
            x, base, scale = y[0], base + hs[hops[-1]], scale + sig[0]
            continue
        y, sig = _basis_rows(x, beta0, basis, theta, s, h[:done])
        rows[k:k + done] = y
        shifts[k:k + done] = scale + sig
        k += done
        x, base, scale = rows[k - 1], z[k - 1], shifts[k - 1]
    return rows, shifts


def _krylov_action(a, labels, z, v, scaled, tol, max_dim):
    """Rows ``exp(z[k]*A) @ v`` for a 1-D grid z, one component at a time.

    exp(zA) is block diagonal over the connected components (``labels``),
    so each component runs its own ``_lanczos_action`` on its block of the
    CSR adjacency ``a``, with its own shift; isolated nodes, where A is 0,
    keep v.  Scaled rows share the largest component shift.  Unscaled rows
    are ``exp(shift)`` times the scaled ones; where that passes exp's range
    each component is unscaled on its own, entry by entry, so only entries
    whose value passes float range become +-inf.
    """
    order = np.argsort(z, kind="stable")
    zs = z[order]
    single = np.bincount(labels)[labels] == 1
    iso = np.flatnonzero(single)
    parts = [(iso, np.broadcast_to(v[iso], (z.size, iso.size)),
              np.zeros(z.size))] if iso.size else []
    rest = np.flatnonzero(~single)
    rest = rest[np.argsort(labels[rest], kind="stable")]
    for idx in np.split(rest, np.flatnonzero(np.diff(labels[rest])) + 1):
        if idx.size:
            sub = a if idx.size == v.size else a[idx][:, idx]
            y, s = _lanczos_action(lambda x: sub @ x, zs, v[idx], tol, max_dim)
            parts.append((idx, y, s))
    shift = np.max([s for _, _, s in parts], axis=0)
    rows = np.empty((z.size, v.size))
    for idx, y, s in parts:
        rows[:, idx] = y * np.exp(s - shift)[:, None]
    if not scaled:
        safe = shift <= _EXP_MAX
        rows[safe] *= np.exp(shift[safe])[:, None]
        with np.errstate(over="ignore", divide="ignore"):
            for idx, y, s in parts if not safe.all() else []:
                y = y[~safe]
                rows[np.ix_(~safe, idx)] = np.sign(y) * np.exp(
                    np.log(np.abs(y)) + s[~safe, None])
    back = np.argsort(order)
    return (rows[back], shift[back]) if scaled else rows[back]


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
        _, s, w, shift = _ritz_exp(alphas, betas, zeta)
        val = float(s[0] @ w)
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
    ``rows``.  The action takes one Lanczos basis per connected component
    for the whole grid at every graph size (``_krylov_action``), so it
    never decomposes; past exp's range only the entries whose value passes
    float range are +-inf.  The
    diagonal of a graph of at most ``DENSE_LIMIT_DEFAULT`` nodes comes from
    ``_exp_rows`` on its cached eigendecomposition; above that, from
    per-node Lanczos quadrature, which has no scaled form.
    """
    z = np.asarray(zetas, dtype=float)
    if z.ndim > 1 or (z < 0).any() or not np.isfinite(z).all():
        raise ValueError("zeta must be a finite nonnegative scalar or 1-D "
                         "grid, got %r" % (zetas,))
    if v is not None:
        v = _check_vector(v, g.n)
    elif g.n <= DENSE_LIMIT_DEFAULT:
        return _exp_rows(decompose(g), z, None, scaled)
    return _expm_krylov(g, z, v, scaled)


def _expm_krylov(g, z, v, scaled, tol=KRYLOV_TOL_DEFAULT,
                 max_dim=KRYLOV_MAX_DIM_DEFAULT):
    """``expm`` by Lanczos on the cached CSR adjacency: one basis per
    component for the action on the whole grid, and one quadrature per
    node and zeta for the diagonal, each to relative ``tol`` with at most
    ``max_dim`` dimensions per basis.
    """
    if scaled and v is None:
        raise ValueError("the scaled diagonal has no Krylov route")
    a = g.sparse_adjacency()
    mv = lambda x: a @ x
    grid = np.atleast_1d(z)
    if v is not None:
        out = _krylov_action(a, g.component_labels(), grid, v, scaled, tol,
                             max_dim)
        if np.ndim(z) == 0:
            out = (out[0][0], out[1][0]) if scaled else out[0]
        return out
    rows = np.empty((grid.size, g.n))
    for k, zeta in enumerate(grid):
        for i in range(g.n):
            val, s = _lanczos_diag_entry(mv, zeta, i, g.n, tol, max_dim)
            rows[k, i] = val * np.exp(s)
    return rows[0] if np.ndim(z) == 0 else rows
