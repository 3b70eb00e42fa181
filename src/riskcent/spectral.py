"""Spectral engine: eigendecompositions and the matrix exponential.

Everything downstream reduces to evaluating the action ``exp(z*A) @ v`` and
the diagonal ``diag(exp(z*A))`` for a symmetric adjacency A and z >= 0.
``expm`` evaluates either, for a scalar z or a grid of them, and
``expm_with_diagonal`` both on one route:

* the action takes one Krylov route at every graph size
  (``_krylov_action``), so it never decomposes: per connected component
  of the sparse adjacency, one Lanczos run (``_lanczos``, full
  reorthogonalization) from v/|v| whose basis serves every z of the grid
  (``_lanczos_action``), restarted from a computed row only when a run
  reaches ``KRYLOV_MAX_DIM_DEFAULT`` dimensions;
* the diagonal takes the route ``_moment_route`` predicts cheaper from
  the graph's size, its number of edges and the top of the grid, a tie
  going to the dense one.  The dense route reads the graph's one
  eigendecomposition (``decompose``, computed once and cached on the
  ``Graph``) through ``_exp_rows``.  The moments route (``_moment_diag``)
  never decomposes: it scales A by a Collatz-Wielandt bound b of its
  spectral radius (``_spectral_bound``), takes the moments
  ``(A/b)^k_ii`` from powers of blocks of unit vectors
  (``_power_moments``, two moments per sparse product) and sums them
  with the Poisson weights of ``z b`` for every z of the grid, to a degree
  whose truncation error is at rounding level of each entry
  (``_tail_ok``).  It is the only route above ``DENSE_LIMIT_DEFAULT``
  nodes, where ``decompose`` refuses.

The unscaled formulas are written with ``expm1`` so that the small-z
signal ``exp(z*A) - I`` is not lost to cancellation: with orthonormal
eigenvectors, ``exp(zA)v = v + U diag(expm1(z*lam)) U^T v`` holds exactly,
and likewise in the Lanczos basis (``_basis_rows``); on the moments route
every term of the sum is >= 0, so each diagonal entry keeps its relative
accuracy and an isolated node is 1 exactly.  The scaled form returns
``(value * exp(-log_scale), log_scale)`` so rankings stay finite when
``z * lam_1`` would overflow ``exp``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammainc, gammaln, xlogy

DENSE_LIMIT_DEFAULT = 5000
KRYLOV_TOL_DEFAULT = 1e-10
KRYLOV_MAX_DIM_DEFAULT = 200
_BASIS_BLOCK = 16  # first Lanczos basis allocation, in rows
_TAIL_RATIO_MAX = 0.9  # largest term ratio the action's tail estimate uses
_CHECK_GROWTH = 1.2  # ratio of the action's convergence-check step schedule
_SUBSTEPS = (0.5, 0.25, 0.125)  # fractions of a step a stuck run may take
_EXP_MAX = float(np.log(np.finfo(float).max))  # largest finite exp argument
_EPS = float(np.finfo(float).eps)
_BOUND_STEPS = 20  # power steps behind the moments route's spectral bound
_MOMENT_BLOCK = 64  # nodes per block of the power moments
# predicted cost of the moments route per m (nnz + n) n, in units of the
# dense route's cost per n^3 (see _moment_route).  Measured ratios (default
# grid, one BLAS thread) run from 0.2 on ER(100, 0.5) through 1.2-1.3 on
# sparse ER graphs of 1000-2000 nodes to 2.3 on a 2000-node weighted tree;
# 2.5 leans toward the dense route wherever the two are close
_MOMENTS_PER_DENSE = 2.5


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
    graphs above ``DENSE_LIMIT_DEFAULT`` nodes, which ``expm`` evaluates
    without it.
    """
    if g._dec is not None:
        return g._dec
    if g.n > DENSE_LIMIT_DEFAULT:
        raise ValueError(
            "graph has %d nodes, above the dense limit %d of the "
            "eigendecomposition" % (g.n, DENSE_LIMIT_DEFAULT))
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

    Returns ``(theta, s, w)`` with ``T_m = s diag(theta) s^T`` and
    ``w = s^T exp(z*T_m) e_1 / exp(z * theta_max)``, finite for any
    z >= 0; a 1-D grid z gives one row of w per value.
    """
    theta, s = eigh_tridiagonal(np.asarray(alphas), np.asarray(betas))
    w = np.exp(np.multiply.outer(z, theta - theta[-1])) * s[0]
    return theta, s, w


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
    norm_est = 1.0  # largest |entry| of T_m so far, at least 1
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
        norm_est = max(norm_est, abs(a))
        exact = b < 1e-12 * norm_est
        yield alphas, betas, 0.0 if exact else b, vs[:m]
        if exact or m == m_cap:
            return
        betas.append(b)
        norm_est = max(norm_est, b)
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
    every grid point.  Convergence is tested, by diagonalizing
    T_m = S diag(theta) S^T once, on a geometric schedule of steps (each
    about ``_CHECK_GROWTH`` times the last), on the step after one where
    every point passed, on the last two steps before the dimension cap and
    when the space is invariant, so a long run does not pay O(m^2) per
    step.  The error estimate at each point is the first neglected term
    relative to the approximation, in the 2-norm,
    ``beta_m |[exp(h T_m)]_{m,1}| / |exp(h T_m) e_1|`` with h the step from
    the run's start x (scale-free, so computed on the shifted exponential),
    divided by ``1 - q`` for the geometric tail of the neglected terms, q
    being the term's mean ratio per step since the last test, capped at
    ``_TAIL_RATIO_MAX``.  The run ends once the estimate is at most ``tol``
    at every remaining point on two consecutive steps, or when the Krylov
    space is invariant.

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
        m_cap, last, due = min(max_dim, x.size), 0, 1
        for alphas, betas, b, basis in _lanczos(matvec, x / beta0, max_dim):
            m = len(alphas)
            if b != 0.0 and m < due and m < m_cap - 1:
                continue
            theta, s, w = _ritz_exp(alphas, betas, hs)
            if b == 0.0:
                good[:] = 2  # invariant subspace: T_m is exact
                break
            term = b * np.abs(w @ s[-1]) / np.maximum(
                np.linalg.norm(w, axis=1), 1e-300)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = (term / prev)**(1.0 / (m - last))
                q = np.minimum(np.nan_to_num(ratio), _TAIL_RATIO_MAX)
            rel = term / (1.0 - q)
            # passes count on consecutive steps only
            good = np.where(rel <= run_tol, good + 1 if m == last + 1 else 1,
                            0)
            if (good[len(_SUBSTEPS):] >= 2).all():
                break
            prev, last = term, m
            due = (m + 1 if (good[len(_SUBSTEPS):] > 0).all()
                   else max(m + 1, int(m * _CHECK_GROWTH)))
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


# -- power moments of the diagonal -------------------------------------------


def _spectral_bound(a):
    """Upper bound b >= rho(A) of a symmetric CSR adjacency with weights > 0.

    Collatz-Wielandt: ``rho(A) <= max_i (Ax)_i / x_i`` for A >= 0 and any
    x > 0.  x is ones after ``_BOUND_STEPS`` normalized power steps of
    A + I, which keep it positive and turn it toward the Perron vector, so
    b closes in on lambda_1.  A graph without edges gives 0.
    """
    x = np.ones(a.shape[0])
    for _ in range(_BOUND_STEPS):
        x += a @ x
        x /= x.max()
    return float(((a @ x) / x).max())


def _tail_ok(s, m):
    """Whether Taylor degree m resolves every ``exp(s A/b)_ii`` to rounding
    level, relative to the entry.

    With ``p_k = (A/b)^k_ii`` and the Poisson weights ``w_k = exp(-s) s^k /
    k!``, ``exp(-s) exp(s A/b)_ii = sum_k w_k p_k``, every term >= 0.  As
    ``|A/b| <= 1`` the even moments fall with k and ``p_{2j+1} <= p_{2j}``,
    so every neglected term has ``p_k <= p_E``, E the largest even number
    <= m + 1, while each even k <= m has ``p_k >= p_E``.  The neglected
    part is thus at most ``P(X > m) / (1/2 - P(X > m))`` of the kept part,
    X ~ Poisson(s), whatever the node.  The answer is whether
    ``P(X > m) <= eps / 4``, which keeps that ratio under one ulp.  It
    falls with m, so the first degree that passes is the one needed.  s
    and m broadcast.
    """
    return gammainc(np.asarray(m) + 1.0, s) <= _EPS / 4.0


def _power_moments(ah, nodes, degree):
    """Moments ``mu[k] = (ah^k)_ii``, k = 0..degree, at a block of nodes i.

    ``ah >= 0`` is the adjacency scaled into [-1, 1].  The powers ``X_k =
    ah^k X_0`` of the unit columns X_0 of the block yield two moments per
    sparse product: ``mu[2k] = |X_k col|^2`` and ``mu[2k+1] = <X_k col,
    X_{k+1} col>``.  Every number here is a sum of products of numbers
    >= 0, so each moment keeps its relative accuracy.  Two (n, block)
    arrays are live at a time.
    """
    mu = np.empty((degree + 1, nodes.size))
    mu[0] = 1.0
    x = np.zeros((ah.shape[0], nodes.size))
    x[nodes, np.arange(nodes.size)] = 1.0
    for k in range(1, (degree + 1) // 2 + 1):
        nxt = ah @ x
        mu[2 * k - 1] = np.einsum("ij,ij->j", x, nxt)
        x = nxt
        if 2 * k <= degree:
            mu[2 * k] = np.einsum("ij,ij->j", x, x)
    return mu


def _moment_diag(a, z, scaled, max_dim, b=None):
    """Rows ``diag(exp(z[k]*A))`` for a 1-D grid z from power moments.

    With the spectral bound b (``_spectral_bound`` unless given) and ``s =
    z b``, ``diag(exp(zA)) = sum_k s^k / k! mu_k`` over the moments of A/b
    (``_power_moments``).  Every term is >= 0, so each entry is accurate
    relative to itself, isolated nodes (1 exactly) and nodes of a small
    component or of a small Perron weight included, where a Chebyshev sum
    would cancel to rounding level of ``exp(s)``.  One pass of
    ``_power_moments`` per ``_MOMENT_BLOCK`` nodes serves every grid
    point; each row sums its own degree (``_tail_ok``), so a grid row
    equals the single-z call.  The degree at the top of the grid may use
    at most ``max_dim`` Krylov vectors per node, degree ``2 (max_dim -
    1)``; past that raises ``KrylovConvergenceError``.  Scaled rows are
    ``(rows, s)``, with the Poisson weights ``exp(-s) s^k / k!``.
    """
    if b is None:
        b = _spectral_bound(a)
    s = z * b
    cap = 2 * (max_dim - 1)
    ok = _tail_ok(s.max(), np.arange(cap + 1))
    if not ok.any():
        tail = float(gammainc(cap + 1.0, s.max()))
        raise KrylovConvergenceError(
            "power moments of the diagonal did not reach rel tol %g at "
            "zeta = %g in %d dimensions (achieved %g)"
            % (_EPS, z.max(), max_dim, tail),
            achieved=tail, dimension=max_dim)
    top = int(np.argmax(ok))
    # the tail grows with s, so every row passes by degree top
    ok = _tail_ok(s[:, None], np.arange(top + 1))
    degrees = np.where(ok.any(axis=1), np.argmax(ok, axis=1), top)
    n = a.shape[0]
    ah = a / b if b > 0.0 else a
    mu = np.empty((top + 1, n))
    for start in range(0, n, _MOMENT_BLOCK):
        stop = min(start + _MOMENT_BLOCK, n)
        mu[:, start:stop] = _power_moments(ah, np.arange(start, stop), top)
    # s^k / k! times exp(-shift): shift s when scaled, else only as much as
    # keeps exp(s) finite, so that the weight at k = 0 is 1 exactly
    shift = s if scaled else np.maximum(s - _EXP_MAX, 0.0)
    k = np.arange(top + 1)
    coef = np.exp(xlogy(k, s[:, None]) - gammaln(k + 1.0) - shift[:, None])
    rows = np.empty((z.size, n))
    for j, m in enumerate(degrees):
        rows[j] = coef[j, :m + 1] @ mu[:m + 1]
    if scaled:
        return rows, s
    big = shift > 0.0
    with np.errstate(over="ignore"):
        rows[big] = np.exp(np.log(rows[big]) + shift[big, None])
    return rows


def _moment_route(g, z):
    """The spectral bound of the moments route for the diagonal of
    ``exp(zA)`` on the grid z, or None where it takes the dense route.

    Above ``DENSE_LIMIT_DEFAULT`` nodes the moments route is the only one.
    Otherwise the predicted costs decide, a tie going to the dense route:
    ``n^3`` for ``decompose`` against ``_MOMENTS_PER_DENSE * m (nnz + n)
    n`` for the moments, m being the Taylor degree the top of the grid
    needs.  So the moments win when the largest degree they can afford
    resolves the top of the grid, checked first with the mean strength, a
    lower bound of lambda_1 and so of b, and only then with the bound.
    """
    n = g.n
    a = g.sparse_adjacency()
    top = float(np.max(z, initial=0.0))
    if n > DENSE_LIMIT_DEFAULT:
        return _spectral_bound(a)
    afford = min(int(np.ceil(n**2 / (_MOMENTS_PER_DENSE * (a.nnz + n)))) - 1,
                 2 * (KRYLOV_MAX_DIM_DEFAULT - 1))
    if not _tail_ok(top * a.data.sum() / n, afford):
        return None
    b = _spectral_bound(a)
    return b if _tail_ok(top * b, afford) else None


# -- the routed evaluator ----------------------------------------------------


def _check_zetas(zetas):
    z = np.asarray(zetas, dtype=float)
    if z.ndim > 1 or (z < 0).any() or not np.isfinite(z).all():
        raise ValueError("zeta must be a finite nonnegative scalar or 1-D "
                         "grid, got %r" % (zetas,))
    return z


def expm(g, zetas, v=None, scaled=False):
    """``exp(zetas[k]*A) @ v`` on the adjacency of ``g``, or the diagonal
    ``diag(exp(zetas[k]*A))`` if v is None.

    One row per value of a 1-D grid ``zetas`` or
    one 1-D result for a scalar, and with ``scaled=True`` the pair
    ``(rows, s)`` with the unscaled rows equal to ``exp(s)`` times
    ``rows``.  The action takes one Lanczos basis per connected component
    for the whole grid at every graph size (``_krylov_action``), so it
    never decomposes; past exp's range only the entries whose value passes
    float range are +-inf.  The diagonal takes the route ``_moment_route``
    predicts cheaper for the graph and the top of the grid: ``_exp_rows``
    on the cached eigendecomposition, or power moments of the sparse
    adjacency (``_moment_diag``), which never decompose and are the only
    route above ``DENSE_LIMIT_DEFAULT`` nodes.  Both have a scaled form.
    """
    z = _check_zetas(zetas)
    if v is not None:
        return _expm_krylov(g, z, _check_vector(v, g.n), scaled)
    b = _moment_route(g, z)
    if b is None:
        return _exp_rows(decompose(g), z, None, scaled)
    return _expm_krylov(g, z, None, scaled, bound=b)


def expm_with_diagonal(g, zetas, v):
    """``(expm(g, zetas, v), expm(g, zetas))`` on the diagonal's route.

    Where the diagonal takes the dense route both come from the one
    eigendecomposition; otherwise the action from the Krylov route and the
    diagonal from the power moments, so the graph is never decomposed.
    The route is chosen once for the pair.
    """
    z = _check_zetas(zetas)
    v = _check_vector(v, g.n)
    b = _moment_route(g, z)
    if b is None:
        dec = decompose(g)
        return _exp_rows(dec, z, v), _exp_rows(dec, z)
    return (_expm_krylov(g, z, v, False),
            _expm_krylov(g, z, None, False, bound=b))


def _expm_krylov(g, z, v, scaled, tol=KRYLOV_TOL_DEFAULT,
                 max_dim=KRYLOV_MAX_DIM_DEFAULT, bound=None):
    """``expm`` on the cached CSR adjacency, never decomposing: the action by
    one Lanczos basis per component for the whole grid, to relative
    ``tol``, and the diagonal by power moments to rounding level of each
    entry, each with at most ``max_dim`` Krylov vectors per basis or node.
    ``bound`` is the diagonal's spectral bound where the caller has it.
    """
    a = g.sparse_adjacency()
    grid = np.atleast_1d(z)
    if v is None:
        out = _moment_diag(a, grid, scaled, max_dim, bound)
    else:
        out = _krylov_action(a, g.component_labels(), grid, v, scaled, tol,
                             max_dim)
    if np.ndim(z) == 0:
        out = (out[0][0], out[1][0]) if scaled else out[0]
    return out
