"""Spectral engine: eigendecompositions and the matrix exponential.

Everything downstream reduces to evaluating the action ``exp(z*A) @ v`` and
the diagonal ``diag(exp(z*A))`` for a symmetric adjacency A and z >= 0.
``expm`` evaluates either, for a scalar z or a grid of them, and
``expm_with_diagonal`` both on one route.  Two routes exist:

* the dense route reads the graph's one eigendecomposition (``decompose``,
  computed once and cached on the ``Graph``) through ``_exp_rows``;
* the power-series route never decomposes.  It scales A by a
  Collatz-Wielandt bound b of its spectral radius (``_spectral_bound``)
  and sums ``exp(zA) = exp(zb) sum_k w_k(zb) (A/b)^k`` with the Poisson
  weights ``w_k(s) = exp(-s) s^k / k!`` to the degree at which the
  neglected weight is at rounding level (``_tail_ok``).  One run of
  powers serves every z of the grid.

The action always takes the power-series route (``_krylov_action``): per
connected component, the powers ``(A/b)^k v`` in blocks of
``_MOMENT_BLOCK`` rows (``_power_sum``).  A sum reaches at most ``zb =
_REACH``, the most that degree ``_MAX_DEGREE`` resolves; a grid point
past that restarts the sum from the last computed row, or from a step of
``_REACH / b`` where no grid point lies within reach (``_power_action``).
The diagonal takes the route ``_moment_route`` predicts cheaper from the
graph's size, its number of edges and the top of the grid, a tie going to
the dense one.  On the power-series route (``_moment_diag``) it sums the
moments ``(A/b)^k_ii`` from powers of blocks of unit vectors
(``_power_moments``, two moments per sparse product); it is the only route
above ``DENSE_LIMIT_DEFAULT`` nodes, where ``decompose`` refuses, and
raises ``KrylovConvergenceError`` past degree ``_MAX_DEGREE``.

With ``A >= 0`` every power and weight is >= 0, so each diagonal entry
keeps its relative accuracy, an isolated node is 1 exactly and z = 0 gives
v exactly.  The dense formulas are written with ``expm1`` so that the
small-z signal ``exp(z*A) - I`` is not lost to cancellation: with
orthonormal eigenvectors, ``exp(zA)v = v + U diag(expm1(z*lam)) U^T v``
holds exactly.  The scaled form returns ``(value * exp(-log_scale),
log_scale)``, with ``log_scale`` = z lam_1 on the dense route and z b on
the power-series route, so rankings stay finite when ``z * lam_1`` would
overflow ``exp``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincinv, gammaln, xlogy

DENSE_LIMIT_DEFAULT = 5000
KRYLOV_MAX_DIM_DEFAULT = 200
_EXP_MAX = float(np.log(np.finfo(float).max))  # largest finite exp argument
_EPS = float(np.finfo(float).eps)
# largest degree of one power sum: what KRYLOV_MAX_DIM_DEFAULT Krylov
# vectors per node reach in the diagonal's moments
_MAX_DEGREE = 2 * (KRYLOV_MAX_DIM_DEFAULT - 1)
# largest s = z b that one sum of that degree resolves (_tail_ok), ~255
_REACH = float(gammaincinv(_MAX_DEGREE + 1.0, _EPS / 4.0))
_BOUND_STEPS = 20  # power steps behind the moments route's spectral bound
_MOMENT_BLOCK = 64  # nodes per moments block; powers per GEMM of the action
# predicted cost of the moments route per m (nnz + n) n, in units of the
# dense route's cost per n^3 (see _moment_route).  Measured ratios (default
# grid, one BLAS thread) run from 0.2 on ER(100, 0.5) through 1.2-1.3 on
# sparse ER graphs of 1000-2000 nodes to 2.3 on a 2000-node weighted tree;
# 2.5 leans toward the dense route wherever the two are close
_MOMENTS_PER_DENSE = 2.5


class EigensolverError(RuntimeError):
    """Dense eigendecomposition failed to converge."""


class KrylovConvergenceError(RuntimeError):
    """The power series of the diagonal needs a degree past its cap of
    ``KRYLOV_MAX_DIM_DEFAULT`` Krylov vectors per node."""

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


# -- power series of exp(zA) ------------------------------------------------


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
    """Whether Taylor degree m resolves ``exp(-s) exp(s A/b)`` to rounding
    level: every ``exp(s A/b)_ii`` relative to the entry, and every action
    ``exp(s A/b) v`` relative to ``|v|`` in the 2-norm.

    With the Poisson weights ``w_k = exp(-s) s^k / k!``, ``exp(-s) exp(s
    A/b) = sum_k w_k (A/b)^k``.  As ``|A/b| <= 1`` each neglected term of
    the action is at most ``w_k |v|``, so their sum is at most ``P(X > m)
    |v|``, X ~ Poisson(s).  On the diagonal, with ``p_k = (A/b)^k_ii``,
    every term is >= 0, the even moments fall with k and ``p_{2j+1} <=
    p_{2j}``, so every neglected term has ``p_k <= p_E``, E the largest
    even number <= m + 1, while each even k <= m has ``p_k >= p_E``.  The
    neglected part is thus at most ``P(X > m) / (1/2 - P(X > m))`` of the
    kept part, whatever the node.  The answer is whether ``P(X > m) <= eps
    / 4``, which keeps that ratio under one ulp.  It falls with m, so the
    first degree that passes is the one needed.  s and m broadcast.
    """
    return gammainc(np.asarray(m) + 1.0, s) <= _EPS / 4.0


def _poisson_weights(s, degree, shift):
    """``w[j, k] = exp(-shift[j]) s[j]^k / k!`` for k = 0..degree."""
    k = np.arange(degree + 1)
    return np.exp(xlogy(k, s[:, None]) - gammaln(k + 1.0) - shift[:, None])


def _power_sum(ah, s, x):
    """Rows ``exp(-s[j]) exp(s[j] ah) x = sum_k w_k(s[j]) ah^k x``, with
    the Poisson weights ``w_k(s) = exp(-s) s^k / k!`` of ``_tail_ok``.

    ``ah`` is the adjacency scaled by its spectral bound and every s is at
    most ``_REACH``.  The sum runs to the degree ``_tail_ok`` gives the
    largest s, at most ``_MAX_DEGREE``.  The powers ``ah^k x`` fill a
    block of ``_MOMENT_BLOCK`` rows, which one GEMM adds to every row, so
    one sum holds the block and the rows whatever its degree.  s = 0 gives
    x exactly.
    """
    ok = _tail_ok(s.max(), np.arange(_MAX_DEGREE + 1))
    top = int(np.argmax(ok)) if ok.any() else _MAX_DEGREE
    coef = _poisson_weights(s, top, s)
    rows = np.zeros((s.size, x.size))
    pw = np.empty((min(_MOMENT_BLOCK, top + 1), x.size))
    for first in range(0, top + 1, len(pw)):
        stop = min(first + len(pw), top + 1)
        for k in range(first, stop):
            # at k = first, pw[-1] holds power k - 1 from the full block before
            pw[k - first] = ah @ pw[k - first - 1] if k else x
        rows += coef[:, first:stop] @ pw[:stop - first]
    return rows


def _power_action(a, z, v):
    """Scaled rows ``exp(-z[k] b) exp(z[k] A) v`` for an ascending grid z on
    the CSR adjacency ``a`` of one connected component, and their shifts
    ``z b``, b being its spectral bound (``_spectral_bound``).

    One ``_power_sum`` from the last computed row serves every next point
    within ``_REACH / b`` of it.  Where the next point lies past that, the
    run restarts from a step of ``_REACH / b`` instead.  Each start is a
    row scaled by its own shift, so the rows stay finite however far z
    runs.
    """
    b = _spectral_bound(a)
    ah = a / b
    rows = np.empty((z.size, v.size))
    x, base, k = v, 0.0, 0
    while k < z.size:
        s = (z[k:] - base) * b
        done = int(np.searchsorted(s, _REACH, side="right"))
        if done == 0:
            x = _power_sum(ah, np.array([_REACH]), x)[0]
            base += _REACH / b
            continue
        rows[k:k + done] = _power_sum(ah, s[:done], x)
        k += done
        x, base = rows[k - 1], z[k - 1]
    return rows, z * b


def _krylov_action(a, labels, z, v, scaled):
    """Rows ``exp(z[k]*A) @ v`` for a 1-D grid z, one component at a time.

    exp(zA) is block diagonal over the connected components (``labels``),
    so each component runs its own ``_power_action`` on its block of the
    CSR adjacency ``a``, with its own shift; isolated nodes, where A is 0,
    keep v.  Scaled rows share the largest component shift.  Unscaled rows
    are ``exp(shift)`` times the scaled ones (+-inf where that passes float
    range); where the shift passes exp's range each component is unscaled
    on its own, entry by entry, so only entries whose value passes float
    range become +-inf.
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
            parts.append((idx, *_power_action(sub, zs, v[idx])))
    shift = np.max([s for _, _, s in parts], axis=0)
    rows = np.empty((z.size, v.size))
    for idx, y, s in parts:
        rows[:, idx] = y * np.exp(s - shift)[:, None]
    if not scaled:
        safe = shift <= _EXP_MAX
        with np.errstate(over="ignore", divide="ignore"):
            rows[safe] *= np.exp(shift[safe])[:, None]
            for idx, y, s in parts if not safe.all() else []:
                y = y[~safe]
                rows[np.ix_(~safe, idx)] = np.sign(y) * np.exp(
                    np.log(np.abs(y)) + s[~safe, None])
    back = np.argsort(order)
    return (rows[back], shift[back]) if scaled else rows[back]


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


def _moment_diag(a, z, scaled, b=None):
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
    at most ``KRYLOV_MAX_DIM_DEFAULT`` Krylov vectors per node, degree
    ``_MAX_DEGREE``; past that raises ``KrylovConvergenceError``.  Scaled
    rows are ``(rows, s)``, with the Poisson weights ``exp(-s) s^k / k!``.
    """
    if b is None:
        b = _spectral_bound(a)
    s = z * b
    ok = _tail_ok(s.max(), np.arange(_MAX_DEGREE + 1))
    if not ok.any():
        tail = float(gammainc(_MAX_DEGREE + 1.0, s.max()))
        raise KrylovConvergenceError(
            "power moments of the diagonal did not reach rel tol %g at "
            "zeta = %g in %d dimensions (achieved %g)"
            % (_EPS, z.max(), KRYLOV_MAX_DIM_DEFAULT, tail),
            achieved=tail, dimension=KRYLOV_MAX_DIM_DEFAULT)
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
    coef = _poisson_weights(s, top, shift)
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
                 _MAX_DEGREE)
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
    ``rows``.  The action sums the Poisson-weighted powers of the sparse
    adjacency per connected component for the whole grid at every graph
    size (``_krylov_action``), so it never decomposes; past exp's range
    only the entries whose value passes float range are +-inf.  The
    diagonal takes the route ``_moment_route``
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
    eigendecomposition; otherwise both from power series of the sparse
    adjacency (``_expm_krylov``), so the graph is never decomposed.
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


def _expm_krylov(g, z, v, scaled, bound=None):
    """``expm`` on the cached CSR adjacency, never decomposing, from the
    power series ``exp(zA) = exp(zb) sum_k w_k(zb) (A/b)^k``: the action
    per component to rounding level of its 2-norm (``_krylov_action``),
    the diagonal to rounding level of each entry (``_moment_diag``).
    ``bound`` is the diagonal's spectral bound b where the caller has it.
    """
    a = g.sparse_adjacency()
    grid = np.atleast_1d(z)
    if v is None:
        out = _moment_diag(a, grid, scaled, bound)
    else:
        out = _krylov_action(a, g.component_labels(), grid, v, scaled)
    if np.ndim(z) == 0:
        out = (out[0][0], out[1][0]) if scaled else out[0]
    return out
