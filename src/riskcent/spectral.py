"""Spectral engine: eigendecompositions and the matrix exponential.

Everything downstream reduces to evaluating the action ``exp(z*A) @ v`` and
the diagonal ``diag(exp(z*A))`` for a symmetric adjacency A and z >= 0.
``expm`` evaluates either, for a scalar z or a grid of them, one connected
component at a time, as exp(zA) is block diagonal over them
(``_by_component``).  The nodes of each component form one run and the
isolated nodes one last run; one ``_spectral_bound`` pass gives every run
a Collatz-Wielandt bound b_c of its spectral radius; a kernel returns each
run's rows scaled by its own shift, and one unscale serves every run.

* The action (``_power_action``) sums ``exp(zA) = exp(z b_c) sum_k
  w_k(z b_c) (A/b_c)^k`` with the Poisson weights ``w_k(s) = exp(-s) s^k /
  k!`` to the degree at which the neglected weight is at rounding level
  (``_tail_ok``).  Each component's rows of A are scaled by its own bound,
  so one run of powers serves every component and every z of the grid, in
  blocks of ``_MOMENT_BLOCK`` rows (``_power_sum``).  A sum runs to ``zb
  = _REACH`` at most, b the largest bound, which keeps its Poisson weights
  accurate; a grid point past that restarts the sum from the last
  computed row, or from a step of ``_REACH / b`` where no grid point lies
  within it.
* The diagonal (``_diag_runs``) takes for each run the route predicted
  cheaper from the run's size, its number of edges and ``z b_c`` at the
  top of the grid, a tie going to the dense one.  A dense run reads its
  own eigensystem (``_eigensystem``) through ``_exp_rows``.  A moments run
  sums the moments ``(A/b_c)^k_ii`` from powers of blocks of unit vectors
  (``_power_moments``, two moments per sparse product), each grid row to
  the degree it needs (``_series_degree``, which the interlacement tables
  share), at any z (``_moment_rows``).  The moments are the only route
  for a run above ``DENSE_LIMIT_DEFAULT`` nodes.  A run is unshifted
  while its scale, ``z lam_1`` or ``z b_c``, is within exp's range, and
  shifted by it past that or when scaled.

Each power-series sum is one fixed-order ``_series_sum``, so equal inputs
give equal entries.  With ``A >= 0`` every power, moment and weight is >=
0, so each entry of the moments diagonal and of the action on a v >= 0
keeps its relative accuracy, and z = 0 gives v exactly.  The dense rows
are written with ``expm1`` so that the small-z signal ``exp(z*A) - I`` is
not lost to cancellation, and z = 0 gives 1 exactly: with orthonormal
eigenvectors, ``diag(exp(zA)) = 1 + (U*U) expm1(z*lam)`` holds exactly.
They carry rounding of order ``eps exp(z lam_1)`` of their own run into
every entry of the run, though, so an entry far below that, as at the
far end of a path off a clique, is lost; an isolated node or a small
component is a run of its own and keeps its entries.  Unscaled, each
component is multiplied by its own ``exp(shift)``, in log space past
exp's range, so an isolated node's entries are exact and only entries
whose value passes float range become +-inf.  The scaled form returns
``(value * exp(-log_scale), log_scale)``, ``log_scale`` being the largest
component shift of each grid row, so rankings stay finite at any z.

``decompose`` is the eigensystem ``(lam, u)`` of a whole graph: no command
calls it and ``expm`` does not use it; the benchmark's span recorder
(``bench/spans.py``) wraps it by name.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammainc, gammaln, xlogy

DENSE_LIMIT_DEFAULT = 5000
_EXP_MAX = float(np.log(np.finfo(float).max))  # largest finite exp argument
_EPS = float(np.finfo(float).eps)
# largest s = z b of one power sum of the action, which restarts past it:
# the Poisson weights err by 3.2e-13 relative at s = 255 against 3.2e-11 at
# s = 1e4.  On the graphs of the action's past-overflow test (s up to
# 1e4) the action erred by 3.1-6.9e-12 with restarts, 1.1-1.6e-11 without
_REACH = 255.0
_BOUND_STEPS = 20  # power steps behind each run's spectral bound
_MOMENT_BLOCK = 64  # nodes per moments block; powers per GEMM of the action
# predicted cost of the moments route per m (nnz + n) n, in units of the
# dense route's cost per n^3 (see _diag_runs).  Measured ratios (default
# grid, one BLAS thread) run from 0.2 on ER(100, 0.5) through 1.2-1.3 on
# sparse ER graphs of 1000-2000 nodes to 2.3 on a 2000-node weighted tree;
# 2.5 leans toward the dense route wherever the two are close
_MOMENTS_PER_DENSE = 2.5


class EigensolverError(RuntimeError):
    """Dense eigendecomposition failed to converge."""


def _eigensystem(a):
    """``(lam, u)``: the eigenvalues of the dense symmetric matrix ``a`` in
    descending order and the orthonormal eigenvectors ``u[:, j]`` of
    ``lam[j]``, each a contiguous array.  A column's sign is as the solver
    left it, which no evaluation of exp(zA) reads."""
    try:
        lam, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            "symmetric eigensolver did not converge on n=%d: %s"
            % (a.shape[0], exc)) from exc
    return lam[::-1].copy(), u[:, ::-1].copy()


def decompose(g):
    """``_eigensystem`` of the adjacency of ``g``, refusing graphs above
    ``DENSE_LIMIT_DEFAULT`` nodes."""
    if g.n > DENSE_LIMIT_DEFAULT:
        raise ValueError(
            "graph has %d nodes, above the dense limit %d of the "
            "eigendecomposition" % (g.n, DENSE_LIMIT_DEFAULT))
    return _eigensystem(g.adjacency())


# -- dense route -----------------------------------------------------------


def _exp_rows(lam, u, zetas, v=None, scaled=False):
    """Rows ``exp(zetas[k]*A) @ v``, or ``diag(exp(zetas[k]*A))`` if v is None.

    The one dense evaluator of the exponential.  ``zetas`` is a 1-D grid,
    giving one row per value, or a scalar, giving one 1-D result.  Unscaled
    rows are ``v + (expm1(z*lam) * (U^T v)) U^T`` (``1 + expm1(z*lam) (U*U)^T``
    for the diagonal).  With ``scaled=True`` returns ``(rows, s)`` with
    ``s = zetas * lam_1`` and each row ``exp(-s)`` times the unscaled one,
    finite for any z >= 0.  The eigensystem ``(lam, u)`` is
    ``_eigensystem``'s; each column of U enters twice, so its sign does
    not change a bit of the rows.
    """
    z = np.asarray(zetas, dtype=float)
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


def _spectral_bound(a, starts):
    """Upper bounds b >= rho(A) of a symmetric CSR adjacency with weights
    > 0, one per run of nodes that no edge joins, ``starts`` being the
    first node of each run (``[0]`` for the whole graph).

    Collatz-Wielandt: ``rho(A) <= max_i (Ax)_i / x_i`` for A >= 0 and any
    x > 0.  x is ones after ``_BOUND_STEPS`` normalized power steps of
    A + I, which keep it positive and turn it toward the Perron vector, so
    b closes in on lambda_1.  A run without edges gives 0.  The one pass
    normalizes each run by its own maximum, so each bound is that of the
    run's own adjacency bit for bit.
    """
    x = np.ones(a.shape[0])
    run = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, x.size)))
    for _ in range(_BOUND_STEPS):
        x += a @ x
        x /= np.maximum.reduceat(x, starts)[run]
    return np.maximum.reduceat((a @ x) / x, starts)


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


def _series_degree(s):
    """The first Taylor degree that passes ``_tail_ok`` at each s, for a
    scalar s or an array of them.

    The search runs up to ``s + t``, ``t = L + sqrt(L^2 + 2 L s)`` with
    ``L = log(4 / eps)``: the Chernoff bound ``P(X >= s + t) <= exp(-t^2 /
    (2 (s + t)))`` of X ~ Poisson(s) is ``eps / 4`` at that t, so the
    degree ``ceil(s + t)`` passes.
    """
    s = np.asarray(s, dtype=float)
    top = float(np.max(s, initial=0.0))
    log_tail = np.log(4.0 / _EPS)
    t = log_tail + np.sqrt(log_tail * (log_tail + 2.0 * top))
    m = np.arange(int(np.ceil(top + t)) + 1)
    return np.argmax(_tail_ok(s[..., None], m), axis=-1)


def _poisson_weights(s, degree, shift):
    """``w[j, k] = exp(-shift[j]) s[j]^k / k!`` for k = 0..degree."""
    k = np.arange(degree + 1)
    return np.exp(xlogy(k, s[:, None]) - gammaln(k + 1.0) - shift[:, None])


def _series_sum(coef, terms):
    """``coef @ terms``, each entry summed over ascending k: einsum skips
    BLAS, whose GEMM rounds equal columns apart by their position."""
    return np.einsum("jk,ki->ji", coef, terms)


def _power_sum(ah, s, x, spans=(slice(None),), out=None):
    """Rows ``exp(-s[c, j]) exp(s[c, j] ah) x = sum_k w_k(s[c, j]) ah^k x``
    on the nodes ``spans[c]`` of each component c, with the Poisson weights
    ``w_k(s) = exp(-s) s^k / k!`` of ``_tail_ok``.

    ``ah`` is the adjacency with each component's rows scaled by its
    spectral bound, so its powers stay within each component; ``s`` has a
    row per component (a 1-D ``s`` is one component, every node) and a
    column per grid point.  The sum runs to the degree ``_series_degree``
    gives the largest s.  The powers ``ah^k x`` fill a block of
    ``_MOMENT_BLOCK`` rows, added to every row by one ``_series_sum`` per
    component, so one sum holds the block and the rows at any degree.
    s = 0 gives x exactly.  The rows are summed into ``out`` where given,
    which must hold zeros.
    """
    s = np.atleast_2d(s)
    top = int(_series_degree(s.max()))
    coef = [_poisson_weights(sc, top, sc) for sc in s]
    rows = np.zeros((s.shape[1], x.size)) if out is None else out
    pw = np.empty((min(_MOMENT_BLOCK, top + 1), x.size))
    for first in range(0, top + 1, len(pw)):
        stop = min(first + len(pw), top + 1)
        for k in range(first, stop):
            # at k = first, pw[-1] holds power k - 1 from the full block before
            pw[k - first] = ah @ pw[k - first - 1] if k else x
        for span, c in zip(spans, coef):
            rows[:, span] += _series_sum(c[:, first:stop],
                                         pw[:stop - first, span])
    return rows


def _power_action(a, z, v, starts, b):
    """Scaled rows ``exp(-z[k] b_c) exp(z[k] A) v`` for an ascending grid z
    on the CSR adjacency ``a`` of components whose nodes are the runs from
    ``starts``, of spectral bounds ``b``, and their shifts ``z b_c``.

    The rows of each component are scaled by its own bound, so one run of
    powers serves all.  A run of isolated nodes has bound 0, and its
    Poisson weights at s = 0, (1, 0, 0, ...), keep its rows at v.  One
    ``_power_sum`` from the last computed row serves every next point
    within ``_REACH / b`` of it, b the largest bound.  Where the next point
    lies past that, the run restarts from a step of ``_REACH / b`` instead,
    which is ``_REACH b_c / b`` for component c.  Each start is a row
    scaled by its own shifts, so the rows stay finite however far z runs.
    Returns the rows and the ``(components, grid)`` shifts.
    """
    sizes = np.diff(np.append(starts, v.size))
    spans = [slice(lo, lo + size) for lo, size in zip(starts, sizes)]
    top = b.max()
    with np.errstate(divide="ignore"):  # a run of bound 0 holds no entry
        scale = np.repeat(1.0 / b, sizes)
    ah = a.copy()
    # times 1 / b_c, as scipy divides a sparse matrix by a scalar
    ah.data *= np.repeat(scale, np.diff(a.indptr))
    rows = np.zeros((z.size, v.size))
    x, base, k = v, 0.0, 0
    while k < z.size:
        done = int(np.searchsorted((z[k:] - base) * top, _REACH, side="right"))
        if done == 0:
            x = _power_sum(ah, _REACH * (b / top)[:, None], x, spans)[0]
            base += _REACH / top
            continue
        s = np.multiply.outer(b, z[k:k + done] - base)
        _power_sum(ah, s, x, spans, out=rows[k:k + done])
        k += done
        x, base = rows[k - 1], z[k - 1]
    return rows, np.multiply.outer(b, z)


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


def _moment_table(ah, nodes, degree):
    """``_power_moments`` at ``nodes``, ``_MOMENT_BLOCK`` of them at a time:
    the ``(degree + 1, len(nodes))`` table of ``(ah^k)_ii``."""
    mu = np.empty((degree + 1, nodes.size))
    for start in range(0, nodes.size, _MOMENT_BLOCK):
        stop = min(start + _MOMENT_BLOCK, nodes.size)
        mu[:, start:stop] = _power_moments(ah, nodes[start:stop], degree)
    return mu


def _moment_rows(ah, s, shift):
    """Rows ``exp(-shift[k]) diag(exp(s[k] ah))`` from power moments,
    ``ah`` being the CSR adjacency of one component scaled by its spectral
    bound.

    ``diag(exp(s ah)) = sum_k s^k / k! mu_k`` over the moments of ah
    (``_power_moments``).  Every term is >= 0, so each entry is accurate
    relative to itself, nodes of a small Perron weight included, where a
    Chebyshev sum would cancel to rounding level of ``exp(s)``.  One pass
    of ``_power_moments`` per ``_MOMENT_BLOCK`` nodes serves every grid
    point in one ``_series_sum``, each row to its own degree
    (``_series_degree``) at any s, so a grid row equals the single-s call.
    Each block's moments go into the rows before the next block is taken,
    so beside the rows and the weights one block's moments and two (n,
    block) powers are live, whatever the degree.
    """
    degrees = _series_degree(s)
    top = int(degrees.max(initial=0))
    coef = _poisson_weights(s, top, shift)
    coef[np.arange(top + 1) > degrees[:, None]] = 0.0  # past a row's degree
    n = ah.shape[0]
    rows = np.empty((s.size, n))
    for start in range(0, n, _MOMENT_BLOCK):
        stop = min(start + _MOMENT_BLOCK, n)
        rows[:, start:stop] = _series_sum(
            coef, _power_moments(ah, np.arange(start, stop), top))
    return rows


def _diag_runs(a, z, starts, b, scaled):
    """Rows ``diag(exp(z[k]*A))`` on the CSR adjacency ``a`` of components
    whose nodes are the runs from ``starts``, of spectral bounds ``b``,
    each run scaled by its own shift, and the ``(runs, grid)`` shifts.

    Each run takes the route with the lower predicted cost, a tie going to
    the dense one: ``size^3`` for its eigensystem against
    ``_MOMENTS_PER_DENSE * m (nnz + size) size`` for its moments, m being
    the Taylor degree that ``z b_c`` at the top of the grid needs.  So the
    moments win when the largest degree they can afford passes
    ``_tail_ok`` there; they are the only route above
    ``DENSE_LIMIT_DEFAULT`` nodes.  A run's scale s is ``z b_c`` on the
    moments route (``_moment_rows``) and ``z lam_1`` of its own
    eigensystem on the dense one (``_exp_rows``).  Its shift is 0 while s
    is within exp's range, so z = 0 gives 1 exactly, and s past it or
    with ``scaled``.
    """
    n = a.shape[0]
    top = float(np.max(z, initial=0.0))
    rows = np.empty((z.size, n))
    shifts = np.empty((len(starts), z.size))
    for c, (lo, hi) in enumerate(zip(starts, np.append(starts[1:], n))):
        size, block = hi - lo, a[lo:hi, lo:hi]
        afford = int(np.ceil(size**2 / (_MOMENTS_PER_DENSE * (
            block.nnz + size)))) - 1
        dense = size <= DENSE_LIMIT_DEFAULT and not _tail_ok(top * b[c],
                                                             afford)
        if dense:
            lam, u = _eigensystem(block.toarray())
        s = z * (lam[0] if dense else b[c])
        far = scaled | (s > _EXP_MAX)  # shifted by s, else unshifted
        shifts[c] = np.where(far, s, 0.0)
        if dense:
            rows[~far, lo:hi] = _exp_rows(lam, u, z[~far])
            rows[far, lo:hi] = _exp_rows(lam, u, z[far], scaled=True)[0]
        else:
            rows[:, lo:hi] = _moment_rows(block / b[c] if b[c] > 0.0
                                          else block, s, shifts[c])
    return rows, shifts


def _by_component(a, labels, z, v, scaled):
    """Rows ``exp(z[k]*A) @ v`` for a 1-D grid z, or ``diag(exp(z[k]*A))``
    if v is None, one connected component at a time.

    exp(zA) is block diagonal over the connected components (``labels``).
    On the CSR adjacency ``a`` with the nodes of each component in one run
    and the isolated nodes in one last run (``a`` itself where they
    already are), one ``_spectral_bound`` pass gives each run its bound
    b_c, and the kernel, ``_power_action`` or ``_diag_runs``, returns each
    run's rows scaled by its own shifts.  Scaled rows share the largest
    component shift.  Unscaled, each component's rows are ``exp(shift)``
    times its own scaled ones, so an isolated node keeps v, or 1, exactly;
    an entry whose shift passes exp's range is unscaled in log space, so
    only entries whose value passes float range become +-inf.
    """
    order = np.argsort(z, kind="stable")
    single = np.bincount(labels)[labels] == 1
    key = np.where(single, labels.max() + 1, labels)
    nodes = np.argsort(key, kind="stable")
    first = np.diff(key[nodes], prepend=-1) != 0  # a run starts here
    starts, run = np.flatnonzero(first), np.cumsum(first) - 1
    sub = a if (nodes == np.arange(nodes.size)).all() else a[nodes][:, nodes]
    b = _spectral_bound(sub, starts)
    y, s = (_diag_runs(sub, z[order], starts, b, scaled) if v is None else
            _power_action(sub, z[order], v[nodes], starts, b))
    shift = s.max(axis=0)
    e = s - shift if scaled else s  # each component's own factor exp(e)
    big = (e > _EXP_MAX).T[:, run]  # past exp's range: in log space
    with np.errstate(over="ignore", divide="ignore"):
        rows = y * np.exp(np.minimum(e, _EXP_MAX)).T[:, run]
        rows[big] = np.sign(y[big]) * np.exp(
            np.log(np.abs(y[big])) + e.T[:, run][big])
    back = np.argsort(order)  # to the order of the grid and of the nodes
    rows, shift = rows[np.ix_(back, np.argsort(nodes))], shift[back]
    return (rows, shift) if scaled else rows


# -- the evaluator -----------------------------------------------------------


def expm(g, zetas, v=None, scaled=False):
    """``exp(zetas[k]*A) @ v`` on the adjacency of ``g``, or the diagonal
    ``diag(exp(zetas[k]*A))`` if v is None.

    One row per value of a 1-D grid ``zetas`` or one 1-D result for a
    scalar, and with ``scaled=True`` the pair ``(rows, s)`` with the
    unscaled rows equal to ``exp(s)`` times ``rows``.  Both run one
    connected component at a time on the cached CSR adjacency
    (``_by_component``): the action as one power series over every
    component, the diagonal on the route each component's size, edges and
    bound predict cheaper, its own eigensystem or its power moments.
    Neither decomposes the whole graph, so both run above
    ``DENSE_LIMIT_DEFAULT`` nodes.  Past exp's range only the entries
    whose value passes float range are +-inf.
    """
    z = np.asarray(zetas, dtype=float)
    if z.ndim > 1 or (z < 0).any() or not np.isfinite(z).all():
        raise ValueError("zeta must be a finite nonnegative scalar or 1-D "
                         "grid, got %r" % (zetas,))
    if v is not None:
        v = np.asarray(v, dtype=float)
        if v.shape != (g.n,):
            raise ValueError("vector has shape %r, expected (%d,)"
                             % (v.shape, g.n))
    out = _by_component(g.sparse_adjacency(), g.component_labels(),
                        np.atleast_1d(z), v, scaled)
    if z.ndim == 0:
        out = (out[0][0], out[1][0]) if scaled else out[0]
    return out
