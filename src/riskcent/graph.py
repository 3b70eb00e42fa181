"""Undirected graph container, generators, loaders, and walk-count primitives.

Nodes are dense integers ``0..n-1``; an optional label table maps them back
to external names.  Graphs are simple (no self-loops, no parallel edges) and
edge weights are strictly positive.  All heavier algebra lives in
:mod:`riskcent.spectral`; this module only provides structure, I/O, the
bipartite projection, and walk counting: ``walk_counts`` returns two
float64 tables, the walk totals of every node and the closed walks at the
nodes asked for.

The one G(n, p) drawer, ``_er_adjacency``, returns the dense 0/1
adjacency of a draw and checks connectivity on it (``_dense_connected``)
without building a ``Graph``: ``generate_er`` wraps it in one, and
:mod:`riskcent.experiments` reads the array directly.
"""

from __future__ import annotations

import codecs
import csv
import functools
import json

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


class GraphError(ValueError):
    """Invalid graph structure or malformed graph input."""


# Largest value a walk-count entry may reach before the next integer
# matrix-vector product could wrap int64.
_INT64_CAP = 2**63 - 1


def _edge_columns(edges):
    """Endpoint and weight columns ``(u, v, w)`` of an edge input.

    An ndarray is read column-wise; anything else row by row, so rows may
    mix the two- and three-entry forms.  Endpoints are truncated to
    integers as ``int()`` does.
    """
    if isinstance(edges, np.ndarray):
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] not in (2, 3):
            raise GraphError("edge array must have shape (m, 2) or (m, 3), "
                             "got %r" % (edges.shape,))
        ends = edges[:, :2]
        if not np.isfinite(ends).all():
            raise GraphError("edge endpoints must be finite integers")
        u = ends[:, 0].astype(np.int64)
        v = ends[:, 1].astype(np.int64)
        w = (edges[:, 2].astype(np.float64) if edges.shape[1] == 3
             else np.ones(len(edges)))
        return u, v, w
    rows = [(int(e[0]), int(e[1]), float(e[2]) if len(e) > 2 else 1.0)
            for e in edges]
    u, v, w = zip(*rows) if rows else ((), (), ())
    return (np.array(u, dtype=np.int64), np.array(v, dtype=np.int64),
            np.array(w, dtype=np.float64))


def _check_unique(names, kind, where, error=GraphError):
    """Raise ``error`` naming the first name given twice and both of its
    positions."""
    if len(set(names)) < len(names):
        seen = {}
        for j, name in enumerate(names):
            i = seen.setdefault(name, j)
            if i != j:
                raise error("%s %r is given twice, at %s %d and %d"
                            % (kind, name, where, i, j))


def _text_lines(path):
    """The lines of ``path`` read as UTF-8 past a BOM, ends kept: the one
    place riskcent opens an input file for reading.  Bytes split at \\n,
    \\r and \\r\\n only (no UTF-8 sequence holds them), so line k is
    physical line k; a line that is not UTF-8 raises ``ValueError``
    naming ``path:line``."""
    with open(path, "rb") as fh:
        lines = fh.read().removeprefix(codecs.BOM_UTF8).splitlines(True)
    for line, raw in enumerate(lines, start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError("%s:%d: %s" % (path, line, exc)) from None


def _text_rows(path, cells=False, header=None):
    """``(line, row)`` for each row of ``path`` that is not blank, ``line``
    the physical line the row ends on.  A row is the stripped line, and
    lines starting with '#' are skipped; with ``cells``, it is the row's
    CSV cells (a quoted cell may span lines), a first row whose stripped
    cells equal ``header`` in any case is skipped, and a ``csv.Error``
    raises ``ValueError`` naming ``path:line``."""
    if not cells:
        for line, raw in enumerate(_text_lines(path), start=1):
            text = raw.strip()
            if text and not text.startswith("#"):
                yield line, text
        return
    reader = csv.reader(_text_lines(path))
    try:
        for row in reader:
            if len(row) > 1 or row and row[0].strip():
                if not header or [c.strip().lower() for c in row] != header:
                    yield reader.line_num, row
                header = None
    except csv.Error as exc:
        raise ValueError("%s:%d: %s" % (path, reader.line_num, exc)) from None


class Graph:
    """Simple undirected weighted graph.

    Parameters
    ----------
    n : int
        Number of nodes.  Isolated nodes are allowed, so ``n`` may exceed
        the largest endpoint appearing in ``edges``.
    edges : iterable or ndarray
        Iterable of ``(u, v)`` or ``(u, v, w)`` with integer endpoints in
        ``0..n-1`` and weight ``w > 0`` (default 1), or an ``(m, 2)`` or
        ``(m, 3)`` array of the same columns, read without a per-edge
        Python object.  Each undirected edge appears once; duplicates are
        an error, not merged.
    labels : sequence of str, optional
        External node names.  Defaults to ``str(i)``.
    """

    def __init__(self, n, edges=(), labels=None):
        n = int(n)
        if n <= 0:
            raise GraphError("graph needs at least one node, got n=%d" % n)
        u, v, w = _edge_columns(edges)
        if u.size:
            if (u < 0).any() or (u >= n).any() or (v < 0).any() or (v >= n).any():
                raise GraphError("edge endpoint out of range 0..%d" % (n - 1))
            if (u == v).any():
                k = int(np.argmax(u == v))
                raise GraphError("self-loop at node %d is not allowed" % u[k])
            if (w <= 0).any() or not np.isfinite(w).all():
                k = int(np.argmax(~((w > 0) & np.isfinite(w))))
                raise GraphError(
                    "edge (%d, %d) has nonpositive or non-finite weight %r"
                    % (u[k], v[k], float(w[k])))
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            key = lo * n + hi
            order = np.argsort(key, kind="stable")
            lo, hi, w, key = lo[order], hi[order], w[order], key[order]
            dup = np.nonzero(key[1:] == key[:-1])[0]
            if dup.size:
                k = int(dup[0])
                raise GraphError(
                    "duplicate edge (%d, %d) with weights %g and %g"
                    % (lo[k], hi[k], w[k], w[k + 1]))
            u, v = lo, hi
        self.n = n
        self._u, self._v, self._w = u, v, w
        if labels is not None:
            labels = [str(x) for x in labels]
            if len(labels) != n:
                raise GraphError("expected %d labels, got %d" % (n, len(labels)))
            _check_unique(labels, "label", "nodes")
        self.labels = labels if labels is not None else [str(i) for i in range(n)]
        self._csr = None

    # -- basic structure -------------------------------------------------

    @property
    def m(self):
        """Number of undirected edges."""
        return int(self._u.size)

    @property
    def is_weighted(self):
        """True when any edge weight differs from 1."""
        return bool(self._w.size) and bool((self._w != 1.0).any())

    def edge_array(self):
        """Edges as an ``(m, 3)`` float array ``[u, v, w]`` in canonical order."""
        return np.column_stack([self._u.astype(float),
                                self._v.astype(float), self._w])

    def adjacency(self):
        """Dense symmetric adjacency matrix (float64), a new array per call."""
        a = np.zeros((self.n, self.n))
        a[self._u, self._v] = self._w
        a[self._v, self._u] = self._w
        return a

    def sparse_adjacency(self):
        """Symmetric CSR adjacency (cached), column indices sorted per row.

        Built straight from the canonical edges, which are sorted by (u, v)
        with u < v: listing every edge as (v, u) and then as (u, v), a
        stable sort by row puts each row's columns in ascending order.
        """
        if self._csr is None:
            rows = np.concatenate([self._v, self._u])
            order = np.argsort(rows, kind="stable")
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=self.n), out=indptr[1:])
            indices = np.concatenate([self._u, self._v])[order]
            data = np.concatenate([self._w, self._w])[order]
            self._csr = sp.csr_array((data, indices, indptr),
                                     shape=(self.n, self.n))
        return self._csr

    def degrees(self):
        """Unweighted degree counts (int64)."""
        d = np.zeros(self.n, dtype=np.int64)
        np.add.at(d, self._u, 1)
        np.add.at(d, self._v, 1)
        return d

    def mean_degree(self):
        return 2.0 * self.m / self.n

    def component_labels(self):
        """Connected-component index per node."""
        if self.n == 1:
            return np.zeros(1, dtype=np.int64)
        # on a symmetric adjacency the strong components are the connected
        # ones, and the directed search skips building the transpose
        _, lab = connected_components(self.sparse_adjacency(), directed=True,
                                      connection="strong")
        return lab.astype(np.int64)

    def is_connected(self):
        return bool(self.component_labels().max(initial=0) == 0)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self):
        """Plain dict ``{n, labels, edges: [[u, v, w], ...]}``."""
        return {
            "n": self.n,
            "labels": list(self.labels),
            "edges": [[int(a), int(b), float(c)]
                      for a, b, c in zip(self._u, self._v, self._w)],
        }

    @classmethod
    def from_json_dict(cls, doc):
        """The graph of a document ``{"n", "edges", "labels"}``."""
        edges = doc.get("edges") if isinstance(doc, dict) else None
        if not (isinstance(edges, list) and isinstance(doc.get("n"), int)
                and isinstance(doc.get("labels", []), (list, type(None)))
                and all(isinstance(e, list) and len(e) in (2, 3)
                        for e in edges)):
            raise GraphError('expected {"n": int, "edges": [[u, v] or '
                             '[u, v, w], ...], "labels": [...] or absent}')
        return cls(doc["n"], edges, labels=doc.get("labels"))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.labels == other.labels
                and np.array_equal(self._u, other._u)
                and np.array_equal(self._v, other._v)
                and np.array_equal(self._w, other._w))

    def __repr__(self):
        kind = "weighted" if self.is_weighted else "unweighted"
        return "Graph(n=%d, m=%d, %s)" % (self.n, self.m, kind)


def save_json(g, path):
    """Write ``g.to_json_dict()`` as ``json.dumps(..., indent=1)`` does,
    byte for byte, without its pure-Python encoder: each label through
    ``json.dumps`` and each weight as ``float.__repr__``, as that encoder
    writes them."""
    labels = ["  " + json.dumps(x) for x in g.labels]
    edges = ["  [\n   %d,\n   %d,\n   %r\n  ]" % e for e in zip(
        g._u.tolist(), g._v.tolist(), g._w.tolist())]
    body = ['"%s": %s' % (name, "[\n" + ",\n".join(items) + "\n ]"
                          if items else "[]")
            for name, items in (("labels", labels), ("edges", edges))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n "n": %d,\n %s\n}' % (g.n, ",\n ".join(body)))


def load_json(path):
    """Read a graph as ``save_json`` writes it; every error names ``path``."""
    text = "".join(_text_lines(path))
    # int() and float() of an edge entry that is no finite number raise too
    try:
        return Graph.from_json_dict(json.loads(text))
    except (TypeError, ValueError, OverflowError) as exc:
        raise GraphError("%s: %s" % (path, exc)) from None


# -- loaders -------------------------------------------------------------


def load_edge_list(path, weighted=False):
    """Read an edge list with one edge per line.

    Lines hold whitespace- or comma-separated tokens ``u v`` or, when
    ``weighted`` is set, ``u v w``.  Node ids may be arbitrary strings and
    are mapped to dense indices in order of first appearance; the original
    ids are kept as labels.  Blank lines and lines starting with ``#`` are
    skipped.  Structural problems are reported with the offending line
    number.
    """
    index = {}  # node id -> index, in order of first appearance
    edges = []
    seen = {}
    want = "u v w" if weighted else "u v"
    for lineno, s in _text_rows(path):
        parts = s.replace(",", " ").split()
        if len(parts) < 2 or len(parts) > (3 if weighted else 2):
            raise GraphError("%s:%d: malformed line %r (expected %r)"
                             % (path, lineno, s, want))
        try:  # a third token is only left when ``weighted``
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise GraphError("%s:%d: weight %r is not a number"
                             % (path, lineno, parts[2])) from None
        if w <= 0 or not np.isfinite(w):
            raise GraphError("%s:%d: nonpositive weight %g"
                             % (path, lineno, w))
        a, b = (index.setdefault(tok, len(index)) for tok in parts[:2])
        if a == b:
            raise GraphError("%s:%d: self-loop on node %r"
                             % (path, lineno, parts[0]))
        key = (min(a, b), max(a, b))
        if key in seen:
            raise GraphError("%s:%d: duplicate edge %r-%r (first seen on "
                             "line %d, weights %g and %g)"
                             % (path, lineno, parts[0], parts[1],
                                seen[key][0], seen[key][1], w))
        seen[key] = (lineno, w)
        edges.append((a, b, w))
    if not index:
        raise GraphError("%s: no edges found" % path)
    return Graph(len(index), edges, labels=list(index))


def load_memberships(path):
    """Read two-column ``company,director`` CSV rows.

    Returns a list of ``(company, director)`` string pairs.  A first
    non-blank row equal to ``company,director`` (any case) is a header.
    Rows are read as CSV, so a quoted name may hold a comma, as the
    reports' ``csv.writer`` quotes it; blank lines are skipped and cells
    are stripped of surrounding whitespace.
    """
    pairs = []
    for lineno, cells in _text_rows(path, cells=True,
                                    header=["company", "director"]):
        parts = [c.strip() for c in cells]
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise GraphError("%s:%d: expected 'company,director', got %r"
                             % (path, lineno, ",".join(cells)))
        pairs.append((parts[0], parts[1]))
    if not pairs:
        raise GraphError("%s: no membership rows found" % path)
    return pairs


# -- generators ----------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _upper_mask(n):
    """Boolean (n, n) mask of the strict upper triangle, whose True
    entries run in the order of ``np.triu_indices(n, 1)``."""
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    mask.setflags(write=False)
    return mask


def _dense_connected(a):
    """Whether the dense adjacency ``a`` is connected.

    Grows the set of nodes reached from node 0 by one product with the
    rows of ``a`` per step.  When node 0 has a neighbour every reached
    node has one among the reached, so the set never shrinks, and it is
    node 0's whole component once a step adds no node.  When node 0 has
    none, the first step empties the set.
    """
    seen = a[0] > 0
    seen[0] = True
    count = np.count_nonzero(seen)
    while count < a.shape[0]:
        seen = seen @ a > 0
        grown = np.count_nonzero(seen)
        if grown <= count:
            return False
        count = grown
    return True


def _er_adjacency(n, p, rng, require_connected, max_retries):
    """Dense 0/1 adjacency (float64) of a G(n, p) draw from ``rng``.

    The documented rule: pair k of ``np.triu_indices(n, 1)`` is linked
    where ``rng.random(pairs)[k] < p``.  With ``require_connected`` a
    disconnected draw is discarded and redrawn from the same stream, up
    to ``max_retries`` draws.
    """
    if not 0.0 <= p <= 1.0:
        raise GraphError("edge probability must lie in [0, 1], got %g" % p)
    if n <= 0:
        raise GraphError("graph needs at least one node, got n=%d" % n)
    mask = _upper_mask(n)
    pairs = n * (n - 1) // 2
    for _ in range(max_retries):
        upper = np.zeros((n, n))
        upper[mask] = rng.random(pairs) < p
        a = upper + upper.T
        if not require_connected or _dense_connected(a):
            return a
    raise GraphError(
        "no connected G(%d, %g) sample in %d attempts" % (n, p, max_retries))


def generate_er(n, p, seed, require_connected=False, max_retries=1000):
    """Erdos-Renyi G(n, p) sample.

    Each of the n(n-1)/2 pairs is linked independently with probability
    ``p``.  With ``require_connected``, disconnected samples are discarded
    and redrawn from the same stream, up to ``max_retries`` attempts.  The
    draw is ``_er_adjacency``'s, which ``experiments`` reads directly.
    """
    a = _er_adjacency(n, p, np.random.default_rng(seed), require_connected,
                      max_retries)
    return Graph(n, np.argwhere(np.triu(a, k=1)))


def generate_complete(n):
    """Complete graph K_n."""
    iu, ju = np.triu_indices(n, k=1)
    return Graph(n, np.column_stack([iu, ju]))


def generate_star(n):
    """Star graph on ``n`` nodes; the hub is node 0."""
    if n < 2:
        raise GraphError("a star needs at least 2 nodes")
    return Graph(n, [(0, i) for i in range(1, n)])


# -- projections and rewrites --------------------------------------------


def project_bipartite(memberships, binary=False):
    """One-mode projection of company-director memberships.

    Companies become nodes, in order of first appearance; an edge weight
    counts the directors two companies share, the off-diagonal entry of
    B B^T for the 0/1 company-by-director incidence B (a repeated row
    counts once).  Companies sharing no director remain isolated nodes.
    With ``binary`` every positive weight is replaced by 1.
    """
    companies, directors = {}, {}
    rows = [companies.setdefault(c, len(companies)) for c, _ in memberships]
    cols = [directors.setdefault(d, len(directors)) for _, d in memberships]
    b = sp.csr_array((np.ones(len(rows)), (rows, cols)),
                     shape=(len(companies), len(directors)))
    b.data[:] = 1.0  # the build summed repeated rows
    shared = sp.triu(b @ b.T, k=1).tocoo()
    weights = np.ones(shared.nnz) if binary else shared.data
    return Graph(len(companies),
                 np.column_stack([shared.row, shared.col, weights]),
                 labels=list(companies))


def largest_component(g):
    """Subgraph induced by the largest connected component.

    Nodes are re-indexed densely; labels follow.  Ties between equal-sized
    components break toward the one containing the smallest node index.
    """
    lab = g.component_labels()
    sizes = np.bincount(lab)
    best = int(np.argmax(sizes))  # argmax takes the first, smallest-index tie
    keep = np.nonzero(lab == best)[0]
    remap = -np.ones(g.n, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    inside = (remap[g._u] >= 0) & (remap[g._v] >= 0)
    edges = np.column_stack([remap[g._u[inside]], remap[g._v[inside]],
                             g._w[inside]])
    return Graph(keep.size, edges, labels=[g.labels[i] for i in keep])


def relabel(g, perm):
    """Copy of ``g`` with node ``i`` renamed ``perm[i]``."""
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(g.n)):
        raise GraphError("perm must be a permutation of 0..n-1")
    labels = [None] * g.n
    for i in range(g.n):
        labels[perm[i]] = g.labels[i]
    edges = np.column_stack([perm[g._u], perm[g._v], g._w])
    return Graph(g.n, edges, labels=labels)


# -- walk counts ---------------------------------------------------------


def walk_counts(g, kmax, nodes=None):
    """Walk tables ``(total, closed)`` for orders ``0..kmax``.

    ``total[k, i]`` counts the walks of length k starting at node i, the
    i-th entry of A^k 1.  ``closed[k, c]`` counts those returning to node
    ``nodes[c]``, its diagonal entry of A^k; ``nodes`` is an index
    sequence, in its order, repeats allowed, and None means every node.
    Each order costs one sparse product of the CSR adjacency with the
    running total and one with the q unit columns of ``nodes`` carried to
    A^k, O(kmax m (1 + q)) in all.  The product sums each column on its
    own, so a count does not depend on which other nodes are asked for.

    Both tables are float64.  Unweighted graphs count in int64 until the
    next product could overflow, then continue in float64: each entry of
    an order before the switch is its exact count rounded once.  Only the
    totals are watched: A is nonnegative, so (A^k)_ij <= (A^k 1)_i and no
    closed-walk column can outgrow the largest total.  The switch thus
    comes at the same order whatever ``nodes`` is.
    """
    if kmax < 0:
        raise GraphError("kmax must be nonnegative")
    n = g.n
    nodes = (np.arange(n) if nodes is None
             else np.asarray(nodes, dtype=np.int64))
    if nodes.ndim != 1 or ((nodes < 0) | (nodes >= n)).any():
        raise GraphError("nodes must be indices in 0..%d" % (n - 1))
    exact = not g.is_weighted
    dtype = np.int64 if exact else np.float64
    a = g.sparse_adjacency().astype(dtype)
    # one product grows entries by at most the largest row sum
    growth = int(g.degrees().max(initial=0)) if exact else 0
    diagonal = nodes, np.arange(nodes.size)
    x = np.ones(n, dtype=dtype)
    y = np.zeros((n, nodes.size), dtype=dtype)
    y[diagonal] = 1
    total = np.ones((kmax + 1, n))
    closed = np.ones((kmax + 1, nodes.size))
    for k in range(1, kmax + 1):
        if exact and growth and int(x.max()) > _INT64_CAP // growth:
            a, x, y = (z.astype(np.float64) for z in (a, x, y))
            exact = False
        x = a @ x
        y = a @ y
        total[k] = x
        closed[k] = y[diagonal]
    return total, closed
