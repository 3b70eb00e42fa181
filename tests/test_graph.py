import codecs
import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from riskcent.graph import (
    Graph,
    GraphError,
    _dense_connected,
    _er_adjacency,
    generate_complete,
    generate_er,
    generate_star,
    largest_component,
    load_edge_list,
    load_json,
    load_memberships,
    project_bipartite,
    relabel,
    save_json,
    walk_counts,
)


def enumerate_walks(adj, kmax):
    """Oracle: count walks by explicit enumeration over node sequences."""
    n = adj.shape[0]
    total = np.zeros((kmax + 1, n), dtype=object)
    closed = np.zeros((kmax + 1, n), dtype=object)
    total[0] = 1
    closed[0] = 1
    for k in range(1, kmax + 1):
        for start in range(n):
            t = 0
            c = 0
            for seq in itertools.product(range(n), repeat=k):
                path = (start,) + seq
                ok = all(adj[path[s], path[s + 1]] for s in range(k))
                if ok:
                    t += 1
                    if path[-1] == start:
                        c += 1
            total[k, start] = t
            closed[k, start] = c
    return total, closed


def dense_walk_counts(g, kmax):
    """Reference: walk counts from dense int64 matrix products.

    ``(total, closed, exact)`` per order 0..kmax, with the overflow switch
    of ``walk_counts``: float64 once the next product could wrap int64.
    """
    cap = 2**63 - 1
    n = g.n
    a = g.adjacency().astype(np.int64)
    growth = int(g.degrees().max(initial=0))
    total = np.ones(n, dtype=np.int64)
    closed = np.eye(n, dtype=np.int64)
    exact = True
    out = [(total.copy(), np.ones(n, dtype=np.int64), exact)]
    for k in range(1, kmax + 1):
        if exact:
            peak = int(max(total.max(initial=0), closed.max(initial=0)))
            if growth and peak > cap // growth:
                a = a.astype(np.float64)
                total = total.astype(np.float64)
                closed = closed.astype(np.float64)
                exact = False
        total = a @ total
        closed = a @ closed
        out.append((total.copy(), np.diagonal(closed).copy(), exact))
    return out


# -- construction and validation ------------------------------------------


def test_path_graph_basics():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.n == 3 and g.m == 2
    assert list(g.degrees()) == [1, 2, 1]
    assert not g.is_weighted
    assert g.is_connected()
    a = g.adjacency()
    assert np.array_equal(a, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], float))
    assert np.array_equal(a, a.T)


def test_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        Graph(3, [(0, 0)])


def test_rejects_duplicate_edges():
    with pytest.raises(GraphError, match="duplicate edge"):
        Graph(3, [(0, 1, 0.5), (1, 0, 0.7)])
    with pytest.raises(GraphError, match="duplicate edge"):
        Graph(3, [(0, 1), (0, 1)])


def test_rejects_bad_weights_and_range():
    with pytest.raises(GraphError, match="weight"):
        Graph(2, [(0, 1, 0.0)])
    with pytest.raises(GraphError, match="weight"):
        Graph(2, [(0, 1, -2.0)])
    with pytest.raises(GraphError, match="out of range"):
        Graph(2, [(0, 2)])


@pytest.mark.parametrize("edges", [
    [(0, 1), (3, 2), (1, 4), (0, 4)],
    [(0, 1, 0.5), (3, 2, 2.0), (1, 4, 1.0), (0, 4, 7.25)],
])
def test_graph_from_array_equals_graph_from_rows(edges):
    rows = Graph(5, edges)
    assert Graph(5, np.array(edges)) == rows  # int64 or float64 columns
    assert Graph(5, rows.edge_array()) == rows


def test_graph_from_empty_array():
    assert Graph(3, np.zeros((0, 2), dtype=np.int64)) == Graph(3, [])
    assert Graph(3, np.zeros((0, 3))) == Graph(3)


@pytest.mark.parametrize("edges", [
    [(0, 5)], [(-1, 2)], [(1, 1)], [(0, 2), (2, 0)],
    [(0, 1, 0.5), (1, 0, 0.7)], [(0, 1, 0.0)], [(0, 1, -2.0)],
    [(0, 1, np.inf)], [(0, 1, np.nan)],
])
def test_graph_from_array_rejects_like_rows(edges):
    with pytest.raises(GraphError) as from_rows:
        Graph(3, edges)
    with pytest.raises(GraphError) as from_array:
        Graph(3, np.array(edges, dtype=float))
    assert str(from_array.value) == str(from_rows.value)


def test_graph_from_array_rejects_bad_shapes():
    for edges in (np.zeros((2, 4)), np.zeros(6), np.array([[0.0, np.nan]])):
        with pytest.raises(GraphError):
            Graph(3, edges)


def test_known_graph_adjacency():
    # 7-node graph with 14 edges, adjacency written out by hand
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 3), (2, 4),
             (3, 5), (4, 5), (4, 6), (5, 6), (0, 6), (1, 6), (3, 6)]
    g = Graph(7, edges)
    expected = np.array([
        [0, 1, 1, 1, 0, 0, 1],
        [1, 0, 1, 0, 1, 0, 1],
        [1, 1, 0, 1, 1, 0, 0],
        [1, 0, 1, 0, 0, 1, 1],
        [0, 1, 1, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 0, 1],
        [1, 1, 0, 1, 1, 1, 0],
    ], dtype=float)
    assert g.m == 14
    assert np.array_equal(g.adjacency(), expected)
    assert np.array_equal(g.sparse_adjacency().toarray(), expected)
    assert list(g.degrees()) == [4, 4, 4, 4, 4, 3, 5]


def test_strengths_weighted():
    g = Graph(3, [(0, 1, 2.0), (1, 2, 0.5)])
    assert g.is_weighted
    assert np.allclose(g.adjacency().sum(axis=1), [2.0, 2.5, 0.5])
    assert np.allclose(g.degrees(), [1, 2, 1])


def test_degree_sum_is_twice_edges():
    rng = np.random.default_rng(7)
    for k in range(20):
        g = generate_er(30, 0.2, seed=int(rng.integers(1 << 30)))
        assert g.degrees().sum() == 2 * g.m
        assert g.adjacency().sum() == 2 * g.m


# -- loaders ---------------------------------------------------------------


def test_load_edge_list_path_graph(tmp_path):
    p = tmp_path / "p3.txt"
    p.write_text("0 1\n1 2\n")
    g = load_edge_list(p)
    assert g.n == 3 and list(g.degrees()) == [1, 2, 1]
    assert g.labels == ["0", "1", "2"]


def test_load_edge_list_string_labels_first_appearance(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# comment\nbeta alpha\nalpha gamma\n")
    g = load_edge_list(p)
    assert g.labels == ["beta", "alpha", "gamma"]
    assert list(g.degrees()) == [1, 2, 1]


def test_load_edge_list_weighted_and_commas(tmp_path):
    p = tmp_path / "w.txt"
    p.write_text("a,b,0.5\nb,c\n")
    g = load_edge_list(p, weighted=True)
    assert g.is_weighted
    assert np.allclose(g.adjacency().sum(axis=1), [0.5, 1.5, 1.0])


def test_load_edge_list_duplicate_reports_line(tmp_path):
    p = tmp_path / "dup.txt"
    p.write_text("0 1 0.5\n0 1 0.7\n")
    with pytest.raises(GraphError, match=r"dup.txt:2: duplicate edge"):
        load_edge_list(p, weighted=True)


def test_load_edge_list_malformed_line_number(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 1\n0 1 2 3\n")
    with pytest.raises(GraphError, match=r"bad.txt:2: malformed"):
        load_edge_list(p)


def test_load_edge_list_self_loop_line(tmp_path):
    p = tmp_path / "loop.txt"
    p.write_text("0 1\nx x\n")
    with pytest.raises(GraphError, match=r"loop.txt:2: self-loop"):
        load_edge_list(p)


def test_load_memberships(tmp_path):
    p = tmp_path / "mem.csv"
    p.write_text("company,director\nAcme,smith\nBolt,smith\nAcme,jones\n")
    pairs = load_memberships(p)
    assert pairs == [("Acme", "smith"), ("Bolt", "smith"), ("Acme", "jones")]


def test_load_memberships_reads_quoted_names_back(tmp_path):
    # the reports' csv.writer quotes a name holding a comma or a quote
    from riskcent.centrality import write_rows
    rows = [("Acme, Inc.", "smith"), ('Bolt "B"', "jones, jr"),
            ("Acme, Inc.", "jones, jr")]
    p = tmp_path / "mem.csv"
    write_rows(str(p), ["company", "director"], rows)
    assert load_memberships(p) == rows
    p.write_text('company,director\n"Acme, Inc.",smith\nBolt\n')
    with pytest.raises(GraphError, match=r"mem.csv:3: expected"):
        load_memberships(p)


def test_load_edge_list_after_a_utf8_bom(tmp_path):
    # spreadsheet "CSV UTF-8" exports start the file with a byte-order mark
    p = tmp_path / "tri.txt"
    p.write_text("0 1\n1 2\n2 0\n", encoding="utf-8-sig")
    g = load_edge_list(p)
    assert g.labels == ["0", "1", "2"] and list(g.degrees()) == [2, 2, 2]


def test_load_memberships_header_after_a_utf8_bom(tmp_path):
    p = tmp_path / "mem.csv"
    p.write_text("company,director\nAcme,smith\n", encoding="utf-8-sig")
    assert load_memberships(p) == [("Acme", "smith")]


def test_duplicate_labels_rejected(tmp_path):
    # a label given twice is named with both of its nodes, by the graph
    # and so by load_json
    with pytest.raises(GraphError) as err:
        Graph(4, [(0, 1)], labels=["a", "b", "c", "b"])
    assert str(err.value) == "label 'b' is given twice, at nodes 1 and 3"
    path = tmp_path / "g.json"
    path.write_text('{"n": 3, "labels": ["x", "y", "x"], '
                    '"edges": [[0, 1, 1.0]]}')
    with pytest.raises(GraphError, match="'x' is given twice, at nodes 0 "
                                         "and 2"):
        load_json(path)


def test_load_json_after_a_utf8_bom(tmp_path):
    g = Graph(3, [(0, 1), (1, 2), (2, 0)], labels=list("abc"))
    p = tmp_path / "g.json"
    save_json(g, p)
    p.write_bytes(codecs.BOM_UTF8 + p.read_bytes())
    assert load_json(p) == g


def test_save_json_bytes_equal_the_json_encoder(tmp_path):
    import json
    labels = ['say "hi"', "back\\slash", "Zürich \u2603", "tab\there", "e"]
    weights = [1e-300, 1.0 / 3.0, 2.0, 1e20, 5e-324, 0.1]
    edges = [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4), (1, 3)]
    for g in (Graph(5, [e + (w,) for e, w in zip(edges, weights)],
                    labels=labels),
              Graph(1), Graph(3, [(0, 2)])):
        path = tmp_path / "g.json"
        save_json(g, path)
        assert path.read_bytes() == json.dumps(
            g.to_json_dict(), indent=1).encode("ascii")
        assert load_json(path) == g


def test_json_round_trip(tmp_path):
    g = Graph(4, [(0, 1, 2.0), (1, 2), (2, 3, 0.25)], labels=list("abcd"))
    path = tmp_path / "g.json"
    save_json(g, path)
    h = load_json(path)
    assert h == g


# -- generators ------------------------------------------------------------


def test_generate_er_deterministic():
    a = generate_er(40, 0.2, seed=123)
    b = generate_er(40, 0.2, seed=123)
    assert a == b
    c = generate_er(40, 0.2, seed=124)
    assert c != a


# SHA-256 prefixes of the (u, v) int64 edge columns drawn by generate_er
# when it still built every sample from a list of per-edge tuples; the
# array path must draw and keep exactly the same edges.
ER_SAMPLES = [((30, 0.2, 1), 88, "5077897ef24fe626"),
              ((100, 0.1, 7), 496, "30d7d0652b9d63ee"),
              ((100, 0.9, 11), 4472, "fe94d3900398cd0f")]


def edge_digest(g):
    import hashlib

    ends = np.column_stack([g._u, g._v]).astype("<i8")
    return hashlib.sha256(ends.tobytes()).hexdigest()[:16]


def test_generate_er_samples_unchanged():
    for (n, p, seed), m, digest in ER_SAMPLES:
        g = generate_er(n, p, seed=seed, require_connected=True)
        assert (g.m, edge_digest(g)) == (m, digest)
        # the documented rule, built through per-edge tuples
        rng = np.random.default_rng(seed)
        iu, ju = np.triu_indices(n, k=1)
        while True:
            keep = rng.random(iu.size) < p
            ref = Graph(n, list(zip(iu[keep].tolist(), ju[keep].tolist())))
            if ref.is_connected():
                break
        assert g == ref


def test_generate_er_density_monte_carlo():
    # mean density over many samples approaches p; 400 samples of n=50
    # give a standard error around 0.002
    p = 0.3
    dens = [generate_er(50, p, seed=s).m / (50 * 49 / 2) for s in range(400)]
    assert abs(np.mean(dens) - p) < 0.005


def test_generate_er_connected_flag():
    for s in range(10):
        g = generate_er(30, 0.12, seed=s, require_connected=True)
        assert g.is_connected()


def test_generate_er_retry_cap():
    with pytest.raises(GraphError, match="attempts"):
        generate_er(40, 0.01, seed=0, require_connected=True, max_retries=5)


def reference_er_draws(n, p, seed):
    """Draws of the documented G(n, p) rule up to the first connected one:
    ``rng.random(pairs) < p`` over ``np.triu_indices(n, 1)``, redrawn from
    the same stream while scipy finds more than one component."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    draws = []
    while True:
        keep = rng.random(iu.size) < p
        a = np.zeros((n, n))
        a[iu[keep], ju[keep]] = 1.0
        a[ju[keep], iu[keep]] = 1.0
        draws.append(a)
        if connected_components(sp.csr_array(a), directed=False)[0] == 1:
            return draws


def test_er_adjacency_matches_documented_rule():
    # sparse enough that most seeds need a redraw before a connected sample
    n, p = 30, 0.08
    redraws = 0
    for seed in range(6):
        draws = reference_er_draws(n, p, seed)
        redraws += len(draws) - 1
        got = _er_adjacency(n, p, np.random.default_rng(seed),
                            require_connected=True, max_retries=1000)
        assert got.dtype == np.float64
        assert np.array_equal(got, draws[-1])
        first = _er_adjacency(n, p, np.random.default_rng(seed),
                              require_connected=False, max_retries=1)
        assert np.array_equal(first, draws[0])
        g = generate_er(n, p, seed=seed, require_connected=True)
        assert np.array_equal(g.adjacency(), got)
    assert redraws >= 1


def test_dense_connected_matches_graph_components():
    graphs = [Graph(1), Graph(2), Graph(2, [(0, 1)]), Graph(5, [(1, 2)]),
              # node 0 isolated, the rest connected
              Graph(4, [(1, 2), (2, 3)]),
              # two components, then the same joined by one edge
              Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
              Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (2, 5)]),
              Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])]
    graphs += [generate_er(40, p, seed=s) for p in (0.03, 0.06, 0.1, 0.3)
               for s in range(5)]
    verdicts = [g.is_connected() for g in graphs]
    assert True in verdicts and False in verdicts
    for g, want in zip(graphs, verdicts):
        assert _dense_connected(g.adjacency()) == want, g


def test_er_adjacency_extreme_densities():
    with pytest.raises(GraphError, match="in 7 attempts"):
        _er_adjacency(5, 0.0, np.random.default_rng(0),
                      require_connected=True, max_retries=7)
    with pytest.raises(GraphError, match="in 3 attempts"):
        generate_er(5, 0.0, seed=0, require_connected=True, max_retries=3)
    full = _er_adjacency(6, 1.0, np.random.default_rng(0),
                         require_connected=True, max_retries=1)
    assert np.array_equal(full, generate_complete(6).adjacency())
    assert generate_er(6, 1.0, seed=4) == generate_complete(6)
    for p in (-0.1, 1.5):
        with pytest.raises(GraphError, match="probability"):
            generate_er(6, p, seed=0)


def test_generate_complete_and_star():
    k5 = generate_complete(5)
    assert k5.m == 10 and list(k5.degrees()) == [4] * 5
    s5 = generate_star(5)
    assert s5.m == 4
    assert list(s5.degrees()) == [4, 1, 1, 1, 1]


# -- projection, components, relabeling ------------------------------------


def test_project_bipartite_counts_shared_directors():
    memberships = [
        ("A", "d1"), ("B", "d1"), ("C", "d1"),
        ("A", "d2"), ("B", "d2"),
        ("C", "d3"), ("D", "d9"),
    ]
    g = project_bipartite(memberships)
    # oracle: weights by set intersection of director sets
    directors = {}
    for c, d in memberships:
        directors.setdefault(c, set()).add(d)
    names = g.labels
    a = g.adjacency()
    for i, ci in enumerate(names):
        for j, cj in enumerate(names):
            if i != j:
                assert a[i, j] == len(directors[ci] & directors[cj])
    assert g.n == 4  # D kept as isolated node
    assert g.degrees()[names.index("D")] == 0
    b = project_bipartite(memberships, binary=True)
    assert Graph(g.n, g.edge_array()[:, :2], labels=g.labels) == b


def test_project_bipartite_matches_pairwise_loop():
    # repeated rows count once, company Z shares no director, and nodes
    # follow the first appearance of each company
    memberships = [("B", "d1"), ("A", "d1"), ("B", "d1"), ("C", "d2"),
                   ("A", "d2"), ("B", "d2"), ("Z", "d7"), ("C", "d3"),
                   ("A", "d3"), ("A", "d3"), ("D", "d1")]
    rng = np.random.default_rng(5)
    memberships += [("c%d" % c, "x%d" % d)
                    for c, d in rng.integers(0, 30, size=(200, 2))]
    names = list(dict.fromkeys(c for c, _ in memberships))
    boards = {}
    for c, d in memberships:
        boards.setdefault(c, set()).add(d)
    for binary in (False, True):
        edges = []
        for i, j in itertools.combinations(range(len(names)), 2):
            shared = len(boards[names[i]] & boards[names[j]])
            if shared:
                edges.append((i, j, 1.0 if binary else float(shared)))
        ref = Graph(len(names), edges, labels=names)
        g = project_bipartite(memberships, binary=binary)
        assert g == ref
    assert g.labels[:5] == ["B", "A", "C", "Z", "D"]
    assert g.degrees()[3] == 0
    # B and A share d1 and d2; B's second d1 row adds nothing
    assert project_bipartite(memberships).adjacency()[0, 1] == 2.0


def test_adjacency_is_a_new_array_per_call():
    g = Graph(3, [(0, 1, 2.0), (1, 2)])
    a = g.adjacency()
    a[0, 1] = 7.0
    b = g.adjacency()
    assert b is not a
    assert b[0, 1] == 2.0


def test_largest_component_and_labels():
    g = Graph(6, [(0, 1), (1, 2), (3, 4)], labels=list("abcdef"))
    lc = largest_component(g)
    assert lc.n == 3 and lc.labels == ["a", "b", "c"]
    assert lc.is_connected()


def test_sparse_adjacency_and_components_match_scipy_builds():
    # the CSR built from the canonical edges equals scipy's COO build, and
    # the strong components of the symmetric adjacency are the connected
    # ones: isolated nodes, weights, three components, random graphs
    graphs = [Graph(10, [(4, 0, 2.5), (2, 0), (0, 1, 0.25), (6, 5, 3.0),
                         (7, 6), (2, 4), (8, 3, 0.5)]),
              Graph(3), Graph(1),
              Graph(5, np.array([[3, 1, 0.5], [1, 0, 2.0]]))]
    graphs += [generate_er(60, p, seed=s) for p in (0.02, 0.05, 0.3)
               for s in range(4)]
    for g in graphs:
        a = g.sparse_adjacency()
        u, v, w = (np.concatenate(pair) for pair in (
            (g._u, g._v), (g._v, g._u), (g._w, g._w)))
        ref = sp.coo_array((w, (u, v)), shape=(g.n, g.n)).tocsr()
        assert np.array_equal(a.indptr, ref.indptr)
        assert np.array_equal(a.indices, ref.indices)
        assert np.array_equal(a.data, ref.data)
        assert np.array_equal(a.toarray(), g.adjacency())
        _, want = connected_components(ref, directed=False)
        got = g.component_labels()
        pairs = set(zip(got.tolist(), want.tolist()))
        assert len(pairs) == len(set(got.tolist())) == len(set(want.tolist()))
    # three components and isolated node 9
    assert len(set(graphs[0].component_labels().tolist())) == 4


def test_relabel_permutes_adjacency():
    g = Graph(4, [(0, 1, 2.0), (1, 2), (2, 3)], labels=list("abcd"))
    perm = [2, 0, 3, 1]
    h = relabel(g, perm)
    a, b = g.adjacency(), h.adjacency()
    for i in range(4):
        for j in range(4):
            assert b[perm[i], perm[j]] == a[i, j]
    assert h.labels[perm[0]] == "a"


# -- walk counts -----------------------------------------------------------


def test_walk_counts_against_enumeration():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 2), (4, 5)]
    g = Graph(6, edges)
    total_oracle, closed_oracle = enumerate_walks(g.adjacency().astype(int), 5)
    total, closed = walk_counts(g, 5)
    assert total.shape == closed.shape == (6, 6)
    for k in range(6):
        assert list(total[k]) == list(total_oracle[k])
        assert list(closed[k]) == list(closed_oracle[k])


def test_walk_counts_identities():
    g = generate_er(25, 0.2, seed=5)
    total, closed = walk_counts(g, 4)
    assert np.array_equal(total[1], g.degrees())
    assert np.array_equal(closed[2], g.degrees())
    a = g.adjacency()
    # recurrence: totals advance by one multiplication with A
    for k in range(1, 5):
        assert np.allclose(a @ total[k - 1], total[k])


def test_triangle_counts_match_closed_threes():
    # a closed walk of length 3 runs round a triangle, one per direction
    g = generate_er(20, 0.3, seed=11)
    a = g.adjacency()
    t = np.zeros(g.n, dtype=np.int64)
    for i, j, k in itertools.combinations(range(g.n), 3):
        if a[i, j] and a[j, k] and a[i, k]:
            t[[i, j, k]] += 1
    _, closed = walk_counts(g, 3)
    assert np.array_equal(2 * t, closed[3])
    k3 = generate_complete(3)
    assert list(walk_counts(k3, 3)[1][3]) == [2, 2, 2]


def test_walk_counts_overflow_switches_to_float():
    g = generate_complete(20)  # totals grow like 19^k, past int64 at k=15
    total, _ = walk_counts(g, 60)
    # through order 14 the counts are the exact closed form (n-1)^k, each
    # rounded once to float64
    assert total[10, 0] == 19**10
    for k in range(15):
        assert total[k, 0] == float(19**k)
    # after the switch values continue as floats near the true magnitude
    assert np.isfinite(total[60]).all()
    rel = total[60, 0] / float(19**60)
    assert abs(rel - 1) < 1e-9


@pytest.mark.parametrize("make", [
    lambda: generate_er(60, 0.1, seed=7, require_connected=True),
    lambda: generate_complete(20),
], ids=["er60", "k20"])
def test_walk_counts_match_dense_reference(make):
    g = make()
    ref = dense_walk_counts(g, 60)
    total, closed = walk_counts(g, 60)
    assert not ref[60][2]  # both modes are compared
    for k, (ref_total, ref_closed, exact) in enumerate(ref):
        if exact:
            # the exact integer count, rounded once
            assert np.array_equal(total[k], ref_total.astype(np.float64))
            assert np.array_equal(closed[k], ref_closed.astype(np.float64))
        else:
            np.testing.assert_allclose(total[k], ref_total, rtol=1e-12,
                                       atol=0)
            np.testing.assert_allclose(closed[k], ref_closed, rtol=1e-12,
                                       atol=0)


@pytest.mark.parametrize("make", [
    lambda: generate_complete(20),
    lambda: Graph(6, [(0, 1, 0.5), (1, 2, 2.0), (2, 3, 1.25), (3, 0, 0.75),
                      (0, 2, 3.0), (4, 5, 1.5)]),
], ids=["k20", "weighted"])
@pytest.mark.parametrize("nodes", [[5, 2, 2, 0], [3], []],
                         ids=["unsorted-repeat", "one", "empty"])
def test_walk_counts_at_nodes_match_full_run(make, nodes):
    g = make()
    total, closed = walk_counts(g, 60)
    some_total, some_closed = walk_counts(g, 60, nodes=nodes)
    # k20 leaves int64 at order 15, so both modes are compared there
    assert g.is_weighted or total[60].max() > 2.0**63
    assert np.array_equal(some_total, total)
    assert np.array_equal(some_closed, closed[:, nodes])


def test_walk_counts_rejects_bad_nodes():
    g = generate_complete(4)
    for nodes in ([4], [-1], [[0, 1]]):
        with pytest.raises(GraphError):
            walk_counts(g, 2, nodes=nodes)


def test_walk_counts_weighted_not_exact():
    g = Graph(3, [(0, 1, 0.5), (1, 2, 2.0)])
    _, closed = walk_counts(g, 3)
    assert np.allclose(closed[2], [0.25, 4.25, 4.0])
