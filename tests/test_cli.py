"""End-to-end tests for the command-line interface.

Every test drives main(argv) directly and inspects exit codes plus the
files written under --out.
"""

import csv
import hashlib
import io
import json
import os
import warnings

import numpy as np
import pytest
import scipy.special

import riskcent
import riskcent.cli
import riskcent.interlacement
import riskcent.spectral
from riskcent.cli import build_parser, main
from riskcent.graph import (Graph, generate_complete, generate_er,
                            load_json, save_json)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def write_k4(path):
    with open(path, "w") as fh:
        for i in range(4):
            for j in range(i + 1, 4):
                fh.write("%d %d\n" % (i, j))
    return str(path)


def write_clique_plus_hub(path):
    edges = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    edges += [(5, leaf) for leaf in range(6, 12)]
    edges += [(0, 5)]
    save_json(Graph(12, edges), str(path))
    return str(path)


def write_returns(path, months=12, assets=3, seed=3):
    import datetime
    rng = np.random.default_rng(seed)
    names = ["AST%d" % k for k in range(assets)]
    day = datetime.date(2001, 1, 1)
    end = datetime.date(2001, months, 28)
    with open(path, "w") as fh:
        fh.write("date," + ",".join(names) + "\n")
        while day <= end:
            if day.weekday() < 5:
                row = rng.standard_normal(assets) * 0.01
                fh.write(day.isoformat() + ","
                         + ",".join(repr(float(v)) for v in row) + "\n")
            day += datetime.timedelta(days=1)
    return str(path)


CORPORATE_BOARDS = [
    ("Alpha", "x1"), ("Bravo", "x1"), ("Chard", "x1"), ("Delta", "x1"),
    ("Alpha", "x2"), ("Bravo", "x2"), ("Chard", "x2"),
    ("Alpha", "x3"), ("Bravo", "x3"),
    ("Hub", "y1"), ("Alpha", "y1"),
    ("Hub", "h1"), ("Leaf1", "h1"),
    ("Hub", "h2"), ("Leaf1", "h2"),
    ("Hub", "h3"), ("Leaf2", "h3"),
    ("Hub", "h4"), ("Leaf3", "h4"),
    ("Hub", "h5"), ("Leaf4", "h5"),
]

CORPORATE_SVC = {
    "Alpha": [9, 7, 6, 4], "Bravo": [8, 6, 5, 2], "Chard": [7, 6, 4, 3],
    "Delta": [6, 5, 3, 1], "Hub": [2, 4, 5, 7], "Leaf1": [1, 2, 4, 5],
    "Leaf2": [2, 3, 5, 6], "Leaf3": [1, 3, 4, 6], "Leaf4": [2, 4, 6, 7],
}


def write_corporate(tmp_path, svc=None):
    memb = tmp_path / "memb.csv"
    with open(memb, "w") as fh:
        fh.write("company,director\n")
        for c, d in CORPORATE_BOARDS:
            fh.write("%s,%s\n" % (c, d))
    svc_path = tmp_path / "svc.csv"
    with open(svc_path, "w") as fh:
        fh.write("company,year,value\n")
        for c, vals in (svc or CORPORATE_SVC).items():
            for k, v in enumerate(vals):
                fh.write("%s,%d,%g\n" % (c, 2000 + k, v))
    return str(memb), str(svc_path)


# -- centrality ---------------------------------------------------------------


def test_centrality_k4_outputs(tmp_path):
    graph = write_k4(tmp_path / "k4.txt")
    out = str(tmp_path / "out")
    rc = main(["centrality", graph, "--out", out,
               "--zeta-grid", "0.1,0.5,1.0"])
    assert rc == 0
    names = {"manifest.json", "values_R.csv", "values_C.csv",
             "values_T.csv", "ranks.csv", "rankstd.csv"}
    assert set(os.listdir(out)) == names
    header, rows = read_csv(os.path.join(out, "ranks.csv"))
    assert header == ["zeta", "0", "1", "2", "3"]
    assert len(rows) == 3
    for row in rows:
        # ties are resolved: each row is a permutation of 1..4
        assert sorted(float(v) for v in row[1:]) == [1.0, 2.0, 3.0, 4.0]


def test_centrality_path_small_zeta_degree_order(tmp_path):
    graph = tmp_path / "p3.txt"
    graph.write_text("0 1\n1 2\n")
    out = str(tmp_path / "out")
    rc = main(["centrality", str(graph), "--out", out,
               "--zeta-grid", "0.000001,0.000002", "--measure", "R"])
    assert rc == 0
    _, rows = read_csv(os.path.join(out, "ranks.csv"))
    for row in rows:
        assert float(row[2]) == 1.0  # the degree-2 centre node leads


def test_centrality_values_match_library(tmp_path):
    graph = write_clique_plus_hub(tmp_path / "g.json")
    out = str(tmp_path / "out")
    rc = main(["centrality", graph, "--out", out, "--zeta-grid", "0.2,0.8"])
    assert rc == 0
    g = load_json(graph)
    profile = riskcent.sweep(g, np.array([0.2, 0.8]))
    for m in "RCT":
        _, rows = read_csv(os.path.join(out, "values_%s.csv" % m))
        got = np.array([[float(v) for v in row[1:]] for row in rows])
        assert np.allclose(got, profile.measure(m), rtol=1e-12)


def test_manifest_contents(tmp_path):
    graph = write_k4(tmp_path / "k4.txt")
    out = str(tmp_path / "out")
    assert main(["centrality", graph, "--out", out,
                 "--zeta-grid", "0.5,1.0"]) == 0
    with open(os.path.join(out, "manifest.json")) as fh:
        man = json.load(fh)
    assert man["command"] == "centrality"
    assert man["version"] == riskcent.__version__
    with open(graph, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert man["inputs"] == {graph: digest}
    assert man["settings"]["zeta_grid"] == [0.5, 1.0]
    assert sorted(man["outputs"]) == man["outputs"]
    for name in man["outputs"]:
        assert os.path.isfile(os.path.join(out, name))


# each command's manifest settings as literals: the parsed options, with a
# grid, the solvers, the pairs and the config as the values read from
# their text
SETTINGS_PINS = [
    (["centrality", "k4.txt", "--zeta-grid", "0.5:1:3", "--measure", "C"],
     {"graph": "k4.txt", "measure": "C", "weighted": False,
      "zeta_grid": [0.5, 0.75, 1.0]}, None),
    (["epidemics", "k4.txt", "--beta", "0.01", "--gamma", "0.1", "--tmax",
      "1", "--steps", "3", "--solvers", "lee, mean-field"],
     {"beta": 0.01, "gamma": 0.1, "graph": "k4.txt",
      "solvers": ["lee", "mean-field"], "steps": 3, "tmax": 1.0,
      "weighted": False}, None),
    (["interlace", "k4.txt", "--pairs", "0,1;2,3", "--zeta-grid", "0.1,0.2"],
     {"all_pairs": False, "graph": "k4.txt", "measure": "C",
      "pairs": [[0, 1], [2, 3]], "weighted": False, "zeta_grid": [0.1, 0.2]},
     None),
    (["interlace", "k4.txt", "--all-pairs", "--measure", "T", "--zeta-grid",
      "0.2:1:3"],
     {"all_pairs": True, "graph": "k4.txt", "measure": "T", "pairs": None,
      "weighted": False, "zeta_grid": [0.2, 0.6000000000000001, 1.0]}, None),
    (["experiments", "exp.cfg", "--ratios", "--budget", "100", "--jobs", "2"],
     {"config": "exp.cfg", "densities": [0.3, 0.6], "n": 25, "ratios": True,
      "replications": 6, "zetas": [0.1, 1.0]}, 11),
    (["market", "returns.csv", "--zeta-grid", "0.1,1", "--weight-mode",
      "inverse", "--budget", "100"],
     {"measure": "R", "min_obs": 0.9, "returns": "returns.csv",
      "step_months": 1, "weight_mode": "inverse", "width_months": 6,
      "zeta_grid": [0.1, 1.0]}, None),
    (["corporate", "memb.csv", "svc.csv", "--binary", "--zeta-hi", "2"],
     {"binary": True, "measure": "R", "memberships": "memb.csv",
      "svc": "svc.csv", "threshold": 0.05, "zeta_hi": 2.0, "zeta_lo": 0.01},
     None),
]


@pytest.mark.parametrize("argv, settings, seed", SETTINGS_PINS,
                         ids=["centrality", "epidemics", "interlace-pairs",
                              "interlace-all-pairs", "experiments", "market",
                              "corporate"])
def test_manifest_settings_pinned(tmp_path, monkeypatch, argv, settings,
                                  seed):
    monkeypatch.chdir(tmp_path)
    write_k4("k4.txt")
    write_experiment_config("exp.cfg")
    write_returns("returns.csv")
    write_corporate(tmp_path)
    assert main(argv + ["--out", "out"]) == 0
    with open(os.path.join("out", "manifest.json")) as fh:
        man = json.load(fh)
    assert man["command"] == argv[0]
    assert man["settings"] == settings
    assert man["seed"] == seed
    assert not {"command", "out", "jobs", "budget"} & set(man["settings"])


def test_one_parser_per_process():
    assert build_parser() is build_parser()


def test_centrality_past_float_range_exits_2_before_manifest(tmp_path,
                                                            capsys):
    # K30 has R = exp(29 zeta): past zeta ~ 24 the values leave float
    # range, and the ranking refuses them before any file is written.  R
    # and C unscale to +inf without a warning; T = inf - inf warns
    graph = tmp_path / "k30.json"
    save_json(generate_complete(30), str(graph))
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):
        rc = main(["centrality", str(graph), "--zeta-grid", "1:100:5",
                   "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: values must be finite to rank\n")
    assert not out.exists()


def test_missing_graph_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    rc = main(["centrality", missing, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert missing in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    '{"n": 3}', '[1, 2]', '{"n": 3, "edges": [[0]]}',
    '{"n": 2, "edges": [[0, 1]], "labels": 5}', '{"n": null, "edges": []}',
    '{"n": 2, "edges": 5}', '{"n": 2, "edges": [[0, null]]}',
    '{"n": 2, "edges": [[0, Infinity]]}', '{"n": 2, "edges": [[0, 1]]',
])
def test_malformed_json_graph_exits_2_naming_the_file(tmp_path, capsys, doc):
    graph = tmp_path / "bad.json"
    graph.write_text(doc)
    out = tmp_path / "out"
    assert main(["centrality", str(graph), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: %s: " % graph)
    assert not (out / "manifest.json").exists()


def test_bad_zeta_grid_exits_2(tmp_path, capsys):
    graph = write_k4(tmp_path / "k4.txt")
    specs = ("1.0,0.5", "0,1", "1:0.5:5", "1:2:3:4", "0.1,0.5,inf",
             "0.1,0.2,nan", "0.1:nan:3", "1:2:3.5", "a,b")
    commands = (["centrality"], ["interlace", "--pairs", "0,1"])
    for k, spec in enumerate(specs):
        for command in commands:
            out = tmp_path / ("out%d%s" % (k, command[0]))
            rc = main([command[0], graph, "--out", str(out), "--zeta-grid",
                       spec] + command[1:])
            assert rc == 2
            assert not (out / "manifest.json").exists()
    err = capsys.readouterr().err
    assert err.count("error:") == len(specs) * len(commands)
    assert "Traceback" not in err
    # each message names the option and the spec
    for spec in specs:
        assert err.count("error: --zeta-grid %r: " % spec) == len(commands)


def test_unknown_measure_exits_2_before_manifest(tmp_path, capsys):
    graph = write_k4(tmp_path / "k4.txt")
    returns = write_returns(tmp_path / "returns.csv")
    memb, svc = write_corporate(tmp_path)
    commands = (["centrality", graph], ["interlace", graph, "--pairs", "0,1"],
                ["market", returns], ["corporate", memb, svc])
    for command in commands:
        out = tmp_path / ("out-" + command[0])
        with pytest.raises(SystemExit) as exc:
            main(command + ["--out", str(out), "--measure", "Q"])
        assert exc.value.code == 2
        assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("invalid choice: 'Q'") == len(commands)


def write_ring(path, n):
    ring = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
    save_json(Graph(n, ring), str(path))
    return str(path)


def test_centrality_above_dense_limit(tmp_path):
    # above the dense limit R comes from the power-series action and C from
    # the power moments: on the ring both have closed forms
    n = riskcent.spectral.DENSE_LIMIT_DEFAULT + 1
    graph = write_ring(tmp_path / "ring.json", n)
    out = tmp_path / "out"
    rc = main(["centrality", graph, "--out", str(out)])
    assert rc == 0
    with open(out / "manifest.json") as fh:
        declared = json.load(fh)["outputs"]
    assert len(declared) == 5
    for name in declared:
        assert (out / name).is_file()
    vals = {}
    for m in "RC":
        _, rows = read_csv(out / ("values_%s.csv" % m))
        vals[m] = np.array(rows, dtype=float)
    zeta = vals["R"][:, :1]
    assert zeta.size == 100 and vals["R"].shape == (100, n + 1)
    cosines = np.cos(2.0 * np.pi * np.arange(n) / n)
    want_c = np.exp(2.0 * zeta * cosines).mean(axis=1, keepdims=True)
    assert np.abs(vals["C"][:, 1:] / want_c - 1.0).max() <= 1e-12
    assert np.abs(vals["R"][:, 1:] / np.exp(2.0 * zeta) - 1.0).max() <= 1e-12


def test_interlace_above_dense_limit(tmp_path):
    # the power-series tables need no eigendecomposition at any size
    n = riskcent.spectral.DENSE_LIMIT_DEFAULT + 1
    graph = write_ring(tmp_path / "ring.json", n)
    out = tmp_path / "out"
    rc = main(["interlace", graph, "--pairs", "0,2500", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "events.csv")
    assert header[:4] == ["i", "j", "measure", "kind"]
    assert rows == []  # the ring's nodes are automorphic


def test_interlace_past_the_reach_below_dense_limit(tmp_path):
    # K300 needs zeta b = 299 at the default grid's top: one series table
    # of degree 453 serves the grid, with no eigendecomposition
    graph = tmp_path / "k300.json"
    save_json(generate_complete(300), str(graph))
    out = tmp_path / "out"
    rc = main(["interlace", str(graph), "--all-pairs", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "events.csv")
    assert header[:4] == ["i", "j", "measure", "kind"]
    assert rows == []  # the nodes are automorphic
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("command", [["centrality"],
                                     ["interlace", "--pairs", "0,300"]])
def test_large_zeta_above_dense_limit_matches_closed_forms(tmp_path,
                                                           monkeypatch,
                                                           command):
    # above the dense limit the diagonal and every interlacement table are
    # one power series, here to zeta b = 400 (b = 2), of degree 577.
    # On the ring exp(zeta A) 1 = exp(2 zeta) 1, and the diagonal is
    # I_0(2 zeta) up to terms below exp(-390) of it
    monkeypatch.setattr(riskcent.spectral, "DENSE_LIMIT_DEFAULT", 600)
    n = 601
    graph = write_ring(tmp_path / "ring.json", n)
    out = tmp_path / "out"
    rc = main([command[0], graph, "--zeta-grid", "1:200:3", "--out",
               str(out)] + command[1:])
    assert rc == 0
    zeta = np.linspace(1.0, 200.0, 3)[:, None]
    want = {"R": np.ones((3, 1)), "C": scipy.special.ive(0, 2.0 * zeta)}
    want["T"] = want["R"] - want["C"]
    if command[0] == "centrality":
        for m in "RCT":
            _, rows = read_csv(out / ("values_%s.csv" % m))
            vals = np.array(rows, dtype=float)
            assert np.array_equal(vals[:, :1], zeta)
            got = vals[:, 1:] * np.exp(-2.0 * zeta)
            assert np.abs(got / want[m] - 1.0).max() <= 1e-12, m
        return
    header, rows = read_csv(out / "events.csv")
    assert header[:4] == ["i", "j", "measure", "kind"]
    assert rows == []  # the ring's nodes are automorphic
    g = load_json(graph)
    for m in "RCT":
        weights, table, scale = riskcent.interlacement._basis(
            g, np.array([0, 300]), m, zeta[:, 0])
        assert scale == 2.0
        got = weights(zeta[:, 0]) @ table
        assert np.abs(got / want[m] - 1.0).max() <= 1e-12, m


# -- epidemics ----------------------------------------------------------------


def test_epidemics_gamma_zero_is_flat(tmp_path):
    graph = write_k4(tmp_path / "k4.txt")
    out = str(tmp_path / "out")
    rc = main(["epidemics", graph, "--out", out, "--beta", "0.01",
               "--gamma", "0", "--tmax", "4", "--steps", "5",
               "--solvers", "exact,lee,mean-field"])
    assert rc == 0
    for name in ("trajectory_exact.csv", "trajectory_lee.csv",
                 "trajectory_mean-field.csv", "mean_curves.csv"):
        _, rows = read_csv(os.path.join(out, name))
        vals = np.array([[float(v) for v in row[1:]] for row in rows])
        assert np.allclose(vals, 0.01, rtol=0, atol=1e-12)


def test_epidemics_tmax_zero_single_row(tmp_path):
    graph = write_k4(tmp_path / "k4.txt")
    out = str(tmp_path / "out")
    rc = main(["epidemics", graph, "--out", out, "--beta", "0.05",
               "--gamma", "0.01", "--tmax", "0"])
    assert rc == 0
    _, rows = read_csv(os.path.join(out, "trajectory_exact.csv"))
    assert len(rows) == 1
    assert float(rows[0][0]) == 0.0
    assert all(float(v) == 0.05 for v in rows[0][1:])


def test_epidemics_trajectories_and_means(tmp_path):
    graph = write_clique_plus_hub(tmp_path / "g.json")
    out = str(tmp_path / "out")
    rc = main(["epidemics", graph, "--out", out, "--beta", "0.01",
               "--gamma", "0.002", "--tmax", "10", "--steps", "6",
               "--solvers", "exact,lee,lee-general,linearized,mean-field"])
    assert rc == 0
    header, rows = read_csv(os.path.join(out, "mean_curves.csv"))
    assert header == ["t", "exact", "lee", "lee-general", "linearized",
                      "mean-field"]
    assert len(rows) == 6
    data = np.array([[float(v) for v in row] for row in rows])
    # exact <= lee row by row, and both grow from beta
    assert (data[:, 1] <= data[:, 2] + 1e-12).all()
    assert data[0, 1] == pytest.approx(0.01, rel=1e-9)
    assert (np.diff(data[:, 1]) > 0).all()
    _, traj = read_csv(os.path.join(out, "trajectory_exact.csv"))
    assert len(traj) == 6 and len(traj[0]) == 13


def test_epidemics_skips_decompose_when_no_solver_needs_it(tmp_path,
                                                           monkeypatch):
    # no solver decomposes or forms the dense adjacency: the SI bounds
    # take the power-series action, si_exact the sparse adjacency
    def refuse(*args, **kwargs):
        raise AssertionError("eigh or Graph.adjacency called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(Graph, "adjacency", refuse)
    graph = write_clique_plus_hub(tmp_path / "g.json")
    for k, solvers in enumerate(("exact,mean-field",
                                 "exact,lee,lee-general,linearized,"
                                 "mean-field")):
        out = str(tmp_path / ("out%d" % k))
        rc = main(["epidemics", graph, "--out", out, "--beta", "0.01",
                   "--gamma", "0.002", "--tmax", "10", "--steps", "6",
                   "--solvers", solvers])
        assert rc == 0
        header, rows = read_csv(os.path.join(out, "mean_curves.csv"))
        assert header == ["t"] + solvers.split(",") and len(rows) == 6


def test_epidemics_linearized_overflow_exits_2(tmp_path, capsys):
    # gamma t lam_1 reaches 2000 on the 4-cycle: exp overflows float range
    graph = tmp_path / "c4.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 0\n")
    out = tmp_path / "out"
    argv = ["epidemics", str(graph), "--beta", "0.1", "--gamma", "1000",
            "--tmax", "1", "--steps", "3"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv + ["--solvers", "lee,linearized,lee-general",
                          "--out", str(out)])
    assert rc == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err == "error: linearized: exp(gamma t A) x0 overflows at t = 0.5\n"
    # every solver runs before the manifest: lee's trajectory is not kept
    assert not out.exists()
    # lee alone writes its exact limit where R overflows
    lee = tmp_path / "lee"
    assert main(argv + ["--solvers", "lee", "--out", str(lee)]) == 0
    _, rows = read_csv(lee / "trajectory_lee.csv")
    vals = np.array(rows, dtype=float)
    assert np.array_equal(vals[:, 0], [0.0, 0.5, 1.0])
    assert np.allclose(vals[0, 1:], 0.1, rtol=1e-15)
    assert (vals[1:, 1:] == 1.0).all()


def test_epidemics_k30_overflow_leaves_no_output_directory(tmp_path, capsys):
    # exact runs first and succeeds; the linearized flow then overflows
    graph = str(tmp_path / "k30.json")
    save_json(generate_complete(30), graph)
    out = tmp_path / "out"
    rc = main(["epidemics", graph, "--beta", "0.1", "--gamma", "50",
               "--tmax", "10", "--solvers", "exact,linearized",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: linearized: exp(gamma t A) x0 overflows at t = ")
    assert not out.exists()


def test_epidemics_disconnected_graph_past_overflow(tmp_path):
    # K4 plus an isolated node: R overflows on K4 only, so the isolated
    # node keeps its exact value beta while K4 takes the limit 1
    graph = str(tmp_path / "k4i.json")
    save_json(Graph(5, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]),
              graph)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["epidemics", graph, "--beta", "0.1", "--gamma", "1000",
                   "--tmax", "1", "--steps", "3", "--solvers", "lee",
                   "--out", str(out)])
    assert rc == 0
    assert [str(w.message) for w in caught] == []
    _, rows = read_csv(out / "trajectory_lee.csv")
    vals = np.array(rows, dtype=float)
    assert (vals[1:, 1:5] == 1.0).all()
    assert np.allclose(vals[:, 5], 0.1, rtol=1e-15)


def test_epidemics_above_dense_limit(tmp_path, sparse_er):
    # a real graph above DENSE_LIMIT_DEFAULT: the SI bounds need no
    # eigendecomposition
    n = riskcent.spectral.DENSE_LIMIT_DEFAULT + 1000
    g = sparse_er(n, 10.0, seed=0)
    assert g.is_connected()
    graph = str(tmp_path / "er.json")
    save_json(g, graph)
    out = tmp_path / "out"
    rc = main(["epidemics", graph, "--out", str(out), "--beta", "0.01",
               "--gamma", "0.1", "--tmax", "2", "--steps", "5",
               "--solvers", "lee,linearized,lee-general,mean-field"])
    assert rc == 0
    with open(out / "manifest.json") as fh:
        declared = json.load(fh)["outputs"]
    assert len(declared) == 5
    for name in declared:
        assert (out / name).is_file()
    x = {s: np.array(read_csv(out / ("trajectory_%s.csv" % s))[1],
                     dtype=float)[:, 1:] for s in ("lee", "lee-general")}
    assert x["lee"].shape == (5, n)
    assert np.abs(x["lee"] - x["lee-general"]).max() < 1e-9


def test_epidemics_unknown_solver_exits_2(tmp_path, capsys):
    graph = write_k4(tmp_path / "k4.txt")
    rc = main(["epidemics", graph, "--out", str(tmp_path / "out"),
               "--beta", "0.01", "--gamma", "0.1", "--tmax", "1",
               "--solvers", "exact,euler"])
    assert rc == 2
    assert "euler" in capsys.readouterr().err
    out = tmp_path / "none"
    rc = main(["epidemics", graph, "--out", str(out), "--beta", "0.01",
               "--gamma", "0.1", "--tmax", "1", "--solvers", ","])
    assert rc == 2
    assert "no solver given" in capsys.readouterr().err
    assert not out.exists()


def test_epidemics_nonfinite_tmax_exits_2(tmp_path, capsys):
    graph = write_k4(tmp_path / "k4.txt")
    for k, tmax in enumerate(("nan", "inf")):
        out = tmp_path / ("out%d" % k)
        rc = main(["epidemics", graph, "--out", str(out), "--beta", "0.1",
                   "--gamma", "0.1", "--tmax", tmax,
                   "--solvers", "mean-field"])
        assert rc == 2
        assert not (out / "manifest.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: tmax must be finite")
        assert err.count("\n") == 1


# -- interlace ----------------------------------------------------------------


def test_interlace_symmetric_pair_empty_events(tmp_path):
    graph = write_k4(tmp_path / "k4.txt")
    out = str(tmp_path / "out")
    rc = main(["interlace", graph, "--out", out, "--pairs", "0,1",
               "--measure", "C"])
    assert rc == 0
    header, rows = read_csv(os.path.join(out, "events.csv"))
    assert header[:4] == ["i", "j", "measure", "kind"]
    assert rows == []
    with open(os.path.join(out, "manifest.json")) as fh:
        settings = json.load(fh)["settings"]
    assert settings["all_pairs"] is False and settings["pairs"] == [[0, 1]]


def test_interlace_clique_hub_crossing(tmp_path):
    graph = write_clique_plus_hub(tmp_path / "g.json")
    out = str(tmp_path / "out")
    rc = main(["interlace", graph, "--out", out, "--pairs", "5,1",
               "--measure", "C", "--zeta-grid", "0.002:4.0:800"])
    assert rc == 0
    _, rows = read_csv(os.path.join(out, "events.csv"))
    crossings = [r for r in rows if r[3] == "crossing"]
    assert len(crossings) == 1
    row = crossings[0]
    assert row[0] == "5" and row[1] == "1"
    zeta_star = float(row[4])
    assert float(row[5]) < zeta_star < float(row[6])
    # both heuristics fire for this pair and land in the same region
    assert row[7] != "" and row[8] != ""
    assert abs(float(row[8]) - zeta_star) < 0.25


def test_interlace_counts_walks_only_for_pairs_with_events(tmp_path,
                                                          monkeypatch):
    graph = write_clique_plus_hub(tmp_path / "g.json")
    calls = []
    walk_counts = riskcent.interlacement.walk_counts

    def spy(g, kmax, nodes=None):
        # both heuristics read one count, through the polynomial's order 6
        assert kmax == 6
        calls.append(list(nodes))
        return walk_counts(g, kmax, nodes=nodes)

    monkeypatch.setattr(riskcent.interlacement, "walk_counts", spy)
    # clique nodes 2, 3 and leaves 6, 7 are automorphic: no events
    quiet = str(tmp_path / "quiet")
    assert main(["interlace", graph, "--out", quiet, "--pairs", "2,3;6,7",
                 "--measure", "C"]) == 0
    header, rows = read_csv(os.path.join(quiet, "events.csv"))
    assert header[:4] == ["i", "j", "measure", "kind"] and rows == []
    assert calls == []
    # only the endpoints of the crossing pair (5, 1) get closed walks, once
    # for both heuristics
    loud = str(tmp_path / "loud")
    assert main(["interlace", graph, "--out", loud, "--pairs", "2,3;5,1",
                 "--measure", "C", "--zeta-grid", "0.002:4.0:800"]) == 0
    _, rows = read_csv(os.path.join(loud, "events.csv"))
    assert {(r[0], r[1]) for r in rows} == {("5", "1")}
    assert calls == [[1, 5]]
    # R reads walk totals only: no closed walks at any node
    calls.clear()
    totals = str(tmp_path / "totals")
    assert main(["interlace", graph, "--out", totals, "--pairs", "2,3;5,1",
                 "--measure", "R", "--zeta-grid", "0.002:4.0:800"]) == 0
    _, rows = read_csv(os.path.join(totals, "events.csv"))
    assert {(r[0], r[1]) for r in rows} == {("5", "1")}
    assert calls == [[]]


def test_interlace_all_pairs_on_path(tmp_path):
    graph = tmp_path / "p3.txt"
    graph.write_text("0 1\n1 2\n")
    out = str(tmp_path / "out")
    rc = main(["interlace", str(graph), "--out", out, "--all-pairs"])
    assert rc == 0
    _, rows = read_csv(os.path.join(out, "events.csv"))
    assert rows == []  # centre dominates and the leaves are automorphic
    # the manifest records the flag, not the n(n-1)/2 pairs it expands to
    with open(os.path.join(out, "manifest.json")) as fh:
        settings = json.load(fh)["settings"]
    assert settings["all_pairs"] is True and settings["pairs"] is None


def test_interlace_writes_tangency_rows(tmp_path, monkeypatch):
    def found(g, pairs, **kwargs):
        # one crossing of the first pair, two of the second, and a
        # tangency of each
        lo = np.array([0.1, 0.2, 0.6])
        crossings = (np.array([0, 1, 1]), lo, lo + 1e-9,
                     np.array([1, -1, 1], np.int8),
                     np.array([-1, 1, -1], np.int8))
        return crossings, (np.array([0, 1]), np.array([0.25, 0.4]))

    monkeypatch.setattr(riskcent.cli, "detect_pairs", found)
    graph = write_k4(tmp_path / "k4.txt")
    out = str(tmp_path / "out")
    rc = main(["interlace", graph, "--out", out, "--pairs", "0,1;2,3",
               "--measure", "C", "--zeta-grid", "0.05:1:20"])
    assert rc == 0
    header, rows = read_csv(os.path.join(out, "events.csv"))
    assert header[3:7] == ["kind", "zeta_star", "bracket_lo", "bracket_hi"]
    # each pair's crossings, then its tangencies
    assert [row[:5] for row in rows] == [
        ["0", "1", "C", "crossing", repr(0.5 * (0.1 + (0.1 + 1e-9)))],
        ["0", "1", "C", "tangency", "0.25"],
        ["2", "3", "C", "crossing", repr(0.5 * (0.2 + (0.2 + 1e-9)))],
        ["2", "3", "C", "crossing", repr(0.5 * (0.6 + (0.6 + 1e-9)))],
        ["2", "3", "C", "tangency", "0.4"]]
    assert rows[1][:7] == ["0", "1", "C", "tangency", "0.25", "", ""]
    assert rows[0][5:7] == ["0.1", repr(0.1 + 1e-9)]


def reference_events_csv(g, pairs, measure, grid, detect):
    """events.csv as ``csv.writer`` wrote it before ``cmd_interlace``
    formatted it: rows by pair, each pair's crossings before its
    tangencies, NaN and absent cells empty, floats as ``repr``."""
    (cp, lo, hi, _, _), (tp, zetas) = detect(g, pairs, measure=measure,
                                             zeta_grid=grid)
    events = sorted([(p, 0, k) for k, p in enumerate(cp.tolist())]
                    + [(p, 1, k) for k, p in enumerate(tp.tolist())])
    found = sorted({p for p, _, _ in events})
    heuristics = {}
    if found:
        linear, root = riskcent.interlacement.heuristic_pairs(
            g, pairs[found], measure=measure)
        heuristics = dict(zip(found, zip(linear.tolist(), root.tolist())))
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["i", "j", "measure", "kind", "zeta_star", "bracket_lo",
                "bracket_hi", "heuristic_linear", "heuristic_poly"])
    for p, tangent, k in events:
        cells = ([zetas[k], None, None] if tangent else
                 [0.5 * (lo[k] + hi[k]), lo[k], hi[k]])
        row = [*pairs[p].tolist(), measure,
               "tangency" if tangent else "crossing",
               *(None if x is None else float(x) for x in cells),
               *heuristics[p]]
        w.writerow([None if x != x else x for x in row])
    return buf.getvalue().encode("utf-8")


def _with_tangencies(g, pairs, **kwargs):
    # the detected crossings, plus tangencies of the pairs {1, 5} (one
    # before and one after its crossing) and {2, 3} (automorphic: no
    # heuristic, so NaN cells)
    crossings, _ = riskcent.interlacement.detect_pairs(g, pairs, **kwargs)
    keys = [frozenset(p) for p in np.asarray(pairs).tolist()]
    tangent = [(keys.index(frozenset(p)), z)
               for p, zs in (((1, 5), (0.25, 2.0)), ((2, 3), (1.0,)))
               if frozenset(p) in keys for z in zs]
    tp, zetas = np.array(sorted(tangent)).reshape(-1, 2).T
    return crossings, (tp.astype(np.int64), zetas)


@pytest.mark.parametrize("measure", "RCT")
@pytest.mark.parametrize("graph,spec", [
    ("hub", "5,1;2,3;0,5;6,7"),
    ("hub", None),
    # (37, 1) has no linear estimate on R and T, nor (1, 8) on C; (23, 38)
    # crosses twice on C
    ("er40", "37,1;2,11;1,8;0,1;23,38;2,29"),
    ("er40", None),
])
def test_interlace_events_csv_bytes_match_csv_writer(tmp_path, monkeypatch,
                                                     graph, spec, measure):
    # cmd_interlace formats events.csv itself: byte for byte what
    # csv.writer writes for the same events, on crossings, tangency rows
    # with empty brackets and NaN heuristic cells
    if graph == "hub":
        path = write_clique_plus_hub(tmp_path / "g.json")
        detect = _with_tangencies
        monkeypatch.setattr(riskcent.cli, "detect_pairs", detect)
    else:
        path = str(tmp_path / "g.json")
        save_json(generate_er(40, 0.15, seed=4, require_connected=True),
                  path)
        detect = riskcent.interlacement.detect_pairs
    out = tmp_path / "out"
    which = ["--all-pairs"] if spec is None else ["--pairs", spec]
    assert main(["interlace", path, "--out", str(out), "--measure", measure,
                 "--zeta-grid", "0.05:3:60"] + which) == 0
    g = load_json(path)
    pairs = (np.column_stack(np.triu_indices(g.n, 1)) if spec is None
             else np.array([tok.split(",") for tok in spec.split(";")],
                           dtype=np.int64))
    want = reference_events_csv(g, pairs, measure, np.linspace(0.05, 3, 60),
                                detect)
    assert (out / "events.csv").read_bytes() == want
    # the cases the comparison covers
    rows = list(csv.reader(io.StringIO(want.decode(), newline="")))[1:]
    assert any(r[3] == "crossing" for r in rows)
    assert any("" in r[7:] for r in rows)  # a NaN heuristic
    if graph == "hub":
        hub = ["1", "5"] if spec is None else ["5", "1"]
        assert [r[:7] for r in rows if r[3] == "tangency"] == [
            ij + [measure, "tangency", z, "", ""]
            for ij, z in ((hub, "0.25"), (hub, "2.0"), (["2", "3"], "1.0"))]


def test_interlace_events_csv_without_events_is_the_header(tmp_path):
    graph = write_clique_plus_hub(tmp_path / "g.json")
    out = tmp_path / "out"
    assert main(["interlace", graph, "--out", str(out), "--pairs",
                 "2,3;6,7"]) == 0
    assert (out / "events.csv").read_bytes() == (
        b"i,j,measure,kind,zeta_star,bracket_lo,bracket_hi,"
        b"heuristic_linear,heuristic_poly\r\n")


@pytest.mark.parametrize("error", [
    riskcent.EigensolverError("eigh did not converge"),
    ValueError("linearized: exp(gamma t A) x0 overflows at t = 1.0"),
    riskcent.SIIntegrationError("SI integration failed: step too small"),
])
def test_solver_failures_exit_2(tmp_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(riskcent.cli, "detect_pairs", fail)
    monkeypatch.setattr(riskcent.cli, "si_exact", fail)
    graph = write_k4(tmp_path / "k4.txt")
    rc = main(["interlace", graph, "--out", str(tmp_path / "i"),
               "--pairs", "0,1"])
    assert rc == 2
    rc = main(["epidemics", graph, "--out", str(tmp_path / "e"), "--beta",
               "0.01", "--gamma", "0.1", "--tmax", "1",
               "--solvers", "exact"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: %s" % error] * 2


def test_interlace_one_point_grid_exits_2(tmp_path, capsys):
    graph = write_k4(tmp_path / "k4.txt")
    out = tmp_path / "out"
    rc = main(["interlace", graph, "--out", str(out), "--pairs", "0,1",
               "--zeta-grid", "0.5"])
    assert rc == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: zeta grid must have >= 2 points\n")


def test_interlace_bad_pair_exits_2(tmp_path, capsys):
    graph = write_k4(tmp_path / "k4.txt")
    cases = {
        "0,9": "pair (0, 9) is not two distinct nodes in 0..3",
        "1,2;2,2": "pair (2, 2) is not two distinct nodes in 0..3",
        "2,-1": "pair (2, -1) is not two distinct nodes in 0..3",
        "0,99999999999999999999":
            "pair (0, 99999999999999999999) is not two distinct nodes in 0..3",
        # a spec that does not parse: the option, the spec and the bad pair
        "0,x": "--pairs '0,x': pair '0,x' is not 'i,j' of two integers",
        "1,2; 0,1.5":
            "--pairs '1,2; 0,1.5': pair '0,1.5' is not 'i,j' of two integers",
        "0;1": "--pairs '0;1': pair '0' is not 'i,j' of two integers",
        "0,1,2": "--pairs '0,1,2': pair '0,1,2' is not 'i,j' of two integers",
        " ; ": "--pairs ' ; ': no pairs given",
        "": "--pairs '': no pairs given",
    }
    for spec, message in cases.items():
        out = tmp_path / "out"
        rc = main(["interlace", graph, "--out", str(out), "--pairs", spec])
        assert rc == 2
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not out.exists()


def test_interlace_pairs_and_all_pairs_exit_2_before_manifest(tmp_path,
                                                              capsys):
    # one of --pairs and --all-pairs, never both: a usage error
    graph = write_k4(tmp_path / "k4.txt")
    for which in (["--pairs", "0,1", "--all-pairs"], []):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["interlace", graph, "--out", str(out)] + which)
        assert exc.value.code == 2
        assert not out.exists()
    err = capsys.readouterr().err
    assert "--all-pairs: not allowed with argument --pairs" in err
    assert "one of the arguments --pairs --all-pairs is required" in err


# -- experiments --------------------------------------------------------------


def write_experiment_config(path, replications=6):
    with open(path, "w") as fh:
        fh.write("n = 25\ndensities = 0.3, 0.6\nzetas = 0.1, 1.0\n"
                 "replications = %d\nseed = 11\n" % replications)
    return str(path)


def test_experiments_table_outputs(tmp_path):
    cfg = write_experiment_config(tmp_path / "exp.cfg")
    out = str(tmp_path / "out")
    rc = main(["experiments", cfg, "--out", out, "--jobs", "2"])
    assert rc == 0
    for name in ("table_value.csv", "table_rank.csv"):
        header, rows = read_csv(os.path.join(out, name))
        assert header == ["density", "zeta=0.1", "zeta=1"]
        assert [row[0] for row in rows] == ["0.3", "0.6"]
        for row in rows:
            for cell in row[1:]:
                assert -1.0 <= float(cell) <= 1.0
    with open(os.path.join(out, "manifest.json")) as fh:
        assert json.load(fh)["seed"] == 11


def test_experiments_ratio_report(tmp_path):
    cfg = write_experiment_config(tmp_path / "exp.cfg")
    out = str(tmp_path / "out")
    rc = main(["experiments", cfg, "--out", out, "--ratios"])
    assert rc == 0
    header, rows = read_csv(os.path.join(out, "ratios.csv"))
    assert header[:4] == ["ratio", "density", "zeta", "mean"]
    assert len(rows) == 4 * 2 * 2  # ratios x densities x zetas
    normalized = [r for r in rows if r[0] != "C/R"]
    for row in normalized:
        assert float(row[3]) == pytest.approx(1.0, abs=1e-12)


def test_experiments_budget_exits_3_after_manifest(tmp_path, capsys):
    cfg = write_experiment_config(tmp_path / "exp.cfg")
    out = str(tmp_path / "out")
    rc = main(["experiments", cfg, "--out", out, "--budget", "0"])
    assert rc == 3
    assert "budget" in capsys.readouterr().err
    # the manifest is committed before any result file
    assert os.path.isfile(os.path.join(out, "manifest.json"))
    assert not os.path.exists(os.path.join(out, "table_value.csv"))


def test_experiments_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 25\nwat = 3\n")
    rc = main(["experiments", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "bad.cfg:2" in capsys.readouterr().err


def test_experiments_bad_number_names_its_line_and_key(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("densities = 0.5\nn = 1o0\n")
    out = tmp_path / "out"
    rc = main(["experiments", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "typo.cfg:2" in err and "'n'" in err and "'1o0'" in err
    assert not out.exists()


def test_experiments_above_dense_limit_exits_2_before_manifest(tmp_path,
                                                               capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("n = 5001\ndensities = 0.5\nzetas = 0.1\n"
                   "replications = 1\nseed = 1\n")
    out = tmp_path / "out"
    rc = main(["experiments", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "dense limit 5000" in err[0]
    assert not (out / "manifest.json").exists()


def _directory_in_place(path):
    path.unlink()
    path.mkdir()


# how each case spoils one input file in place
INPUT_CASES = {
    "missing": lambda p: p.unlink(),
    "directory": _directory_in_place,
    "not-utf8": lambda p: p.write_bytes(p.read_bytes()[:-1] + b"\xff\n"),
    "long-field": lambda p: p.write_bytes(p.read_bytes()
                                          + b"x" * 200_000 + b"\n"),
    "bom-blank-line": lambda p: p.write_bytes(b"\xef\xbb\xbf\n"
                                              + p.read_bytes()),
}


def command_inputs(folder):
    """``(argv, input, is_csv)`` per command and input file, written into
    ``folder``."""
    graph = write_k4(folder / "k4.txt")
    returns = write_returns(folder / "returns.csv")
    memb, svc = write_corporate(folder)
    cfg = write_experiment_config(folder / "exp.cfg", replications=2)
    return [(["centrality", graph], graph, False),
            (["market", returns], returns, True),
            (["corporate", memb, svc], memb, True),
            (["corporate", memb, svc], svc, True),
            (["experiments", cfg], cfg, False)]


@pytest.mark.parametrize("case", INPUT_CASES)
def test_input_errors_exit_2_naming_the_file(tmp_path, capsys, case):
    # a bad input exits 2 before the manifest, with one error line naming
    # the file; a BOM and a blank line before the header are read past
    for k in range(5):  # each entry of command_inputs on fresh files
        folder = tmp_path / str(k)
        folder.mkdir()
        argv, path, is_csv = command_inputs(folder)[k]
        if case == "long-field" and not is_csv:
            continue  # no field limit outside CSV
        INPUT_CASES[case](folder / os.path.basename(path))
        out = folder / "out"
        rc = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        if case == "bom-blank-line":
            assert rc == 0 and err == []
            continue
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error: ")
        assert path in err[0]
        assert not (out / "manifest.json").exists()


def test_jobs_default_is_one():
    parser = build_parser()
    for argv in (["experiments", "exp.cfg"], ["market", "returns.csv"],
                 ["corporate", "boards.csv", "svc.csv"]):
        assert parser.parse_args(argv + ["--out", "o"]).jobs == 1


def test_experiments_jobs_do_not_change_results(tmp_path):
    cfg = write_experiment_config(tmp_path / "exp.cfg")
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["experiments", cfg, "--out", out1, "--jobs", "1"]) == 0
    assert main(["experiments", cfg, "--out", out2, "--jobs", "4"]) == 0
    for name in ("table_value.csv", "table_rank.csv"):
        with open(os.path.join(out1, name)) as fh:
            first = fh.read()
        with open(os.path.join(out2, name)) as fh:
            assert fh.read() == first


# -- market -------------------------------------------------------------------


def test_market_window_layout(tmp_path):
    returns = write_returns(tmp_path / "returns.csv")
    out = str(tmp_path / "out")
    rc = main(["market", returns, "--out", out,
               "--zeta-grid", "0.1:1.0:10"])
    assert rc == 0
    expected = ["%d-2001" % k for k in range(1, 8)]
    assert sorted(os.listdir(os.path.join(out, "windows"))) == sorted(expected)
    for wid in expected:
        wdir = os.path.join(out, "windows", wid)
        assert set(os.listdir(wdir)) == {"ranks.csv", "rankstd.csv",
                                         "mst.json"}
        tree = load_json(os.path.join(wdir, "mst.json"))
        assert tree.n == 3 and tree.m == 2
        assert sorted(tree.labels) == ["AST0", "AST1", "AST2"]
    _, rows = read_csv(os.path.join(out, "summary.csv"))
    assert [row[0] for row in rows] == expected


def test_market_jobs_do_not_change_results(tmp_path):
    returns = write_returns(tmp_path / "returns.csv", months=10, assets=5,
                            seed=9)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["market", returns, "--out", out1, "--jobs", "1",
                 "--zeta-grid", "0.1:1.0:10"]) == 0
    assert main(["market", returns, "--out", out2, "--jobs", "3",
                 "--zeta-grid", "0.1:1.0:10"]) == 0
    with open(os.path.join(out1, "summary.csv")) as fh:
        summary = fh.read()
    with open(os.path.join(out2, "summary.csv")) as fh:
        assert fh.read() == summary
    wid = sorted(os.listdir(os.path.join(out1, "windows")))[0]
    for name in ("ranks.csv", "rankstd.csv", "mst.json"):
        with open(os.path.join(out1, "windows", wid, name)) as fh:
            first = fh.read()
        with open(os.path.join(out2, "windows", wid, name)) as fh:
            assert fh.read() == first


def test_market_merges_perfectly_correlated_assets(tmp_path):
    # asset B repeats A: their correlation is 1 up to rounding, the tree
    # could not link them, and B is merged into A (dropped) in every window
    import datetime
    rng = np.random.default_rng(3)
    names = ["A", "B", "C", "D", "E", "F"]
    path = tmp_path / "returns.csv"
    with open(path, "w") as fh:
        fh.write("date," + ",".join(names) + "\n")
        for k in range(400):
            row = rng.standard_normal(6) * 0.01
            row[1] = row[0]
            day = datetime.date(2001, 1, 1) + datetime.timedelta(days=k)
            fh.write(day.isoformat() + ","
                     + ",".join(repr(float(v)) for v in row) + "\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(["market", str(path), "--out", str(out)])
    assert rc == 0
    with open(out / "manifest.json") as fh:
        declared = json.load(fh)["outputs"]
    for name in declared:
        assert (out / name).is_file(), name
    merged = 0
    for name in declared:
        if name.endswith("mst.json"):
            tree = load_json(str(out / name))
            if "B" not in tree.labels:
                merged += 1
                assert tree.labels == ["A", "C", "D", "E", "F"]
            assert (tree.edge_array()[:, 2] > 0.0).all()
    assert merged == 9


def test_market_batches_equal_the_one_window_runs(tmp_path, monkeypatch):
    # ragged windows: asset R is missing in March, so the windows holding
    # March drop it, and B repeats A, so B is merged into A.  Batched two
    # windows at a time, every window's files equal, byte for byte, those
    # of the one-window functions run on that window alone
    import datetime
    from riskcent.finance import (load_returns, rolling_windows,
                                  window_rank_report, window_trees)
    rng = np.random.default_rng(21)
    names = ["A", "B", "C", "D", "R", "F", "G"]
    path = tmp_path / "returns.csv"
    with open(path, "w") as fh:
        fh.write("date," + ",".join(names) + "\n")
        for k in range(330):
            day = datetime.date(2001, 1, 1) + datetime.timedelta(days=k)
            row = rng.standard_normal(7) * 0.01
            row[1] = row[0]
            cells = [repr(float(v)) for v in row]
            if day.month == 3:
                cells[4] = ""
            fh.write(day.isoformat() + "," + ",".join(cells) + "\n")
    windows = rolling_windows(load_returns(str(path)))
    assert len(windows) == 6
    assert {len(w.assets) for w in windows} == {6, 7}
    monkeypatch.setattr(riskcent.cli, "_WINDOW_CHUNK", 2)
    grid = "0.05:3:12"
    for measure, mode in (("R", "distance"), ("T", "inverse"),
                          ("C", "distance")):
        out = tmp_path / ("out" + measure)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["market", str(path), "--out", str(out),
                         "--measure", measure, "--weight-mode", mode,
                         "--zeta-grid", grid]) == 0
            alone = [window_trees([w])[0] for w in windows]
        summary = []
        for window, tree in zip(windows, alone):
            assert "B" not in tree.labels
            one = tmp_path / ("one" + measure) / window.window_id
            one.mkdir(parents=True)
            report = window_rank_report(
                tree, zeta_grid=riskcent.cli._parse_grid(grid),
                measure=measure, weight_mode=mode)
            report.to_csv(str(one / "ranks.csv"))
            report.std_to_csv(str(one / "rankstd.csv"))
            save_json(tree, str(one / "mst.json"))
            for name in ("ranks.csv", "rankstd.csv", "mst.json"):
                got = out / "windows" / window.window_id / name
                assert got.read_bytes() == (one / name).read_bytes(), name
            summary.append([window.window_id, str(len(tree.labels)),
                            repr(float(report.per_node_std.mean()))])
        assert read_csv(str(out / "summary.csv"))[1] == summary


def test_market_r_never_decomposes(tmp_path, monkeypatch):
    # R of every tree comes from the power-series action, which takes no
    # eigensystem.  C comes from one diagonal of the union of the trees,
    # which takes the eigensystem of each tree on its own and never
    # decomposes the union
    def refuse(g):
        raise AssertionError("decompose called")

    sizes = []
    eigensystem = riskcent.spectral._eigensystem

    def counted(a):
        sizes.append(a.shape[0])
        return eigensystem(a)

    monkeypatch.setattr(riskcent.spectral, "decompose", refuse)
    monkeypatch.setattr(riskcent.spectral, "_eigensystem", counted)
    returns = write_returns(tmp_path / "returns.csv", months=8, assets=6)
    assert main(["market", returns, "--out", str(tmp_path / "r"),
                 "--zeta-grid", "0.1:1.0:10"]) == 0
    assert sizes == []
    assert main(["market", returns, "--out", str(tmp_path / "c"),
                 "--measure", "C", "--zeta-grid", "0.1:1.0:10"]) == 0
    _, summary = read_csv(str(tmp_path / "c" / "summary.csv"))
    assert sizes == [int(row[1]) for row in summary] and len(sizes) > 1


def test_market_missing_returns_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "void.csv")
    rc = main(["market", missing, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert missing in capsys.readouterr().err


def test_market_budget_exits_3(tmp_path):
    returns = write_returns(tmp_path / "returns.csv")
    rc = main(["market", returns, "--out", str(tmp_path / "out"),
               "--budget", "0"])
    assert rc == 3


# -- corporate ----------------------------------------------------------------


def test_corporate_pipeline(tmp_path):
    memb, svc = write_corporate(tmp_path)
    out = str(tmp_path / "out")
    rc = main(["corporate", memb, svc, "--out", out])
    assert rc == 0
    header, rows = read_csv(os.path.join(out, "delta_rank.csv"))
    assert header == ["company", "delta_rank", "svc_rho", "trend"]
    assert len(rows) == 9
    by_name = {row[0]: row for row in rows}
    # the leaf-star hub loses rank as zeta grows, clique laggards gain
    assert int(by_name["Hub"][1]) < 0
    assert int(by_name["Chard"][1]) > 0
    assert by_name["Alpha"][3] == "-1" and by_name["Hub"][3] == "1"
    with open(os.path.join(out, "lda.json")) as fh:
        doc = json.load(fh)
    conf = doc["confusion"]
    assert conf["tp"] + conf["fn"] + conf["fp"] + conf["tn"] == doc["n"] == 9
    correct = conf["tp"] + conf["tn"]
    assert doc["accuracy"] == pytest.approx(correct / 9.0)
    assert len(doc["companies"]) == 9


@pytest.mark.parametrize("measure,shifts", [
    ("C", [0, 0, 0, 2, -1, -1, 0, 0, 0]),
    ("T", [0, 0, 1, 1, -2, 0, 0, 0, 0]),
])
def test_corporate_measure_shifts(tmp_path, measure, shifts):
    # the rank shifts of C and of T between zeta-lo and zeta-hi, in the
    # order of the boards' companies
    memb, svc = write_corporate(tmp_path)
    out = str(tmp_path / "out")
    assert main(["corporate", memb, svc, "--out", out,
                 "--measure", measure]) == 0
    _, rows = read_csv(os.path.join(out, "delta_rank.csv"))
    assert [row[0] for row in rows] == [
        "Alpha", "Bravo", "Chard", "Delta", "Hub",
        "Leaf1", "Leaf2", "Leaf3", "Leaf4"]
    assert [int(row[1]) for row in rows] == shifts
    assert sum(shifts) == 0


def test_corporate_single_class_exits_2(tmp_path, capsys):
    # every company declines, so only one trend label survives
    memb, svc_path = write_corporate(tmp_path, svc={
        name: [9, 7, 5, 3] for name in CORPORATE_SVC})
    rc = main(["corporate", memb, svc_path,
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "class" in capsys.readouterr().err


@pytest.mark.parametrize("svc,message", [
    ({"Z": [1, 2, 3, 4]},
     "no company has both a network position and a trend label"),
    ({"A": [1, 2, 3, 4], "B": [2, 3, 5, 6]}, "both classes must be nonempty"),
])
def test_corporate_fails_before_manifest(tmp_path, capsys, svc, message):
    # the rank shifts and the discriminant run before anything is written
    _, svc_path = write_corporate(tmp_path, svc=svc)
    memb = tmp_path / "boards.csv"
    memb.write_text("A,x\nB,x\nB,y\nC,y\n")
    out = tmp_path / "out"
    rc = main(["corporate", str(memb), svc_path, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not (out / "manifest.json").exists()
    assert not (out / "delta_rank.csv").exists()


def test_corporate_bad_zeta_interval_exits_2(tmp_path, capsys):
    memb, svc = write_corporate(tmp_path)
    rc = main(["corporate", memb, svc, "--out", str(tmp_path / "out"),
               "--zeta-lo", "1.0", "--zeta-hi", "0.5"])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("option,value", [("--zeta-hi", "inf"),
                                          ("--zeta-lo", "nan"),
                                          ("--zeta-lo", "-inf")])
def test_corporate_non_finite_zeta_names_the_option(tmp_path, capsys,
                                                    option, value):
    # --zeta-hi inf used to pass the interval check and fail in the grid
    # check, whose message names no option
    memb, svc = write_corporate(tmp_path)
    out = tmp_path / "out"
    rc = main(["corporate", memb, svc, "--out", str(out),
               "%s=%s" % (option, value)])
    assert rc == 2
    assert capsys.readouterr().err == "error: %s %r: must be finite\n" % (
        option, float(value))
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_corporate_bad_threshold_names_the_option(tmp_path, capsys, value):
    # --threshold nan used to exit 0 with "threshold": NaN in the manifest
    memb, svc = write_corporate(tmp_path)
    out = tmp_path / "out"
    rc = main(["corporate", memb, svc, "--out", str(out),
               "--threshold=%s" % value])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: --threshold %r: must be finite and nonnegative\n"
        % float(value))
    assert not out.exists()


def budget_command(tmp_path, command):
    if command == "experiments":
        return ["experiments",
                write_experiment_config(tmp_path / "exp.cfg")]
    if command == "market":
        return ["market", write_returns(tmp_path / "returns.csv")]
    return ["corporate", *write_corporate(tmp_path)]


@pytest.mark.parametrize("value", ["nan", "-1"])
@pytest.mark.parametrize("command", ["experiments", "market", "corporate"])
def test_bad_budget_names_the_option(tmp_path, capsys, command, value):
    # --budget nan used to run with no budget, --budget -1 to exit 3
    out = tmp_path / "out"
    rc = main(budget_command(tmp_path, command)
              + ["--out", str(out), "--budget=%s" % value])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: --budget %r: must be a nonnegative number of seconds\n"
        % float(value))
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_write_json_refuses_non_standard_numbers(tmp_path, value):
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError):
        riskcent.cli._write_json(str(path), {"ok": 1.0, "bad": [value]})
    assert not path.exists()
    riskcent.cli._write_json(str(path), {"ok": 1.0})
    assert json.loads(path.read_text(encoding="utf-8")) == {"ok": 1.0}
