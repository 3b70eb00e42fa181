"""Tests for the random-graph experiment harness."""

import warnings

import numpy as np
import pytest
import scipy.stats

from riskcent.centrality import _row_corr, _row_spearman, spearman, sweep
from riskcent.experiments import (
    RATIOS,
    DistributionSummary,
    ExperimentConfig,
    child_seed,
    ratio_study,
    read_config,
    spearman_table,
    write_config,
)
from riskcent.graph import generate_er
from riskcent.spectral import _eigensystem, _exp_rows
from test_acceptance import ratio_derivative, ratio_limit_deviations


# -- config --------------------------------------------------------------


def test_config_defaults():
    cfg = ExperimentConfig()
    assert cfg.n == 100
    assert cfg.densities == (0.1, 0.3, 0.5, 0.7, 0.9)
    assert cfg.zetas == (0.1, 0.5, 1.0)
    assert cfg.replications == 1000
    assert cfg.seed == 0


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=1)
    with pytest.raises(ValueError):
        ExperimentConfig(densities=(0.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(densities=(1.2,))
    with pytest.raises(ValueError):
        ExperimentConfig(densities=())
    with pytest.raises(ValueError):
        ExperimentConfig(zetas=(0.5, -1.0))
    with pytest.raises(ValueError):
        ExperimentConfig(replications=0)
    # the grid rule of centrality's zeta grids
    for zetas in ((1.0, 0.5), (0.5, 0.5), (0.5, np.inf), (np.nan,)):
        with pytest.raises(ValueError, match="zeta grid"):
            ExperimentConfig(zetas=zetas)
    # every replication is decomposed densely
    with pytest.raises(ValueError, match="dense limit 5000"):
        ExperimentConfig(n=5001)
    assert ExperimentConfig(n=5000).n == 5000


def test_config_file_round_trip(tmp_path):
    cfg = ExperimentConfig(n=42, densities=(0.25, 0.5), zetas=(0.1, 2.0),
                           replications=7, seed=123)
    path = tmp_path / "exp.cfg"
    write_config(cfg, str(path))
    back = read_config(str(path))
    assert back == cfg


def test_config_file_comments_and_blanks(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# comment line\n\nn = 10\ndensities = 0.4\n"
                    "zetas = 1.0  # trailing comment\n"
                    "replications = 2\nseed = 5\n")
    cfg = read_config(str(path))
    assert cfg.n == 10
    assert cfg.densities == (0.4,)
    assert cfg.zetas == (1.0,)


def test_config_file_after_a_utf8_bom(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("n = 10\ndensities = 0.4\nzetas = 1.0\n",
                    encoding="utf-8-sig")
    assert read_config(str(path)).n == 10


def test_write_config_reads_back_every_float(tmp_path):
    # written as repr, not %g, which gave 0.123457 and 2, and wrote the
    # increasing zetas 0.1000001, 0.1000002 as 0.1, 0.1
    path = tmp_path / "exp.cfg"
    for densities, zetas in (((0.123456789, 0.5), (2.0000001,)),
                             ((0.5,), (0.1000001, 0.1000002))):
        cfg = ExperimentConfig(n=10, densities=densities, zetas=zetas,
                               replications=3, seed=4)
        write_config(cfg, str(path))
        assert read_config(str(path)) == cfg


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n = 10\nnot a pair\n")
    with pytest.raises(ValueError, match="bad.cfg:2"):
        read_config(str(bad))
    bad.write_text("mystery = 3\n")
    with pytest.raises(ValueError, match="unknown config key"):
        read_config(str(bad))


def test_config_key_given_twice_names_both_lines(tmp_path):
    # the second value used to replace the first without a word
    bad = tmp_path / "bad.cfg"
    bad.write_text("n = 10\ndensities = 0.4\nn = 20\nzetas = 1.0\n")
    with pytest.raises(ValueError) as err:
        read_config(str(bad))
    assert str(err.value) == ("%s:3: config key 'n' given again, first on "
                              "line 1" % bad)


# -- seed derivation -----------------------------------------------------


def test_child_seed_deterministic():
    assert child_seed(7, 1, 2) == child_seed(7, 1, 2)
    assert 0 <= child_seed(7, 1, 2) < 2**32


def test_child_seed_distinguishes_indices():
    seen = {child_seed(0), child_seed(0, 0), child_seed(0, 0, 0),
            child_seed(0, 1, 2), child_seed(0, 2, 1), child_seed(1, 0, 0)}
    assert len(seen) == 6


# -- ratio study ---------------------------------------------------------


@pytest.fixture(scope="module")
def small_config():
    return ExperimentConfig(n=30, densities=(0.3,), zetas=(0.5, 1.0),
                            replications=20, seed=7)


def test_ratio_study_unknown_ratio(small_config):
    with pytest.raises(ValueError, match="unknown ratio"):
        ratio_study(small_config, ratios=("R/E[R]", "bogus"))


def pooled_samples(config, ratio, z_idx):
    """The node-level ratio values of every replication at the zeta
    ``config.zetas[z_idx]`` of the first density, concatenated in
    replication order."""
    want = []
    for r, c, t in per_replication_measures(config, 0):
        r_z, c_z, t_z = r[z_idx], c[z_idx], t[z_idx]
        want.append({"R/E[R]": r_z / r_z.mean(),
                     "C/E[C]": c_z / c_z.mean(),
                     "T/E[T]": t_z / t_z.mean(),
                     "C/R": c_z / r_z}[ratio])
    return np.concatenate(want)


def test_ratio_study_normalized_means(small_config):
    out = ratio_study(small_config, ratios=("R/E[R]", "C/E[C]", "T/E[T]"))
    density = small_config.densities[0]
    for ratio in out:
        for z_idx, zeta in enumerate(small_config.zetas):
            summary = out[ratio][(density, zeta)]
            # each replication contributes n samples with mean exactly 1
            assert summary.mean == pytest.approx(1.0, abs=1e-12)
            pool = pooled_samples(small_config, ratio, z_idx)
            assert pool.size == 30 * 20
            assert summary == DistributionSummary.from_samples(pool)


def test_ratio_study_cr_bounded(small_config):
    out = ratio_study(small_config, ratios="C/R")
    density = small_config.densities[0]
    for z_idx, zeta in enumerate(small_config.zetas):
        pool = pooled_samples(small_config, "C/R", z_idx)
        assert np.all(pool > 0.0)
        assert np.all(pool < 1.0)
        assert out["C/R"][(density, zeta)] == (
            DistributionSummary.from_samples(pool))


def test_ratio_study_quantiles_monotone(small_config):
    out = ratio_study(small_config, ratios=("C/R",))
    for summary in out["C/R"].values():
        qs = [summary.quantiles[q] for q in (1, 25, 50, 75, 99)]
        assert qs == sorted(qs)
        assert summary.std >= 0.0


# -- correlation table ---------------------------------------------------


def test_spearman_table_shape_and_bounds():
    cfg = ExperimentConfig(n=25, densities=(0.2, 0.6), zetas=(0.3, 2.0),
                           replications=8, seed=11)
    table = spearman_table(cfg)
    assert table.rank_corr.shape == (2, 2)
    assert table.value_corr.shape == (2, 2)
    assert np.all(np.abs(table.rank_corr) <= 1.0 + 1e-12)
    assert np.all(np.abs(table.value_corr) <= 1.0 + 1e-12)


def test_spearman_table_rank_saturates_value_does_not():
    # past the mixing scale both rankings equal the eigenvector ranking,
    # so the rank statistic hits 1 exactly; values still differ in shape
    cfg = ExperimentConfig(n=30, densities=(0.4,), zetas=(8.0,),
                           replications=10, seed=2)
    table = spearman_table(cfg)
    assert table.rank_corr[0, 0] >= 1.0 - 1e-12
    assert table.value_corr[0, 0] < 1.0 - 1e-6


def test_table_matrix_selector_and_csv(tmp_path):
    cfg = ExperimentConfig(n=20, densities=(0.3, 0.7), zetas=(0.5,),
                           replications=4, seed=9)
    table = spearman_table(cfg)
    assert table.matrix("rank") is table.rank_corr
    assert table.matrix("value") is table.value_corr
    with pytest.raises(ValueError):
        table.matrix("kendall")
    path = tmp_path / "table.csv"
    table.to_csv(str(path), statistic="value")
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == ["density", "zeta=0.5"]
    assert len(lines) == 3
    got = np.array([[float(x) for x in ln.split(",")[1:]] for ln in lines[1:]])
    assert np.array_equal(got, table.value_corr)


def per_replication_measures(cfg, d_idx):
    """The R, C and T rows of each replication from its graph's
    decomposition through the dense evaluator."""
    zetas = np.asarray(cfg.zetas)
    out = []
    for rep in range(cfg.replications):
        g = generate_er(cfg.n, cfg.densities[d_idx],
                        seed=child_seed(cfg.seed, d_idx, rep),
                        require_connected=True)
        lam, u = _eigensystem(g.adjacency())
        r = _exp_rows(lam, u, zetas, np.ones(g.n))
        c = _exp_rows(lam, u, zetas)
        out.append((r, c, r - c))
    return out


def test_row_statistics_match_per_vector_functions():
    rng = np.random.default_rng(21)
    x = rng.random((6, 3, 15))
    y = x + 0.3 * rng.random((6, 3, 15))
    y[0, 1] = np.round(y[0, 1], 1)  # ties
    x[2, 0] = 4.0  # constant row: both coefficients undefined
    y[4, 2] = -x[4, 2]
    got_rank, got_value = _row_spearman(x, y), _row_corr(x, y)
    for idx in np.ndindex(x.shape[:2]):
        with np.errstate(invalid="ignore", divide="ignore"), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want_rank = scipy.stats.spearmanr(x[idx], y[idx]).statistic
            want_value = np.corrcoef(x[idx], y[idx])[0, 1]
        if idx == (2, 0):
            assert np.isnan(want_rank) and np.isnan(want_value)
            assert np.isnan(got_rank[idx]) and np.isnan(got_value[idx])
            continue
        assert got_rank[idx] == pytest.approx(want_rank, abs=1e-12)
        assert got_value[idx] == pytest.approx(want_value, abs=1e-12)
    assert got_rank[4, 2] == -1.0


def test_spearman_table_complete_graph_cells_are_undefined(tmp_path):
    # on K6 every node has the same C and R; eigh leaves them rounding
    # noise only, which must not be correlated.  The 0.5 density stays
    # defined, and the undefined cells are written empty
    cfg = ExperimentConfig(n=6, densities=(0.5, 1.0), zetas=(0.5,),
                           replications=2, seed=1)
    table = spearman_table(cfg)
    for stat in (table.rank_corr, table.value_corr):
        assert np.isfinite(stat[0]).all() and np.isnan(stat[1]).all()
    path = tmp_path / "table.csv"
    table.to_csv(str(path), "value")
    assert path.read_text().splitlines()[2] == "1,"
    # a row whose spread is within n eps of its size is constant; a
    # larger spread is not
    base = np.full(6, 3.0)
    noise = base + 3 * np.finfo(float).eps * 3.0 * np.linspace(0, 1, 6)
    assert np.isnan(spearman(noise, np.arange(6.0)))
    assert np.isnan(_row_corr(noise, np.arange(6.0)))
    assert spearman(base + 1e-12 * np.arange(6), np.arange(6.0)) == 1.0


def test_row_spearman_rejects_non_finite():
    x = np.ones((2, 4))
    x[1, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        _row_spearman(x, np.ones((2, 4)))


def test_spearman_table_cells_match_per_replication_loop():
    cfg = ExperimentConfig(n=25, densities=(0.2, 0.6), zetas=(0.3, 1.0),
                           replications=7, seed=5)
    table = spearman_table(cfg)
    for d_idx in range(len(cfg.densities)):
        rows = per_replication_measures(cfg, d_idx)
        # the dense replication path gives the rows of generate_er's graph
        # through _eigensystem and _exp_rows bit for bit, so the cells equal
        # the loop's statistics exactly
        R, C, _ = (np.stack(m) for m in zip(*rows))
        assert np.array_equal(table.rank_corr[d_idx],
                              _row_spearman(C, R).mean(axis=0))
        assert np.array_equal(table.value_corr[d_idx],
                              _row_corr(C, R).mean(axis=0))
        for z_idx in range(len(cfg.zetas)):
            rank_vals = [spearman(c[z_idx], r[z_idx]) for r, c, _ in rows]
            val_vals = [np.corrcoef(c[z_idx], r[z_idx])[0, 1]
                        for r, c, _ in rows]
            assert table.rank_corr[d_idx, z_idx] == pytest.approx(
                np.mean(rank_vals), abs=1e-12)
            assert table.value_corr[d_idx, z_idx] == pytest.approx(
                np.mean(val_vals), abs=1e-12)


def test_replications_build_no_graph(small_config, monkeypatch):
    # a replication goes from its dense draw to its rows without a Graph,
    # a CSR adjacency, a csgraph call, a route decision or sweep
    import riskcent.centrality
    import riskcent.graph
    import riskcent.spectral

    def refuse(*args, **kwargs):
        raise AssertionError("the replication loop called this")

    want = spearman_table(small_config, ratios=RATIOS)
    for module, name in ((riskcent.graph.Graph, "__init__"),
                         (riskcent.graph, "connected_components"),
                         (riskcent.spectral, "_diag_runs"),
                         (riskcent.spectral, "decompose"),
                         (riskcent.centrality, "sweep")):
        monkeypatch.setattr(module, name, refuse)
    got = spearman_table(small_config, ratios=RATIOS)
    assert np.array_equal(got.value_corr, want.value_corr)
    assert np.array_equal(got.rank_corr, want.rank_corr)


def test_one_pass_ratio_summaries_match_ratio_study(small_config):
    table = spearman_table(small_config, ratios=RATIOS)
    study = ratio_study(small_config, ratios=RATIOS)
    assert list(table.ratios) == list(RATIOS)
    density = small_config.densities[0]
    for ratio in RATIOS:
        assert list(table.ratios[ratio]) == list(study[ratio])
        for z_idx, zeta in enumerate(small_config.zetas):
            got = table.ratios[ratio][(density, zeta)]
            other = study[ratio][(density, zeta)]
            assert got == other
            # the pooled samples of the per-replication loop
            assert got == DistributionSummary.from_samples(
                pooled_samples(small_config, ratio, z_idx))


def test_spearman_table_without_ratios_has_none(small_config):
    assert spearman_table(small_config).ratios == {}
    with pytest.raises(ValueError, match="unknown ratio"):
        spearman_table(small_config, ratios=("C/T",))


def test_r_vs_t_value_correlation_floor():
    # T = R - C tracks R extremely tightly on ER graphs: the value
    # correlation stays above 0.9999 on every single replication
    zetas = np.array([0.1, 1.0])
    floor_val = 1.0
    floor_rank = 1.0
    for d_idx, density in enumerate((0.1, 0.5, 0.9)):
        for rep in range(25):
            g = generate_er(100, density, seed=child_seed(17, d_idx, rep),
                            require_connected=True)
            prof = sweep(g, zetas)
            for z in range(len(zetas)):
                floor_val = min(floor_val,
                                np.corrcoef(prof.R[z], prof.T[z])[0, 1])
                floor_rank = min(floor_rank, spearman(prof.R[z], prof.T[z]))
    assert floor_val > 0.9999
    assert floor_rank > 0.999


# -- ratio limit ladder --------------------------------------------------


def test_er_ratio_limit_check_decreasing():
    devs = ratio_limit_deviations((20, 40, 80), density=0.5, zeta=0.5,
                                  replications=30, seed=3)
    assert devs.shape == (3,)
    assert devs[0] > devs[1] > devs[2] > 0.0


# -- ratio derivative curve (the closed form of acceptance test c11) ------


def test_ratio_derivative_value_at_origin():
    assert ratio_derivative(1.0, [0.0])[0] == -1.0


def test_ratio_derivative_negative_on_unit_interval():
    grid = np.linspace(0.0, 1.0, 401)
    for kbar in (1.0, 2.0, 5.0, 10.0):
        assert np.all(ratio_derivative(kbar, grid) < 0.0)


def test_ratio_derivative_matches_finite_differences():
    def ratio(kbar, z):
        return (2.0 + kbar * z**2) / (2.0 + 2.0 * kbar * z + kbar**2 * z**2)

    h = 1e-6
    for kbar in (1.0, 3.0, 8.0):
        for z in (0.05, 0.3, 0.7, 1.0):
            fd = (ratio(kbar, z + h) - ratio(kbar, z - h)) / (2.0 * h)
            val = ratio_derivative(kbar, [z])[0]
            assert val == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_ratio_derivative_magnitude_decreases_with_degree():
    # sparser graphs (smaller mean degree) have the faster-moving ratio;
    # holds throughout the moderate-degree range
    for z in (0.5, 1.0):
        mags = [abs(ratio_derivative(k, [z])[0]) for k in (2, 3, 5, 10)]
        assert mags == sorted(mags, reverse=True)

