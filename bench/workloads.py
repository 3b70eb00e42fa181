"""The four workloads: their commands and the checks on every output.

A workload builds its inputs (``make_inputs``) and lists the operations
of one round (``operations``).  An operation is one ``riskcent`` command
line plus the checks of what it wrote.  Every check compares against a
computation made here, apart from the program, or against a property the
method must have; none compares against a stored copy of earlier output.
Reference results that depend only on the inputs are kept in ``memo`` so
that later rounds of a run do not recompute them.
"""

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.stats
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.sparse.linalg import expm_multiply

import inputs


class CheckFailed(Exception):
    """An output violates a property the benchmark checks."""


def require(condition, message, *args):
    if not condition:
        raise CheckFailed(message % args if args else message)


@dataclass
class Op:
    """One command line of a round and the checks run on its outputs.

    ``timed`` operations make up ``wall_s`` and are traced; untimed ones
    only feed a check.
    """

    name: str
    argv: list
    out: str
    checks: list = field(default_factory=list)  # (name, callable(out))
    timed: bool = True


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_grid(path):
    """A zeta-by-node CSV as (labels, zetas, matrix)."""
    rows = read_rows(path)
    body = np.array(rows[1:], dtype=float)
    return rows[0][1:], body[:, 0], body[:, 1:]


def memoized(memo, key, compute):
    if key not in memo:
        memo[key] = compute()
    return memo[key]


class Workload:
    name = None
    replications = 0  # ER replications one round's experiments run

    def __init__(self):
        self.memo = {}

    def make_inputs(self, folder, seed):
        raise NotImplementedError

    def operations(self, ctx, out):
        raise NotImplementedError


# -- er-table ---------------------------------------------------------------

# Mean Pearson correlation of C against R over 1000 connected G(100, p)
# graphs per density, at zeta = 0.1, 0.5, 1.0: the published table of
# arXiv:1907.07908 (the paper this package reproduces), as also pinned by
# tests/test_acceptance.py::test_c03_published_table_within_001.
PUBLISHED_TABLE = {
    0.1: (0.9947, 0.9844, 0.9813),
    0.3: (0.9967, 0.9950, 0.9950),
    0.5: (0.9971, 0.9966, 0.9966),
    0.7: (0.9994, 0.9994, 0.9994),
    0.9: (0.9998, 0.9998, 0.9998),
}
PUBLISHED_TOL = 0.01


def read_table(path, cfg):
    rows = read_rows(path)
    require(rows[0] == ["density"] + ["zeta=%g" % z for z in cfg["zetas"]],
            "%s: header %r", path, rows[0])
    require([float(r[0]) for r in rows[1:]] == list(cfg["densities"]),
            "%s: density column", path)
    return np.array([r[1:] for r in rows[1:]], dtype=float)


def child_seed(master, *indices):
    """The documented substream rule: SeedSequence([master, len, *indices])."""
    entropy = [int(master), len(indices)] + [int(i) for i in indices]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def documented_er_draw(n, p, seed):
    """Connected G(n, p) by the documented rule: ``rng.random(pairs) < p``
    over the upper triangle, redrawn from the same stream until connected."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    while True:
        keep = rng.random(iu.size) < p
        a = inputs.adjacency(n, iu[keep], ju[keep])
        if connected_components(a, directed=False)[0] == 1:
            return a.toarray()


def reference_tables(cfg, seed):
    """(value, rank) tables recomputed with scipy's dense expm."""
    shape = (len(cfg["densities"]), len(cfg["zetas"]))
    value, rank = np.zeros(shape), np.zeros(shape)
    for d, p in enumerate(cfg["densities"]):
        for rep in range(cfg["replications"]):
            a = documented_er_draw(cfg["n"], p, child_seed(seed, d, rep))
            for z, zeta in enumerate(cfg["zetas"]):
                e = sla.expm(zeta * a)
                r, c = e.sum(axis=1), np.diag(e)
                value[d, z] += np.corrcoef(c, r)[0, 1]
                rank[d, z] += scipy.stats.spearmanr(c, r).statistic
    return value / cfg["replications"], rank / cfg["replications"]


class ErTable(Workload):
    name = "er-table"
    replications = (inputs.ER_TABLE["replications"]
                    * len(inputs.ER_TABLE["densities"]))

    def make_inputs(self, folder, seed):
        return inputs.er_table_inputs(folder, seed)

    def operations(self, ctx, out):
        main = os.path.join(out, "paper")
        tiny = os.path.join(out, "tiny")
        cfg = inputs.ER_TABLE

        def published(path):
            got = read_table(os.path.join(path, "table_value.csv"), cfg)
            want = np.array([PUBLISHED_TABLE[d] for d in cfg["densities"]])
            worst = np.abs(got - want).max()
            require(worst <= PUBLISHED_TOL,
                    "value table is %.4f from the published table", worst)

        def in_range(path):
            for name in ("table_value.csv", "table_rank.csv"):
                got = read_table(os.path.join(path, name), cfg)
                require(np.isfinite(got).all() and (np.abs(got) <= 1.0).all(),
                        "%s has cells outside [-1, 1]", name)

        def ratios(path):
            rows = read_rows(os.path.join(path, "ratios.csv"))
            cells = len(cfg["densities"]) * len(cfg["zetas"])
            require(len(rows) == 1 + 4 * cells, "ratios.csv has %d rows",
                    len(rows))
            for row in rows[1:]:
                stats = [float(x) for x in row[3:]]
                if row[0] == "C/R":
                    require(all(0.0 < q < 1.0 for q in stats[2:]),
                            "C/R quantiles %r leave (0, 1)", stats[2:])
                else:
                    require(abs(stats[0] - 1.0) <= 1e-12,
                            "%s pooled mean %r is not 1", row[0], stats[0])

        def tiny_recomputed(path):
            value, rank = memoized(
                self.memo, "tiny",
                lambda: reference_tables(inputs.ER_TINY, ctx["seed"]))
            for name, want in (("table_value.csv", value),
                               ("table_rank.csv", rank)):
                got = read_table(os.path.join(path, name), inputs.ER_TINY)
                worst = np.abs(got - want).max()
                require(worst <= 1e-9, "%s differs from the expm "
                        "recomputation by %.3g", name, worst)

        return [
            Op("experiments", ["experiments", ctx["config"], "--ratios",
                               "--jobs", "1", "--out", main], main,
               [("published-table", published), ("tables-in-range", in_range),
                ("ratio-summaries", ratios)]),
            Op("experiments-tiny", ["experiments", ctx["tiny_config"],
                                    "--jobs", "1", "--out", tiny], tiny,
               [("tiny-table-recomputed", tiny_recomputed)], timed=False),
        ]


# -- large-graph ------------------------------------------------------------

EPIDEMICS_ARGS = ["--beta", "0.05", "--gamma", "0.1", "--tmax", "5",
                  "--steps", "11", "--solvers",
                  "exact,lee,lee-general,linearized,mean-field"]
KRYLOV_RTOL = 1e-10  # measured agreement is ~1e-14


class LargeGraph(Workload):
    name = "large-graph"

    def make_inputs(self, folder, seed):
        return inputs.large_graph_inputs(folder, seed)

    def operations(self, ctx, out):
        g, k30, sample = ctx["graph"], ctx["k30"], ctx["sample"]
        cent = os.path.join(out, "centrality")
        epi = os.path.join(out, "epidemics")
        over = os.path.join(out, "overflow")

        def krylov_reference(zeta):
            units = np.zeros((g.n, sample.size))
            units[sample, np.arange(sample.size)] = 1.0
            r = expm_multiply(zeta * g.a, np.ones(g.n))
            c = expm_multiply(zeta * g.a, units)[sample, np.arange(sample.size)]
            return r, c

        def values(path):
            _, grid, r = read_grid(os.path.join(path, "values_R.csv"))
            _, _, c = read_grid(os.path.join(path, "values_C.csv"))
            _, _, t = read_grid(os.path.join(path, "values_T.csv"))
            require(r.shape == (grid.size, g.n), "values_R.csv shape %r",
                    r.shape)
            for k in (0, grid.size // 2, grid.size - 1):
                want_r, want_c = memoized(self.memo, ("krylov", grid[k]),
                                          lambda: krylov_reference(grid[k]))
                err = np.abs(r[k] - want_r).max() / want_r.max()
                require(err <= KRYLOV_RTOL, "R at zeta=%g is %.3g off "
                        "expm_multiply", grid[k], err)
                err = np.abs(c[k, sample] - want_c).max() / want_c.max()
                require(err <= KRYLOV_RTOL, "C at zeta=%g is %.3g off "
                        "expm_multiply", grid[k], err)
            err = np.abs(t - (r - c)).max() / r.max()
            require(err <= 1e-12, "T differs from R - C by %.3g", err)

        def ranks(path):
            _, _, r = read_grid(os.path.join(path, "values_R.csv"))
            _, _, rk = read_grid(os.path.join(path, "ranks.csv"))
            perm = np.arange(1, g.n + 1)
            for row_r, row_k in zip(r, rk):
                require((np.sort(row_k) == perm).all(),
                        "a ranks.csv row is not a permutation of 1..n")
                ordered = row_r[np.argsort(row_k)]
                require((np.diff(ordered) <= 0.0).all(),
                        "ranks.csv does not order R descending")
            rows = read_rows(os.path.join(path, "rankstd.csv"))
            std = np.array([x[1] for x in rows[1:]], dtype=float)
            err = np.abs(std - rk.std(axis=0)).max()
            require(err <= 1e-12, "rankstd.csv is %.3g off the population "
                    "std of the ranks", err)

        def trajectories(path):
            x = {}
            for s in ("exact", "lee", "lee-general", "linearized",
                      "mean-field"):
                _, _, x[s] = read_grid(
                    os.path.join(path, "trajectory_%s.csv" % s))
            require((x["exact"] <= x["lee"] + 1e-9).all(),
                    "exact SI exceeds the lee bound")
            require((x["exact"] <= x["linearized"] + 1e-9).all(),
                    "exact SI exceeds the linearized flow")
            require((x["lee"] <= 1.0).all(), "lee bound exceeds 1")
            require((x["lee"].mean(axis=1)
                     >= x["mean-field"][:, 0] - 1e-12).all(),
                    "mean lee bound falls below the mean-field curve")

        def lee_general(path):
            x = {s: read_grid(os.path.join(path, "trajectory_%s.csv" % s))[2]
                 for s in ("lee", "lee-general")}
            err = np.abs(x["lee"] - x["lee-general"]).max()
            require(err <= 1e-9, "lee-general with uniform seeding is %.3g "
                    "off lee", err)

        def declared_outputs(path):
            with open(os.path.join(path, "manifest.json")) as fh:
                declared = json.load(fh)["outputs"]
            missing = [f for f in declared
                       if not os.path.isfile(os.path.join(path, f))]
            require(not missing, "declared outputs not written: %s", missing)

        def finite_values(path):
            for m in "RCT":
                _, _, v = read_grid(os.path.join(path, "values_%s.csv" % m))
                require(np.isfinite(v).all(), "values_%s.csv is not finite", m)

        return [
            Op("centrality", ["centrality", g.path, "--out", cent], cent,
               [("values-vs-expm-multiply", values),
                ("ranks-order-R", ranks)]),
            Op("epidemics", ["epidemics", g.path] + EPIDEMICS_ARGS
               + ["--out", epi], epi,
               [("si-bound-chain", trajectories),
                ("lee-general-equals-lee", lee_general)]),
            # Fails today: the large-zeta overflow writes inf and exits 2.
            Op("centrality-zeta100", ["centrality", k30.path, "--zeta-grid",
                                      "1:100:5", "--out", over], over,
               [("declared-outputs", declared_outputs),
                ("finite-values", finite_values)]),
        ]


# -- interlace --------------------------------------------------------------

GRID = np.linspace(0.01, 1.0, 100)
GRID_SPEC = "0.01:1:100"
BRACKET_WIDTH = 1e-8
# Scaled differences exp(-zeta lam_1) (C_i - C_j) below these bands are
# noise for the comparison: the program zeroes grid values below
# 1e-12 * sum|d_k| <= 2e-12, and expm's own error measures ~1e-14.
GRID_BAND = 1e-11
END_BAND = 1e-13
TAYLOR_TERMS = 20


class ExpDiagonal:
    """Entries (exp(zeta A))_ii for chosen nodes at any zeta in the grid.

    At each grid point g_a it holds (exp(g_a A) A^k)_ii for k < TAYLOR_TERMS
    and sums exp(eps A) = sum_k eps^k A^k / k! in between; with eps <= 0.01
    and lam_1 ~ 10 the series is exact to rounding.  The grid exponentials
    come from one scipy.linalg.expm per grid point (``dense``), or, where
    that is too slow, from expm_multiply on the nodes' unit vectors.
    """

    def __init__(self, a, nodes, dense):
        self.nodes = np.asarray(nodes)
        self.lam1 = float(sla.eigvalsh(a.toarray())[-1])
        n, cols = a.shape[0], np.arange(len(self.nodes))
        powers = [np.zeros((n, len(self.nodes)))]  # A^k e_i / k!
        powers[0][self.nodes, cols] = 1.0
        for k in range(1, TAYLOR_TERMS):
            powers.append((a @ powers[-1]) / k)
        if dense:
            dense_a = a.toarray()
            columns = (sla.expm(z * dense_a)[:, self.nodes] for z in GRID)
        else:
            columns = expm_multiply(a, powers[0], start=GRID[0],
                                    stop=GRID[-1], num=GRID.size,
                                    endpoint=True)
        self.terms = np.empty((GRID.size, TAYLOR_TERMS, len(self.nodes)))
        for g, ex in enumerate(columns):
            for k, p in enumerate(powers):
                self.terms[g, k] = np.einsum("ij,ij->j", ex, p)
        self.index = {int(v): c for c, v in enumerate(self.nodes)}

    def at_grid(self):
        return self.terms[:, 0, :]

    def at(self, zeta):
        g = min(max(int(np.searchsorted(GRID, zeta, side="right")) - 1, 0),
                GRID.size - 1)
        eps = zeta - GRID[g]
        return np.power(eps, np.arange(TAYLOR_TERMS)) @ self.terms[g]

    def scaled_gap(self, i, j, diag, zeta):
        return (diag[self.index[i]] - diag[self.index[j]]) * math.exp(
            -zeta * self.lam1)


def read_events(path):
    rows = read_rows(path)
    require(rows[0][:7] == ["i", "j", "measure", "kind", "zeta_star",
                            "bracket_lo", "bracket_hi"],
            "events.csv header %r", rows[0])
    return rows[1:]


def check_brackets(path, ref):
    """Each crossing's bracket is narrow and C_i - C_j changes sign in it."""
    for row in read_events(path):
        if row[3] != "crossing":
            continue
        i, j, lo, hi = int(row[0]), int(row[1]), float(row[5]), float(row[6])
        require(0.0 <= hi - lo <= BRACKET_WIDTH,
                "pair (%d, %d): bracket [%r, %r] wider than 1e-8", i, j, lo, hi)
        f_lo = ref.scaled_gap(i, j, ref.at(lo), lo)
        f_hi = ref.scaled_gap(i, j, ref.at(hi), hi)
        if min(abs(f_lo), abs(f_hi)) <= END_BAND:
            continue  # an end inside the noise: its sign is not defined
        require(f_lo * f_hi < 0.0, "pair (%d, %d): C_i - C_j keeps its sign "
                "across [%r, %r]", i, j, lo, hi)


def check_sign_changes(path, ref, pairs):
    """(pair, grid interval) crossings equal those of the reference."""
    diag = ref.at_grid()
    scale = np.exp(-GRID * ref.lam1)[:, None]
    ii = np.array([ref.index[i] for i, _ in pairs])
    jj = np.array([ref.index[j] for _, j in pairs])
    gaps = (diag[:, ii] - diag[:, jj]) * scale  # (grid, pairs)
    clear = (np.abs(gaps) > GRID_BAND).all(axis=0)
    flips = np.diff(np.sign(gaps), axis=0) != 0
    want = {(pairs[p][0], pairs[p][1], int(k))
            for k, p in zip(*np.nonzero(flips)) if clear[p]}
    got = set()
    keep = {pairs[p] for p in np.flatnonzero(clear)}
    for row in read_events(path):
        if row[3] != "crossing":
            continue
        i, j, lo, hi = int(row[0]), int(row[1]), float(row[5]), float(row[6])
        k = int(np.searchsorted(GRID, lo, side="right")) - 1
        require(0 <= k < GRID.size - 1 and hi <= GRID[k + 1],
                "pair (%d, %d): bracket [%r, %r] spans grid points", i, j,
                lo, hi)
        if (i, j) in keep:
            got.add((i, j, k))
    require(got == want, "%d sign changes missed, %d not in the reference",
            len(want - got), len(got - want))


class Interlace(Workload):
    name = "interlace"

    def make_inputs(self, folder, seed):
        return inputs.interlace_inputs(folder, seed)

    def operations(self, ctx, out):
        full, some, pairs = ctx["all"], ctx["some"], ctx["pairs"]
        all_out = os.path.join(out, "all-pairs")
        some_out = os.path.join(out, "pairs")
        all_pairs = [(i, j) for i in range(full.n) for j in range(i + 1, full.n)]

        def full_ref():
            return memoized(self.memo, "all", lambda: ExpDiagonal(
                full.a, np.arange(full.n), dense=True))

        def some_ref():
            nodes = sorted({v for p in pairs for v in p})
            return memoized(self.memo, "some", lambda: ExpDiagonal(
                some.a, nodes, dense=False))

        spec = ";".join("%d,%d" % p for p in pairs)
        return [
            Op("interlace-all-pairs", ["interlace", full.path, "--all-pairs",
                                       "--zeta-grid", GRID_SPEC,
                                       "--out", all_out], all_out,
               [("brackets", lambda path: check_brackets(
                   os.path.join(path, "events.csv"), full_ref())),
                ("sign-changes", lambda path: check_sign_changes(
                    os.path.join(path, "events.csv"), full_ref(),
                    all_pairs))]),
            Op("interlace-pairs", ["interlace", some.path, "--pairs", spec,
                                   "--zeta-grid", GRID_SPEC,
                                   "--out", some_out], some_out,
               [("brackets", lambda path: check_brackets(
                   os.path.join(path, "events.csv"), some_ref())),
                ("sign-changes", lambda path: check_sign_changes(
                    os.path.join(path, "events.csv"), some_ref(), pairs))]),
        ]


# -- finance ----------------------------------------------------------------

MIN_OBS = 0.9
WIDTH_MONTHS = 6


def month_windows(days):
    """(window id, row mask) per monthly-stepped six-month window."""
    months = np.array([d.year * 12 + d.month - 1 for d in days])
    out = []
    for start in range(months[0], months[-1] - WIDTH_MONTHS + 2):
        out.append(("%d-%d" % (start % 12 + 1, start // 12),
                    (months >= start) & (months < start + WIDTH_MONTHS)))
    return out


def pairwise_complete(x):
    """Correlation of every column pair over the rows both observe."""
    k = x.shape[1]
    seen = ~np.isnan(x)
    rho = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            both = seen[:, i] & seen[:, j]
            rho[i, j] = rho[j, i] = np.corrcoef(x[both, i], x[both, j])[0, 1]
    return rho


def reference_window(values, assets, mask):
    rows = values[mask]
    keep = np.flatnonzero((~np.isnan(rows)).sum(axis=0) >= MIN_OBS * len(rows))
    rho = np.clip(pairwise_complete(rows[:, keep]), -1.0, 1.0)
    dist = np.sqrt(2.0 * (1.0 - rho))
    total = float(minimum_spanning_tree(dist).sum())
    return [assets[j] for j in keep], dist, total


def svc_trends(path, threshold=0.05):
    """{company: (rho, label)} by correlation of values with 1/year."""
    series = {}
    for company, year, value in read_rows(path)[1:]:
        series.setdefault(company, []).append((int(year), float(value)))
    out = {}
    for company, pts in series.items():
        years, vals = zip(*sorted(pts))
        rho = np.corrcoef(vals, 1.0 / np.array(years, dtype=float))[0, 1]
        if abs(rho) >= threshold:
            out[company] = (rho, 1 if rho < 0 else -1)
    return out


class Finance(Workload):
    name = "finance"

    def make_inputs(self, folder, seed):
        return inputs.finance_inputs(folder, seed)

    def operations(self, ctx, out):
        market = os.path.join(out, "market")
        corp = os.path.join(out, "corporate")
        windows = month_windows(ctx["days"])

        def summary(path):
            rows = read_rows(os.path.join(path, "summary.csv"))
            require([r[0] for r in rows[1:]] == [w for w, _ in windows],
                    "summary.csv windows differ from the calendar windows")

        def trees(path):
            for wid, mask in (windows[0], windows[len(windows) // 2],
                              windows[-1]):
                assets, dist, total = memoized(
                    self.memo, wid, lambda: reference_window(
                        ctx["values"], ctx["assets"], mask))
                with open(os.path.join(path, "windows", wid, "mst.json")) as fh:
                    doc = json.load(fh)
                n = len(assets)
                require(doc["labels"] == assets, "window %s: MST nodes "
                        "differ from the kept assets", wid)
                edges = np.array(doc["edges"])
                require(edges.shape == (n - 1, 3), "window %s: %d MST edges",
                        wid, len(edges))
                u, v = edges[:, 0].astype(int), edges[:, 1].astype(int)
                spans = connected_components(inputs.adjacency(n, u, v),
                                             directed=False)[0] == 1
                require(spans, "window %s: MST does not span", wid)
                err = np.abs(edges[:, 2] - dist[u, v]).max()
                require(err <= 1e-9, "window %s: MST edge weights %.3g off "
                        "the recomputed distances", wid, err)
                require(abs(edges[:, 2].sum() - total) <= 1e-9,
                        "window %s: MST weight %r, minimum %r", wid,
                        edges[:, 2].sum(), total)

        def permutations(path):
            for wid, _ in windows:
                _, _, rk = read_grid(os.path.join(path, "windows", wid,
                                                  "ranks.csv"))
                perm = np.arange(1, rk.shape[1] + 1)
                require((np.sort(rk, axis=1) == perm).all(),
                        "window %s: a ranks.csv row is not a permutation", wid)

        def delta_rows(path):
            return read_rows(os.path.join(path, "delta_rank.csv"))[1:]

        def delta_sum(path):
            total = sum(int(r[1]) for r in delta_rows(path))
            require(total == 0, "delta_rank sums to %d", total)

        def projection(path):
            import riskcent.graph as rg

            by_director = {}
            companies = []
            for company, director in ctx["board_rows"]:
                if company not in companies:
                    companies.append(company)
                by_director.setdefault(director, set()).add(company)
            shared = {}
            for members in by_director.values():
                for a in members:
                    for b in members:
                        if a < b:
                            shared[a, b] = shared.get((a, b), 0) + 1
            g = rg.project_bipartite(rg.load_memberships(ctx["boards"]))
            require(g.labels == companies, "projection nodes differ from "
                    "the companies in file order")
            got = {}
            for u, v, w in g.edge_array():
                a, b = sorted((g.labels[int(u)], g.labels[int(v)]))
                got[a, b] = w
            require(got == shared, "projection weights differ from the "
                    "shared-director counts")
            require([r[0] for r in delta_rows(path)] == companies,
                    "delta_rank.csv rows differ from the projection nodes")

        def lda(path):
            trends = memoized(self.memo, "trends",
                              lambda: svc_trends(ctx["svc"]))
            x, y, used = [], [], []
            for company, shift, rho, label in delta_rows(path):
                want = trends.get(company)
                if want is None:
                    require(rho == "" and label == "", "%s: trend written "
                            "below the threshold", company)
                    continue
                require(abs(float(rho) - want[0]) <= 1e-12
                        and int(label) == want[1], "%s: trend %s/%s, "
                        "recomputed %r", company, rho, label, want)
                x.append(float(shift))
                y.append(want[1])
                used.append(company)
            with open(os.path.join(path, "lda.json")) as fh:
                doc = json.load(fh)
            x, y = np.array(x), np.array(y)
            pos = y == 1
            mu_p, mu_n = x[pos].mean(), x[~pos].mean()
            s2 = (((x[pos] - mu_p) ** 2).sum()
                  + ((x[~pos] - mu_n) ** 2).sum()) / (x.size - 2)
            slope = (mu_p - mu_n) / s2
            intercept = (-0.5 * (mu_p + mu_n) * slope
                         + math.log(pos.sum() / (~pos).sum()))
            require(doc["companies"] == used and doc["n"] == x.size,
                    "lda.json training set differs from the trend rows")
            require(math.isclose(doc["slope"], slope, rel_tol=1e-9,
                                 abs_tol=1e-12)
                    and math.isclose(doc["intercept"], intercept,
                                     rel_tol=1e-9, abs_tol=1e-12),
                    "lda.json (%r, %r) differs from the Fisher form (%r, %r)",
                    doc["slope"], doc["intercept"], slope, intercept)
            require(sum(doc["confusion"].values()) == x.size,
                    "confusion counts do not sum to n")

        return [
            Op("market", ["market", ctx["returns"], "--jobs", "1",
                          "--out", market], market,
               [("windows", summary), ("mst-vs-csgraph", trees),
                ("rank-permutations", permutations)]),
            Op("corporate", ["corporate", ctx["boards"], ctx["svc"],
                             "--jobs", "1", "--out", corp], corp,
               [("delta-rank-sum", delta_sum),
                ("projection-weights", projection),
                ("trends-and-lda", lda)]),
        ]


WORKLOADS = {w.name: w for w in (ErTable, LargeGraph, Interlace, Finance)}
