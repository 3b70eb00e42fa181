"""Seeded input files for the benchmark workloads.

Everything here is drawn with the benchmark's own numpy code from the
``--seed`` argument; no ``riskcent`` generator is used, so a change to the
package's generators cannot change what the timed commands read.  Each
builder writes its files into a directory and returns what the output
checks need to know about them.
"""

import csv
import datetime
import json
import os

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

# Stream tags keep the inputs of one seed independent of each other.
_LARGE, _INTERLACE_ALL, _INTERLACE_PAIRS, _PAIRS, _RETURNS, _BOARDS = range(6)


def rng_for(seed, stream):
    return np.random.default_rng([int(seed), stream])


def adjacency(n, u, v, w=None):
    """Symmetric CSR adjacency from an undirected edge list."""
    w = np.ones(u.size) if w is None else np.asarray(w, dtype=float)
    a = sp.coo_array((np.concatenate([w, w]),
                      (np.concatenate([u, v]), np.concatenate([v, u]))),
                     shape=(n, n))
    return a.tocsr()


def er_edges(n, p, rng, connected):
    """G(n, p) edge arrays (u < v); redrawn until connected if asked."""
    iu, ju = np.triu_indices(n, k=1)
    while True:
        keep = rng.random(iu.size) < p
        u, v = iu[keep], ju[keep]
        if not connected:
            return u, v
        if connected_components(adjacency(n, u, v), directed=False)[0] == 1:
            return u, v


def largest_component(n, u, v):
    """Edges of the largest component, its nodes renumbered 0..k-1."""
    _, lab = connected_components(adjacency(n, u, v), directed=False)
    keep = np.bincount(lab).argmax()
    nodes = np.flatnonzero(lab == keep)
    remap = np.full(n, -1)
    remap[nodes] = np.arange(nodes.size)
    inside = (remap[u] >= 0) & (remap[v] >= 0)
    return nodes.size, remap[u[inside]], remap[v[inside]]


def write_graph_json(path, n, u, v):
    doc = {"n": int(n), "labels": ["v%d" % i for i in range(n)],
           "edges": [[int(a), int(b), 1.0] for a, b in zip(u, v)]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


class GraphInput:
    """A graph file plus the adjacency the checks compute with."""

    def __init__(self, path, n, u, v):
        self.path = path
        self.n = n
        self.a = adjacency(n, u, v)
        write_graph_json(path, n, u, v)


# -- er-table -------------------------------------------------------------

# The paper's experiment: n = 100, five densities, three zetas.  The
# replication count is reduced from the published 1000 so that one round
# takes a few seconds; the published table is still met to +-0.01.
ER_TABLE = dict(n=100, densities=(0.1, 0.3, 0.5, 0.7, 0.9),
                zetas=(0.1, 0.5, 1.0), replications=50)
# Small enough to recompute with one dense expm per graph and zeta; dense
# enough that two nodes with identical neighbourhoods (exact ties that
# floating-point noise would order) are practically impossible.
ER_TINY = dict(n=30, densities=(0.4, 0.6), zetas=(0.1, 0.5, 1.0),
               replications=4)


def write_config(path, cfg, seed):
    with open(path, "w") as fh:
        fh.write("n = %d\n" % cfg["n"])
        fh.write("densities = %s\n" % ", ".join(map(repr, cfg["densities"])))
        fh.write("zetas = %s\n" % ", ".join(map(repr, cfg["zetas"])))
        fh.write("replications = %d\n" % cfg["replications"])
        fh.write("seed = %d\n" % seed)


def er_table_inputs(folder, seed):
    main = os.path.join(folder, "paper.cfg")
    tiny = os.path.join(folder, "tiny.cfg")
    write_config(main, ER_TABLE, seed)
    write_config(tiny, ER_TINY, seed)
    return {"config": main, "tiny_config": tiny, "seed": int(seed)}


# -- large-graph ----------------------------------------------------------

LARGE_N = 2000
LARGE_MEAN_DEGREE = 8.0
OVERFLOW_N = 30  # K30 over a zeta grid reaching 100: exp(29 * 100) overflows


def large_graph_inputs(folder, seed):
    rng = rng_for(seed, _LARGE)
    u, v = er_edges(LARGE_N, LARGE_MEAN_DEGREE / (LARGE_N - 1), rng,
                    connected=False)
    n, u, v = largest_component(LARGE_N, u, v)
    big = GraphInput(os.path.join(folder, "er2000.json"), n, u, v)
    iu, ju = np.triu_indices(OVERFLOW_N, k=1)
    k30 = GraphInput(os.path.join(folder, "k30.json"), OVERFLOW_N, iu, ju)
    sample = np.sort(rng.choice(n, size=16, replace=False))
    return {"graph": big, "k30": k30, "sample": sample}


# -- interlace ------------------------------------------------------------

INTERLACE_ALL_N = 150
INTERLACE_ALL_P = 0.05
INTERLACE_PAIRS_N = 500
INTERLACE_PAIRS_P = 0.016
INTERLACE_PAIR_COUNT = 6


def interlace_inputs(folder, seed):
    n = INTERLACE_ALL_N
    u, v = er_edges(n, INTERLACE_ALL_P, rng_for(seed, _INTERLACE_ALL), True)
    full = GraphInput(os.path.join(folder, "er150.json"), n, u, v)
    n = INTERLACE_PAIRS_N
    u, v = er_edges(n, INTERLACE_PAIRS_P, rng_for(seed, _INTERLACE_PAIRS),
                    True)
    some = GraphInput(os.path.join(folder, "er500.json"), n, u, v)
    rng = rng_for(seed, _PAIRS)
    pairs = set()
    while len(pairs) < INTERLACE_PAIR_COUNT:
        i, j = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        pairs.add((i, j))
    return {"all": full, "some": some, "pairs": sorted(pairs)}


# -- finance --------------------------------------------------------------

ASSETS = 100
SECTORS = 10
FIRST_DAY = datetime.date(2000, 1, 3)
LAST_DAY = datetime.date(2009, 12, 31)  # 120 months: 115 six-month windows
MISSING_SHARE = 0.03
COMPANIES = 400
DIRECTORS = 2600
BOARD_SIZE = (8, 15)
SVC_YEARS = range(1995, 2005)


def _business_days(first, last):
    days = []
    day = first
    while day <= last:
        if day.weekday() < 5:
            days.append(day)
        day += datetime.timedelta(days=1)
    return days


def write_returns(path, rng):
    """Sector factor model with a volatile crisis stretch and missing cells.

    The panel is written as text and read back into floats from that same
    text, so the checks see exactly what the command parses.
    """
    days = _business_days(FIRST_DAY, LAST_DAY)
    t = len(days)
    crisis = np.array([datetime.date(2008, 9, 1) <= d <= datetime.date(2009, 3, 31)
                       for d in days])
    vol = np.where(crisis, 0.03, 0.01)
    market = vol * rng.standard_normal(t)
    sector = 0.008 * rng.standard_normal((t, SECTORS))
    member = np.arange(ASSETS) % SECTORS
    beta = rng.uniform(0.5, 1.5, ASSETS)
    idio = rng.uniform(0.005, 0.02, ASSETS)
    x = (market[:, None] * beta + sector[:, member]
         + idio * rng.standard_t(5, (t, ASSETS)))
    missing = rng.random((t, ASSETS)) < MISSING_SHARE
    cells = np.char.mod("%.6f", x)
    cells[missing] = ""
    names = ["S%03d" % k for k in range(ASSETS)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date"] + names)
        for day, row in zip(days, cells):
            w.writerow([day.isoformat()] + row.tolist())
    values = np.full(x.shape, np.nan)
    values[~missing] = cells[~missing].astype(float)
    return days, names, values


def write_boards(path, rng):
    """Company boards drawn from a director pool with uneven popularity,
    so that a share of directors sit on several boards (interlocks)."""
    weight = rng.pareto(1.5, DIRECTORS) + 1.0
    weight /= weight.sum()
    rows = []
    for c in range(COMPANIES):
        size = int(rng.integers(*BOARD_SIZE))
        for d in rng.choice(DIRECTORS, size=size, replace=False, p=weight):
            rows.append(("F%03d" % c, "D%04d" % d))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["company", "director"])
        w.writerows(rows)
    return rows


def write_svc(path, rng):
    """Yearly outcome series, each with a growing or shrinking trend."""
    years = np.array(list(SVC_YEARS), dtype=float)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["company", "year", "value"])
        for c in range(COMPANIES):
            slope = rng.choice((-1.0, 1.0)) * rng.uniform(0.02, 0.12)
            base = rng.uniform(50.0, 500.0)
            noise = rng.normal(0.0, 0.05, years.size)
            vals = base * np.exp(slope * (years - years[0]) + noise)
            for year, val in zip(years, vals):
                w.writerow(["F%03d" % c, int(year), "%.4f" % val])


def finance_inputs(folder, seed):
    returns = os.path.join(folder, "returns.csv")
    boards = os.path.join(folder, "boards.csv")
    svc = os.path.join(folder, "svc.csv")
    days, names, values = write_returns(returns, rng_for(seed, _RETURNS))
    rng = rng_for(seed, _BOARDS)
    rows = write_boards(boards, rng)
    write_svc(svc, rng)
    return {"returns": returns, "boards": boards, "svc": svc, "days": days,
            "assets": names, "values": values, "board_rows": rows}
