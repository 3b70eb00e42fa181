"""Command-line front end.

``main`` parses the command line with the one parser of the process
(``build_parser`` is cached) and calls ``cmd_<command>``, looked up by
name at call time.  Every command validates its inputs, writes a
``manifest.json`` (command, settings, input digests, declared outputs) into
the output directory before any result file, then emits plain CSV/JSON
reports.  The settings are the parsed options but ``--out``, ``--jobs``
and ``--budget``; where a command reads a value from an option's text (a
zeta grid, the solvers, the pairs, the experiment config), the value
stands in place of the text.  ``centrality``, ``epidemics``,
``interlace`` and ``corporate`` solve before the manifest, so a failed
solve leaves no output directory.  Every CSV goes through
``centrality.write_grid_csv`` (grid tables) or ``centrality.write_rows``
(the rest; ``None`` cells are empty), but ``events.csv``, which
``cmd_interlace`` formats itself in the same cells and line endings.
Every float cell is its shortest round-trip ``repr``, and NaN is empty.
Every JSON report goes through ``_write_json`` (sorted keys, one-space
indent, standard JSON: a NaN or infinity is refused before the file
opens).  Exit codes: 0 success, 2 invalid input or a failed solver, 3
runtime budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .centrality import (MEASURES, _float_cells, _grid, ranking_sweep,
                         sweep, write_grid_csv, write_rows)
from .epidemics import (SIIntegrationError, SIParams, si_exact, si_lee,
                        si_lee_general, si_linearized, si_meanfield)
from .experiments import RATIOS, read_config, spearman_table
from .finance import (delta_rank, lda_fit, load_returns, load_svc,
                      rolling_windows, svc_trend, window_rank_reports,
                      window_trees)
from .graph import (load_edge_list, load_json, load_memberships,
                    project_bipartite, save_json)
from .interlacement import detect_pairs, heuristic_pairs
from .spectral import EigensolverError

# each lambda looks its si_* function up when called, so a rebound
# cli.si_* (a test's stub, a bench span) is the one that runs
_SOLVERS = {
    "exact": lambda g, params: si_exact(g, params),
    "lee": lambda g, params: si_lee(g, params),
    "lee-general": lambda g, params: si_lee_general(
        g, params, np.full(g.n, params.beta)),
    "linearized": lambda g, params: si_linearized(g, params),
    "mean-field": lambda g, params: si_meanfield(g.mean_degree(), params),
}
# market windows per batch: their trees come from one Prim's run and their
# R from one power series, while only one batch's correlations, trees and
# rows are alive at a time
_WINDOW_CHUNK = 16


class _BudgetExceeded(RuntimeError):
    pass


class _Budget:
    """Coarse wall-clock guard checked between pipeline phases: ``seconds``
    is None for no budget, else a number >= 0 (``--budget``)."""

    def __init__(self, seconds):
        if seconds is not None and not seconds >= 0.0:
            raise ValueError("--budget %r: must be a nonnegative number of "
                             "seconds" % seconds)
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self, phase):
        if self.seconds is None:
            return
        used = time.monotonic() - self.start
        if used >= self.seconds:
            raise _BudgetExceeded(
                "runtime budget of %gs exceeded at %s (%.1fs used)"
                % (self.seconds, phase, used))


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _load_graph(path, weighted=False):
    if path.endswith(".json"):
        return load_json(path)
    return load_edge_list(path, weighted=weighted)


def _parse_grid(spec):
    """The ``--zeta-grid`` spec: 'lo:hi:count' for linspace or a comma list
    of values.  Every error names the option and the spec."""
    if spec is None:
        return _grid(None)
    parts = spec.split(":")
    try:
        if len(parts) == 1:
            return _grid([float(tok) for tok in spec.split(",")
                          if tok.strip()])
        if len(parts) != 3:
            raise ValueError("expected 'lo:hi:count'")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1 or hi < lo:
            raise ValueError("empty range")
        return _grid(np.linspace(lo, hi, count))
    except ValueError as exc:
        raise ValueError("--zeta-grid %r: %s" % (spec, exc)) from None


def _write_manifest(args, inputs, outputs, seed=None, **parsed):
    """``manifest.json`` in ``args.out``.  The settings are ``args`` but
    the command, the output folder and the run controls, with each value
    the command read from an option's text (``parsed``) in its place."""
    settings = {key: value for key, value in vars(args).items()
                if key not in ("command", "out", "jobs", "budget")}
    settings.update(parsed)
    os.makedirs(args.out, exist_ok=True)
    doc = {
        "command": args.command,
        "version": __version__,
        "settings": settings,
        "seed": seed,
        "inputs": {path: _sha256(path) for path in inputs},
        "outputs": sorted(outputs),
    }
    _write_json(os.path.join(args.out, "manifest.json"), doc)


def _write_json(path, doc):
    # serialised before the file opens: a NaN or infinity, which standard
    # JSON cannot hold, fails with a ValueError and leaves no file
    text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# -- centrality --------------------------------------------------------------


def cmd_centrality(args):
    g = _load_graph(args.graph, weighted=args.weighted)
    grid = _parse_grid(args.zeta_grid)
    # values past float range that cannot be ranked fail here, before the
    # manifest
    profile = sweep(g, grid)
    report = ranking_sweep(profile, measure=args.measure)
    outputs = ["values_R.csv", "values_C.csv", "values_T.csv",
               "ranks.csv", "rankstd.csv"]
    _write_manifest(args, [args.graph], outputs, zeta_grid=grid.tolist())
    for m in MEASURES:
        profile.to_csv(os.path.join(args.out, "values_%s.csv" % m), m)
    report.to_csv(os.path.join(args.out, "ranks.csv"))
    report.std_to_csv(os.path.join(args.out, "rankstd.csv"))
    return 0


# -- epidemics ---------------------------------------------------------------


def cmd_epidemics(args):
    g = _load_graph(args.graph, weighted=args.weighted)
    if not 0 <= args.tmax < np.inf:
        raise ValueError("tmax must be finite and nonnegative")
    if args.steps < 2:
        raise ValueError("need at least 2 time steps")
    t_grid = (np.array([0.0]) if args.tmax == 0
              else np.linspace(0.0, args.tmax, args.steps))
    params = SIParams(gamma=args.gamma, beta=args.beta, t_grid=t_grid)
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    if not solvers:
        raise ValueError("no solver given; options: %s" % ", ".join(_SOLVERS))
    for s in solvers:
        if s not in _SOLVERS:
            raise ValueError("unknown solver %r; options: %s"
                             % (s, ", ".join(_SOLVERS)))
    # every solver runs before the manifest: an overflow or a failed
    # integration exits 2 with no output directory
    trajs = [_SOLVERS[s](g, params) for s in solvers]
    _write_manifest(args, [args.graph],
                    ["trajectory_%s.csv" % s for s in solvers]
                    + ["mean_curves.csv"], solvers=solvers)
    for s, traj in zip(solvers, trajs):
        traj.to_csv(os.path.join(args.out, "trajectory_%s.csv" % s))
    write_grid_csv(os.path.join(args.out, "mean_curves.csv"), "t", t_grid,
                   np.column_stack([traj.mean_curve() for traj in trajs]),
                   solvers)
    return 0


# -- interlacement -----------------------------------------------------------


def _parse_pairs(spec):
    """The ``--pairs`` spec 'i,j;k,l' as an array of pairs.  Every error
    names the option and the spec."""
    pairs = []
    for tok in spec.split(";"):
        if not tok.strip():
            continue
        try:
            i, j = map(int, tok.split(","))
        except ValueError:
            raise ValueError("--pairs %r: pair %r is not 'i,j' of two "
                             "integers" % (spec, tok.strip())) from None
        pairs.append((i, j))
    if not pairs:
        raise ValueError("--pairs %r: no pairs given" % spec)
    return np.array(pairs)


def cmd_interlace(args):
    """One ``events.csv`` row per crossing or tangency of each pair.

    A crossing row gives the bisected ``zeta_star`` and its bracket.  A
    tangency row gives as ``zeta_star`` the grid value where |M_i - M_j|
    has a local minimum below the tangency tolerance without a sign
    change; it has no bracket, so ``bracket_lo`` and ``bracket_hi`` are
    empty.

    The file is formatted here, not by ``write_rows``: one ``%`` template
    per row kind, each float through ``repr`` once (``_float_cells``),
    and one write.  The bytes are those ``csv.writer`` writes for the
    same rows.
    """
    g = _load_graph(args.graph, weighted=args.weighted)
    grid = _parse_grid(args.zeta_grid)
    if args.all_pairs:
        pairs = np.column_stack(np.triu_indices(g.n, 1))
    else:
        pairs = _parse_pairs(args.pairs)
    # a bad pair or a grid of one point fails here, before the manifest
    (cp, lo, hi, _, _), (tp, zetas) = detect_pairs(
        g, pairs, measure=args.measure, zeta_grid=grid)
    # all n(n-1)/2 pairs would dominate the manifest's size
    _write_manifest(args, [args.graph], ["events.csv"],
                    zeta_grid=grid.tolist(),
                    pairs=None if args.all_pairs else pairs.tolist())
    pair = np.concatenate([cp, tp])
    found, at = np.unique(pair, return_inverse=True)
    linear = root = np.zeros(0)
    if found.size:  # the heuristics fill columns of event rows only
        linear, root = heuristic_pairs(g, pairs[found], measure=args.measure)
    # each found pair's heuristic cells, then each event row's
    linear, root = (np.array(_float_cells(x), dtype=object)[at].tolist()
                    for x in (linear, root))
    crossing = "%d,%d," + args.measure + ",crossing,%s,%s,%s,%s,%s\r\n"
    tangency = "%d,%d," + args.measure + ",tangency,%s,,,%s,%s\r\n"
    lines = list(map(crossing.__mod__, zip(
        *pairs[cp].T.tolist(),
        *map(_float_cells, (0.5 * (lo + hi), lo, hi)),
        linear[:cp.size], root[:cp.size])))
    lines += map(tangency.__mod__, zip(
        *pairs[tp].T.tolist(), _float_cells(zetas),
        linear[cp.size:], root[cp.size:]))
    # each pair's crossings, then its tangencies
    order = np.argsort(pair, kind="stable")
    with open(os.path.join(args.out, "events.csv"), "w", newline="",
              encoding="utf-8") as fh:
        fh.write("".join(["i,j,measure,kind,zeta_star,bracket_lo,bracket_hi,"
                          "heuristic_linear,heuristic_poly\r\n"]
                         + np.array(lines, dtype=object)[order].tolist()))
    return 0


# -- experiments -------------------------------------------------------------


def cmd_experiments(args):
    budget = _Budget(args.budget)
    config = read_config(args.config)
    outputs = ["table_value.csv", "table_rank.csv"]
    if args.ratios:
        outputs.append("ratios.csv")
    # the config's fields, its seed the manifest's seed
    _write_manifest(args, [args.config], outputs, **vars(config))
    budget.check("start")
    rank_corr, value_corr, pooled = spearman_table(
        config, ratios=RATIOS if args.ratios else ())
    budget.check("replications")
    header = ["density"] + ["zeta=%g" % z for z in config.zetas]
    for name, corr in (("table_value.csv", value_corr),
                       ("table_rank.csv", rank_corr)):
        write_rows(os.path.join(args.out, name), header,
                   (["%g" % d] + row
                    for d, row in zip(config.densities, corr.tolist())))
    if args.ratios:
        write_rows(os.path.join(args.out, "ratios.csv"),
                   ["ratio", "density", "zeta", "mean", "std",
                    "q1", "q25", "q50", "q75", "q99"],
                   ([ratio, density, zeta, *summary]
                    for ratio in RATIOS
                    for (density, zeta), summary in pooled[ratio].items()))
    return 0


# -- market ------------------------------------------------------------------


def cmd_market(args):
    budget = _Budget(args.budget)
    panel = load_returns(args.returns)
    grid = _parse_grid(args.zeta_grid)
    windows = rolling_windows(panel, width_months=args.width_months,
                              step_months=args.step_months,
                              min_obs=args.min_obs)
    outputs = ["summary.csv"]
    for w in windows:
        outputs += ["windows/%s/ranks.csv" % w.window_id,
                    "windows/%s/rankstd.csv" % w.window_id,
                    "windows/%s/mst.json" % w.window_id]
    _write_manifest(args, [args.returns], outputs, zeta_grid=grid.tolist())
    budget.check("start")
    summary = []
    for first in range(0, len(windows), _WINDOW_CHUNK):
        chunk = windows[first:first + _WINDOW_CHUNK]
        trees = window_trees(chunk)
        reports = window_rank_reports(trees, zeta_grid=grid,
                                      measure=args.measure,
                                      weight_mode=args.weight_mode)
        for window, tree, report in zip(chunk, trees, reports):
            wdir = os.path.join(args.out, "windows", window.window_id)
            os.makedirs(wdir, exist_ok=True)
            report.to_csv(os.path.join(wdir, "ranks.csv"))
            report.std_to_csv(os.path.join(wdir, "rankstd.csv"))
            save_json(tree, os.path.join(wdir, "mst.json"))
            summary.append([window.window_id, tree.n,
                            float(report.per_node_std.mean())])
    budget.check("window reports")
    write_rows(os.path.join(args.out, "summary.csv"),
               ["window", "assets", "mean_rank_std"], summary)
    return 0


# -- corporate ---------------------------------------------------------------


def cmd_corporate(args):
    budget = _Budget(args.budget)
    for option, value in (("--zeta-lo", args.zeta_lo),
                          ("--zeta-hi", args.zeta_hi)):
        if not np.isfinite(value):
            raise ValueError("%s %r: must be finite" % (option, value))
    if not 0.0 < args.zeta_lo < args.zeta_hi:
        raise ValueError("need 0 < zeta-lo < zeta-hi")
    if not 0.0 <= args.threshold < np.inf:
        raise ValueError("--threshold %r: must be finite and nonnegative"
                         % args.threshold)
    memberships = load_memberships(args.memberships)
    g = project_bipartite(memberships, binary=args.binary)
    trends = svc_trend(load_svc(args.svc), threshold=args.threshold)
    shifts = delta_rank(sweep(g, [args.zeta_lo, args.zeta_hi])
                        .measure(args.measure))
    used = [(k, name) for k, name in enumerate(g.labels) if name in trends]
    if not used:
        raise ValueError("no company has both a network position and a "
                         "trend label")
    x = np.array([shifts[k] for k, _ in used], dtype=float)
    y = np.array([trends[name][1] for _, name in used])
    doc = lda_fit(x, y)
    _write_manifest(args, [args.memberships, args.svc],
                    ["delta_rank.csv", "lda.json"])
    budget.check("rank shifts")
    rows = ([name, int(shift)]
            + ([None, None] if t is None else list(t))
            for name, shift, t in zip(g.labels, shifts,
                                      map(trends.get, g.labels)))
    write_rows(os.path.join(args.out, "delta_rank.csv"),
               ["company", "delta_rank", "svc_rho", "trend"], rows)
    doc["n"] = len(used)
    doc["companies"] = [name for _, name in used]
    _write_json(os.path.join(args.out, "lda.json"), doc)
    return 0


# -- parser ------------------------------------------------------------------


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="riskcent",
        description="Risk-dependent centrality toolkit: measure sweeps, "
                    "SI bounds, interlacement detection, and the market / "
                    "corporate pipelines.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, budget=False):
        p.add_argument("--out", required=True, help="output directory")
        if budget:
            p.add_argument("--jobs", type=int, default=1,
                           help="accepted and ignored: every command runs "
                                "serially")
            p.add_argument("--budget", type=float, default=None,
                           help="wall-clock budget in seconds, checked "
                                "between phases; exceeding it exits 3")

    p = sub.add_parser("centrality", help="measure values and rankings "
                                          "over a zeta grid")
    p.add_argument("graph", help="edge-list or .json graph file")
    p.add_argument("--weighted", action="store_true",
                   help="edge list has a third weight column")
    p.add_argument("--zeta-grid", default=None,
                   help="'lo:hi:count' or comma list (default 0.01..1)")
    p.add_argument("--measure", default="R", choices=MEASURES)
    add_common(p)

    p = sub.add_parser("epidemics", help="SI trajectories and bound curves")
    p.add_argument("graph")
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--beta", type=float, required=True,
                   help="uniform seed probability in (0, 1)")
    p.add_argument("--gamma", type=float, required=True,
                   help="infection rate >= 0")
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--steps", type=int, default=51)
    p.add_argument("--solvers", default="exact,lee,mean-field",
                   help="comma list from: %s" % ", ".join(_SOLVERS))
    add_common(p)

    p = sub.add_parser("interlace", help="crossing detection and "
                                         "heuristics for node pairs")
    p.add_argument("graph")
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--measure", default="C", choices=MEASURES)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--pairs", help="semicolon list 'i,j;k,l'")
    which.add_argument("--all-pairs", action="store_true")
    p.add_argument("--zeta-grid", default=None)
    add_common(p)

    p = sub.add_parser("experiments", help="random-graph correlation table "
                                           "and ratio distributions")
    p.add_argument("config", help="key = value experiment config")
    p.add_argument("--ratios", action="store_true",
                   help="also emit pooled ratio distributions")
    add_common(p, budget=True)

    p = sub.add_parser("market", help="rolling correlation windows, MSTs, "
                                      "and rank reports")
    p.add_argument("returns", help="returns CSV (dates x assets)")
    p.add_argument("--width-months", type=int, default=6)
    p.add_argument("--step-months", type=int, default=1)
    p.add_argument("--min-obs", type=float, default=0.9)
    p.add_argument("--measure", default="R", choices=MEASURES)
    p.add_argument("--weight-mode", default="distance",
                   choices=("distance", "inverse"))
    p.add_argument("--zeta-grid", default=None)
    add_common(p, budget=True)

    p = sub.add_parser("corporate", help="board projection, rank shifts, "
                                         "and trend classification")
    p.add_argument("memberships", help="company,director CSV")
    p.add_argument("svc", help="company,year,value CSV")
    p.add_argument("--binary", action="store_true",
                   help="ignore shared-director counts")
    p.add_argument("--measure", default="R", choices=MEASURES)
    p.add_argument("--zeta-lo", type=float, default=0.01)
    p.add_argument("--zeta-hi", type=float, default=1.0)
    p.add_argument("--threshold", type=float, default=0.05,
                   help="drop companies with |trend correlation| below this")
    add_common(p, budget=True)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # looked up at call time: a rebound cli.cmd_* (a test's stub, a
        # bench span) is the one that runs
        return globals()["cmd_" + args.command](args)
    except _BudgetExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    # a GraphError is a ValueError; an unreadable input an OSError naming it
    except (ValueError, OSError, EigensolverError, SIIntegrationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
