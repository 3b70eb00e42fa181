"""Span recorder for the traced run.

The recorder wraps the package's public functions from outside: for each
target it finds the original function object and replaces *every* module
binding of it (``cli``, ``experiments``, ``finance`` and the rest import
their own references), or the attribute on the class for methods.  A span
is ``[name, start, end, parent, value]``; ``value`` carries a count taken
from the call (nodes decomposed, crossings found, windows built).  Spans
stay in memory and are summarised after the round.  A span's self time is
its duration minus the durations of the traced calls nested directly in it.
"""

import functools
import sys
import time
from collections import defaultdict

# (span name, home module, attribute) -- every binding of the attribute in
# any riskcent module is wrapped.  "Class.method" wraps the class attribute.
TARGETS = [
    ("cli.centrality", "riskcent.cli", "cmd_centrality"),
    ("cli.epidemics", "riskcent.cli", "cmd_epidemics"),
    ("cli.interlace", "riskcent.cli", "cmd_interlace"),
    ("cli.experiments", "riskcent.cli", "cmd_experiments"),
    ("cli.market", "riskcent.cli", "cmd_market"),
    ("cli.corporate", "riskcent.cli", "cmd_corporate"),
    ("graph.Graph", "riskcent.graph", "Graph.__init__"),
    ("graph.is_connected", "riskcent.graph", "Graph.is_connected"),
    ("graph.generate_er", "riskcent.graph", "generate_er"),
    ("graph.walk_counts", "riskcent.graph", "walk_counts"),
    ("graph.load", "riskcent.graph", "load_json"),
    ("graph.load", "riskcent.graph", "load_edge_list"),
    ("graph.load", "riskcent.graph", "load_memberships"),
    ("graph.project_bipartite", "riskcent.graph", "project_bipartite"),
    ("spectral.decompose", "riskcent.spectral", "decompose"),
    ("centrality.sweep", "riskcent.centrality", "sweep"),
    ("centrality.ranking_sweep", "riskcent.centrality", "ranking_sweep"),
    ("centrality.write_csv", "riskcent.centrality", "RiskProfile.to_csv"),
    ("centrality.write_csv", "riskcent.centrality", "RankingSweep.to_csv"),
    ("centrality.write_csv", "riskcent.centrality", "RankingSweep.std_to_csv"),
    ("centrality.spearman", "riskcent.centrality", "spearman"),
    ("epidemics.si_exact", "riskcent.epidemics", "si_exact"),
    ("epidemics.si_lee", "riskcent.epidemics", "si_lee"),
    ("epidemics.si_lee_general", "riskcent.epidemics", "si_lee_general"),
    ("epidemics.si_linearized", "riskcent.epidemics", "si_linearized"),
    ("interlacement.detect", "riskcent.interlacement", "detect"),
    ("interlacement.heuristic_linear", "riskcent.interlacement",
     "heuristic_linear"),
    ("interlacement.heuristic_poly", "riskcent.interlacement",
     "heuristic_poly"),
    ("experiments.spearman_table", "riskcent.experiments", "spearman_table"),
    ("experiments.ratio_study", "riskcent.experiments", "ratio_study"),
    ("finance.load_returns", "riskcent.finance", "load_returns"),
    ("finance.rolling_windows", "riskcent.finance", "rolling_windows"),
    ("finance.correlation_and_distance", "riskcent.finance",
     "correlation_and_distance"),
    ("finance.mst", "riskcent.finance", "mst"),
    ("finance.window_rank_report", "riskcent.finance", "window_rank_report"),
    ("finance.delta_rank", "riskcent.finance", "delta_rank"),
    ("finance.svc_trend", "riskcent.finance", "svc_trend"),
    ("finance.lda_fit", "riskcent.finance", "lda_fit"),
]

# Counts read off a call: its arguments and its result.
NOTES = {
    "spectral.decompose": lambda args, result: args[0].n,
    "interlacement.detect": lambda args, result: len(result.events),
    "finance.rolling_windows": lambda args, result: len(result),
}

_SPANS = sorted({name for name, _, _ in TARGETS})
_EXPERIMENTS = ("experiments.spearman_table", "experiments.ratio_study")

# Every per-layer metric, in the order BENCHMARK.json lists them:
# (name, unit, better).
LAYER_METRICS = (
    [(name + ".s", "s", "lower") for name in _SPANS]
    + [("graph.Graph.calls", "count", "lower"),
       ("graph.er_draws_per_graph", "ratio", "lower"),
       ("spectral.decompose.calls", "count", "lower"),
       ("spectral.decompose.nodes", "count", "lower"),
       ("centrality.spearman.calls", "count", "lower"),
       ("interlacement.detect.calls", "count", "lower"),
       ("interlacement.events", "count", "higher"),
       ("experiments.decompose_per_replication", "ratio", "lower"),
       ("finance.windows", "count", "higher"),
       ("cli.output_mb", "MB", "lower"),
       ("trace.overhead_s", "s", "lower")])


class Tracer:
    """Records spans while ``active``; wrappers pass straight through
    otherwise, so checks and untimed commands leave no spans."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "riskcent" or key.startswith("riskcent.")]
        for name, home, attr in TARGETS:
            owner = sys.modules[home]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def metrics(self, replications):
        """Per-layer metrics of the recorded spans (one round).

        ``replications`` is the number of ER replications the round's
        experiments ran, the base of ``decompose_per_replication``.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        values = defaultdict(float)
        for k, (name, start, end, parent, value) in enumerate(self.spans):
            self_s[name] += end - start - child[k]
            calls[name] += 1
            if value is not None:
                values[name] += value

        def under(k, names):
            parent = self.spans[k][3]
            while parent >= 0:
                if self.spans[parent][0] in names:
                    return True
                parent = self.spans[parent][3]
            return False

        er_builds = sum(1 for name, _, _, parent, _ in self.spans
                        if name == "graph.Graph" and parent >= 0
                        and self.spans[parent][0] == "graph.generate_er")
        experiment_decompositions = sum(
            1 for k, span in enumerate(self.spans)
            if span[0] == "spectral.decompose" and under(k, _EXPERIMENTS))
        out = {name + ".s": self_s[name] for name in _SPANS}
        out.update({
            "graph.Graph.calls": calls["graph.Graph"],
            "graph.er_draws_per_graph":
                er_builds / max(calls["graph.generate_er"], 1),
            "spectral.decompose.calls": calls["spectral.decompose"],
            "spectral.decompose.nodes": values["spectral.decompose"],
            "centrality.spearman.calls": calls["centrality.spearman"],
            "interlacement.detect.calls": calls["interlacement.detect"],
            "interlacement.events": values["interlacement.detect"],
            "experiments.decompose_per_replication":
                experiment_decompositions / replications if replications
                else 0.0,
            "finance.windows": values["finance.rolling_windows"],
        })
        return out
