"""Random-graph experiments: ratio spreads and rank agreement.

All experiments draw connected Erdos-Renyi samples.  Replication r of
density block d uses the substream seed ``child_seed(master, d, r)``, so
any replication can be regenerated in isolation: it is
``generate_er(n, density, child_seed(master, d, r), require_connected=True)``.

A replication never becomes a ``Graph``.  Its dense adjacency comes
straight from the drawer behind ``generate_er`` (``graph._er_adjacency``),
its eigensystem ``(lam, u)`` from ``spectral._eigensystem``, and its R
and C rows from the dense route's evaluator ``spectral._exp_rows``;
T = R - C.  Where the diagonal of ``centrality.sweep`` takes the dense
route on the same graph, these are its C rows bit for bit and its R rows
to rounding: ``sweep`` takes R from the power-series action, and a
connected draw has no entry far below ``exp(zeta lambda_1)``, where the
dense rows lose accuracy.
``ExperimentConfig`` refuses n above ``DENSE_LIMIT_DEFAULT``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .centrality import _grid, _row_corr, _row_spearman, write_rows
from .graph import _er_adjacency, _text_rows
from .spectral import DENSE_LIMIT_DEFAULT, _eigensystem, _exp_rows

RATIOS = ("R/E[R]", "C/E[C]", "T/E[T]", "C/R")
_QUANTILES = (1, 25, 50, 75, 99)


@dataclass
class ExperimentConfig:
    """Sweep layout: graph size, density and zeta grids, replication count."""

    n: int = 100
    densities: tuple = (0.1, 0.3, 0.5, 0.7, 0.9)
    zetas: tuple = (0.1, 0.5, 1.0)
    replications: int = 1000
    seed: int = 0

    def __post_init__(self):
        self.n = int(self.n)
        self.densities = tuple(float(d) for d in self.densities)
        self.zetas = tuple(float(z) for z in self.zetas)
        self.replications = int(self.replications)
        self.seed = int(self.seed)
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.n > DENSE_LIMIT_DEFAULT:
            raise ValueError(
                "n = %d is above the dense limit %d of the replications' "
                "eigendecomposition" % (self.n, DENSE_LIMIT_DEFAULT))
        if not self.densities or any(not 0.0 < d <= 1.0 for d in self.densities):
            raise ValueError("densities must lie in (0, 1]")
        _grid(self.zetas)  # nonempty, positive, finite, strictly increasing
        if self.replications < 1:
            raise ValueError("need at least one replication")


def write_config(config, path):
    """Write the plain ``key = value`` config format; floats as ``repr``,
    so ``read_config`` reads the same config back."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n = %d\n" % config.n)
        fh.write("densities = %s\n" % ", ".join(map(repr, config.densities)))
        fh.write("zetas = %s\n" % ", ".join(map(repr, config.zetas)))
        fh.write("replications = %d\n" % config.replications)
        fh.write("seed = %d\n" % config.seed)


def read_config(path):
    """Parse ``key = value`` lines; '#' starts a comment, lists use commas.
    A key given twice is an error naming both of its lines."""
    fields, lines = {}, {}
    for lineno, text in _text_rows(path):
        s = text.split("#", 1)[0].strip()
        if "=" not in s:
            raise ValueError("%s:%d: expected 'key = value', got %r"
                             % (path, lineno, s))
        key, _, value = s.partition("=")
        key = key.strip()
        value = value.strip()
        integer = key in ("n", "replications", "seed")
        if not integer and key not in ("densities", "zetas"):
            raise ValueError("%s:%d: unknown config key %r"
                             % (path, lineno, key))
        if key in lines:
            raise ValueError("%s:%d: config key %r given again, first on "
                             "line %d" % (path, lineno, key, lines[key]))
        lines[key] = lineno
        try:
            fields[key] = (int(value) if integer else
                           tuple(float(v) for v in value.split(",")))
        except ValueError as exc:
            raise ValueError("%s:%d: config key %r: %s"
                             % (path, lineno, key, exc)) from None
    return ExperimentConfig(**fields)


def child_seed(master, *indices):
    """Derived substream seed; documented split so runs are reproducible.

    Uses ``SeedSequence([master, len(indices), *indices])``.  The length
    prefix matters: SeedSequence ignores trailing zero entropy words, so
    without it (0,) and (0, 0) would collide.  With it, distinct index
    tuples always map to distinct entropy lists.
    """
    entropy = [int(master), len(indices)] + [int(i) for i in indices]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass
class DistributionSummary:
    """Mean, std, and fixed percentiles (1/25/50/75/99) of pooled samples."""

    mean: float
    std: float
    quantiles: dict

    @classmethod
    def from_samples(cls, samples):
        samples = np.asarray(samples, dtype=float)
        if samples.size == 0:
            raise ValueError("no samples to summarize")
        qs = np.quantile(samples, [q / 100.0 for q in _QUANTILES])
        return cls(mean=float(samples.mean()),
                   std=float(samples.std(ddof=0)),
                   quantiles={q: float(v) for q, v in zip(_QUANTILES, qs)})


def _replication_measures(config, d_idx, rep, zetas, ones):
    """One connected ER draw and its R, C and T rows at the grid ``zetas``;
    ``ones`` is the all-ones vector of the graph's size."""
    rng = np.random.default_rng(child_seed(config.seed, d_idx, rep))
    a = _er_adjacency(config.n, config.densities[d_idx], rng,
                      require_connected=True, max_retries=1000)
    lam, u = _eigensystem(a)
    r = _exp_rows(lam, u, zetas, ones)
    c = _exp_rows(lam, u, zetas)
    return r, c, r - c


def _check_ratios(ratios):
    if isinstance(ratios, str):
        ratios = (ratios,)
    for r in ratios:
        if r not in RATIOS:
            raise ValueError("unknown ratio %r; options: %s"
                             % (r, ", ".join(RATIOS)))
    return tuple(ratios)


def _ratio_samples(ratio, R, C, T):
    """Node-level ratio values for ``(..., n)`` measure arrays."""
    if ratio == "C/R":
        return C / R
    m = {"R/E[R]": R, "C/E[C]": C, "T/E[T]": T}[ratio]
    return m / m.mean(axis=-1, keepdims=True)


def ratio_study(config, ratios=("R/E[R]",)):
    """Distributions of node-level measure ratios over ER replications.

    ``ratios`` may hold any of 'R/E[R]', 'C/E[C]', 'T/E[T]' (value against
    the graph mean of the same measure) and 'C/R'.  Samples pool all nodes
    of all replications of one (density, zeta) cell.  Returns
    ``{ratio: {(density, zeta): DistributionSummary}}``, the ``ratios`` of
    the :func:`spearman_table` pass that draws the replications.
    """
    return spearman_table(config, ratios=ratios).ratios


@dataclass
class CorrelationTable:
    """Mean C-vs-R agreement per (density, zeta) cell, rank and value based.

    ``ratios`` holds the pooled ratio summaries the same pass computed,
    ``{ratio: {(density, zeta): DistributionSummary}}`` (empty when none
    were requested).
    """

    densities: tuple
    zetas: tuple
    rank_corr: np.ndarray  # shape (len(densities), len(zetas))
    value_corr: np.ndarray  # same shape
    ratios: dict = field(default_factory=dict)

    def matrix(self, statistic="value"):
        if statistic == "value":
            return self.value_corr
        if statistic == "rank":
            return self.rank_corr
        raise ValueError("statistic must be 'value' or 'rank', got %r"
                         % (statistic,))

    def to_csv(self, path, statistic="value"):
        write_rows(path, ["density"] + ["zeta=%g" % z for z in self.zetas],
                   (["%g" % d] + row for d, row in zip(
                       self.densities, self.matrix(statistic).tolist())))


def spearman_table(config, ratios=()):
    """Mean correlation of C against R per (density, zeta) cell.

    Both statistics are computed over the same replications: ``rank_corr``
    is the Spearman coefficient on average ranks and ``value_corr`` the
    Pearson coefficient on the raw measures.  Once zeta clears the spectral
    mixing scale both measures order nodes by the leading eigenvector, so
    the rank statistic saturates at exactly 1.0; the value statistic keeps
    resolving the curvature difference between C and R and stays strictly
    below 1, which makes it the informative summary at moderate zeta.

    This is the one replication pass: every replication is drawn and
    decomposed once, as a dense array (see the module docstring), its
    measures are stacked per density into ``(replications, zetas, n)``
    arrays, and the correlations and the ``ratios`` summaries (see
    :func:`ratio_study`) are computed from them.
    """
    ratios = _check_ratios(ratios)
    zetas = np.asarray(config.zetas, dtype=float)
    ones = np.ones(config.n)
    shape = (len(config.densities), len(config.zetas))
    rank_corr = np.empty(shape)
    value_corr = np.empty(shape)
    pooled = {r: {} for r in ratios}
    for d_idx, density in enumerate(config.densities):
        rows = [_replication_measures(config, d_idx, rep, zetas, ones)
                for rep in range(config.replications)]
        R, C, T = (np.stack(m) for m in zip(*rows))
        rank_corr[d_idx] = _row_spearman(C, R).mean(axis=0)
        value_corr[d_idx] = _row_corr(C, R).mean(axis=0)
        for ratio in ratios:
            samples = _ratio_samples(ratio, R, C, T)
            for z_idx, zeta in enumerate(config.zetas):
                pooled[ratio][(density, zeta)] = (
                    DistributionSummary.from_samples(
                        samples[:, z_idx].reshape(-1)))
    return CorrelationTable(config.densities, config.zetas,
                            rank_corr, value_corr, ratios=pooled)
