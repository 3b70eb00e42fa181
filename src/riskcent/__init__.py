"""Risk-dependent network centralities from SI contagion dynamics.

The package covers the full pipeline: graph handling, a spectral/Krylov
matrix-exponential engine, the risk-dependent centrality family and its
rankings, SI epidemic trajectories and bounds, ranking-interlacement
detection with series heuristics, random-graph ratio experiments, and the
two financial-network applications (correlation MST, board-interlock
projection).
"""

__version__ = "0.1.0"

from .graph import (  # noqa: F401
    Graph,
    GraphError,
    WalkCounts,
    binarize,
    generate_complete,
    generate_er,
    generate_er_m,
    generate_star,
    largest_component,
    load_edge_list,
    load_json,
    load_memberships,
    project_bipartite,
    relabel,
    save_json,
    triangle_counts,
    walk_counts,
)
from .spectral import (  # noqa: F401
    EigensolverError,
    KrylovConvergenceError,
    SpectralDecomposition,
    decompose,
    expm,
)
from .centrality import (  # noqa: F401
    RankingSweep,
    RiskProfile,
    default_zeta_grid,
    limit_rankings,
    rank,
    ranking_sweep,
    spearman,
    sweep,
)
from .epidemics import (  # noqa: F401
    SIIntegrationError,
    SIParams,
    SITrajectory,
    si_exact,
    si_lee,
    si_lee_general,
    si_linearized,
    si_meanfield,
    survival_ratio,
)
from .interlacement import (  # noqa: F401
    DetectionResult,
    FinitenessReport,
    InterlacementError,
    InterlacementEvent,
    SeriesPolynomial,
    detect,
    difference_derivatives,
    finiteness_check,
    heuristic_linear,
    heuristic_poly,
    shifted_expansion,
)
from .experiments import (  # noqa: F401
    CorrelationTable,
    DistributionSummary,
    ExperimentConfig,
    TTestResult,
    er_ratio_limit_check,
    paired_t_test,
    ratio_derivative_curve,
    ratio_study,
    read_config,
    spearman_table,
    write_config,
)
from .finance import (  # noqa: F401
    LdaModel,
    MarketWindow,
    ReturnsPanel,
    SvcTrend,
    build_market_window,
    correlation_and_distance,
    delta_rank,
    lda_fit,
    lda_predict,
    load_returns,
    load_svc,
    mst,
    rolling_windows,
    save_returns,
    svc_trend,
    window_rank_report,
)
