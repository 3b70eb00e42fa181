"""Risk-dependent network centralities from SI contagion dynamics.

The package covers the full pipeline: graph handling, a matrix-exponential
engine (the eigendecomposition, or a Poisson-weighted power series of the
sparse adjacency), the risk-dependent centrality family and its rankings,
SI epidemic trajectories and bounds, ranking-interlacement detection with
series heuristics, random-graph ratio experiments, and the two
financial-network applications (correlation MST, board-interlock
projection).
"""

__version__ = "0.1.0"

from .graph import (  # noqa: F401
    Graph,
    GraphError,
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
)
from .spectral import (  # noqa: F401
    EigensolverError,
    expm,
)
from .centrality import (  # noqa: F401
    RankingSweep,
    RiskProfile,
    default_zeta_grid,
    rank,
    ranking_sweep,
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
)
from .interlacement import (  # noqa: F401
    detect_pairs,
    heuristic_pairs,
)
from .experiments import (  # noqa: F401
    ExperimentConfig,
    read_config,
    spearman_table,
    write_config,
)
from .finance import (  # noqa: F401
    ReturnsPanel,
    correlation_and_distance,
    delta_rank,
    lda_fit,
    load_returns,
    load_svc,
    msts,
    rolling_windows,
    save_returns,
    svc_trend,
    window_rank_reports,
    window_trees,
)
