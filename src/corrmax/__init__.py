"""corrmax: statistics of correlated Gaussian extremes for path-based
statistical static timing analysis.

Layers:

* ``normal``       scalar/vector standard-normal special functions
* ``gumbel``       limiting law of IID Gaussian maxima
* ``corrections``  corrected CDFs/PDFs for weakly correlated maxima
* ``montecarlo``   seeded, reproducible Monte Carlo oracle
* ``timing_graph`` DAG ingestion, path enumeration, path covariance
* ``cli``          scriptable command-line front end
"""
from __future__ import annotations

from .errors import (
    CorrmaxError,
    CycleError,
    DimensionMismatch,
    DomainError,
    DuplicateEdgeError,
    EmptyInput,
    GraphError,
    ParseError,
    PathExplosionError,
)
from .normal import (
    phi_kernel,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)
from .gumbel import (
    EULER_MASCHERONI,
    GumbelMoments,
    GumbelParams,
    gumbel_moments,
    scaling_constants,
)
from .corrections import (
    EpsilonMatrix,
    ValidityReport,
    ar1_correlation_sum,
    corrected_law,
    validity_check,
)
from .montecarlo import (
    McConfig,
    McResult,
    empirical_stats,
    non_iid_experiment,
    sample_dag_max,
    sample_max_sweep,
)
from .timing_graph import (
    Edge,
    GraphAnalysis,
    PathSet,
    TimingGraph,
    enumerate_paths,
    graph_delay_analysis,
    load_graph,
    parse_graph,
    path_covariance,
)

__version__ = "0.1.0"
