"""The paper's primary contribution: DCSAD and DCSGA solvers.

Pipeline overview::

    G1, G2 --difference_graph--> GD --+--> dcs_greedy (DCSAD, Alg. 2)
                                      |
                                      +--positive_part--> GD+
                                             |
                                             +--> new_sea (DCSGA, Alg. 5)
                                                  = smart init (Thm. 6)
                                                  + seacd (Alg. 3)
                                                  + refine (Alg. 4)
"""

from repro.core.coordinate_descent import (
    CDResult,
    coordinate_descent,
    gradient_gap,
)
from repro.core.dcsad import (
    DCSADResult,
    dcs_exact_positive,
    dcs_greedy,
    dcs_greedy_pair,
    greedy_on_gd_only,
    greedy_on_gd_plus_only,
)
from repro.core.difference import (
    DBLP_DISCRETE,
    DifferenceStats,
    DiscreteLevels,
    assemble_difference,
    cap_weights,
    difference_graph,
    difference_stats,
    discrete_difference_graph,
    flip,
    mean_graph,
    positive_part,
    scale_free_quantizer,
)
from repro.core.embedding import validate_simplex
from repro.core.exact import (
    ExactDCSAD,
    ExactDCSGA,
    clique_interior_optimum,
    exact_dcsad,
    exact_dcsga,
    exact_heaviest_subgraph,
)
from repro.core.expansion import ExpansionStep, candidate_frontier, expansion_step
from repro.core.initialization import (
    InitializationPlan,
    clique_affinity_upper_bound,
    ego_max_weights,
    smart_initialization_plan,
)
from repro.core.kkt import KKTReport, check_kkt, is_kkt_point
from repro.core.newsea import (
    AllInitsResult,
    DCSGAResult,
    new_sea,
    solve_all_initializations,
)
from repro.core.refinement import (
    RefinementResult,
    is_positive_clique_solution,
    refine,
)
from repro.core.seacd import SEACDResult, SEACDStats, seacd, seacd_from_vertex
from repro.core.sparse_solvers import (
    coordinate_descent_csr,
    csr_vertex_solver,
    refine_csr,
    seacd_csr,
)
from repro.core.topk import RankedDCS, coverage, top_k_dcsad, top_k_dcsga

__all__ = [
    # difference graphs
    "assemble_difference",
    "difference_graph",
    "discrete_difference_graph",
    "positive_part",
    "flip",
    "cap_weights",
    "scale_free_quantizer",
    "DiscreteLevels",
    "DBLP_DISCRETE",
    "DifferenceStats",
    "difference_stats",
    "mean_graph",
    # embeddings
    "validate_simplex",
    # DCSAD
    "DCSADResult",
    "dcs_greedy",
    "dcs_exact_positive",
    "dcs_greedy_pair",
    "greedy_on_gd_only",
    "greedy_on_gd_plus_only",
    # DCSGA building blocks
    "CDResult",
    "coordinate_descent",
    "gradient_gap",
    "ExpansionStep",
    "expansion_step",
    "candidate_frontier",
    "SEACDResult",
    "SEACDStats",
    "seacd",
    "seacd_from_vertex",
    "RefinementResult",
    "refine",
    "is_positive_clique_solution",
    "InitializationPlan",
    "smart_initialization_plan",
    "ego_max_weights",
    "clique_affinity_upper_bound",
    # DCSGA pipelines
    "DCSGAResult",
    "AllInitsResult",
    "new_sea",
    "solve_all_initializations",
    # KKT
    "KKTReport",
    "check_kkt",
    "is_kkt_point",
    # top-k extension
    "RankedDCS",
    "coverage",
    "top_k_dcsad",
    "top_k_dcsga",
    # vectorised CSR backend
    "coordinate_descent_csr",
    "seacd_csr",
    "refine_csr",
    "csr_vertex_solver",
    # exact oracles
    "ExactDCSAD",
    "ExactDCSGA",
    "exact_dcsad",
    "exact_dcsga",
    "exact_heaviest_subgraph",
    "clique_interior_optimum",
]
