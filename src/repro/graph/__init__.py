"""Graph substrate: the weighted-graph core and classic graph algorithms.

Everything the DCS solvers need from "a graph library" is implemented
here from scratch: adjacency storage with signed weights
(:class:`~repro.graph.graph.Graph`), connected components, k-core
decomposition, clique enumeration, matrix conversion, edge-list I/O and
random generators.
"""

from repro.graph.components import (
    connected_components,
    densest_component,
    is_connected,
)
from repro.graph.cliques import (
    count_cliques_by_size,
    is_clique,
    is_positive_clique,
    max_clique_number,
    maximal_cliques,
    maximum_clique,
    remove_subsumed_cliques,
)
from repro.graph.cores import (
    core_numbers,
    degeneracy,
    degeneracy_ordering,
    k_core,
)
from repro.graph.graph import Graph, Vertex
from repro.graph.io import read_edge_list, read_pair, write_edge_list, write_pair
from repro.graph.sparse import CSRAdjacency, graph_fingerprint, scipy_available
from repro.graph.matrices import (
    affinity_matrix,
    embedding_to_vector,
    graph_from_affinity,
    vector_to_embedding,
)

__all__ = [
    "Graph",
    "Vertex",
    "CSRAdjacency",
    "graph_fingerprint",
    "scipy_available",
    "affinity_matrix",
    "graph_from_affinity",
    "embedding_to_vector",
    "vector_to_embedding",
    "connected_components",
    "densest_component",
    "is_connected",
    "core_numbers",
    "degeneracy",
    "degeneracy_ordering",
    "k_core",
    "is_clique",
    "is_positive_clique",
    "maximal_cliques",
    "maximum_clique",
    "max_clique_number",
    "count_cliques_by_size",
    "remove_subsumed_cliques",
    "read_edge_list",
    "write_edge_list",
    "read_pair",
    "write_pair",
]
