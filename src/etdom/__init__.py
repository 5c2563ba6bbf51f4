"""etdom: exact eternal-domination game solver and batch search tools
for graphs on at most 64 vertices."""

from ._kernel import BACKEND, BudgetExceeded
from .graphs import (
    Graph,
    GraphError,
    TooManyVerticesError,
    from_edges,
    from_adjacency,
    complement,
    induced_subgraph,
    delete_vertex,
    add_edge,
    delete_edge,
    is_dominating_set,
    is_independent_set,
    is_clique,
    is_connected,
    connected_components,
    is_two_connected,
    is_triangle_free,
    is_maximal_triangle_free,
    is_claw_free,
    is_cubic,
)
from .graph6 import Graph6Error, decode, encode, read_stream
from .canon import are_isomorphic, canonical_form, canonical_graph
from .invariants import (
    InvariantRecord,
    chromatic_number,
    clique_cover_number,
    clique_cover_triangle_free,
    clique_number,
    domination_number,
    independence_number,
    is_critical,
    is_edge_critical,
    is_vertex_critical,
    maximal_cliques,
    maximum_matching,
    minimum_dominating_sets,
)
from .eternal import (
    ConfigSpace,
    can_defend,
    defense_move,
    eternal_decision,
    eternal_domination_number,
    guard_space,
    is_eternal_dominating_set,
)
from .constructions import CirculantSpec, bowtie, circulant, mycielski_family, mycielskian
from .generate import enumerate_circulants, generate_connected

__version__ = "0.1.0"
