"""Toolkit for small multicolor Ramsey numbers.

Provides bitset graphs and edge colorings, forbidden-subgraph detection,
canonical labeling, orderly enumeration of good graphs, splittability
decisions via an embedded SAT solver or recursive coloring, simulated
annealing for lower-bound colorings, named constructions and verification
commands.
"""

__version__ = "0.1.0"

from .anneal import AnnealParams, AnnealResult, anneal_search
from .canon import are_isomorphic, canonical_form
from .coloring import (
    EdgeColoring,
    color_class,
    emit_coloring_matrix,
    parse_coloring_matrix,
)
from .constructions import clone_vertex, figure_coloring, schlafli, verify_c51
from .detect import CopyList, coloring_is_valid, contains, is_good, list_copies
from .enumeration import EnumerationStats, enumerate_good, extend_level
from .graph6 import emit_graph6, parse_graph6
from .graphs import Graph, complement
from .sat import CnfFormula, sat_solve, write_dimacs
from .split import (
    compose_coloring,
    encode_split_cnf,
    is_splittable,
    recursive_split,
)
from .targets import (
    Target,
    clique,
    clique_minus_edge,
    clique_minus_p3,
    cycle,
    parse_target,
    triangle_plus_pendant,
)

__all__ = [
    "__version__",
    "AnnealParams",
    "AnnealResult",
    "CnfFormula",
    "CopyList",
    "EdgeColoring",
    "EnumerationStats",
    "Graph",
    "Target",
    "anneal_search",
    "are_isomorphic",
    "canonical_form",
    "clique",
    "clique_minus_edge",
    "clique_minus_p3",
    "clone_vertex",
    "color_class",
    "coloring_is_valid",
    "complement",
    "compose_coloring",
    "contains",
    "cycle",
    "emit_coloring_matrix",
    "emit_graph6",
    "encode_split_cnf",
    "enumerate_good",
    "extend_level",
    "figure_coloring",
    "is_good",
    "is_splittable",
    "list_copies",
    "parse_coloring_matrix",
    "parse_graph6",
    "parse_target",
    "recursive_split",
    "sat_solve",
    "schlafli",
    "triangle_plus_pendant",
    "verify_c51",
    "write_dimacs",
]
