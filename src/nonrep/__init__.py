"""Nonrepetitive path and cycle analysis in labeled graphs, applied to Sudoku.

A walk in an edge-labeled graph is nonrepetitive when no two consecutive
edges share a label.  This package answers reachability, cycle-membership
and shortest-walk questions under that constraint in linear time per query,
decides simple-path existence in undirected graphs, and uses the machinery
as the nonlocal deduction engine of a rule-based Sudoku solver, generator
and difficulty grader.
"""

from .labeled_graph import (
    FlagLabeledGraph,
    GraphParseError,
    parse_labeled_graph,
    serialize_labeled_graph,
)
from .engine import (
    LabelSwitchDigraph,
    ReachedEdge,
    cyclic_edges,
    no_reversal_view,
    reachable_edges,
    shortest_nonrepetitive_path,
)
from .simple_paths import (
    BinarizedGraph,
    SkewSymmetricGraph,
    binarize_labels,
    build_skew_instance,
    has_nonrepetitive_simple_cycle,
    nonrepetitive_simple_path,
    regular_reachable,
    simple_cycle_edges,
)
from .matching import (
    BipartiteInstance,
    EdgeClassification,
    classify_edges,
    max_bipartite_matching,
    max_general_matching,
)

__version__ = "0.1.0"

__all__ = [
    "FlagLabeledGraph",
    "GraphParseError",
    "parse_labeled_graph",
    "serialize_labeled_graph",
    "LabelSwitchDigraph",
    "ReachedEdge",
    "cyclic_edges",
    "no_reversal_view",
    "reachable_edges",
    "shortest_nonrepetitive_path",
    "BinarizedGraph",
    "SkewSymmetricGraph",
    "binarize_labels",
    "build_skew_instance",
    "has_nonrepetitive_simple_cycle",
    "nonrepetitive_simple_path",
    "regular_reachable",
    "simple_cycle_edges",
    "BipartiteInstance",
    "EdgeClassification",
    "classify_edges",
    "max_bipartite_matching",
    "max_general_matching",
    "__version__",
]
