"""Weak-dynamic graph coloring toolkit.

A coloring (not necessarily proper) is k-weak-dynamic when every vertex
``v`` sees at least ``min(d(v), k)`` distinct colors on its neighborhood.
This package verifies such colorings, computes exact optima by branch and
bound, shrinks graphs through a catalog of reducible local patterns whose
colorings always lift back, and combines everything into a constructive
routine that 3-weak-dynamically colors any planar graph with at most six
colors — cross-checked against the exact solver throughout the test suite.
"""

from .exact import (ExactResult, SearchBudgetExceeded, chromatic_number_exact,
                    list_color_exact, product_coloring, wd_number_exact)
from .generators import NAMED_GRAPH_NAMES, named, random_planar, triangulation
from .graphs import Graph
from .hosts import host_for
from .io import (FormatError, load_coloring, load_graph, parse_coloring,
                 parse_graph, parse_lists, serialize_coloring,
                 serialize_graph_dimacs, serialize_graph_json,
                 serialize_lists)
from .listcolor import (ColorOrder, DependencyColoringError, Lists,
                        color_complete_with_lists, color_dependency_graph,
                        color_odd_cycle_with_lists, degree_choose,
                        greedy_with_slack, pick_color)
from .pipeline import (InvariantBreachError, NonplanarInputError,
                       PipelineIncompleteError, VertexClassification,
                       assemble_and_color, build_Gprime, build_H, classify,
                       four_color_H, wd3_color_planar)
from .planarity import PlanarityCertificate, count_faces, is_planar
from .reductions import (KIND_ORDER, SHORT_KINDS, CertificateReport,
                         Configuration, LiftError, ReductionError,
                         ReductionStep, StaleConfigurationError,
                         apply_reduction, certify_lemma, detect_configuration,
                         lift_coloring)
from .verify import (Coloring, Hypergraph, Violation, is_dynamic, is_proper,
                     is_proper_hypergraph_coloring, is_satisfied_general,
                     is_weak_dynamic, neighborhood_hypergraph, palette_size,
                     seen_colors)

__version__ = "0.1.0"

__all__ = [
    "Graph", "PlanarityCertificate", "is_planar", "count_faces",
    "Coloring", "Violation", "Hypergraph", "is_weak_dynamic", "is_proper",
    "is_dynamic", "is_satisfied_general", "palette_size",
    "seen_colors", "neighborhood_hypergraph",
    "is_proper_hypergraph_coloring",
    "ExactResult", "SearchBudgetExceeded", "wd_number_exact",
    "chromatic_number_exact",
    "list_color_exact", "product_coloring",
    "ColorOrder", "Lists", "DependencyColoringError", "pick_color",
    "greedy_with_slack", "color_complete_with_lists",
    "color_odd_cycle_with_lists", "degree_choose",
    "color_dependency_graph",
    "KIND_ORDER", "SHORT_KINDS", "Configuration", "ReductionStep",
    "CertificateReport", "ReductionError", "LiftError",
    "StaleConfigurationError", "detect_configuration", "apply_reduction",
    "lift_coloring", "certify_lemma", "host_for",
    "VertexClassification", "classify", "build_Gprime",
    "build_H", "four_color_H", "assemble_and_color", "wd3_color_planar",
    "NonplanarInputError", "PipelineIncompleteError", "InvariantBreachError",
    "NAMED_GRAPH_NAMES", "named", "random_planar", "triangulation",
    "FormatError", "parse_graph", "load_graph", "serialize_graph_dimacs",
    "serialize_graph_json", "parse_coloring", "load_coloring",
    "serialize_coloring", "parse_lists", "serialize_lists",
    "__version__",
]
