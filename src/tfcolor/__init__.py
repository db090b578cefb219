"""tfcolor: compute and certify vertex colorings of simple undirected
graphs with no monochromatic triangle.

The public names resolve from their submodules on first use (PEP 562),
so importing the package loads only the submodules a caller touches."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "coloring": ("Coloring", "standard_recolor", "verify_triangle_free"),
    "fpt": ("compute_params", "fpt_tf_q_coloring", "min_vertex_cover", "oracle_omega"),
    "gadgets": (
        "gen_clover", "gen_complete", "gen_cycle", "gen_cycle_clique", "gen_gadget_triangle",
        "gen_mycielski", "gen_polar_gadget", "mycielskian",
    ),
    "graph": (
        "Graph", "as_edge_subset", "connected_components", "contains_k4",
        "read_dimacs_graph", "triangle_pairs", "write_dimacs_graph", "write_dot",
    ),
    "graph_classes": (
        "bounded_chi_chi3", "chordal_chi3", "max_cardinality_search", "recognize_chordal",
    ),
    "reductions": (
        "CnfFormula", "ReductionOutput", "fits_occurrence_limit", "parse_dimacs_cnf",
        "reduce_nae4_to_polar", "reduce_nae_to_k4free", "reduce_q_to_q1", "reduce_sat4_to_nae4",
        "variable_occurrences", "write_dimacs_cnf",
    ),
    "solvers": ("decide_tf_q", "solve_chi3"),
    "witness": ("lift_witness", "nae_satisfies", "pull_witness", "sat_satisfies"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    # no caching: a name patched in its submodule is seen here too
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
