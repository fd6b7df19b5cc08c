"""Exact perfect-matching counting for path/cycle-by-tree Cartesian products.

The package has four layers:

- graphs:       paths, cycles, trees, Cartesian products, edge lists, the
                linear-time perfect-matching test for trees, and
                OrientedGraph(n, arcs), which derives the graph it orients
- orientation:  the doubled / layered / four-layer orientations and the
                Pfaffian check, which compares |Pf| with the number of
                perfect matchings (both from one signed brute-force
                sweep, all a pass runs) and enumerates the perfect
                matchings, walking the alternating cycles of each, only
                to list a failure's violations, under one budget of work
- exactlinalg:  |Pf| of an orientation's skew adjacency matrix by sparse
                elimination modulo 256-bit Proth primes recombined exactly
                by CRT, psi_T of a tree (phi_T(x) = x^e psi_T(x^2)) folded
                by the bridge recurrence modulo a small monic polynomial
                q(y) (O(n) ring operations, plain integers when
                deg q = 1), root_product (the product of a polynomial over
                the roots of a small monic one, the resultant, by the
                subresultant remainder sequence)
- counting:     three entry points, count_product (C_4 x T, P_m x T),
                count_grid and count_graph, over one table of routes,
                counting.ROUTES; "auto" takes its family's rows in order
                (formula, then a proven Pfaffian orientation, then brute
                force, for products).  The one closed form is P_s x T =
                |root_product(q_s, psi_T)|, q_s read off the path P_s and
                psi_T folded modulo q_s; brute force is one dynamic
                program over windows of matched vertices ahead of a sweep
                in a bandwidth-reducing order (brute), which carries each
                partial matching's Pfaffian sign beside its count

plus a command-line front end (pfmatch.cli / the `pfmatch` script) that
only parses arguments and renders reports.
"""

from .brute import (
    DEFAULT_BRUTE_STATE_GUARD,
    count_perfect_matchings,
)
from .counting import (
    DEFAULT_BRUTE_GUARD,
    DEFAULT_GRID_GUARD,
    CountResult,
    IdentityReport,
    SquarishDecomposition,
    count_graph,
    count_grid,
    count_product,
    squarish_decompose,
    verify_identities,
)
from .errors import (
    EdgeListParseError,
    InvalidSizeError,
    NotATreeError,
    NotPfaffianError,
    NotSquarishError,
    NumericalConsistencyError,
    PfmatchError,
    PreconditionError,
    SizeLimitError,
)
from .exactlinalg import (
    DEFAULT_PFAFFIAN_UPDATE_GUARD,
    IntPolynomial,
    abs_pfaffian,
    psi_tree_mod,
    root_product,
)
from .graphs import (
    Graph,
    OrientedGraph,
    Tree,
    cartesian_product,
    cycle_graph,
    format_edge_list,
    parse_edge_list,
    path_graph,
    random_tree,
    tree_has_perfect_matching,
    validate_tree,
)
from .orientation import (
    CycleSeq,
    PfaffianReport,
    check_pfaffian,
    format_oriented_edge_list,
    orient_c4_tree,
    orient_double,
    orient_layered,
    orient_lexicographic,
    parse_oriented_edge_list,
)

__version__ = "0.1.0"

__all__ = [
    "CountResult",
    "CycleSeq",
    "DEFAULT_BRUTE_GUARD",
    "DEFAULT_BRUTE_STATE_GUARD",
    "DEFAULT_GRID_GUARD",
    "DEFAULT_PFAFFIAN_UPDATE_GUARD",
    "EdgeListParseError",
    "Graph",
    "IdentityReport",
    "IntPolynomial",
    "InvalidSizeError",
    "NotATreeError",
    "NotPfaffianError",
    "NotSquarishError",
    "NumericalConsistencyError",
    "OrientedGraph",
    "PfaffianReport",
    "PfmatchError",
    "PreconditionError",
    "SizeLimitError",
    "SquarishDecomposition",
    "Tree",
    "abs_pfaffian",
    "cartesian_product",
    "check_pfaffian",
    "count_graph",
    "count_grid",
    "count_perfect_matchings",
    "count_product",
    "cycle_graph",
    "format_edge_list",
    "format_oriented_edge_list",
    "orient_c4_tree",
    "orient_double",
    "orient_layered",
    "orient_lexicographic",
    "parse_edge_list",
    "parse_oriented_edge_list",
    "path_graph",
    "psi_tree_mod",
    "random_tree",
    "root_product",
    "squarish_decompose",
    "tree_has_perfect_matching",
    "validate_tree",
    "verify_identities",
]
