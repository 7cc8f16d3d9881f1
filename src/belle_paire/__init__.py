"""Desk-scale simulation and verification for randomized countable
structures and their elementary pairs.

Everything is exact: measures are fractions.Fraction, maps are finite
partitions of the unit square into rational rectangles, and every bound a
certificate reports was computed, not estimated.
"""

from .measure import (
    Frac,
    Profile,
    RationalSet,
    Rect,
    StepMap,
    common_refinement,
    density_split,
    l1_distance,
    slice_profile,
)
from .structures import (
    Domain,
    DisjointUnion,
    FqVector,
    FqVectors,
    GeometrySpec,
    IdentityInjection,
    LinearInjection,
    NaturalNumbers,
    NonInjectiveOnWindow,
    PairProduct,
    ShiftInjection,
    TableInjection,
    WindowInjection,
    basis_shift_endo,
    identity_endo,
    shift_endo,
    successor_endo,
    window_permutation,
)
from .approx import (
    CycleApproxBijection,
    DefectProfile,
    OrbitClassifier,
    OrbitDecomposition,
    approximate_by_automorphisms,
    defect_profile,
    orbit_decompose,
    strip_lift,
)
from .random_endo import (
    BudgetLine,
    Certificate,
    GapBounds,
    PairModel,
    Refusal,
    StructuralMismatch,
    approximate_random_endo,
    apply_random_endo,
    brute_force_dist_to_image,
    certify_epsilon_isomorphism,
    compose_random_endos,
    constant_endo,
    dist_to_image,
    endos_agree_on_window,
    hausdorff_gap,
    max_strip_probe_distance,
    orbit_reduce,
)
from .groups import (
    NoCosetFactorization,
    PermGroupPresentation,
    direct_product,
    finite_index_supergroup,
    fq_presentation,
    parity_presentation,
    parse_group_expr,
    pure_set_presentation,
    wreath_product,
)
from .geometry import (
    SearchGuardExceeded,
    SearchResult,
    closed_set_size,
    epsilon_lower_bound,
    exhaustive_pair_search,
    exhaustive_pair_search_pure,
    min_k_for_delta,
    min_k_violations,
)
from .realization import (
    RealizationReport,
    RealizationSpec,
    ReportRow,
    assemble_realization,
    verify_probability_identity,
)
from .sampling import SampleStream
from . import serialize

__all__ = [
    "Frac", "Profile", "RationalSet", "Rect", "StepMap",
    "common_refinement", "density_split", "l1_distance", "slice_profile",
    "Domain", "DisjointUnion", "FqVector", "FqVectors", "GeometrySpec",
    "IdentityInjection", "LinearInjection", "NaturalNumbers",
    "NonInjectiveOnWindow", "PairProduct", "ShiftInjection",
    "TableInjection", "WindowInjection", "basis_shift_endo", "identity_endo",
    "shift_endo", "successor_endo",
    "window_permutation",
    "CycleApproxBijection", "DefectProfile", "OrbitClassifier",
    "OrbitDecomposition", "approximate_by_automorphisms", "defect_profile",
    "orbit_decompose", "strip_lift",
    "BudgetLine", "Certificate", "GapBounds", "PairModel", "Refusal",
    "StructuralMismatch", "approximate_random_endo",
    "apply_random_endo", "brute_force_dist_to_image",
    "certify_epsilon_isomorphism", "compose_random_endos", "constant_endo",
    "dist_to_image", "endos_agree_on_window", "hausdorff_gap",
    "max_strip_probe_distance", "orbit_reduce",
    "NoCosetFactorization", "PermGroupPresentation", "direct_product",
    "finite_index_supergroup", "fq_presentation",
    "parity_presentation", "parse_group_expr", "pure_set_presentation",
    "wreath_product",
    "SearchGuardExceeded", "SearchResult",
    "closed_set_size", "epsilon_lower_bound",
    "exhaustive_pair_search", "exhaustive_pair_search_pure",
    "min_k_for_delta", "min_k_violations",
    "RealizationReport", "RealizationSpec", "ReportRow",
    "assemble_realization", "verify_probability_identity",
    "SampleStream", "serialize",
]
