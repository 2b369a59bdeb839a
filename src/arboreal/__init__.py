"""Exact computation in groups of colored-tree automorphisms: universal
groups, prescribed local actions, piecewise-prescribed groups, and the
convolution obstruction pipeline with machine-checkable certificates."""

from .cstar_obstruction import (
    build_certificate,
    convolution_annihilation_check,
    disjoint_support_check,
    disjoint_support_pair,
    fixator_filtration_check,
    fixator_witness,
    orbit_truncate,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)
from .dynamics import (
    axis_and_ends,
    classify_isometry,
    fixes_half_tree_pointwise,
    general_type_witness,
    ping_pong_certificate,
)
from .perm_groups import (
    Perm,
    PermGroup,
    check_freeness,
    check_orbit_preservation,
    point_stabilizer,
    wreath_embedding,
)
from .piecewise import (
    FreeProductTree,
    PiecewiseAut,
    RegularTreeModel,
    piecewise_decomposition,
    psl2z_tree,
    pw_half_tree_fixator,
)
from .portraits import GroupClass, TreeAut, random_element
from .tree_core import (
    V0,
    DirectedEdge,
    HalfTree,
    PeriodicEnd,
    geodesic,
    half_tree,
    half_tree_contains,
    neighbor,
)

__all__ = [
    "build_certificate",
    "convolution_annihilation_check",
    "disjoint_support_check",
    "disjoint_support_pair",
    "fixator_filtration_check",
    "fixator_witness",
    "orbit_truncate",
    "parse_certificate",
    "serialize_certificate",
    "verify_certificate",
    "axis_and_ends",
    "classify_isometry",
    "fixes_half_tree_pointwise",
    "general_type_witness",
    "ping_pong_certificate",
    "Perm",
    "PermGroup",
    "check_freeness",
    "check_orbit_preservation",
    "point_stabilizer",
    "wreath_embedding",
    "FreeProductTree",
    "PiecewiseAut",
    "RegularTreeModel",
    "piecewise_decomposition",
    "psl2z_tree",
    "pw_half_tree_fixator",
    "GroupClass",
    "TreeAut",
    "random_element",
    "V0",
    "DirectedEdge",
    "HalfTree",
    "PeriodicEnd",
    "geodesic",
    "half_tree",
    "half_tree_contains",
    "neighbor",
]
