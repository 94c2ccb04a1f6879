"""Exact verification toolkit for the trace identities of d-linear maps.

Everything is computed in exact rational arithmetic: sparse polynomials
with int coefficients (a Fraction only where a value is not integral),
explicit combinatorial enumerations, checked sign-reversing pairings and
linear-algebra membership certificates.
"""

from .combinatorics import (
    LastRep,
    SubsetPermutation,
    composition_sub,
    enumerate_compositions,
    enumerate_level_labelings,
    enumerate_subset_permutations,
    last_rep_indices,
)
from .fern import FernLabeling, z_fern, z_fern_is_homogeneous
from .generators import (
    DLinearSpec,
    GeneratorSet,
    JKey,
    cross_check_generators,
    differential_matrix,
    extract_generators,
    generator_direct,
    weight_w,
)
from .identities import (
    IdentityInstance,
    cayley_hamilton_numeric,
    check_relation_2_1s,
    generator_set,
    identity1_lhs,
    identity2_lhs,
    relation_instances,
    relation_report,
)
from .inverse import (
    TruncatedSeries,
    coefficient_c,
    degree_law_holds,
    inverse_series,
    tree_oracle_coefficient,
    verify_inverse,
)
from .involution import (
    TupleState,
    classify,
    enumerate_states,
    state_weight,
    tau,
    tau_inverse,
    verify_involution,
)
from .membership import (
    HomogeneousBasis,
    MembershipCertificate,
    build_basis,
    membership,
    verify_fern_lemmas,
    verify_main_theorem,
)
from .poly import (
    DomainError,
    Poly,
    PolyMatrix,
    StructuralError,
    VarId,
    VerificationError,
    coefficient_of,
    determinant,
    format_poly,
    parse_poly,
    poly_determinant,
    split_xt,
    substitute_numeric,
)

__version__ = "0.1.0"
