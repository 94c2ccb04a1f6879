"""Exact verification toolkit for the trace identities of d-linear maps.

Everything is computed in exact rational arithmetic: sparse polynomials
with int coefficients (a Fraction only where a value is not integral),
explicit combinatorial enumerations, checked sign-reversing pairings and
linear-algebra membership certificates.

The names below are exported lazily (PEP 562): ``jacverify.<name>`` imports
the name's home module on first use, so importing the package, or running
one CLI command, loads only the modules that are used.  Each export is the
object its module defined when it loaded, as with an eager import.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

_HOMES = {
    "combinatorics": ("LastRep", "SubsetPermutation", "composition_sub",
                      "enumerate_compositions", "enumerate_level_labelings",
                      "enumerate_subset_permutations", "last_rep_indices"),
    "fern": ("FernLabeling", "z_fern", "z_fern_is_homogeneous"),
    "generators": ("DLinearSpec", "GeneratorSet", "JKey", "cross_check_generators",
                   "differential_matrix", "extract_generators", "generator_direct",
                   "weight_w"),
    "identities": ("IdentityInstance", "cayley_hamilton_numeric", "check_relation_2_1s",
                   "generator_set", "identity1_instances", "identity1_lhs",
                   "identity2_instances", "identity2_lhs", "relation_instances",
                   "relation_report"),
    "inverse": ("TruncatedSeries", "coefficient_c", "degree_law_holds", "inverse_series",
                "tree_oracle_coefficient", "verify_inverse"),
    "involution": ("TupleState", "classify", "enumerate_states", "state_weight", "tau",
                   "tau_inverse", "verify_involution"),
    "membership": ("HomogeneousBasis", "MembershipCertificate", "build_basis", "membership",
                   "verify_fern_lemmas", "verify_main_theorem"),
    "poly": ("DomainError", "Poly", "PolyMatrix", "StructuralError", "VarId",
             "VerificationError", "coefficient_of", "determinant", "format_poly",
             "parse_poly", "poly_determinant", "split_xt", "substitute_numeric"),
}
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names}
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import_module(f".{_EXPORTS[name]}", __name__)  # loading binds the module's exports
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


class _Package(ModuleType):
    def __setattr__(self, name, value):
        # The import system sets jacverify.<module> once that submodule has loaded:
        # bind its exports then, so a later patch of a module attribute leaves the
        # export as the module defined it.  An export keeps its name, so
        # jacverify.membership stays the function, not the submodule.
        if name in _HOMES and isinstance(value, ModuleType):
            globals().update((export, getattr(value, export)) for export in _HOMES[name])
        if name not in _EXPORTS:
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
