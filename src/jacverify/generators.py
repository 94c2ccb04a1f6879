"""Ideal generators of a d-linear map, two independent ways.

A d-linear map sends x_i to x_i - (t * sum_j a[i,j] x_j)^d.  The
determinant of its differential expands as

    sum_k  d^k t^(dk)  sum_{alpha} G[(k, alpha)] x^alpha

with alpha running over compositions of k(d-1) into n parts.  The
coefficients G[(k, alpha)] generate the ideal of interest; they are keyed
by (k, alpha) rather than alpha alone because for d = 1 every k shares the
empty composition and only the t-grading separates them.

``extract_generators`` reads them off the expanded determinant;
``generator_direct`` builds each one from the closed subset-permutation
formula.  ``cross_check_generators`` confirms the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .combinatorics import (
    SubsetPermutation,
    enumerate_compositions,
    enumerate_level_labelings,
    enumerate_subset_permutations,
)
from .poly import (
    DomainError, Poly, PolyMatrix, VerificationError, a_, a_monomial, poly_determinant, t_, x_,
)


@dataclass(frozen=True)
class DLinearSpec:
    """Degree d and dimension n of a d-linear map."""

    d: int
    n: int

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise DomainError("d and n must be positive")


@dataclass(frozen=True, order=True)
class JKey:
    """Generator key: row count k plus a composition of weight k(d-1)."""

    k: int
    alpha: tuple


@dataclass
class GeneratorSet:
    """All generators of one map, including explicit zeros.

    The entry at k = 0 is the constant 1; every k >= 1 entry is an
    a-variable polynomial, homogeneous of degree k*d (or zero).
    """

    spec: DLinearSpec
    entries: dict = field(default_factory=dict)

    def keys_sorted(self) -> list:
        return sorted(self.entries)

    def __getitem__(self, key: JKey) -> Poly:
        return self.entries[key]


def linear_form(spec: DLinearSpec, i: int) -> Poly:
    """sum_j a[i,j] x_j for row i."""
    n = spec.n
    out = Poly.zero(n)
    for j in range(1, n + 1):
        out = out + a_(n, i, j) * x_(n, j)
    return out


def map_components(spec: DLinearSpec) -> list:
    """The polynomials x_i - (t * sum_j a[i,j] x_j)^d, i = 1..n."""
    n = spec.n
    t = t_(n)
    return [x_(n, i) - (t * linear_form(spec, i)) ** spec.d for i in range(1, n + 1)]


def differential_matrix(spec: DLinearSpec) -> PolyMatrix:
    """Matrix of partial derivatives d f_i / d x_j, written directly."""
    d, n = spec.d, spec.n
    t = t_(n)
    entries = []
    for i in range(1, n + 1):
        row_form = (t * linear_form(spec, i)) ** (d - 1)
        row = []
        for j in range(1, n + 1):
            e = -d * t * a_(n, i, j) * row_form
            if i == j:
                e = e + 1
            row.append(e)
        entries.append(row)
    return PolyMatrix(n, entries)


def all_keys(spec: DLinearSpec) -> list:
    keys = []
    for k in range(spec.n + 1):
        for alpha in enumerate_compositions(k * (spec.d - 1), spec.n):
            keys.append(JKey(k, alpha))
    return keys


def extract_generators(spec: DLinearSpec) -> GeneratorSet:
    """Expand det(differential) and match off the d^k t^(dk) x^alpha terms."""
    d, n = spec.d, spec.n
    det = poly_determinant(differential_matrix(spec))
    buckets: dict = {}
    for m, c in det.terms.items():
        t_deg = m[0]
        alpha = m[1: 1 + n]
        if t_deg % d != 0:
            raise VerificationError(f"stray t-degree {t_deg} in determinant")
        k = t_deg // d
        if sum(alpha) != k * (d - 1) or k > n:
            raise VerificationError(f"monomial {m} violates the t,x pattern")
        key = JKey(k, alpha)
        a_mono = (0,) * (1 + n) + m[1 + n:]
        buckets.setdefault(key, {})[a_mono] = c / Fraction(d) ** k
    entries = {}
    for key in all_keys(spec):
        entries[key] = Poly(n, buckets.pop(key, {}))
    if buckets:
        raise VerificationError(f"unexpected generator keys {sorted(buckets)}")
    return GeneratorSet(spec, entries)


def weight_w(spec: DLinearSpec, ssig: SubsetPermutation, nu) -> Poly:
    """Signed monomial (-1)^cycles * prod_i a[S(i),sigma(S(i))] * row factors."""
    d, n = spec.d, spec.n
    k = len(ssig.S)
    if len(nu) != k:
        raise DomainError(f"labeling has {len(nu)} levels, S has order {k}")
    if any(len(row) != d - 1 for row in nu):
        raise DomainError("every level must have width d-1")
    entries = []
    for s, image, row in zip(ssig.S, ssig.sigma, nu):
        entries.append((s, image))
        entries.extend((s, lab) for lab in row)
    return a_monomial(n, entries, (-1) ** ssig.cycle_count)


def generator_direct(spec: DLinearSpec, key: JKey) -> Poly:
    """Closed-form generator: sum over (S, sigma) pairs and level labelings."""
    d, n = spec.d, spec.n
    if sum(key.alpha) != key.k * (d - 1):
        raise DomainError("alpha weight must equal k(d-1)")
    total = Poly.zero(n)
    labelings = enumerate_level_labelings(key.alpha, key.k, d)
    for ssig in enumerate_subset_permutations(n, key.k):
        for nu in labelings:
            total = total + weight_w(spec, ssig, nu)
    return total


@dataclass
class CrossCheckReport:
    spec: DLinearSpec
    checked: int
    mismatches: list

    @property
    def ok(self) -> bool:
        return not self.mismatches


def cross_check_generators(spec: DLinearSpec) -> CrossCheckReport:
    """Assert determinant extraction equals the closed formula on every key."""
    gens = extract_generators(spec)
    mismatches = []
    for key in gens.keys_sorted():
        direct = generator_direct(spec, key)
        if direct != gens[key]:
            mismatches.append((key, gens[key], direct))
    return CrossCheckReport(spec, len(gens.entries), mismatches)
