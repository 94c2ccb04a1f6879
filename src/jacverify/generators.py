"""Ideal generators of a d-linear map, two independent ways.

A d-linear map sends x_i to x_i - (t * sum_j a[i,j] x_j)^d.  The
determinant of its differential expands as

    sum_k  d^k t^(dk)  sum_{alpha} G[(k, alpha)] x^alpha

with alpha running over compositions of k(d-1) into n parts.  The
coefficients G[(k, alpha)] generate the ideal of interest; they are keyed
by (k, alpha) rather than alpha alone because for d = 1 every k shares the
empty composition and only the t-grading separates them.

``differential_matrix`` writes the differential as plain rows, and
``extract_generators`` reads the generators off its determinant, expanded
one (t, x) head at a time by ``poly.determinant_by_head``, and keeps each as
the packed part that expansion left until it is first read as a Poly;
``generator_direct`` builds each one from the closed subset-permutation
formula.  ``cross_check_generators`` confirms the two agree.
"""

from __future__ import annotations

from collections import namedtuple

from .combinatorics import (
    SubsetPermutation,
    enumerate_compositions,
    enumerate_level_labelings,
    enumerate_subset_permutations,
    level_exponents,
)
from .poly import (
    DomainError, PackedPart, Poly, VerificationError, a_, determinant_by_head,
    poly_sum, sum_of_products, t_, x_,
)


class DLinearSpec(namedtuple("DLinearSpec", "d n")):
    """Degree d and dimension n of a d-linear map."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.d < 1 or self.n < 1:
            raise DomainError("d and n must be positive")
        return self


class JKey(namedtuple("JKey", "k alpha")):
    """Generator key: row count k plus a composition of weight k(d-1)."""

    __slots__ = ()


class GeneratorSet:
    """All generators of one map, including explicit zeros.

    The entry at k = 0 is the constant 1; every k >= 1 entry is an
    a-variable polynomial, homogeneous of degree k*d (or zero).  ``entries``
    may hold a generator as the ``PackedPart`` that extraction left, which
    ``format_poly`` prints as it stands; ``gens[key]`` builds its Poly on the
    first read and keeps that in place of the part.
    """

    def __init__(self, spec: DLinearSpec, entries: dict):
        self.spec, self.entries = spec, entries

    def keys_sorted(self) -> list:
        return sorted(self.entries)

    def __getitem__(self, key: JKey) -> Poly:
        p = self.entries[key]
        if isinstance(p, PackedPart):
            p = self.entries[key] = p.poly()
        return p


def linear_form(spec: DLinearSpec, i: int) -> Poly:
    """sum_j a[i,j] x_j for row i."""
    n = spec.n
    return sum_of_products(n, ((a_(n, i, j), x_(n, j)) for j in range(1, n + 1)))


def map_components(spec: DLinearSpec) -> list:
    """The polynomials x_i - (t * sum_j a[i,j] x_j)^d, i = 1..n."""
    n = spec.n
    t = t_(n)
    return [x_(n, i) - (t * linear_form(spec, i)) ** spec.d for i in range(1, n + 1)]


def differential_matrix(spec: DLinearSpec) -> list:
    """Rows of partial derivatives d f_i / d x_j, written directly."""
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
    return entries


def all_keys(spec: DLinearSpec) -> list:
    keys = []
    for k in range(spec.n + 1):
        for alpha in enumerate_compositions(k * (spec.d - 1), spec.n):
            keys.append(JKey(k, alpha))
    return keys


def extract_generators(spec: DLinearSpec) -> GeneratorSet:
    """Expand det(differential) and match off the d^k t^(dk) x^alpha terms.

    Every coefficient of the t^(dk) x^alpha terms must be a multiple of
    d^k; one that is not raises VerificationError.  Each head is summed and
    divided by itself (``poly.determinant_by_head``), so every check has run
    when this returns; each nonzero generator's entry is the
    ``PackedPart`` of its head.
    """
    d, n = spec.d, spec.n

    def scale(head):
        t_deg, alpha = head[0], head[1:]
        if t_deg % d != 0:
            raise VerificationError(f"stray t-degree {t_deg} in determinant")
        k = t_deg // d
        if sum(alpha) != k * (d - 1) or k > n:
            raise VerificationError(f"head t^{t_deg} x^{alpha} violates the t,x pattern")
        return d ** k

    entries = {key: Poly.zero(n) for key in all_keys(spec)}
    for head, part in determinant_by_head(differential_matrix(spec), n, scale).items():
        entries[JKey(head[0] // d, head[1:])] = part
    return GeneratorSet(spec, entries)


def weight_w(spec: DLinearSpec, ssig: SubsetPermutation, nu) -> Poly:
    """Signed monomial (-1)^cycles * prod_i a[S(i),sigma(S(i))] * row factors."""
    d, n = spec.d, spec.n
    k = len(ssig.S)
    if len(nu) != k:
        raise DomainError(f"labeling has {len(nu)} levels, S has order {k}")
    if any(len(row) != d - 1 for row in nu):
        raise DomainError("every level must have width d-1")
    return Poly(n, {level_exponents(n, (ssig.S, ssig.sigma, nu)): (-1) ** ssig.cycle_count})


def generator_direct(spec: DLinearSpec, key: JKey) -> Poly:
    """Closed-form generator: sum over (S, sigma) pairs and level labelings."""
    d, n = spec.d, spec.n
    if sum(key.alpha) != key.k * (d - 1):
        raise DomainError("alpha weight must equal k(d-1)")
    labelings = enumerate_level_labelings(key.alpha, key.k, d)
    return poly_sum(n, (weight_w(spec, ssig, nu)
                        for ssig in enumerate_subset_permutations(n, key.k)
                        for nu in labelings))


# The keys whose two generators differ, each as (key, extracted, direct).
CrossCheckReport = namedtuple("CrossCheckReport", "mismatches ok")


def cross_check_generators(spec: DLinearSpec) -> CrossCheckReport:
    """Assert determinant extraction equals the closed formula on every key."""
    gens = extract_generators(spec)
    mismatches = []
    for key in gens.keys_sorted():
        direct = generator_direct(spec, key)
        if direct != gens[key]:
            mismatches.append((key, gens[key], direct))
    return CrossCheckReport(mismatches, not mismatches)
