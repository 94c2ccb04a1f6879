"""The two generalized trace identities and the auxiliary two-ones relation.

Identity 1: for any composition alpha of weight n(d-1) and any pair of
labels u0, un, the sum over k of fern weights against generators,

    sum_{k=0..n} sum_{alpha1} sum_{nu in I(alpha - alpha1, n-k)}
        z(fern of length n-k, (u0, un; nu)) * G[(k, alpha1)]

is the zero polynomial.  Identity 2 fixes the first level row to a chosen
tuple beta, requires u0 != un, and stops the sum at k = n-1; it also
vanishes.  Both are assembled by row content: the inner sum over nu is one
entry of the cached level-sum matrix ``fern.level_sum`` (for identity 2,
the row matrix of beta's content times the level sum of the remaining
rows), so each generator is multiplied once per (k, alpha1), not once per
labeling.  At d = 1 identity 1 is the Cayley-Hamilton theorem written
entrywise, which ``cayley_hamilton_numeric`` spot checks on random
rational matrices.

The two-ones relation expresses one fern weight through three generators
with binomial denominators.  Its printed source leaves one label unbound,
so ``check_relation_2_1s`` takes the candidate label as an input and
returns the exact difference polynomial instead of asserting anything.
``relation_report`` runs it on both labels of every instance that
``relation_instances`` enumerates (or of the instances given) and judges
each difference: zero, or homogeneous of degree 2d.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .combinatorics import composition_sub_or_none, enumerate_compositions
from .fern import _path_sum, level_sum
from .generators import DLinearSpec, JKey, extract_generators
from .poly import (
    DomainError, Poly, VarId, a_monomial, determinant, substitute_numeric, sum_of_products,
)

_GENERATOR_CACHE: dict = {}


def generator_set(spec: DLinearSpec):
    """Extracted generators, cached per (d, n); treat the result as frozen."""
    if spec not in _GENERATOR_CACHE:
        _GENERATOR_CACHE[spec] = extract_generators(spec)
    return _GENERATOR_CACHE[spec]


@dataclass(frozen=True)
class IdentityInstance:
    """One fully pinned-down instance of identity 1 or identity 2."""

    which: str  # "identity1" | "identity2"
    d: int
    n: int
    alpha: tuple
    u0: int
    un: int
    beta: tuple | None = None

    def __post_init__(self):
        if self.which not in ("identity1", "identity2"):
            raise DomainError(f"unknown identity {self.which!r}")
        if sum(self.alpha) != self.n * (self.d - 1) or len(self.alpha) != self.n:
            raise DomainError("alpha must be a composition of n(d-1) into n parts")
        if not (1 <= self.u0 <= self.n and 1 <= self.un <= self.n):
            raise DomainError("u0, un must lie in [1,n]")
        if self.which == "identity2":
            if self.n < 2:
                raise DomainError("identity 2 needs n >= 2")
            if self.u0 == self.un:
                raise DomainError("identity 2 needs u0 != un")
            if self.beta is None or len(self.beta) != self.d - 1:
                raise DomainError("identity 2 needs a (d-1)-tuple beta")
            if any(not 1 <= b <= self.n for b in self.beta):
                raise DomainError("beta labels must lie in [1,n]")
        elif self.beta is not None:
            raise DomainError("identity 1 takes no beta")


def identity1_lhs(inst: IdentityInstance) -> Poly:
    """Assemble the identity-1 sum; a correct build returns the zero poly."""
    if inst.which != "identity1":
        raise DomainError("instance is not identity 1")
    return _assemble(inst, k_max=inst.n, beta=None)


def identity2_lhs(inst: IdentityInstance) -> Poly:
    """Assemble the identity-2 sum (first level pinned to beta, k < n)."""
    if inst.which != "identity2":
        raise DomainError("instance is not identity 2")
    return _assemble(inst, k_max=inst.n - 1, beta=inst.beta)


def _assemble(inst, k_max, beta) -> Poly:
    d, n = inst.d, inst.n
    gens = generator_set(DLinearSpec(d, n))
    pairs = []
    for k in range(k_max + 1):
        for alpha1 in enumerate_compositions(k * (d - 1), n):
            rem = composition_sub_or_none(inst.alpha, alpha1)
            if rem is None:
                continue
            gen = gens[JKey(k, alpha1)]
            if gen:
                z = level_sum(d, n, n - k, rem, inst.u0, inst.un, first_row=beta)
                pairs.append((z, gen))
    return sum_of_products(n, pairs)


def identity1_instances(d: int, n: int):
    """Every admissible (alpha, u0, un) for identity 1, in sweep order."""
    for alpha in enumerate_compositions(n * (d - 1), n):
        for u0 in range(1, n + 1):
            for un in range(1, n + 1):
                yield IdentityInstance("identity1", d, n, alpha, u0, un)


def identity2_instances(d: int, n: int):
    """Every admissible (alpha, beta, u0 != un) for identity 2."""
    if n < 2:
        raise DomainError("identity 2 needs n >= 2")
    betas = list(itertools.product(range(1, n + 1), repeat=d - 1))
    for alpha in enumerate_compositions(n * (d - 1), n):
        for beta in betas:
            for u0 in range(1, n + 1):
                for un in range(1, n + 1):
                    if u0 != un:
                        yield IdentityInstance("identity2", d, n, alpha, u0, un, beta)


# -- the two-ones relation ---------------------------------------------


def _power_monomial(n, i, lead, alpha) -> Poly:
    """a[i,lead] * a[i,1]^alpha(1) * a[i,2]^alpha(2)."""
    return a_monomial(n, [(i, lead)] + [(i, 1)] * alpha[0] + [(i, 2)] * alpha[1])


def check_relation_2_1s(d: int, alpha1: tuple, alpha2: tuple, u: int, v_candidate: int) -> Poly:
    """Difference between a fern weight and its three-generator expression.

    The level labeling has exactly alpha1(1) ones in the first row and
    alpha2(1) ones in the second; rows list ones before twos.  Returns
    LHS - RHS with the free leaf label set to ``v_candidate``; the zero
    polynomial means the relation holds for that choice.
    """
    n = 2
    if sum(alpha1) != d - 1 or sum(alpha2) != d - 1:
        raise DomainError("alpha1 and alpha2 must be compositions of d-1")
    if alpha1[0] < 1:
        raise DomainError("alpha1(1) must be at least 1")
    if u not in (1, 2) or v_candidate not in (1, 2):
        raise DomainError("labels must be 1 or 2")

    gens = generator_set(DLinearSpec(d, n))
    du2 = 1 if u == 2 else 0
    a1p = (alpha1[0] - du2, alpha1[1] + du2)
    a1pp = (alpha1[0] - 1, alpha1[1] + 1)

    row = lambda ones: (1,) * ones + (2,) * (d - 1 - ones)
    nu = (row(alpha1[0]), row(alpha2[0]))
    lhs = _path_sum(d, n, u, v_candidate, nu)

    rhs = (
        _power_monomial(n, 2, u, alpha2)
        * gens[JKey(1, a1pp)] * Fraction(1, comb(d - 1, alpha1[0] - 1))
        - _power_monomial(n, 2, 2, alpha2)
        * gens[JKey(1, a1p)] * Fraction(1, comb(d - 1, alpha1[1] + du2))
        + _power_monomial(n, 1, u, alpha1)
        * gens[JKey(1, alpha2)] * Fraction(1, comb(d - 1, alpha2[0]))
    )
    return lhs - rhs


def relation_instances(d: int):
    """Every admissible (alpha1, alpha2, u) of the two-ones relation."""
    if d < 2:
        raise DomainError("the two-ones relation needs d >= 2")
    for alpha1 in enumerate_compositions(d - 1, 2):
        if alpha1[0] < 1:
            continue
        for alpha2 in enumerate_compositions(d - 1, 2):
            for u in (1, 2):
                yield alpha1, alpha2, u


@dataclass
class RelationEntry:
    alpha1: tuple
    alpha2: tuple
    u: int
    v: int
    difference: Poly
    is_zero: bool
    homogeneous_2d: bool


@dataclass
class RelationReport:
    d: int
    entries: list = field(default_factory=list)

    @property
    def structurally_ok(self) -> bool:
        """Every recorded difference is zero or homogeneous of degree 2d."""
        return all(e.is_zero or e.homogeneous_2d for e in self.entries)

    def zero_vs(self) -> list:
        return sorted({e.v for e in self.entries if e.is_zero})

    def by_instance(self) -> list:
        """(alpha1, alpha2, u) paired with its entries, in sweep order."""
        groups: dict = {}
        for e in self.entries:
            groups.setdefault((e.alpha1, e.alpha2, e.u), []).append(e)
        return list(groups.items())

    @property
    def unsatisfied(self) -> int:
        """Instances that no leaf label makes zero."""
        return sum(not any(e.is_zero for e in group) for _, group in self.by_instance())


def relation_report(d: int, instances=None) -> RelationReport:
    """Both leaf labels on each (alpha1, alpha2, u); every instance by default."""
    if instances is None:
        instances = relation_instances(d)
    report = RelationReport(d)
    for alpha1, alpha2, u in instances:
        for v in (1, 2):
            diff = check_relation_2_1s(d, alpha1, alpha2, u, v)
            homog = diff.is_homogeneous_in_a() and {sum(m) for m in diff.terms} <= {2 * d}
            report.entries.append(
                RelationEntry(alpha1, alpha2, u, v, diff, diff.is_zero(), homog)
            )
    return report


# -- numeric Cayley-Hamilton spot check ----------------------------------


@dataclass
class CHNumericReport:
    n: int
    trials: int
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _principal_minor_sum(A, k: int) -> Fraction:
    return sum((determinant([[A[i][j] for j in rows] for i in rows], Fraction(1))
                for rows in itertools.combinations(range(len(A)), k)), Fraction(0))


def _mat_mul(A, B):
    n = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)]


def cayley_hamilton_numeric(n: int, trials: int, seed: int = 0) -> CHNumericReport:
    """Exact spot check that sum_k (-1)^k e_k(A) A^(n-k) vanishes.

    Also evaluates the assembled degree-1 identity at each sample matrix
    through ``substitute_numeric``, which must give exactly zero.
    """
    from random import Random  # only this spot check draws random numbers

    if n < 1:
        raise DomainError("n must be positive")
    rng = Random(seed)
    report = CHNumericReport(n, trials)

    zero_alpha = (0,) * n
    lhs_by_pair = {
        (u0, un): identity1_lhs(IdentityInstance("identity1", 1, n, zero_alpha, u0, un))
        for u0 in range(1, n + 1)
        for un in range(1, n + 1)
    }

    for trial in range(trials):
        A = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
             for _ in range(n)]
        assignment = {
            VarId("a", i + 1, j + 1): A[i][j] for i in range(n) for j in range(n)
        }

        powers = [[[Fraction(i == j) for j in range(n)] for i in range(n)]]
        for _ in range(n):
            powers.append(_mat_mul(powers[-1], A))
        residual = [[Fraction(0)] * n for _ in range(n)]
        for k in range(n + 1):
            ek = _principal_minor_sum(A, k)
            Ank = powers[n - k]
            for i in range(n):
                for j in range(n):
                    residual[i][j] += (-1) ** k * ek * Ank[i][j]
        if any(residual[i][j] != 0 for i in range(n) for j in range(n)):
            report.failures.append((trial, "matrix residual", A, residual))
            continue

        for pair, lhs in lhs_by_pair.items():
            value = substitute_numeric(lhs, assignment)
            if value != 0:
                report.failures.append((trial, f"identity residual at {pair}", A, value))
    return report
