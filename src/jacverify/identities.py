"""The two generalized trace identities and the auxiliary two-ones relation.

Identity 1: for any composition alpha of weight n(d-1) and any pair of
labels u0, un, the sum over k of fern weights against generators,

    sum_{k=0..n} sum_{alpha1} sum_{nu in I(alpha - alpha1, n-k)}
        z(fern of length n-k, (u0, un; nu)) * G[(k, alpha1)]

is the zero polynomial.  Identity 2 fixes the first level row to a chosen
tuple beta, requires u0 != un, and stops the sum at k = n-1; it also
vanishes.

Both are assembled by Horner's rule.  The sum over nu is an entry of the
level sum S(n-k, alpha - alpha1), where S(m, rem) sums the product of
``fern``'s row-content matrices M(c) over every m-level labeling of
content rem.  So S(0, 0) = I and S(m, rem) = sum_c multinom(c) * M(c) *
S(m-1, rem-c), c running over compositions of d-1 into n parts, since
multinom(c) rows of width d-1 have content c.  Split the partial sums

    T(m, gamma) = sum_{k<=m} sum_{alpha1} S(m-k, gamma-alpha1) * G[(k, alpha1)]

into the k = m term, G[(m, gamma)] * I, and the rest; expanding each
S(m-k, .) there by its first level and distributing gives

    T(m, gamma) = sum_c multinom(c) * M(c) * T(m-1, gamma-c) + G[(m, gamma)] * I,

T(0, 0) = I.  Identity 1 is the (u0, un) entry of T(n, alpha).  Identity
2 pins the first row to beta (one labeling of content c = content(beta))
and has no k = n term, so it is that entry of M(c) * T(n-1, alpha-c).
``_partial_sum`` builds an entry of either kind as one ``sum_of_products``
of monomials (entries of M) against cached entries of T(m-1, .), so no
power of M is formed and no length-n matrix is held; ``_partial_sums``
caches T per generator set, so another or a patched set never meets
stale partial sums.  With M(x) = diag(L_i(x)^(d-1)) * A the level sums are
the x-coefficients of M(x)^m and G_k(x) = (-1)^k e_k(M(x)), so T is the
Horner evaluation of sum_k M(x)^(n-k) * G_k(x), which the Cayley-Hamilton
theorem makes zero at m = n.  At d = 1, M(x) = A and identity 1 is that
theorem written entrywise, which ``cayley_hamilton_numeric`` spot checks
on random rational matrices.

The two-ones relation expresses one fern weight through three generators
with binomial denominators.  Its printed source leaves one label unbound,
so ``check_relation_2_1s`` takes the candidate label as an input and
returns the exact difference polynomial instead of asserting anything.
``relation_report`` judges the difference at both labels of every instance
that ``relation_instances`` enumerates (or of those given) as zero, or
homogeneous of degree 2d, and files the two labels under their instance.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import comb
from operator import mul

from .combinatorics import (
    check_instance, check_labels, check_parts, composition_sub_or_none, content_row,
    count_level_labelings, enumerate_compositions, labeling_content, level_exponents,
)
from .fern import _path_sum, _row_matrix
from .generators import DLinearSpec, JKey, extract_generators
from .poly import (
    DomainError, Poly, VarId, determinant, substitute_numeric, sum_of_products,
)


@cache
def generator_set(spec: DLinearSpec):
    """Extracted generators, cached per (d, n); treat the result as frozen."""
    return extract_generators(spec)


class IdentityInstance(namedtuple("IdentityInstance", "which d n alpha u0 un beta",
                                  defaults=(None,))):
    """One fully pinned-down instance of identity 1 or identity 2.

    ``which`` is "identity1" or "identity2"; only identity 2 takes a beta.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.which not in ("identity1", "identity2"):
            raise DomainError(f"unknown identity {self.which!r}")
        if self.which == "identity2" and self.beta is None:
            raise DomainError("identity 2 needs a beta")
        if self.which == "identity1" and self.beta is not None:
            raise DomainError("identity 1 takes no beta")
        check_instance(self.d, self.n, self.alpha, self.u0, self.un, self.beta)
        return self


def identity1_lhs(inst: IdentityInstance) -> Poly:
    """Assemble the identity-1 sum; a correct build returns the zero poly."""
    if inst.which != "identity1":
        raise DomainError("instance is not identity 1")
    gens = generator_set(DLinearSpec(inst.d, inst.n))
    return _partial_sum(gens, inst.n, tuple(inst.alpha), inst.u0, inst.un)


def identity2_lhs(inst: IdentityInstance) -> Poly:
    """Assemble the identity-2 sum (first level pinned to beta, k < n)."""
    if inst.which != "identity2":
        raise DomainError("instance is not identity 2")
    gens = generator_set(DLinearSpec(inst.d, inst.n))
    return _partial_sum(gens, inst.n, tuple(inst.alpha), inst.u0, inst.un, inst.beta)


@cache
def _levels(d: int, n: int) -> tuple:
    """(c, multinom(c) * M(c)) for every content c of one level row."""
    return tuple((c, tuple(tuple(count_level_labelings(c, 1, d) * x for x in row)
                           for row in _row_matrix(n, c)))
                 for c in enumerate_compositions(d - 1, n))


def _partial_sum(gens, m: int, gamma: tuple, u: int, v: int, beta=None) -> Poly:
    """Entry (u, v) of T(m, gamma), or with ``beta`` of M(c) * T(m-1, gamma - c)
    for c = content(beta), which is zero at m = 0."""
    d, n = gens.spec
    if beta is None:
        levels = _levels(d, n) if m else ()
        pairs = [(gens[JKey(m, gamma)], Poly.one(n))] if u == v else []
    else:
        c = labeling_content((beta,), n)
        levels = ((c, _row_matrix(n, c)),) if m else ()
        pairs = []
    for c, M in levels:
        rest = composition_sub_or_none(gamma, c)
        if rest is not None:
            tail = _partial_sums(gens, m - 1, rest)
            pairs.extend(zip(M[u - 1], (row[v - 1] for row in tail)))
    return sum_of_products(n, pairs)


@cache
def _partial_sums(gens, m: int, gamma: tuple) -> tuple:
    """The matrix T(m, gamma) of the generator set ``gens``, cached per set."""
    n = gens.spec.n
    return tuple(tuple(_partial_sum(gens, m, gamma, u, v) for v in range(1, n + 1))
                 for u in range(1, n + 1))


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
    return Poly(n, {level_exponents(n, ((i,), (lead,), (content_row(alpha),))): 1})


def check_relation_2_1s(d: int, alpha1: tuple, alpha2: tuple, u: int, v_candidate: int) -> Poly:
    """Difference between a fern weight and its three-generator expression.

    The level labeling has exactly alpha1(1) ones in the first row and
    alpha2(1) ones in the second; rows list ones before twos.  Returns
    LHS - RHS with the free leaf label set to ``v_candidate``; the zero
    polynomial means the relation holds for that choice.
    """
    n = 2
    check_parts("alpha1", alpha1, n, d - 1)
    check_parts("alpha2", alpha2, n, d - 1)
    if alpha1[0] < 1:
        raise DomainError("alpha1(1) must be at least 1")
    check_labels(n, u=u, v=v_candidate)

    gens = generator_set(DLinearSpec(d, n))
    du2 = 1 if u == 2 else 0
    a1p = (alpha1[0] - du2, alpha1[1] + du2)
    a1pp = (alpha1[0] - 1, alpha1[1] + 1)

    nu = (content_row(alpha1), content_row(alpha2))
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


# One leaf label v of an instance: the difference LHS - RHS and how it was judged.
RelationEntry = namedtuple("RelationEntry", "v difference is_zero homogeneous_2d")
# instances pairs each (alpha1, alpha2, u) with its entries at v = 1, 2, in sweep
# order; unsatisfied counts the instances that no leaf label makes zero.
RelationReport = namedtuple("RelationReport", "instances unsatisfied")


def relation_report(d: int, instances=None) -> RelationReport:
    """Both leaf labels on each (alpha1, alpha2, u); every instance by default.

    A sweep over no instance would hold vacuously, so it is a DomainError.
    """
    instances = list(relation_instances(d) if instances is None else instances)
    if not instances:
        raise DomainError("the relation sweep has no instance")
    groups = []
    unsatisfied = 0
    for alpha1, alpha2, u in instances:
        entries = []
        for v in (1, 2):
            diff = check_relation_2_1s(d, alpha1, alpha2, u, v)
            homog = diff.is_homogeneous_in_a() and {sum(m) for m in diff.terms} <= {2 * d}
            entries.append(RelationEntry(v, diff, diff.is_zero(), homog))
        groups.append(((alpha1, alpha2, u), entries))
        unsatisfied += not any(e.is_zero for e in entries)
    return RelationReport(groups, unsatisfied)


# -- numeric Cayley-Hamilton spot check ----------------------------------


# Each failure is (trial, what failed, the sample matrix, the nonzero residual).
CHNumericReport = namedtuple("CHNumericReport", "failures ok")


def _principal_minor_sum(A, k: int) -> Fraction:
    dot = lambda pairs: sum(itertools.starmap(mul, pairs))
    return sum((determinant([[A[i][j] for j in rows] for i in rows], Fraction(1), dot)
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
    if trials < 1:  # a check over no matrix proves nothing
        raise DomainError("trials must be positive")
    rng = Random(seed)
    failures = []

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
            failures.append((trial, "matrix residual", A, residual))
            continue

        for pair, lhs in lhs_by_pair.items():
            value = substitute_numeric(lhs, assignment)
            if value != 0:
                failures.append((trial, f"identity residual at {pair}", A, value))
    return CHNumericReport(failures, not failures)
