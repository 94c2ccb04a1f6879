"""Homogeneous ideal membership by exact linear algebra, with certificates.

The generator ideal is graded, so a homogeneous degree-D polynomial lies
in it iff it lies in the span of (monomial times generator) products of
degree D.  ``build_basis`` lists those products for one degree as
(generator, multiplier) rows and row-reduces them over the rationals,
reading each product off the generator by exponent shift only while it is
reduced, and keeping its steps (its row of L in A = LU); ``membership``
reduces a target and substitutes back through those steps for an exact
certificate

    target = sum_k coeff_poly[k] * generator[k] + residual

where residual = 0 exactly when the target is a member; it re-multiplies
that certificate (``certificate_residual``) before returning it.  Each
basis numbers the degree-D monomials of its weight blocks once, in
``canonical_order``, and elimination runs on those numbers: reduction
takes lead terms from a heap of negated indices (as in the sparse
elimination of Monagan & Pearce), so no step rescans the vector.  The
rows are sparse, with exact coefficients: integers until a pivot row is
normalized by its leading coefficient, which gives a Fraction only where
the quotient is not integral.  Nothing is ever rounded.

The ideal is also graded by a weight in Z^n (Miller & Sturmfels,
*Combinatorial Commutative Algebra*, ch. 8).  Rescaling x_i to l_i*x_i
conjugates the d-linear map, which gives a[i,j] the weight d*e_j - e_i,
and every generator G[(k, alpha)] is homogeneous of weight d*alpha.  So
every row is weight-homogeneous, a row reduces only against pivots of its
own weight, and each degree slice splits into independent weight blocks.
``build_basis`` lists the monomials of only the blocks it is asked for,
once each, and reads every row off those lists in the row order of the
whole slice, so pivots, residuals and certificates are exactly those of
the full elimination.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heapify, heappop, heappush
from operator import add, ge, sub

from .combinatorics import capped_compositions, content_row, enumerate_compositions
from .fern import FernLabeling, z_fern
from .generators import DLinearSpec
from .identities import generator_set
from .inverse import coefficient_c, inverse_series
from .poly import (
    DomainError, Poly, VerificationError, canonical_order, exact_quotient, sum_of_products,
)


# key is a JKey; multiplier is the exponent tuple of the monomial factor.
BasisRow = namedtuple("BasisRow", "key multiplier")


class HomogeneousBasis:
    """Weight blocks of a degree slice: generator multiples plus echelon data."""

    def __init__(self, spec: DLinearSpec, degree: int, weights: frozenset, monomials: list):
        self.spec, self.degree = spec, degree
        self.weights = weights  # the weight blocks built
        self.monomials = monomials  # the blocks' degree-D monomials, in canonical_order
        self._index = {m: i for i, m in enumerate(monomials)}  # monomial -> its position
        self.rows = []
        self._pivots = {}  # lead -> (index row, row number, lc, steps)


def a_monomials_of_degree(n: int, degree: int) -> list:
    """Exponent tuples of all a-variable monomials with the given degree.

    ``build_basis`` lists weight blocks instead; the tests and the benchmark
    recorder use this whole-slice list.
    """
    shift = 1 + n
    out = []
    for comp in enumerate_compositions(degree, n * n):
        out.append((0,) * shift + comp)
    return out


def a_weight(d: int, n: int, m: tuple) -> tuple:
    """Weight of an a-monomial, a[i,j] weighing d*e_j - e_i."""
    flat = m[1 + n:]
    return tuple(d * sum(flat[j::n]) - sum(flat[j * n:(j + 1) * n]) for j in range(n))


def weight_block_monomials(d: int, n: int, degree: int, weight: tuple) -> list:
    """The a-monomials of one degree and weight, in ``a_monomials_of_degree`` order.

    Their exponent matrices have some column sums c and row sums
    d*c - weight; each c with nonnegative row sums gives the matrices with
    those margins.
    """
    if len(weight) != n:
        raise DomainError(f"a weight has {n} parts")
    if sum(weight) != (d - 1) * degree:
        return []
    flats = []
    for cols in enumerate_compositions(degree, n):
        rows = [d * c - w for c, w in zip(cols, weight)]
        if min(rows) >= 0:
            flats += _margin_matrices(rows, cols)
    flats.sort(reverse=True)
    return [(0,) * (1 + n) + flat for flat in flats]


def _margin_matrices(rows: list, cols: tuple) -> list:
    """Nonnegative matrices with these row and column sums (equal totals),
    flattened row by row, lexicographically decreasing."""
    if not rows:
        return [()]
    out = []
    for first in capped_compositions(rows[0], cols):
        left = tuple(c - f for c, f in zip(cols, first))
        out += [first + rest for rest in _margin_matrices(rows[1:], left)]
    return out


def _weights(spec: DLinearSpec, polys) -> set:
    """The weights of every term of the given polynomials."""
    return {a_weight(spec.d, spec.n, m) for p in polys for m in p.terms}


def build_basis(spec: DLinearSpec, degree: int, weights) -> HomogeneousBasis:
    """Products (monomial of degree D - k*d) x (generator of degree k*d)
    in the given weight blocks of the degree-D slice.

    Rows are read off each block's degree-D monomials.  With e one term of
    a generator g, u*g lies in a block exactly when u + e does, so g's
    multipliers there are m - e for the block monomials m >= e
    (componentwise), in the block's order.  That needs g homogeneous of
    weight d*alpha, so g is checked before any of its rows is read.
    """
    if degree < 0:
        raise DomainError("degree must be nonnegative")
    d, n = spec.d, spec.n
    gens = generator_set(spec)
    weights = frozenset(weights)
    blocks = [weight_block_monomials(d, n, degree, w) for w in sorted(weights)]
    monomials = canonical_order(n, (m for block in blocks for m in block))
    basis = HomogeneousBasis(spec, degree, weights, monomials)
    for key in gens.keys_sorted():
        gen = gens[key]
        if key.k == 0 or key.k * d > degree or gen.is_zero():
            continue
        own = tuple(d * a for a in key.alpha)
        if any(a_weight(d, n, m) != own for m in gen.terms):
            raise VerificationError(f"generator k={key.k} alpha={key.alpha} "
                                    f"is not homogeneous of weight {own}")
        e = next(iter(gen.terms))
        basis.rows += [BasisRow(key, tuple(map(sub, m, e)))
                       for block in blocks for m in block if all(map(ge, m, e))]

    # A monomial times a generator has as many terms as the generator, so
    # rows go shortest product first.  u*g is an exponent shift: it puts each
    # coefficient c of g's term e on u + e and merges no terms.
    order = sorted(range(len(basis.rows)),
                   key=lambda i: (len(gens[basis.rows[i].key].terms), i))
    index = basis._index
    for idx in order:
        key, u = basis.rows[idx]
        residual, steps = _reduce({index[tuple(map(add, u, e))]: c
                                   for e, c in gens[key].terms.items()}, basis._pivots)
        if residual:
            lead = next(iter(residual))  # residual terms come in descending order
            lc = residual[lead]
            vec = {m: exact_quotient(c, lc) for m, c in residual.items()}
            basis._pivots[lead] = (vec, idx, lc, steps)
    return basis


def _reduce(vec: dict, pivots: dict):
    """Split vec as residual + sum(c * pivot row at lead) over the (lead, c) steps.

    vec maps monomial indices of one basis to coefficients; pivot rows are
    normalized to leading coefficient 1.  Lead terms come off a heap of
    negated indices, largest index first; a monomial that cancels stays on
    the heap and is skipped when it surfaces.  Residual terms are emitted in
    descending order.
    """
    steps = []
    residual: dict = {}
    heap = [-m for m in vec]
    heapify(heap)
    while heap:
        lead = -heappop(heap)
        coeff = vec.pop(lead, 0)
        if not coeff:
            continue
        hit = pivots.get(lead)
        if hit is None:
            residual[lead] = coeff
            continue
        steps.append((lead, coeff))
        for m, c in hit[0].items():
            if m == lead:
                continue
            old = vec.get(m, 0)
            s = old - coeff * c
            if s:
                vec[m] = s
                if not old:
                    heappush(heap, -m)
            elif old:
                del vec[m]
    return residual, steps


class MembershipCertificate(namedtuple("MembershipCertificate", "target combination residual")):
    """target = sum of (generator coefficient) products + residual, exactly.

    ``combination`` lists (JKey, Poly) pairs, zero coefficients dropped.
    """

    __slots__ = ()

    @property
    def member(self) -> bool:
        return self.residual.is_zero()


def membership(spec: DLinearSpec, p: Poly,
               basis: HomogeneousBasis | None = None) -> MembershipCertificate:
    """Exact membership decision with a certificate; p must be homogeneous.

    A given basis must hold every weight block of p's terms.  A certificate
    that does not re-multiply to p raises VerificationError.
    """
    n = spec.n
    if p.n != n:
        raise DomainError("polynomial has the wrong ambient dimension")
    if not p.is_homogeneous_in_a():
        raise DomainError("membership needs a homogeneous a-variable polynomial")
    if p.is_zero():
        return MembershipCertificate(p, [], Poly.zero(n))

    degree = p.total_degree()
    weights = _weights(spec, [p])
    if basis is None:
        basis = build_basis(spec, degree, weights)
    elif basis.degree != degree or basis.spec != spec:
        raise DomainError("basis was built for a different degree slice")
    elif not weights <= basis.weights:
        # The missing rows could make p a member: no verdict without them.
        raise DomainError("basis lacks a weight block of the polynomial")

    residual, steps = _reduce({basis._index[m]: c for m, c in p.terms.items()},
                              basis._pivots)

    # A pivot is (its row - sum(c * pivot j over its steps (j, c))) / lc, each j
    # earlier, so one pass from the last pivot back turns pivot weights into row
    # weights.  A row is one (generator, multiplier) pair: nothing to add up.
    weight = dict(steps)  # a reduction meets each lead at most once
    by_key: dict = {}
    for lead in reversed(basis._pivots):
        w = weight.pop(lead, 0)
        if not w:
            continue
        _, idx, lc, trace = basis._pivots[lead]
        q = exact_quotient(w, lc)
        row = basis.rows[idx]
        by_key.setdefault(row.key, {})[row.multiplier] = q
        for j, c in trace:
            weight[j] = weight.get(j, 0) - q * c
    combination = [(key, Poly(n, terms)) for key, terms in sorted(by_key.items())]
    residual = Poly(n, {basis.monomials[i]: c for i, c in residual.items()})
    cert = MembershipCertificate(p, combination, residual)
    if not certificate_residual(spec, cert).is_zero():
        raise VerificationError("the certificate does not re-multiply to the target")
    return cert


def certificate_residual(spec: DLinearSpec, cert: MembershipCertificate) -> Poly:
    """Re-multiply a certificate: target - sum(coeff * generator) - residual."""
    gens = generator_set(spec)
    combined = sum_of_products(spec.n, ((coeff, gens[key]) for key, coeff in cert.combination))
    return cert.target - combined - cert.residual


# -- fern lemma sweep ------------------------------------------------------


# entries holds (u0, u2, nu, certificate) per target; failures the non-members.
FernMembershipReport = namedtuple("FernMembershipReport", "entries failures ok")


def verify_fern_lemmas(d: int) -> FernMembershipReport:
    """Every length-2 fern weight in two variables lies in the ideal.

    One representative labeling per within-row content class suffices,
    since the weight depends on each row only through its content.
    """
    n = 2
    spec = DLinearSpec(d, n)
    targets = []
    for u0 in (1, 2):
        for u2 in (1, 2):
            for m1 in range(d):
                for m2 in range(d):
                    nu = (content_row((m1, d - 1 - m1)), content_row((m2, d - 1 - m2)))
                    targets.append((u0, u2, nu, z_fern(FernLabeling(d, n, 2, u0, u2, nu))))
    basis = build_basis(spec, 2 * d, _weights(spec, (z for *_, z in targets)))
    entries = [(u0, u2, nu, membership(spec, z, basis)) for u0, u2, nu, z in targets]
    failures = [(u0, u2, nu, str(cert.residual))
                for u0, u2, nu, cert in entries if not cert.member]
    return FernMembershipReport(entries, failures, not failures)


# -- inverse coefficient sweep ---------------------------------------------


TheoremEntry = namedtuple("TheoremEntry", "i alpha N exceptional member certificate")
# failures holds the non-members at orders 2d and above.
TheoremReport = namedtuple("TheoremReport", "entries failures ok")


def verify_main_theorem(d: int, N_list) -> TheoremReport:
    """Membership of every inverse-series coefficient at the listed orders.

    Orders below 2d come only from height-one trees and form the expected
    exceptional set: they are reported with their actual status but never
    asserted.  Orders 2d and above must all be members.  An empty list of
    orders would pass vacuously, so it is a DomainError.
    """
    n = 2
    spec = DLinearSpec(d, n)
    N_list = sorted(set(N_list))
    if not N_list:
        raise DomainError("the theorem sweep has no order")
    for N in N_list:
        if N < d or N % d != 0:
            raise DomainError(f"order {N} is not a positive multiple of d")
    series = inverse_series(spec, max(N_list))
    entries = []
    failures = []
    for N in N_list:
        exceptional = N < 2 * d
        leaves = 1 + (d - 1) * N // d
        coeffs = [(i, alpha, coefficient_c(spec, i, alpha, N, series))
                  for i in (1, 2) for alpha in enumerate_compositions(leaves, n)]
        basis = build_basis(spec, N, _weights(spec, (c for *_, c in coeffs)))
        for i, alpha, c in coeffs:
            cert = membership(spec, c, basis)
            entries.append(TheoremEntry(i, alpha, N, exceptional, cert.member, cert))
            if not cert.member and not exceptional:
                failures.append((i, alpha, N, str(cert.residual)))
    return TheoremReport(entries, failures, not failures)
