"""Fern weight elements.

A fern of length k is a path v_0, ..., v_k in which every path vertex
v_0, ..., v_{k-1} carries d-1 extra leaf children.  Given a root label u0,
a leftmost-leaf label uk and a level labeling nu assigning labels to the
extra leaves, the fern weight sums, over all labelings of the interior
path vertices, the product of one a[parent, child] factor per edge:

    z = sum over lam(1..k-1) in [1,n]  of
        prod_{i=1..k} ( a[lam(i-1), lam(i)] * prod_j a[lam(i-1), nu(i,j)] )

with lam(0) = u0 and lam(k) = uk fixed.  The empty path (k = 0) carries
weight 1 when u0 = uk and 0 otherwise; that convention is what makes the
degree-1 specialization reduce to powers of the symbolic matrix.

The weight sees each level row only through its content c (how often each
label occurs), so z is the (u0, uk) entry of the product of row-content
transfer matrices M(c)[r,s] = a[r,s] * prod_l a[r,l]^c_l, one per level
(the transfer-matrix method, Stanley EC1 section 4.7).  ``level_sum`` sums
z over every m-level labeling of a given content from those matrices:

    S(0, 0) = I,
    S(m, rem) = sum_{c <= rem} multinom(c) * M(c) * S(m-1, rem-c)

with c running over compositions of d-1 into n parts (rem has weight
m(d-1), so it is 0 whenever m is).  Each entry of S is one
``poly.sum_of_products`` over every (c, t) pair, with the multinomial
folded into M's monomials.  M and S are cached per process.
``_path_sum`` enumerates interior paths of one labeling directly; it is
the independent oracle the level sums are tested against.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cache

from .combinatorics import (
    composition_sub_or_none,
    count_level_labelings,
    enumerate_compositions,
    labeling_content,
    level_entries,
)
from .poly import DomainError, Poly, a_monomial, poly_sum, sum_of_products


class FernLabeling(namedtuple("FernLabeling", "d n k u0 uk nu")):
    """Root/leaf labels and level labeling of one fern."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.d < 1 or self.n < 1 or self.k < 0:
            raise DomainError("need d, n >= 1 and k >= 0")
        if not (1 <= self.u0 <= self.n and 1 <= self.uk <= self.n):
            raise DomainError("root and leaf labels must lie in [1,n]")
        if len(self.nu) != self.k:
            raise DomainError(f"labeling has {len(self.nu)} rows, expected {self.k}")
        for row in self.nu:
            if len(row) != self.d - 1:
                raise DomainError("every level must have width d-1")
            if any(not 1 <= e <= self.n for e in row):
                raise DomainError("labels must lie in [1,n]")
        return self


def z_fern(fl: FernLabeling) -> Poly:
    """The fern weight element as a polynomial in the a-variables."""
    return _path_sum(fl.d, fl.n, fl.u0, fl.uk, fl.nu)


def _path_sum(d: int, n: int, u0: int, uk: int, nu) -> Poly:
    k = len(nu)
    if k == 0:
        return Poly.one(n) if u0 == uk else Poly.zero(n)

    def weight(interior):
        lam = (u0,) + interior + (uk,)
        return a_monomial(n, level_entries(lam, lam[1:], nu))

    return poly_sum(n, map(weight, itertools.product(range(1, n + 1), repeat=k - 1)))


def level_sum(d: int, n: int, m: int, rem: tuple, u0: int, uk: int,
              first_row: tuple | None = None) -> Poly:
    """Sum of z(u0, uk; nu) over every m-level labeling nu with content rem.

    With ``first_row`` only the labelings whose first row is exactly that
    tuple count; they share its content, so the sum is M(content) times
    S(m-1, rem - content), and it is zero when m = 0.
    """
    if d < 1 or n < 1 or m < 0:
        raise DomainError("need d, n >= 1 and m >= 0")
    if len(rem) != n or any(p < 0 for p in rem) or sum(rem) != m * (d - 1):
        raise DomainError(f"content {rem} is not a composition of m(d-1) = "
                          f"{m * (d - 1)} into {n} parts")
    if not (1 <= u0 <= n and 1 <= uk <= n):
        raise DomainError("root and leaf labels must lie in [1,n]")
    if first_row is None:
        return _level_sums(d, n, m, tuple(rem))[u0 - 1][uk - 1]
    if len(first_row) != d - 1 or any(not 1 <= e <= n for e in first_row):
        raise DomainError("the first row must be a (d-1)-tuple of labels in [1,n]")
    c = labeling_content((first_row,), n)
    rest = composition_sub_or_none(rem, c)
    if m == 0 or rest is None:
        return Poly.zero(n)
    row = _row_matrix(n, c)[u0 - 1]
    tail = _level_sums(d, n, m - 1, rest)
    return sum_of_products(n, zip(row, (tail_t[uk - 1] for tail_t in tail)))


@cache
def _row_matrix(n: int, c: tuple) -> tuple:
    """M(c)[r,s] = a[r,s] * prod_l a[r,l]^c_l: one level whose row has content c."""
    rows = []
    for r in range(1, n + 1):
        leaves = [(r, lab) for lab, e in enumerate(c, start=1) for _ in range(e)]
        rows.append(tuple(a_monomial(n, leaves + [(r, s)]) for s in range(1, n + 1)))
    return tuple(rows)


@cache
def _level_sums(d: int, n: int, m: int, rem: tuple) -> tuple:
    """The matrix S(m, rem); rem must be a composition of m(d-1)."""
    if m == 0:
        return tuple(tuple(Poly.one(n) if r == s else Poly.zero(n) for s in range(n))
                     for r in range(n))
    parts = []  # (multinom(c) * M(c), S(m-1, rem-c)) per admissible c
    for c in enumerate_compositions(d - 1, n):
        rest = composition_sub_or_none(rem, c)
        if rest is not None:
            weight = count_level_labelings(c, 1, d)
            scaled = [[weight * x for x in row] for row in _row_matrix(n, c)]
            parts.append((scaled, _level_sums(d, n, m - 1, rest)))
    return tuple(tuple(sum_of_products(n, ((M[r][t], tail[t][s])
                                           for M, tail in parts for t in range(n)))
                       for s in range(n))
                 for r in range(n))


def z_fern_is_homogeneous(fl: FernLabeling) -> bool:
    """True iff the fern weight is zero or homogeneous of a-degree k*d."""
    z = z_fern(fl)
    if z.is_zero():
        return True
    degs = {sum(m) for m in z.terms}
    return degs == {fl.k * fl.d} and z.is_homogeneous_in_a()
