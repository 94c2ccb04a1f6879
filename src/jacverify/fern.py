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
(the transfer-matrix method, Stanley EC1 section 4.7), built by
``_row_matrix``.  ``identities`` assembles both identities from these
matrices by Horner's rule.
``_path_sum`` enumerates the label paths of one labeling directly and
counts each path's exponents; it is the independent oracle that assembly
is tested against.  Both take their monomials from
``combinatorics.level_exponents``.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cache

from .combinatorics import content_row, label_paths, level_exponents
from .poly import DomainError, Poly


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
    return Poly(n, Counter(level_exponents(n, (lam, lam[1:], nu))
                           for lam in label_paths(n, u0, uk, len(nu))))


@cache
def _row_matrix(n: int, c: tuple) -> tuple:
    """M(c)[r,s] = a[r,s] * prod_l a[r,l]^c_l: one level whose row has content c."""
    rows = (content_row(c),)
    return tuple(tuple(Poly(n, {level_exponents(n, ((r,), (s,), rows)): 1})
                       for s in range(1, n + 1)) for r in range(1, n + 1))
