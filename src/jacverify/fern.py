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
m(d-1), so it is 0 whenever m is).  M and S are cached per process.
``_path_sum`` enumerates interior paths of one labeling directly; it is
the independent oracle the level sums are tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .combinatorics import (
    composition_sub_or_none,
    count_level_labelings,
    enumerate_compositions,
    labeling_content,
)
from .poly import DomainError, Poly, a_monomial

_ROW_MATRIX_CACHE: dict = {}
_LEVEL_SUM_CACHE: dict = {}


@dataclass(frozen=True)
class FernLabeling:
    """Root/leaf labels and level labeling of one fern."""

    d: int
    n: int
    k: int
    u0: int
    uk: int
    nu: tuple

    def __post_init__(self):
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


def z_fern(fl: FernLabeling) -> Poly:
    """The fern weight element as a polynomial in the a-variables."""
    return _path_sum(fl.d, fl.n, fl.u0, fl.uk, fl.nu)


def _path_sum(d: int, n: int, u0: int, uk: int, nu) -> Poly:
    k = len(nu)
    if k == 0:
        return Poly.one(n) if u0 == uk else Poly.zero(n)
    total: dict = {}
    for interior in itertools.product(range(1, n + 1), repeat=k - 1):
        lam = (u0,) + interior + (uk,)
        entries = []
        for i in range(1, k + 1):
            entries.append((lam[i - 1], lam[i]))
            entries.extend((lam[i - 1], lab) for lab in nu[i - 1])
        for mono, coeff in a_monomial(n, entries).terms.items():
            total[mono] = total.get(mono, 0) + coeff
    return Poly(n, total)


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
    return _dot(n, row, [tail[t][uk - 1] for t in range(n)])


def _row_matrix(n: int, c: tuple) -> tuple:
    """M(c)[r,s] = a[r,s] * prod_l a[r,l]^c_l: one level whose row has content c."""
    key = (n, c)
    if key not in _ROW_MATRIX_CACHE:
        rows = []
        for r in range(1, n + 1):
            leaves = [(r, lab) for lab, e in enumerate(c, start=1) for _ in range(e)]
            rows.append(tuple(a_monomial(n, leaves + [(r, s)]) for s in range(1, n + 1)))
        _ROW_MATRIX_CACHE[key] = tuple(rows)
    return _ROW_MATRIX_CACHE[key]


def _level_sums(d: int, n: int, m: int, rem: tuple) -> tuple:
    """The matrix S(m, rem); rem must be a composition of m(d-1)."""
    key = (d, n, m, rem)
    if key in _LEVEL_SUM_CACHE:
        return _LEVEL_SUM_CACHE[key]
    if m == 0:
        S = tuple(tuple(Poly.one(n) if r == s else Poly.zero(n) for s in range(n))
                  for r in range(n))
    else:
        acc = [[Poly.zero(n)] * n for _ in range(n)]
        for c in enumerate_compositions(d - 1, n):
            rest = composition_sub_or_none(rem, c)
            if rest is None:
                continue
            weight = count_level_labelings(c, 1, d)
            M = _row_matrix(n, c)
            tail = _level_sums(d, n, m - 1, rest)
            for r in range(n):
                for s in range(n):
                    acc[r][s] = acc[r][s] + weight * _dot(
                        n, M[r], [tail[t][s] for t in range(n)])
        S = tuple(tuple(row) for row in acc)
    _LEVEL_SUM_CACHE[key] = S
    return S


def _dot(n: int, xs, ys) -> Poly:
    total = Poly.zero(n)
    for x, y in zip(xs, ys):
        if y:
            total = total + x * y
    return total


def z_fern_is_homogeneous(fl: FernLabeling) -> bool:
    """True iff the fern weight is zero or homogeneous of a-degree k*d."""
    z = z_fern(fl)
    if z.is_zero():
        return True
    degs = {sum(m) for m in z.terms}
    return degs == {fl.k * fl.d} and z.is_homogeneous_in_a()
