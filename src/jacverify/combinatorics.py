"""Compositions, level labelings and their content rows, label paths,
subset permutations, last-rep indices, and ``level_exponents``, the one
a-factor rule of fern weights, generator terms, states and tree weights.

All enumerations return tuples in a fixed deterministic order so that any
output derived from them is reproducible run to run.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cache
from math import factorial

from .poly import DomainError, StructuralError, n_vars

Composition = tuple  # n nonnegative parts
LevelLabeling = tuple  # k rows, each a (d-1)-tuple of labels in [1,n]


def enumerate_compositions(m: int, n: int) -> list:
    """All compositions of m into n nonnegative parts, lexicographically
    decreasing, so (m, 0, ..., 0) comes first."""
    if n < 1:
        raise DomainError("need at least one part")
    if m < 0:
        raise DomainError("negative weight")
    return capped_compositions(m, (m,) * n)


def capped_compositions(total: int, caps: tuple) -> list:
    """Compositions of total with part j at most caps[j], lexicographically
    decreasing; each part is bounded so that the later parts can finish."""
    if len(caps) == 1:
        return [(total,)] if total <= caps[0] else []
    out = []
    for first in range(min(total, caps[0]), max(0, total - sum(caps[1:])) - 1, -1):
        out += [(first,) + rest for rest in capped_compositions(total - first, caps[1:])]
    return out


def composition_sub_or_none(alpha: Composition, alpha1: Composition):
    """Pointwise difference, or None on a length mismatch or a negative part."""
    if len(alpha) != len(alpha1):
        return None
    diff = tuple(a - b for a, b in zip(alpha, alpha1))
    return None if any(p < 0 for p in diff) else diff


def labeling_content(nu: LevelLabeling, n: int) -> Composition:
    """The composition counting how often each label occurs in nu."""
    counts = [0] * n
    for row in nu:
        for entry in row:
            counts[entry - 1] += 1
    return tuple(counts)


def content_row(c: Composition) -> tuple:
    """The labels of content c in ascending order: c[0] ones, then c[1] twos, ..."""
    return tuple(label for label, e in enumerate(c, start=1) for _ in range(e))


def label_paths(n: int, u0: int, uk: int, k: int) -> list:
    """Every path (u0, ..., uk) of k steps over [1,n], its interior labels in
    lexicographic order; at k = 0 the one-vertex path (u0,) if u0 = uk, else none."""
    if k == 0:
        return [(u0,)] if u0 == uk else []
    return [(u0,) + mid + (uk,) for mid in itertools.product(range(1, n + 1), repeat=k - 1)]


def enumerate_level_labelings(alpha: Composition, k: int, d: int) -> list:
    """All k-level labelings (rows of width d-1 over [1,n]) with content alpha.

    Ordered lexicographically on the flattened label sequence; the count is
    the multinomial coefficient (k(d-1) choose alpha).
    """
    n = len(alpha)
    length = k * (d - 1)
    if sum(alpha) != length:
        raise DomainError(f"content weight {sum(alpha)} != k(d-1) = {length}")
    rows_of = lambda seq: tuple(seq[i * (d - 1):(i + 1) * (d - 1)] for i in range(k))
    out = []
    counts = list(alpha)

    def rec(prefix):
        if len(prefix) == length:
            out.append(rows_of(tuple(prefix)))
            return
        for r in range(n):
            if counts[r]:
                counts[r] -= 1
                prefix.append(r + 1)
                rec(prefix)
                prefix.pop()
                counts[r] += 1

    rec([])
    return out


def count_level_labelings(alpha: Composition, k: int, d: int) -> int:
    length = k * (d - 1)
    total = factorial(length)
    for p in alpha:
        total //= factorial(p)
    return total


@cache
def _cells(n: int) -> dict:
    """Per label i in [1,n], a dict from each label j in [1,n] to n*i + j, the
    index of a[i,j] in ``poly``'s exponent vector; any other label is missing."""
    return {i: {j: n * i + j for j in range(1, n + 1)} for i in range(1, n + 1)}


def level_exponents(n: int, *stacks) -> tuple:
    """The exponent tuple of prod a[i,j] over stacks of levels, each stack a
    (heads, tails, rows) triple: each head i meets its tail j and every label
    of its row.  A fern path gives (lam, lam[1:], nu), a generator term
    (S, sigma, nu), a tree edge a level with an empty row.  A label outside
    [1,n] raises StructuralError."""
    cells = _cells(n)
    e = [0] * n_vars(n)
    try:
        for heads, tails, rows in stacks:
            for i, j, row in zip(heads, tails, rows):
                cell = cells[i]
                e[cell[j]] += 1
                for label in row:
                    e[cell[label]] += 1
    except KeyError as exc:
        raise StructuralError(f"label {exc.args[0]!r} outside [1,{n}]") from None
    return tuple(e)


class SubsetPermutation(namedtuple("SubsetPermutation", "S sigma cycle_count")):
    """An ordered subset S of [1,n] with a permutation of S.

    ``sigma`` lists images elementwise: sigma[i] is where S[i] maps.  k = 0
    gives the empty subset with zero cycles (weight sign +1).
    """

    __slots__ = ()

    @staticmethod
    def make(S: tuple, sigma: tuple) -> "SubsetPermutation":
        if sorted(set(S)) != list(S):
            raise DomainError("S must be strictly increasing and distinct")
        if sorted(sigma) != list(S):
            raise DomainError("sigma must permute S")
        return SubsetPermutation(S, sigma, cycle_count(S, sigma))


def cycle_count(S, sigma):
    """Number of orbits of the permutation given as parallel (S, images)."""
    mapping = dict(zip(S, sigma))
    seen = set()
    cycles = 0
    for start in S:
        if start in seen:
            continue
        cycles += 1
        cur = start
        while cur not in seen:
            seen.add(cur)
            cur = mapping[cur]
    return cycles


def enumerate_subset_permutations(n: int, k: int) -> list:
    """Every (S, sigma) with S a k-subset of [1,n]; binom(n,k) * k! pairs."""
    if not 0 <= k <= n:
        raise DomainError(f"k={k} outside [0,{n}]")
    out = []
    for S in itertools.combinations(range(1, n + 1), k):
        for images in itertools.permutations(S):
            out.append(SubsetPermutation.make(S, images))
    return out


class LastRep(namedtuple("LastRep", "l1 l2")):
    """Indices (l1, l2) of the final repetition in a label sequence.

    l1 is the largest index whose value reappears later; l2 is the unique
    later index carrying the same value.  Maximality of l1 forces every
    entry after l1 to be distinct, which pins l2.
    """

    __slots__ = ()


def last_rep_indices(lam) -> LastRep | None:
    """Last-rep indices of the sequence, or None when all entries differ."""
    for l1 in range(len(lam) - 2, -1, -1):
        for l2 in range(l1 + 1, len(lam)):
            if lam[l2] == lam[l1]:
                return LastRep(l1, l2)
    return None

