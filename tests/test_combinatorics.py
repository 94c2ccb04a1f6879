"""Enumerations, the shared builders and the last-rep decomposition."""

import itertools
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacverify.combinatorics import (
    LastRep,
    SubsetPermutation,
    capped_compositions,
    composition_sub_or_none,
    content_row,
    count_level_labelings,
    enumerate_compositions,
    enumerate_level_labelings,
    enumerate_subset_permutations,
    label_paths,
    labeling_content,
    last_rep_indices,
    level_exponents,
)
from jacverify.poly import DomainError, Poly, StructuralError, a_, n_vars


# -- oracles: each checks a definition directly, independently of the code --


def permutation_cycles(S: tuple, sigma: tuple) -> list:
    """Cycles as tuples, each starting at its smallest element, sorted."""
    mapping = dict(zip(S, sigma))
    seen = set()
    cycles = []
    for start in sorted(S):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        cur = mapping[start]
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            cur = mapping[cur]
        cycles.append(tuple(cyc))
    return cycles


def last_rep_is_valid(lam, rep: LastRep) -> bool:
    """Check the three defining conditions of a last-rep pair directly."""
    l1, l2 = rep.l1, rep.l2
    if not (0 <= l1 < l2 < len(lam)):
        return False
    if lam[l1] != lam[l2]:
        return False
    tail = lam[l1 + 1:]
    return len(set(tail)) == len(tail)


def test_compositions_examples():
    assert enumerate_compositions(1, 2) == [(1, 0), (0, 1)]
    assert enumerate_compositions(0, 3) == [(0, 0, 0)]
    assert len(enumerate_compositions(2, 2)) == 3


def test_composition_counts_and_uniqueness():
    for m in range(9):
        for n in range(1, 5):
            comps = enumerate_compositions(m, n)
            assert len(comps) == comb(m + n - 1, n - 1)
            assert len(set(comps)) == len(comps)
            assert all(sum(c) == m and len(c) == n for c in comps)
            assert comps == sorted(comps, reverse=True)


def test_compositions_are_capped_at_their_weight():
    for m in range(7):
        for n in range(1, 5):
            assert enumerate_compositions(m, n) == capped_compositions(m, (m,) * n)


def test_capped_compositions_filter_the_product_under_caps():
    """Every tuple under the caps with the right total, in the same
    (lexicographically decreasing) order."""
    for length in (1, 2, 3):
        for caps in itertools.product(range(4), repeat=length):
            for total in range(sum(caps) + 2):
                want = [c for c in itertools.product(*(range(cap, -1, -1) for cap in caps))
                        if sum(c) == total]
                assert capped_compositions(total, caps) == want


def test_composition_sub():
    assert composition_sub_or_none((2, 1), (1, 0)) == (1, 1)
    assert composition_sub_or_none((3, 2), (3, 2)) == (0, 0)
    assert composition_sub_or_none((1, 0), (0, 1)) is None
    assert composition_sub_or_none((1, 0), (1,)) is None
    assert composition_sub_or_none((1,), (1, 0)) is None
    assert composition_sub_or_none((), ()) == ()


def test_level_labelings_examples():
    got = enumerate_level_labelings((1, 1), 2, 2)
    assert sorted(got) == [((1,), (2,)), ((2,), (1,))]
    assert enumerate_level_labelings((0, 0), 3, 1) == [((), (), ())]
    assert enumerate_level_labelings((2, 0), 1, 3) == [((1, 1),)]


def test_level_labeling_counts():
    for d in (1, 2, 3):
        for k in range(5):
            for n in (2, 3):
                for alpha in enumerate_compositions(k * (d - 1), n):
                    got = enumerate_level_labelings(alpha, k, d)
                    want = factorial(k * (d - 1))
                    for part in alpha:
                        want //= factorial(part)
                    assert len(got) == want == count_level_labelings(alpha, k, d)
                    assert len(set(got)) == len(got)
                    for nu in got:
                        assert labeling_content(nu, n) == alpha


def test_content_row_has_its_content():
    assert content_row((2, 0, 1)) == (1, 1, 3)
    assert content_row((0, 0)) == ()
    for n in (1, 2, 3):
        for m in range(5):
            for c in enumerate_compositions(m, n):
                row = content_row(c)
                assert labeling_content((row,), n) == c
                assert list(row) == sorted(row)


def test_label_paths_count_and_endpoints():
    for n in (1, 2, 3):
        for u0, uk in itertools.product(range(1, n + 1), repeat=2):
            assert label_paths(n, u0, uk, 0) == ([(u0,)] if u0 == uk else [])
            for k in range(1, 5):
                paths = label_paths(n, u0, uk, k)
                assert len(paths) == len(set(paths)) == n ** (k - 1)
                assert paths == sorted(paths)
                for lam in paths:
                    assert len(lam) == k + 1 and lam[0] == u0 and lam[-1] == uk
                    assert set(lam) <= set(range(1, n + 1))


@st.composite
def _level_stacks(draw):
    n = draw(st.integers(1, 4))
    label = st.integers(1, n)
    stacks = []
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, 4))
        labels = st.lists(label, min_size=k, max_size=k).map(tuple)
        rows = st.lists(st.lists(label, max_size=3).map(tuple), min_size=k, max_size=k)
        stacks.append((draw(labels), draw(labels), tuple(draw(rows))))
    return n, stacks


@settings(max_examples=150, deadline=None)
@given(_level_stacks())
def test_level_exponents_is_the_product_of_its_factors(case):
    """Each head meets its tail and every label of its row, in every stack."""
    n, stacks = case
    expected = Poly.one(n)
    for heads, tails, rows in stacks:
        for i, j, row in zip(heads, tails, rows):
            expected = expected * a_(n, i, j)
            for label in row:
                expected = expected * a_(n, i, label)
    assert Poly(n, {level_exponents(n, *stacks): 1}) == expected


def test_level_exponents_reject_a_label_outside_range():
    heads, tails, rows = (1, 2), (2, 3), ((1,), (3, 3))
    assert level_exponents(3) == (0,) * n_vars(3)
    assert sum(level_exponents(3, (heads, tails, rows))) == 5
    for bad in (0, 4):
        for stack in (((bad, 2), tails, rows), (heads, (2, bad), rows),
                      (heads, tails, ((1,), (3, bad)))):
            with pytest.raises(StructuralError, match=rf"^label {bad} outside \[1,3\]$"):
                level_exponents(3, (heads, tails, rows), stack)


def test_level_labeling_weight_mismatch():
    with pytest.raises(DomainError):
        enumerate_level_labelings((1, 0), 2, 2)


def test_subset_permutations_n2_k2():
    got = enumerate_subset_permutations(2, 2)
    assert len(got) == 2
    by_cycles = {p.cycle_count: p for p in got}
    assert by_cycles[2].sigma == (1, 2)  # identity
    assert by_cycles[1].sigma == (2, 1)  # transposition


def test_subset_permutations_edges():
    empty = enumerate_subset_permutations(2, 0)
    assert empty == [SubsetPermutation((), (), 0)]
    fixed = enumerate_subset_permutations(3, 1)
    assert len(fixed) == 3
    assert all(p.cycle_count == 1 and p.S == p.sigma for p in fixed)


def test_subset_permutation_counts():
    for n in range(1, 5):
        for k in range(n + 1):
            got = enumerate_subset_permutations(n, k)
            assert len(got) == comb(n, k) * factorial(k)
            assert len(set(got)) == len(got)


def test_permutation_cycles():
    p = SubsetPermutation.make((1, 2, 3), (2, 1, 3))
    assert permutation_cycles(p.S, p.sigma) == [(1, 2), (3,)]
    assert p.cycle_count == 2
    for n in range(1, 5):
        for k in range(n + 1):
            for p in enumerate_subset_permutations(n, k):
                assert p.cycle_count == len(permutation_cycles(p.S, p.sigma))


def test_last_rep_examples():
    assert last_rep_indices((1, 2, 3)) is None
    assert last_rep_indices((1, 2, 1, 2)) == LastRep(1, 3)
    assert last_rep_indices((1, 1, 1)) == LastRep(1, 2)


def test_last_rep_pigeonhole_and_conditions():
    for n in (2, 3):
        for lam in itertools.product(range(1, n + 1), repeat=n + 1):
            rep = last_rep_indices(lam)
            assert rep is not None
            assert last_rep_is_valid(lam, rep)


def test_last_rep_defining_conditions_random_lengths():
    for n in (2, 3):
        for length in range(1, 6):
            for lam in itertools.product(range(1, n + 1), repeat=length):
                rep = last_rep_indices(lam)
                if rep is None:
                    assert len(set(lam)) == len(lam)
                else:
                    assert last_rep_is_valid(lam, rep)
                    # no larger l1 admits a later repeat
                    for bigger in range(rep.l1 + 1, length):
                        assert lam[bigger] not in lam[bigger + 1:]


def test_last_rep_substrings_distinct():
    for n in (2, 3):
        for lam in itertools.product(range(1, n + 1), repeat=n + 1):
            rep = last_rep_indices(lam)
            c1 = lam[rep.l1:rep.l2]
            c2 = lam[rep.l1 + 1:rep.l2 + 1]
            assert len(set(c1)) == len(c1)
            assert len(set(c2)) == len(c2)
