"""Fern weight elements against matrix powers and the pinned identity term."""

import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacverify.combinatorics import (
    composition_sub_or_none,
    enumerate_compositions,
    enumerate_level_labelings,
)
from jacverify.fern import (
    FernLabeling,
    _path_sum,
    level_sum,
    z_fern,
    z_fern_is_homogeneous,
)
from jacverify.generators import DLinearSpec, JKey
from jacverify.identities import generator_set
from jacverify.poly import DomainError, Poly, a_


def test_length_two_fern_reference_value():
    fl = FernLabeling(2, 2, 2, 1, 2, ((1,), (1,)))
    expected = (
        a_(2, 1, 1) ** 3 * a_(2, 1, 2)
        + a_(2, 1, 1) * a_(2, 1, 2) * a_(2, 2, 1) * a_(2, 2, 2)
    )
    assert z_fern(fl) == expected


def test_empty_path_convention():
    assert z_fern(FernLabeling(2, 2, 0, 1, 1, ())) == Poly.one(2)
    assert z_fern(FernLabeling(2, 2, 0, 1, 2, ())).is_zero()


def _symbolic_power_entry(n, k, u0, uk):
    """Entry of the k-th power of the symbolic matrix, as an oracle."""
    A = [[a_(n, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    P = [[Poly.one(n) if i == j else Poly.zero(n) for j in range(n)] for i in range(n)]
    for _ in range(k):
        P = [[sum((P[i][r] * A[r][j] for r in range(n)), Poly.zero(n))
              for j in range(n)] for i in range(n)]
    return P[u0 - 1][uk - 1]


def test_degree_one_ferns_are_matrix_powers():
    for n in (2, 3):
        for k in (0, 1, 2, 3):
            nu = ((),) * k
            for u0 in range(1, n + 1):
                for uk in range(1, n + 1):
                    fl = FernLabeling(1, n, k, u0, uk, nu)
                    assert z_fern(fl) == _symbolic_power_entry(n, k, u0, uk)


def test_homogeneity():
    assert z_fern_is_homogeneous(FernLabeling(2, 2, 2, 1, 1, ((2,), (1,))))
    z = z_fern(FernLabeling(2, 2, 2, 1, 1, ((2,), (1,))))
    assert {sum(m) for m in z.terms} == {4}
    assert z_fern_is_homogeneous(FernLabeling(2, 2, 0, 2, 2, ()))
    assert z_fern_is_homogeneous(FernLabeling(1, 2, 3, 1, 2, ((), (), ())))


def test_row_order_invariance_d3():
    for rows in itertools.product(itertools.product((1, 2), repeat=2), repeat=2):
        base = z_fern(FernLabeling(3, 2, 2, 1, 2, rows))
        for p1 in itertools.permutations(rows[0]):
            for p2 in itertools.permutations(rows[1]):
                assert z_fern(FernLabeling(3, 2, 2, 1, 2, (p1, p2))) == base


def test_malformed_labeling_rejected():
    with pytest.raises(DomainError):
        FernLabeling(2, 2, 2, 1, 2, ((1,),))  # wrong row count
    with pytest.raises(DomainError):
        FernLabeling(2, 2, 1, 1, 2, ((1, 2),))  # wrong row width
    with pytest.raises(DomainError):
        FernLabeling(2, 2, 1, 1, 2, ((3,),))  # label outside [1,n]


@pytest.mark.parametrize("d", [2, 3])
def test_pinned_first_row_term_is_binomial_times_fern(d):
    """The k=0 piece of the pinned identity collapses onto one fern weight.

    Summing fern weights over all two-level labelings with first row beta
    and second-row content fixed must equal binom(d-1, m) times any single
    representative, because the weight sees rows only through content.
    """
    n = 2
    for beta in itertools.product((1, 2), repeat=d - 1):
        beta_ones = sum(1 for b in beta if b == 1)
        for m in range(d):
            alpha = (beta_ones + m, (d - 1 - beta_ones) + (d - 1 - m))
            total = Poly.zero(n)
            for nu in enumerate_level_labelings(alpha, 2, d):
                if nu[0] != beta:
                    continue
                total = total + z_fern(FernLabeling(d, n, 2, 1, 2, nu))
            rep = (1,) * m + (2,) * (d - 1 - m)
            single = z_fern(FernLabeling(d, n, 2, 1, 2, (beta, rep)))
            assert total == comb(d - 1, m) * single


@st.composite
def _level_sum_cases(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 3))
    rem = draw(st.sampled_from(enumerate_compositions(m * (d - 1), n)))
    u0 = draw(st.integers(1, n))
    uk = draw(st.integers(1, n))
    beta = tuple(draw(st.lists(st.integers(1, n), min_size=d - 1, max_size=d - 1)))
    return d, n, m, rem, u0, uk, beta


@settings(max_examples=60, deadline=None)
@given(_level_sum_cases())
def test_level_sum_matches_path_sums(case):
    """Each level sum equals the per-labeling path sums it replaces."""
    d, n, m, rem, u0, uk, beta = case
    labelings = enumerate_level_labelings(rem, m, d)
    total = sum((_path_sum(d, n, u0, uk, nu) for nu in labelings), Poly.zero(n))
    assert level_sum(d, n, m, rem, u0, uk) == total
    pinned = sum((_path_sum(d, n, u0, uk, nu) for nu in labelings if nu[:1] == (beta,)),
                 Poly.zero(n))
    assert level_sum(d, n, m, rem, u0, uk, first_row=beta) == pinned


@pytest.mark.parametrize("d,n", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_partial_assembly_is_minus_top_generator(d, n):
    """The k < n part of identity 1 from level sums is -G[(n, alpha)] on the
    diagonal and 0 off it, so a level sum that is wrongly zero cannot pass
    as a vanishing identity."""
    gens = generator_set(DLinearSpec(d, n))
    nonzero = 0
    for alpha in enumerate_compositions(n * (d - 1), n):
        for u0 in range(1, n + 1):
            for un in range(1, n + 1):
                partial = Poly.zero(n)
                for k in range(n):
                    for alpha1 in enumerate_compositions(k * (d - 1), n):
                        rem = composition_sub_or_none(alpha, alpha1)
                        if rem is None:
                            continue
                        z = level_sum(d, n, n - k, rem, u0, un)
                        partial = partial + z * gens[JKey(k, alpha1)]
                top = gens[JKey(n, alpha)]
                assert partial == (-top if u0 == un else Poly.zero(n))
                nonzero += not partial.is_zero()
    assert nonzero > 0


def test_level_sum_rejects_bad_content():
    with pytest.raises(DomainError):
        level_sum(2, 2, 2, (1, 0), 1, 2)  # weight 1 != m(d-1) = 2
    with pytest.raises(DomainError):
        level_sum(2, 2, 1, (1, 0), 1, 3)  # leaf label outside [1,n]
    with pytest.raises(DomainError):
        level_sum(3, 2, 1, (1, 1), 1, 2, first_row=(1,))  # short first row
