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
    z_fern,
    z_fern_is_homogeneous,
)
from jacverify.generators import DLinearSpec, JKey
from jacverify.identities import _levels, _partial_sum, _partial_sums, generator_set
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
def _partial_sum_cases(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, n))
    gamma = draw(st.sampled_from(enumerate_compositions(m * (d - 1), n)))
    u = draw(st.integers(1, n))
    v = draw(st.integers(1, n))
    beta = tuple(draw(st.lists(st.integers(1, n), min_size=d - 1, max_size=d - 1)))
    return d, n, m, gamma, u, v, beta


@settings(max_examples=60, deadline=None)
@given(_partial_sum_cases())
def test_partial_sums_match_path_sums(case):
    """Each entry of T(m, gamma) equals the per-labeling path sums against
    generators that the recursion replaces; pinned to a first row beta, it
    drops the k = m term and every labeling that starts with another row."""
    d, n, m, gamma, u, v, beta = case
    gens = generator_set(DLinearSpec(d, n))
    full = pinned = Poly.zero(n)
    for k in range(m + 1):
        for alpha1 in enumerate_compositions(k * (d - 1), n):
            rem = composition_sub_or_none(gamma, alpha1)
            if rem is None:
                continue
            gen = gens[JKey(k, alpha1)]
            for nu in enumerate_level_labelings(rem, m - k, d):
                term = _path_sum(d, n, u, v, nu) * gen
                full = full + term
                if k < m and nu[0] == beta:
                    pinned = pinned + term
    assert _partial_sums(gens, m, gamma)[u - 1][v - 1] == full
    assert _partial_sum(gens, m, gamma, u, v) == full
    assert _partial_sum(gens, m, gamma, u, v, beta) == pinned


@pytest.mark.parametrize("d,n", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_partial_assembly_is_minus_top_generator(d, n):
    """Without its G[(n, alpha)] term, the top entry of the recursion is
    -G[(n, alpha)] on the diagonal and 0 off it, so a partial sum that is
    wrongly zero cannot pass as a vanishing identity."""
    gens = generator_set(DLinearSpec(d, n))
    nonzero = 0
    for alpha in enumerate_compositions(n * (d - 1), n):
        for u0 in range(1, n + 1):
            for un in range(1, n + 1):
                partial = Poly.zero(n)
                for c, M in _levels(d, n):
                    rest = composition_sub_or_none(alpha, c)
                    if rest is None:
                        continue
                    tail = _partial_sums(gens, n - 1, rest)
                    for t in range(n):
                        partial = partial + M[u0 - 1][t] * tail[t][un - 1]
                top = gens[JKey(n, alpha)]
                assert partial == (-top if u0 == un else Poly.zero(n))
                nonzero += not partial.is_zero()
    assert nonzero > 0
