"""Fern weight elements against matrix powers and the pinned identity term."""

import itertools
from math import comb, prod

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
)
from jacverify.generators import DLinearSpec, JKey
from jacverify.identities import _levels, _partial_sum, _partial_sums, generator_set
from jacverify.poly import DomainError, Poly, a_, split_xt, x_


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
    """A fern weight of length k is homogeneous of a-degree k*d, in a only."""
    for d, k, u0, uk, nu in [(2, 2, 1, 1, ((2,), (1,))), (2, 0, 2, 2, ()),
                             (1, 3, 1, 2, ((), (), ()))]:
        z = z_fern(FernLabeling(d, 2, k, u0, uk, nu))
        assert z.is_homogeneous_in_a()
        assert {sum(m) for m in z.terms} == {k * d}


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


def _matmul(n, P, Q):
    size = range(len(P))
    return [[sum((P[i][r] * Q[r][j] for r in size), Poly.zero(n)) for j in size] for i in size]


@pytest.mark.parametrize("d,n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_partial_sums_are_matrix_power_coefficients(d, n):
    """T(m, gamma) is the x^gamma coefficient of sum_{k<=m} M(x)^(m-k) * G_k(x),
    with M(x) = diag(L_i(x)^(d-1)) * A and G_k(x) = sum_alpha G[(k, alpha)] x^alpha,
    built here from plain matrix powers; the beta-pinned entry is that of
    x^beta * M_beta * (the sum at m-1), with M_beta[r,s] = a[r,s] * prod_b a[r,b];
    and the Cayley-Hamilton sum vanishes at m = n."""
    gens = generator_set(DLinearSpec(d, n))
    labels = range(1, n + 1)
    forms = [sum((a_(n, i, j) * x_(n, j) for j in labels), Poly.zero(n)) for i in labels]
    M = [[forms[i - 1] ** (d - 1) * a_(n, i, j) for j in labels] for i in labels]
    powers = [[[Poly.one(n) if i == j else Poly.zero(n) for j in labels] for i in labels]]
    for _ in range(n):
        powers.append(_matmul(n, powers[-1], M))

    def x_power(alpha):
        out = Poly.one(n)
        for i, e in zip(labels, alpha):
            out = out * x_(n, i) ** e
        return out

    G = [sum((gens[JKey(k, alpha)] * x_power(alpha)
              for alpha in enumerate_compositions(k * (d - 1), n)), Poly.zero(n))
         for k in range(n + 1)]
    sums = [[[sum((powers[m - k][u][v] * G[k] for k in range(m + 1)), Poly.zero(n))
              for v in range(n)] for u in range(n)] for m in range(n + 1)]
    assert all(entry.is_zero() for row in sums[n] for entry in row)
    betas = list(itertools.product(labels, repeat=d - 1))
    for m in range(n + 1):
        gammas = enumerate_compositions(m * (d - 1), n)
        heads = {(0,) + gamma for gamma in gammas}
        pinned = {}
        for beta in betas:
            if m:
                x_beta = x_power([beta.count(i) for i in labels])
                M_beta = [[prod((a_(n, r, b) for b in beta), start=x_beta * a_(n, r, s))
                           for s in labels] for r in labels]
                pinned[beta] = _matmul(n, M_beta, sums[m - 1])
        for u in labels:
            for v in labels:
                entry = split_xt(sums[m][u - 1][v - 1])
                assert set(entry) <= heads
                for gamma in gammas:
                    want = Poly(n, entry.get((0,) + gamma, {}))
                    assert _partial_sum(gens, m, gamma, u, v) == want
                    for beta in betas:
                        want = Poly.zero(n)
                        if m:
                            shifted = split_xt(pinned[beta][u - 1][v - 1])
                            want = Poly(n, shifted.get((0,) + gamma, {}))
                        assert _partial_sum(gens, m, gamma, u, v, beta) == want


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
