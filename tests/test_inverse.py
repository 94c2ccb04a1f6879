"""Inverse series against composition, matrix powers and the tree oracle."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacverify import inverse
from jacverify.combinatorics import enumerate_compositions
from jacverify.generators import DLinearSpec
from jacverify.inverse import (
    TruncatedSeries,
    coefficient_c,
    degree_law_holds,
    enumerate_trees,
    inverse_series,
    mul_trunc,
    tree_oracle_coefficient,
    verify_inverse,
)
from jacverify.poly import DomainError, Poly, a_, t_, x_


def _truncate(p, n_max):
    """p without its terms of t-degree above n_max."""
    return Poly(p.n, {m: c for m, c in p.terms.items() if m[0] <= n_max})


def _linear_form(n, i, g):
    """t * sum_j a[i,j] g_j."""
    return t_(n) * sum((a_(n, i, j) * g[j - 1] for j in range(1, n + 1)), Poly.zero(n))


def _pow_trunc(p, e, n_max):
    result = Poly.one(p.n)
    for _ in range(e):
        result = mul_trunc(result, p, n_max)
    return result


def _fixed_point_series(spec, n_max):
    """Reference: iterate g_i = x_i + (t L_i)^d from g_i = x_i until it stops.

    Each round fixes at least d more t-degrees, so N/d + 1 rounds reach the
    fixed point; one more round must leave it unchanged.
    """
    d, n = spec.d, spec.n
    g = [x_(n, i) for i in range(1, n + 1)]
    for _ in range(n_max // d + 2):
        new_g = [x_(n, i) + _pow_trunc(_linear_form(n, i, g), d, n_max)
                 for i in range(1, n + 1)]
        if new_g == g:
            return g
        g = new_g
    raise AssertionError("fixed-point iteration did not settle")


def _symbolic_matrix_power(n, k):
    A = [[a_(n, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    P = [[Poly.one(n) if i == j else Poly.zero(n) for j in range(n)] for i in range(n)]
    for _ in range(k):
        P = [[sum((P[i][r] * A[r][j] for r in range(n)), Poly.zero(n))
              for j in range(n)] for i in range(n)]
    return P


def test_d1_series_is_geometric():
    n, n_max = 2, 5
    series = inverse_series(DLinearSpec(1, n), n_max)
    t = t_(n)
    for i in (1, 2):
        expected = Poly.zero(n)
        for N in range(n_max + 1):
            P = _symbolic_matrix_power(n, N)
            row = sum((P[i - 1][j - 1] * x_(n, j) for j in range(1, n + 1)),
                      Poly.zero(n))
            expected = expected + t ** N * row
        assert series.component(i) == expected


def test_d2_order_two_coefficient():
    series = inverse_series(DLinearSpec(2, 2), 2)
    form = a_(2, 1, 1) * x_(2, 1) + a_(2, 1, 2) * x_(2, 2)
    t = t_(2)
    assert series.component(1) == x_(2, 1) + t ** 2 * form ** 2


def test_order_zero_term_is_coordinate():
    for d, n in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        series = inverse_series(DLinearSpec(d, n), 0)
        for i in range(1, n + 1):
            assert series.component(i) == x_(n, i)


@pytest.mark.parametrize("d,n,n_max", [(2, 2, 8), (1, 3, 6), (1, 2, 0)])
def test_verify_inverse(d, n, n_max):
    report = verify_inverse(DLinearSpec(d, n), n_max)
    assert report.ok, report.failures[:1]


def test_coefficient_c_examples():
    spec = DLinearSpec(2, 2)
    assert coefficient_c(spec, 1, (1, 1), 2) == 2 * a_(2, 1, 1) * a_(2, 1, 2)
    assert coefficient_c(spec, 1, (1, 0), 0) == Poly.one(2)
    assert coefficient_c(spec, 2, (0, 1), 0) == Poly.one(2)
    assert coefficient_c(spec, 1, (2, 0), 3).is_zero()  # 3 is not a multiple of d


def test_tree_enumeration_shapes():
    # three internal vertices in a binary tree: the five usual bracketings
    trees = enumerate_trees(2, 1, 1, 6)
    assert len(trees) == 5
    assert enumerate_trees(2, 2, 1, 3) == []  # no tree with dangling edge count


def test_tree_oracle_star():
    spec = DLinearSpec(2, 2)
    form = a_(2, 1, 1) * x_(2, 1) + a_(2, 1, 2) * x_(2, 2)
    sq = form * form
    for alpha in enumerate_compositions(2, 2):
        # read the x^alpha coefficient of the squared form directly
        want = Poly(2, {
            (0, 0, 0) + m[3:]: c for m, c in sq.terms.items()
            if m[1:3] == (alpha[0], alpha[1])
        })
        assert tree_oracle_coefficient(spec, 1, alpha, 2) == want


def test_tree_oracle_rejects_non_multiples():
    spec = DLinearSpec(2, 2)
    assert tree_oracle_coefficient(spec, 1, (2, 1), 5).is_zero()


@pytest.mark.parametrize("i,alpha,N,message", [
    (0, (0, 1), 0, "component 0 outside [1,2]"),
    (-1, (0, 1), 0, "component -1 outside [1,2]"),
    (3, (0, 1), 0, "component 3 outside [1,2]"),
    (0, (1, 1), 2, "component 0 outside [1,2]"),
    (1, (1,), 0, "alpha must have n nonnegative parts"),
    (1, (1, 0, 0), 0, "alpha must have n nonnegative parts"),
    (1, (2, -1), 2, "alpha must have n nonnegative parts"),
    (1, (1, 0), -2, "N must be nonnegative"),
])
def test_tree_oracle_and_coefficient_c_reject_the_same_inputs(i, alpha, N, message):
    spec = DLinearSpec(2, 2)
    for coefficient in (tree_oracle_coefficient, coefficient_c):
        with pytest.raises(DomainError, match=re.escape(message)):
            coefficient(spec, i, alpha, N)


@pytest.mark.parametrize("d", [1, 2])
def test_tree_oracle_matches_series(d):
    spec = DLinearSpec(d, 2)
    series = inverse_series(spec, 3 * d)
    for N in range(0, 3 * d + 1):
        if N % d != 0:
            continue
        leaves = 1 + (d - 1) * N // d if N else 1
        for i in (1, 2):
            for alpha in enumerate_compositions(leaves, 2):
                got = tree_oracle_coefficient(spec, i, alpha, N)
                want = coefficient_c(spec, i, alpha, N, series)
                assert got == want, (d, i, alpha, N)


def test_degree_law():
    for d, n, n_max in [(1, 2, 6), (2, 2, 8), (3, 2, 6), (2, 3, 6)]:
        spec = DLinearSpec(d, n)
        assert degree_law_holds(spec, inverse_series(spec, n_max))


@pytest.mark.parametrize("stray", [
    x_(2, 1) * x_(2, 2),  # order 0 with two leaves
    t_(2) * x_(2, 1) * a_(2, 1, 1),  # an order that is no multiple of d = 2
    t_(2) ** 2 * x_(2, 1) * a_(2, 1, 1) ** 2,  # order 2 needs 2 leaves, not 1
    t_(2) ** 2 * x_(2, 1) * x_(2, 2) * a_(2, 1, 1),  # order 2 needs a-degree 2, not 1
], ids=["order-0", "order-off-d", "leaves", "a-degree"])
def test_degree_law_catches_each_stray_term(stray):
    spec = DLinearSpec(2, 2)
    series = inverse_series(spec, 4)
    components = [series.component(1) + stray, series.component(2)]
    assert not degree_law_holds(spec, TruncatedSeries(spec, 4, components))


@st.composite
def _series_sizes(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    return d, n, draw(st.integers(0, 3 * d))


@settings(max_examples=40, deadline=None)
@given(_series_sizes())
def test_layered_series_matches_fixed_point_oracle(size):
    d, n, n_max = size
    spec = DLinearSpec(d, n)
    layered = inverse_series(spec, n_max).components
    assert layered == _fixed_point_series(spec, n_max)
    # The layered result solves the fixed-point equation exactly below the cut.
    for i in range(1, n + 1):
        rhs = x_(n, i) + _pow_trunc(_linear_form(n, i, layered), d, n_max)
        assert layered[i - 1] == rhs


@pytest.mark.parametrize("d,n,n_max", [(1, 2, 4), (2, 2, 6), (3, 2, 6), (2, 3, 4)])
def test_verify_inverse_catches_one_perturbed_layer(monkeypatch, d, n, n_max):
    """Changing a single t-layer of one component fails both compositions."""
    spec = DLinearSpec(d, n)
    good = inverse_series(spec, n_max)
    for m in range(d, n_max + 1, d):
        for i in range(1, n + 1):
            terms = dict(good.component(i).terms)
            mono = next(e for e in sorted(terms) if e[0] == m)
            terms[mono] += 1
            bad = list(good.components)
            bad[i - 1] = Poly(n, terms)
            monkeypatch.setattr(inverse, "inverse_series",
                                lambda s, N, bad=bad: TruncatedSeries(s, N, bad))
            report = verify_inverse(spec, n_max)
            failed = {(kind, comp) for kind, comp, _ in report.failures}
            assert ("f(g)", i) in failed and ("g(f)", i) in failed, (m, i)
            assert not report.ok


def test_truncate_consistency():
    spec = DLinearSpec(2, 2)
    wide = inverse_series(spec, 8)
    narrow = inverse_series(spec, 4)
    for i in (1, 2):
        assert _truncate(wide.component(i), 4) == narrow.component(i)
