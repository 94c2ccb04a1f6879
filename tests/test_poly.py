"""Exact polynomial arithmetic: examples, ring axioms, text grammar."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacverify.poly import (
    DomainError,
    Poly,
    PolyMatrix,
    StructuralError,
    VarId,
    a_,
    a_monomial,
    coefficient_of,
    format_poly,
    n_vars,
    parse_poly,
    poly_determinant,
    substitute_numeric,
    t_,
    x_,
)

N = 2


def test_add_cancellation():
    p = (x_(N, 1) + x_(N, 2)) + (x_(N, 1) - x_(N, 2))
    assert p == 2 * x_(N, 1)


def test_add_identity():
    p = a_(N, 1, 2) * x_(N, 1) - 3
    assert p + Poly.zero(N) == p


def test_add_like_terms():
    assert a_(N, 1, 1) + a_(N, 1, 1) == 2 * a_(N, 1, 1)


def test_mul_binomial_square():
    p = (x_(N, 1) + x_(N, 2)) * (x_(N, 1) + x_(N, 2))
    assert p == x_(N, 1) ** 2 + 2 * x_(N, 1) * x_(N, 2) + x_(N, 2) ** 2


def test_mul_identity():
    p = 5 * a_(N, 2, 1) ** 3 - x_(N, 2)
    assert p * Poly.one(N) == p


def test_mul_difference_of_squares():
    u = t_(N) * a_(N, 1, 1)
    assert (1 - u) * (1 + u) == 1 - t_(N) ** 2 * a_(N, 1, 1) ** 2


def test_pow_examples():
    assert x_(N, 1) ** 3 == x_(N, 1) * x_(N, 1) * x_(N, 1)
    lin = a_(N, 1, 1) * x_(N, 1) + a_(N, 1, 2) * x_(N, 2)
    expanded = (
        a_(N, 1, 1) ** 2 * x_(N, 1) ** 2
        + 2 * a_(N, 1, 1) * a_(N, 1, 2) * x_(N, 1) * x_(N, 2)
        + a_(N, 1, 2) ** 2 * x_(N, 2) ** 2
    )
    assert lin ** 2 == expanded
    assert (x_(N, 1) - 7) ** 0 == Poly.one(N)


def test_pow_negative_rejected():
    with pytest.raises(DomainError):
        x_(N, 1) ** -1


def test_determinant_small():
    p = a_(N, 1, 1) + 2
    assert poly_determinant(PolyMatrix(1, [[p]])) == p
    assert poly_determinant(PolyMatrix(0, [], ambient_n=N)) == Poly.one(N)
    q, r, s = x_(N, 1), a_(N, 2, 2), t_(N)
    got = poly_determinant(PolyMatrix(2, [[p, q], [r, s]]))
    assert got == p * s - q * r


def test_determinant_identity_minus_ta():
    # expected value from the 2x2 cofactor rule, written out by hand
    t = t_(N)
    mat = PolyMatrix(2, [
        [1 - t * a_(N, 1, 1), -t * a_(N, 1, 2)],
        [-t * a_(N, 2, 1), 1 - t * a_(N, 2, 2)],
    ])
    expected = (
        1
        - t * (a_(N, 1, 1) + a_(N, 2, 2))
        + t ** 2 * (a_(N, 1, 1) * a_(N, 2, 2) - a_(N, 1, 2) * a_(N, 2, 1))
    )
    assert poly_determinant(mat) == expected


def test_coefficient_of_examples():
    t = t_(N)
    det = 1 - t * (a_(N, 1, 1) + a_(N, 2, 2))
    assert coefficient_of(det, t) == -a_(N, 1, 1) - a_(N, 2, 2)
    no_const = x_(N, 1) * a_(N, 1, 1)
    assert coefficient_of(no_const, Poly.one(N)).is_zero()
    p = x_(N, 1) ** 2 + 2 * x_(N, 1) * x_(N, 2)
    assert coefficient_of(p, x_(N, 1) * x_(N, 2)) == Poly.const(N, 2)


def test_coefficient_of_rejects_a_variables():
    with pytest.raises(StructuralError):
        coefficient_of(x_(N, 1), a_(N, 1, 1))


def test_substitute_numeric_examples():
    p = x_(N, 1) + x_(N, 2)
    val = substitute_numeric(p, {VarId("x", 1): Fraction(1), VarId("x", 2): Fraction(2)})
    assert val == 3
    q = a_(N, 1, 1) ** 2
    assert substitute_numeric(q, {VarId("a", 1, 1): Fraction(2, 3)}) == Fraction(4, 9)
    assert substitute_numeric(Poly.zero(N), {}) == 0


def test_substitute_numeric_missing_variable():
    with pytest.raises(StructuralError):
        substitute_numeric(x_(N, 1), {VarId("x", 2): Fraction(1)})


def test_mismatched_ambient_n():
    with pytest.raises(StructuralError):
        x_(2, 1) + x_(3, 1)
    with pytest.raises(StructuralError):
        x_(2, 1) * x_(3, 1)


def _random_poly(rng, n=N, terms=4, deg=3):
    p = Poly.zero(n)
    variables = [t_(n)] + [x_(n, i) for i in range(1, n + 1)] + [
        a_(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1)
    ]
    for _ in range(terms):
        term = Poly.const(n, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        for _ in range(rng.randint(0, deg)):
            term = term * rng.choice(variables)
        p = p + term
    return p


def test_ring_axioms_random():
    rng = Random(7)
    for _ in range(40):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_canonicality_random():
    rng = Random(11)
    for _ in range(40):
        p, q = _random_poly(rng), _random_poly(rng)
        for result in (p + q, p * q):
            assert all(c != 0 for c in result.terms.values())
            assert len(result.terms) == len(set(result.terms))


def test_determinant_multiplicative_on_numeric():
    rng = Random(3)
    for _ in range(25):
        nums = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(8)]
        M = [[Poly.const(N, nums[0]), Poly.const(N, nums[1])],
             [Poly.const(N, nums[2]), Poly.const(N, nums[3])]]
        Q = [[Poly.const(N, nums[4]), Poly.const(N, nums[5])],
             [Poly.const(N, nums[6]), Poly.const(N, nums[7])]]
        MQ = [[M[i][0] * Q[0][j] + M[i][1] * Q[1][j] for j in range(2)] for i in range(2)]
        lhs = poly_determinant(PolyMatrix(2, MQ))
        rhs = poly_determinant(PolyMatrix(2, M)) * poly_determinant(PolyMatrix(2, Q))
        assert lhs == rhs


def test_evaluation_is_ring_homomorphism():
    rng = Random(5)
    for _ in range(25):
        p, q = _random_poly(rng), _random_poly(rng)
        assignment = {VarId("t"): Fraction(rng.randint(-3, 3), rng.randint(1, 3))}
        for i in range(1, N + 1):
            assignment[VarId("x", i)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for j in range(1, N + 1):
                assignment[VarId("a", i, j)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        ev = lambda poly: substitute_numeric(poly, assignment)
        assert ev(p * q) == ev(p) * ev(q)
        assert ev(p + q) == ev(p) + ev(q)


def test_format_matches_reference_string():
    p = -(a_(N, 1, 1) ** 2) - a_(N, 2, 1) * a_(N, 2, 2)
    assert format_poly(p) == "-1 * a[1,1]^2 - 1 * a[2,1]*a[2,2]"


def test_format_edge_cases():
    assert format_poly(Poly.zero(N)) == "0"
    assert format_poly(Poly.one(N)) == "1"
    assert format_poly(a_(N, 1, 2)) == "a[1,2]"
    assert format_poly(Poly.const(N, Fraction(-3, 2))) == "-3/2"
    p = Fraction(1, 2) * t_(N) ** 2 * x_(N, 1) - 1
    assert format_poly(p) == "-1 + 1/2 * t^2*x[1]"


def test_parse_round_trip_random():
    rng = Random(13)
    for _ in range(40):
        p = _random_poly(rng)
        assert parse_poly(format_poly(p), N) == p


def test_parse_reference_inputs():
    assert parse_poly("1 * a[1,1]", 2) == a_(2, 1, 1)
    assert parse_poly("0", 2).is_zero()
    assert parse_poly("-1 * a[1,1]^2 - 1 * a[2,1]*a[2,2]", 2) == (
        -(a_(2, 1, 1) ** 2) - a_(2, 2, 1) * a_(2, 2, 2)
    )
    assert parse_poly("- 1 * a[1,1] + 1 * a[1,2]", 2) == a_(2, 1, 2) - a_(2, 1, 1)
    assert parse_poly("a[1,2]*a[1,1] + a[1,1]*a[1,2]", 2) == 2 * a_(2, 1, 1) * a_(2, 1, 2)
    with pytest.raises(StructuralError):
        parse_poly("a[1,1] $ junk", 2)


@pytest.mark.parametrize("text", [
    "a[1,1]a[1,2]",
    "a[1,1]^2**a[1,2]",
    "2 3 a[1,1]",
    "+a[1,1]",
    "--a[1,1]",
    "a[1,1] -",
    "a[1,1] *",
    "* a[1,1]",
    "",
    "0 + a[1,1]",
    "0 * a[1,1]",
    "-0",
])
def test_parse_rejects_text_outside_the_grammar(text):
    with pytest.raises(StructuralError):
        parse_poly(text, 2)


_COEFFS = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@st.composite
def _polys(draw):
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n_vars(n))
    return Poly(n, draw(st.dictionaries(exps, _COEFFS, max_size=6)))


@settings(max_examples=150, deadline=None)
@given(_polys())
def test_parse_format_round_trip(p):
    assert parse_poly(format_poly(p), p.n) == p


@st.composite
def _a_products(draw):
    n = draw(st.integers(1, 4))
    entry = st.tuples(st.integers(1, n), st.integers(1, n))
    entries = draw(st.lists(entry, max_size=12))
    sign = draw(st.sampled_from([1, -1]))
    return n, entries, sign


@settings(max_examples=150, deadline=None)
@given(_a_products())
def test_a_monomial_matches_product_of_factors(case):
    """The exponent-vector builder equals sign * prod a_(n, i, j)."""
    n, entries, sign = case
    expected = Poly.const(n, sign)
    for i, j in entries:
        expected = expected * a_(n, i, j)
    got = a_monomial(n, entries, sign)
    assert got == expected
    assert all(type(c) is Fraction for c in got.terms.values())


def test_a_monomial_empty_product_and_bounds():
    assert a_monomial(3, []) == Poly.one(3)
    assert a_monomial(3, [], -1) == Poly.const(3, -1)
    for bad in [(0, 1), (1, 0), (4, 1), (1, 4), (-1, 2)]:
        with pytest.raises(StructuralError, match=r"outside \[1,3\]\^2"):
            a_monomial(3, [(1, 1), bad])
