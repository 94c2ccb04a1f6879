"""Exact polynomial arithmetic: examples, ring axioms, text grammar."""

import ast
import inspect
import itertools
import operator
import re
import typing
from fractions import Fraction
from functools import partial
from importlib.resources import files
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacverify import poly
from jacverify.inverse import mul_trunc
from jacverify.poly import (
    DomainError,
    Poly,
    StructuralError,
    VarId,
    VerificationError,
    a_,
    canonical_order,
    determinant,
    determinant_by_head,
    monomial_key,
    n_vars,
    poly_sum,
    split_xt,
    substitute_numeric,
    sum_of_products,
    t_,
    t_layers,
    var_index,
    var_of_index,
    x_,
)
from jacverify.polytext import format_poly, parse_poly

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


def _poly_det(n, rows):
    """The determinant of rows of dimension-n polynomials, level by level."""
    return determinant(rows, Poly.one(n), partial(sum_of_products, n))


def _joined(heads):
    """The term dict that ``determinant_by_head`` split by head, rejoined."""
    return {head + m[len(head):]: c for head, p in heads.items()
            for m, c in p.poly().terms.items()}


def test_determinant_small():
    p = a_(N, 1, 1) + 2
    q, r, s = x_(N, 1), a_(N, 2, 2), t_(N)
    for rows, expected in [([[p]], p), ([], Poly.one(N)), ([[p, q], [r, s]], p * s - q * r)]:
        assert _poly_det(N, rows) == expected
        assert _joined(determinant_by_head(rows, N, lambda head: 1)) == expected.terms


def test_determinant_identity_minus_ta():
    # expected value from the 2x2 cofactor rule, written out by hand
    t = t_(N)
    rows = [
        [1 - t * a_(N, 1, 1), -t * a_(N, 1, 2)],
        [-t * a_(N, 2, 1), 1 - t * a_(N, 2, 2)],
    ]
    expected = (
        1
        - t * (a_(N, 1, 1) + a_(N, 2, 2))
        + t ** 2 * (a_(N, 1, 1) * a_(N, 2, 2) - a_(N, 1, 2) * a_(N, 2, 1))
    )
    assert _poly_det(N, rows) == expected
    assert _joined(determinant_by_head(rows, N, lambda head: 1)) == expected.terms


def test_split_xt_examples():
    t = t_(N)
    det = 1 - t * (a_(N, 1, 1) + a_(N, 2, 2))
    assert Poly(N, split_xt(det)[(1, 0, 0)]) == -a_(N, 1, 1) - a_(N, 2, 2)
    assert (0, 0, 0) not in split_xt(x_(N, 1) * a_(N, 1, 1))
    p = x_(N, 1) ** 2 + 2 * x_(N, 1) * x_(N, 2)
    assert Poly(N, split_xt(p)[(0, 1, 1)]) == Poly.const(N, 2)


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
        lhs = _poly_det(N, MQ)
        rhs = _poly_det(N, M) * _poly_det(N, Q)
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


# The token walker that parsed polynomial text before the grammar became one
# regular expression, kept as the oracle of the differential test below.
_TOKEN = re.compile(
    r"\s*(?:(?P<var>a\[(?P<i>\d+),(?P<j>\d+)\]|x\[(?P<xi>\d+)\]|t)(?:\^(?P<exp>\d+))?"
    r"|(?P<num>\d+(?:/\d+)?)"
    r"|(?P<op>[*+-]))"
)


def _reference_parse(text: str, n: int) -> Poly:
    tokens = []
    pos, end = 0, len(text.rstrip())
    while pos < end:
        m = _TOKEN.match(text, pos)
        if not m:
            raise StructuralError(f"cannot parse polynomial at {text[pos:]!r}")
        tokens.append(m)
        pos = m.end()
    if len(tokens) == 1 and tokens[0].group("num") == "0":
        return Poly.zero(n)

    def op_at(k):
        return tokens[k].group("op") if k < len(tokens) else None

    def fail(k, expected):
        where = repr(text[tokens[k].start():].strip()) if k < len(tokens) else "the end"
        raise StructuralError(f"polynomial text: expected {expected} at {where}")

    terms: dict = {}
    k = 0
    sign = 1
    if op_at(k) == "-":
        sign, k = -1, 1
    while True:
        coeff = 1
        exps = [0] * n_vars(n)
        if k < len(tokens) and tokens[k].group("num") is not None:
            try:
                coeff = Fraction(tokens[k].group("num"))
            except ZeroDivisionError:
                raise StructuralError(f"zero denominator in {tokens[k].group('num')!r}")
            if coeff == 0:
                fail(k, "a positive coefficient")
            k += 1
            has_factors = op_at(k) == "*"
            if has_factors:
                k += 1
        else:
            has_factors = True
        while has_factors:
            if k == len(tokens) or tokens[k].group("var") is None:
                fail(k, "a variable")
            tok = tokens[k]
            if tok.group("i") is not None:
                v = VarId("a", int(tok.group("i")), int(tok.group("j")))
            elif tok.group("xi") is not None:
                v = VarId("x", int(tok.group("xi")))
            else:
                v = VarId("t")
            exps[var_index(n, v)] += int(tok.group("exp") or 1)
            k += 1
            if op_at(k) != "*":
                break
            k += 1
        mono = tuple(exps)
        terms[mono] = terms.get(mono, 0) + sign * coeff
        if k == len(tokens):
            return Poly(n, terms)
        if op_at(k) not in ("+", "-"):
            fail(k, "'+' or '-'")
        sign = 1 if op_at(k) == "+" else -1
        k += 1


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
    "a[1,1] ^2",
    "1 /2",
    "x[ 1]",
    "0 0",
    "a[1,1]^",
    "2 * 3",
    "t^2^3",
    "a[1,1]+",
])
def test_parse_rejects_text_outside_the_grammar(text):
    with pytest.raises(StructuralError):
        parse_poly(text, 2)
    with pytest.raises(StructuralError):
        _reference_parse(text, 2)


# Tokens of the grammar (with indices in and out of range for n = 2), their
# pieces, blanks and characters outside the grammar.
_TEXT_TOKENS = ["a[1,1]", "a[2,1]", "a[1,3]", "a[0,2]", "x[1]", "x[2]", "x[3]", "t",
                "a[", "x[", "]", ",", "0", "1", "2", "12", "/", "*", "^", "+", "-",
                " ", "  ", "\t", "$", "b", ".", "\u0663"]


@st.composite
def _term_texts(draw):
    """Text shaped like the grammar, so that most of it is accepted."""
    names = ["a[1,1]", "a[2,1]", "a[1,3]", "x[1]", "x[3]", "t"]
    factor = st.tuples(st.sampled_from(names), st.sampled_from(["", "^0", "^2", "^12"]))
    text = draw(st.sampled_from(["", "-", "- ", " "]))
    for k in range(draw(st.integers(1, 4))):
        if k:
            text += draw(st.sampled_from([" + ", " - ", "+", "-\t"]))
        coeff = draw(st.sampled_from(["", "0", "1", "3", "12", "1/2", "4/6", "2/0"]))
        factors = ["".join(f) for f in draw(st.lists(factor, max_size=3))]
        mul = draw(st.sampled_from(["*", " * "]))
        text += mul.join(([coeff] if coeff else []) + factors)
    return text


def _outcome(parse, text):
    try:
        return parse(text, 2)
    except StructuralError:
        return StructuralError


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(_TEXT_TOKENS), max_size=14).map("".join),
                 _term_texts()))
def test_parse_matches_token_walker(text):
    """The grammar regex accepts, rejects and reads text as the token walker did."""
    assert _outcome(parse_poly, text) == _outcome(_reference_parse, text)


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


def _reference_format(p):
    """Reference printer: one monomial_key sort, and each factor built
    exponent by exponent, with no table."""
    if not p.terms:
        return "0"
    names = [str(var_of_index(p.n, pos)) for pos in range(n_vars(p.n))]
    parts = []
    for m in sorted(p.terms, key=monomial_key):
        c = p.terms[m]
        factors = [names[pos] if e == 1 else f"{names[pos]}^{e}"
                   for pos, e in enumerate(m) if e]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1 and c > 0:
            body = "*".join(factors)
        else:
            body = f"{mag} * " + "*".join(factors)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


@st.composite
def _printable_polys(draw, coeff=st.one_of(st.integers(-3, 3), _COEFFS), tops=(15, 16, 17, 300)):
    """Fraction and int coefficients, constant terms, and exponents of one
    digit and two, either side of 16, 256 and any further tops."""
    n = draw(st.integers(1, 3))
    nv = n_vars(n)
    exps = st.one_of(st.integers(1, 3), st.sampled_from(tops))
    mono = st.lists(st.tuples(st.integers(0, nv - 1), exps), max_size=3).map(
        lambda e: tuple(dict(e).get(pos, 0) for pos in range(nv)))
    return Poly(n, dict(draw(st.lists(st.tuples(mono, coeff), max_size=8))))


@settings(max_examples=150, deadline=None)
@given(_printable_polys())
def test_format_and_sorted_terms_match_the_monomial_key_reference(p):
    assert format_poly(p) == _reference_format(p)
    assert canonical_order(p.n, p.terms) == sorted(p.terms, key=monomial_key)


@settings(max_examples=150, deadline=None)
@given(_printable_polys(st.integers(-3, 3), (15, 16, 17, 300, 2**16, 2**40, 2**70)))
def test_format_of_packed_parts_matches_the_reference(p):
    """The (t, x) heads of p, as ``determinant_by_head`` of the 1 x 1 grid
    [[p]] parts them, print as their Polys, at fields of 1, 2, 4, 8 and 16
    bytes."""
    heads = determinant_by_head([[p]], p.n, lambda head: 1)
    assert {h: part.poly() for h, part in heads.items()} == \
        {h: Poly(p.n, terms) for h, terms in split_xt(p).items()}
    for part in heads.values():
        assert format_poly(part) == _reference_format(part.poly())


def test_row_texts_are_not_shared_across_widths_or_key_kinds():
    """A part at 1-byte fields, then one at 2-byte fields of the same n, then
    the Poly of the second: each prints as the reference, so no row text
    made for one kind of row is read for another."""
    a11, a12, a21 = a_(N, 1, 1), a_(N, 1, 2), a_(N, 2, 1)
    for p in [a11 ** 3 * a12 - 2 * a21, a11 ** 300 * a12 - 2 * a21 + 5]:
        (part,) = determinant_by_head([[p]], N, lambda head: 1).values()
        assert format_poly(part) == _reference_format(p)
    assert format_poly(p) == _reference_format(p) == "5 - 2 * a[2,1] + a[1,1]^300*a[1,2]"


@settings(max_examples=150, deadline=None)
@given(_polys())
def test_split_xt_partitions_terms_by_head(p):
    """Each term lands under its (t, x) head with the head zeroed, once."""
    cut = 1 + p.n
    rebuilt = {}
    for head, coeffs in split_xt(p).items():
        assert len(head) == cut and coeffs
        for m, c in coeffs.items():
            assert not any(m[:cut])
            rebuilt[head + m[cut:]] = c
    assert rebuilt == p.terms


def _leibniz(M):
    total = Fraction(0)
    for perm in itertools.permutations(range(len(M))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(M)), 2))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= M[i][j]
        total += term
    return total


def _fraction_dot(pairs):
    return sum(itertools.starmap(operator.mul, pairs))


def test_determinant_over_fractions_matches_leibniz():
    rng = Random(11)
    assert determinant([], Fraction(1), _fraction_dot) == 1
    for size in range(1, 5):
        for _ in range(10):
            M = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(size)]
                 for _ in range(size)]
            assert determinant(M, Fraction(1), _fraction_dot) == _leibniz(M)


def _is_stored_coefficient(c):
    """An int, or a Fraction that is not integral; never a float."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


# Fraction-only reference arithmetic on raw term dicts: the kernel must agree
# with it term for term whatever mix of int and Fraction it is given.

def _ref(terms):
    return {m: Fraction(c) for m, c in terms.items() if c != 0}


def _ref_add(p, q, sign=1):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return {m: c for m, c in out.items() if c != 0}


def _ref_mul(p, q, n_max=None):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            if n_max is None or m[0] <= n_max:
                out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


_MIXED = st.one_of(st.integers(-6, 6), st.fractions(min_value=-6, max_value=6,
                                                    max_denominator=4))


@st.composite
def _mixed_pairs(draw):
    n = draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(0, 2)] * n_vars(n))
    raw = st.dictionaries(exps, _MIXED, max_size=5)
    return n, draw(raw), draw(raw), draw(_MIXED), draw(st.integers(0, 3)), draw(st.integers(0, 4))


@settings(max_examples=200, deadline=None)
@given(_mixed_pairs())
def test_integer_kernel_matches_fraction_reference(case):
    n, raw_p, raw_q, scalar, e, n_max = case
    p, q = Poly(n, raw_p), Poly(n, raw_q)
    rp, rq = _ref(raw_p), _ref(raw_q)
    power = {(0,) * n_vars(n): Fraction(1)}
    for _ in range(e):
        power = _ref_mul(power, rp)
    pq = _ref_mul(rp, rq)
    results = [
        (p + q, _ref_add(rp, rq)),
        (p - q, _ref_add(rp, rq, -1)),
        (p * q, pq),
        (p * scalar, _ref_mul(rp, _ref({(0,) * n_vars(n): scalar}))),
        (p ** e, power),
        (mul_trunc(p, q, n_max), _ref_mul(rp, rq, n_max)),
        (p, rp),
        (sum_of_products(n, []), {}),
        (sum_of_products(n, [(p, q), (-q, p)]), {}),
        (sum_of_products(n, [(p, q), (q, p), (p, p)]),
         _ref_add(_ref_add(pq, pq), _ref_mul(rp, rp))),
        (poly_sum(n, []), {}),
        (poly_sum(n, [p, q, -p, -q]), {}),
        (poly_sum(n, [Poly.zero(n), p, q]), _ref_add(rp, rq)),
        (poly_sum(n, [p, -p, q, p]), _ref_add(rq, rp)),
        (poly_sum(n, [q, -q, Poly.zero(n), p]), rp),
        (poly_sum(n, [p, q, p]), _ref_add(_ref_add(rp, rq), rp)),
        (poly_sum(n, t_layers(p).values()), rp),
    ]
    for got, expected in results:
        assert got.terms == expected
        assert all(_is_stored_coefficient(c) for c in got.terms.values())


# A float zero too: zeros are dropped before the type check, which it must still meet.

def test_constructor_rejects_float_coefficients():
    for value in (0.5, 0.0, -0.0):
        with pytest.raises(StructuralError, match="neither an int nor a Fraction"):
            Poly(2, {(0,) * n_vars(2): value})


def test_const_rejects_float():
    for value in (0.1, 0.0):
        with pytest.raises(StructuralError, match="neither an int nor a Fraction"):
            Poly.const(2, value)


@st.composite
def _sparse_matrices(draw):
    """Square Poly matrices of size 0-4, with int and Fraction coefficients,
    and some first-column entries forced to zero."""
    n = draw(st.integers(1, 2))
    size = draw(st.integers(0, 4))
    exps = st.tuples(*[st.integers(0, 2)] * n_vars(n))
    entry = st.dictionaries(exps, _MIXED, max_size=2)
    rows = [[Poly(n, draw(entry)) for _ in range(size)] for _ in range(size)]
    for row in rows:
        if draw(st.booleans()):
            row[0] = Poly.zero(n)
    return n, rows


def _ref_leibniz(n, rows):
    """The Leibniz expansion on Fraction term dicts."""
    size = len(rows)
    total = {}
    for perm in itertools.permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(size), 2))
        term = {(0,) * n_vars(n): Fraction(1)}
        for i, j in enumerate(perm):
            term = _ref_mul(term, _ref(rows[i][j].terms))
        total = _ref_add(total, term, (-1) ** inversions)
    return total


@settings(max_examples=80, deadline=None)
@given(_sparse_matrices())
def test_determinant_matches_leibniz_reference(case):
    n, rows = case
    got = _poly_det(n, rows)
    assert got.terms == _ref_leibniz(n, rows)
    assert all(_is_stored_coefficient(c) for c in got.terms.values())


# Exponents on both sides of every width the codec can choose: the kernel
# packs each exponent into a field of 1, 2, 4, 8 or more bytes, and must widen
# the field wherever a sum of two exponents could carry out of it.
_WIDE = (0, 1, 2, 127, 128, 254, 255, 256, 2**15 - 1, 2**15, 2**31 - 1, 2**31,
         2**63 - 1, 2**63, 2**64 + 1)


@st.composite
def _wide_polys(draw, n, max_size, coeffs=_MIXED):
    """Each term has at most two nonzero exponents, from 1, 2 and one drawn
    from _WIDE per polynomial, so that every field width is taken."""
    nv = n_vars(n)
    top = draw(st.sampled_from(_WIDE))
    mono = st.lists(st.tuples(st.integers(0, nv - 1), st.sampled_from((1, 2, top))),
                    max_size=2).map(lambda e: tuple(dict(e).get(pos, 0) for pos in range(nv)))
    return Poly(n, dict(draw(st.lists(st.tuples(mono, coeffs), max_size=max_size))))


@st.composite
def _wide_pairs(draw):
    n = draw(st.integers(1, 2))
    return n, draw(st.lists(st.tuples(_wide_polys(n, 6), _wide_polys(n, 6)), max_size=3))


def _byte_edge(*lead):
    """t^e for each e in lead, plus x[1] and a[1,1] terms: dimension 1, and
    with two leads enough terms that a product of two is packed."""
    return Poly(1, {**{(e, 0, 0): 1 for e in lead}, (0, 1, 0): 2, (0, 0, 1): -3})


@settings(max_examples=120, deadline=None)
@given(_wide_pairs())
@example((1, []))
@example((2, [(Poly.zero(2), x_(2, 1)), (t_(2), Poly.zero(2))]))
@example((1, [(Poly.const(1, 3), Poly.one(1)), (Poly.zero(1), Poly.zero(1))]))
@example((1, [(_byte_edge(128, 127), _byte_edge(128, 1))]))
@example((1, [(_byte_edge(127, 1), _byte_edge(128, 2)), (_byte_edge(1, 0), _byte_edge(254, 0))]))
@example((1, [(_byte_edge(2**15 - 1, 1), _byte_edge(2**15 - 1, 2)),
              (_byte_edge(2**15, 0), _byte_edge(1, 0))]))
@example((1, [(_byte_edge(2**31, 2**31 - 1), _byte_edge(2**63 - 1, 1))]))
@example((1, [(_byte_edge(2**63, 1), _byte_edge(2**64 + 1, 2**64 - 1))]))
def test_sum_of_products_matches_reference_across_byte_boundary(case):
    n, pairs = case
    expected = {}
    for x, y in pairs:
        expected = _ref_add(expected, _ref_mul(_ref(x.terms), _ref(y.terms)))
    got = sum_of_products(n, pairs)
    assert got.terms == expected
    assert all(_is_stored_coefficient(c) for c in got.terms.values())
    # Terms come in the order of their first product, as split_xt's callers see them.
    first = dict.fromkeys(tuple(map(operator.add, m1, m2))
                          for x, y in pairs for m1 in x.terms for m2 in y.terms)
    assert list(got.terms) == [m for m in first if m in expected]


@st.composite
def _wide_matrices(draw):
    """Integer entries, which ``determinant_by_head`` divides by 1 exactly."""
    n = draw(st.integers(1, 2))
    size = draw(st.integers(0, 3))
    entry = _wide_polys(n, 4, st.integers(-6, 6))
    return n, [[draw(entry) for _ in range(size)] for _ in range(size)]


def _edge_rows(lo, hi):
    """A 2 x 2 grid whose rows' largest degrees are lo and hi."""
    return 1, [[_byte_edge(lo, 0), _byte_edge(1, 0)], [_byte_edge(2, 0), _byte_edge(hi, 0)]]


@settings(max_examples=80, deadline=None)
@given(_wide_matrices())
@example(_edge_rows(127, 128))
@example(_edge_rows(128, 128))
@example(_edge_rows(2**15 - 1, 2**15))
@example(_edge_rows(2**15, 2**15))
@example(_edge_rows(2**31 - 1, 2**31))
@example(_edge_rows(2**31, 2**31))
@example(_edge_rows(2**63 - 1, 2**63))
@example(_edge_rows(2**63, 2**63))
@example(_edge_rows(2**64 + 1, 2**70))
@example((2, [[a_(2, 1, 1) ** 2 + a_(2, 1, 2)]]))
@example((1, [[x_(1, 1) + t_(1) + a_(1, 1, 1) * x_(1, 1), x_(1, 1)],
              [Poly.one(1), Poly.one(1)]]))
def test_determinant_by_head_matches_leibniz_across_byte_boundary(case):
    """The examples' bounds lie on both sides of every field width: 255 and
    256, 2**16 - 1 and 2**16, 2**32 - 1 and 2**32, 2**64 - 1 and 2**64.  In
    the one before last, a[1,2] packs above a[1,1]^2 but has the lower
    degree.  In the last, the first product under head x cancels, so the
    expansion meets head x before head t, though x's first surviving term
    comes after t's."""
    n, rows = case
    heads = determinant_by_head(rows, n, lambda head: 1)
    assert {h: p.poly().terms for h, p in heads.items()} == \
        split_xt(Poly(n, _ref_leibniz(n, rows)))
    assert all(type(c) is int for p in heads.values() for c in p.poly().terms.values())
    # Each head's a-part holds its terms in the order of splitting the
    # level-by-level expansion; the heads come in the order the expansion first
    # meets them, which a cancelled product can set apart from split_xt's.
    split = split_xt(_poly_det(n, rows))
    assert {h: list(p.poly().terms.items()) for h, p in heads.items()} == \
        {h: list(part.items()) for h, part in split.items()}
    # Each part prints as its Poly, in canonical order, though a random grid's
    # parts are seldom homogeneous.
    for p in heads.values():
        assert format_poly(p) == _reference_format(p.poly())


def test_determinant_by_head_scales_only_the_heads_it_keeps():
    """``scale`` is called once for each head whose sum is nonzero: a stray
    head whose products cancel never reaches one that raises, the 0 x 0 grid
    is 1 under head 0, and a coefficient that ``scale`` does not divide raises."""
    x, t, a = x_(1, 1), t_(1), a_(1, 1, 1)
    calls = []

    def t_only(head):
        calls.append(head)
        if head != (1, 0):
            raise VerificationError(f"stray head {head}")
        return 2

    # (x + 2t) * 1 - x * 1: head x cancels, 2t divides by 2 to t.
    heads = determinant_by_head([[x + 2 * t, x], [Poly.one(1), Poly.one(1)]], 1, t_only)
    assert calls == [(1, 0)] and {h: p.poly() for h, p in heads.items()} == {(1, 0): 1}
    calls.clear()
    heads = determinant_by_head([], 1, lambda head: calls.append(head) or 1)
    assert calls == [(0, 0)] and {h: p.poly() for h, p in heads.items()} == {(0, 0): 1}
    with pytest.raises(VerificationError,
                       match=re.escape("coefficient 2 at t^0 x^(1,) is not divisible by d^k = 3")):
        determinant_by_head([[3 * a + 2 * x]], 1, lambda head: 3)


@pytest.mark.parametrize("top,width", [
    (127, 1), (128, 2), (2**15 - 1, 2), (2**15, 4), (2**31 - 1, 4), (2**31, 8),
    (2**63 - 1, 8), (2**63, 16), (2**64 + 1, 16), (2**127, 32),
])
def test_keys_take_the_narrowest_width_at_which_no_sum_carries(monkeypatch, top, width):
    """A product squares a factor of degree top, and a determinant has two
    rows of largest degree top; each takes the narrowest field that holds
    2 * top."""
    widths = []
    codec = poly._codec
    monkeypatch.setattr(poly, "_codec", lambda n, w: widths.append(w) or codec(n, w))
    p = _byte_edge(top, 1)
    assert sum_of_products(1, [(p, p)]).terms == _ref_mul(_ref(p.terms), _ref(p.terms))
    assert widths[-1] == width
    n, rows = _edge_rows(top, top)
    assert _joined(determinant_by_head(rows, n, lambda head: 1)) == _ref_leibniz(n, rows)
    assert widths[-1] == width


def test_annotations_resolve():
    """Every name an annotation of poly uses is bound in the module."""
    public = [f for name, f in vars(poly).items() if not name.startswith("_")
              and inspect.isfunction(f) and f.__module__ == poly.__name__]
    assert substitute_numeric in public
    for f in [*public, Poly.__init__]:
        typing.get_type_hints(f)


def test_kernel_rejects_mismatched_dimensions():
    with pytest.raises(StructuralError, match="mismatched ambient n"):
        sum_of_products(2, [(x_(2, 1), x_(1, 1))])
    with pytest.raises(StructuralError, match="mismatched ambient n"):
        poly_sum(1, [x_(1, 1), x_(2, 1)])


_KERNEL_PRIVATE = {"_canonical_terms", "_codec"}


def _kernel_private_uses(tree) -> list:
    """Every place a module names the kernel's private helpers or Poly._of."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in _KERNEL_PRIVATE:
            found.append(node.id)
        elif isinstance(node, ast.alias) and node.name in _KERNEL_PRIVATE:
            found.append(node.name)
        elif isinstance(node, ast.Attribute) and (
                node.attr in _KERNEL_PRIVATE or node.attr == "_of"):
            found.append(ast.unparse(node))
    return found


def test_only_poly_touches_the_canonical_form():
    """Drop-zeros and int-when-integral stay behind the kernel's public entries."""
    modules = [m for m in files("jacverify").iterdir() if m.name.endswith(".py")]
    assert any(m.name == "poly.py" for m in modules)
    assert _kernel_private_uses(ast.parse(
        "from .poly import _canonical_terms\nPoly._of(n, t)\npoly._codec(n, 1)"))
    for module in modules:
        if module.name != "poly.py":
            assert _kernel_private_uses(ast.parse(module.read_text())) == [], module.name
