"""Generator extraction versus the closed subset-permutation formula."""

import itertools
from fractions import Fraction
from functools import partial
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacverify import generators, poly
from jacverify.combinatorics import SubsetPermutation, enumerate_compositions
from jacverify.polytext import format_poly
from jacverify.generators import (
    DLinearSpec,
    JKey,
    all_keys,
    cross_check_generators,
    differential_matrix,
    extract_generators,
    generator_direct,
    weight_w,
)
from jacverify.poly import (
    DomainError,
    PackedPart,
    Poly,
    VarId,
    VerificationError,
    a_,
    determinant,
    determinant_by_head,
    n_vars,
    split_xt,
    substitute_numeric,
    sum_of_products,
    t_,
    x_,
)


def _poly_det(n, rows):
    """The determinant of rows of dimension-n polynomials, level by level."""
    return determinant(rows, Poly.one(n), partial(sum_of_products, n))


def test_differential_d1_is_identity_minus_ta():
    mat = differential_matrix(DLinearSpec(1, 2))
    t = t_(2)
    for i in (1, 2):
        for j in (1, 2):
            expected = -t * a_(2, i, j)
            if i == j:
                expected = expected + 1
            assert mat[i - 1][j - 1] == expected


def test_differential_d2_entries():
    mat = differential_matrix(DLinearSpec(2, 2))
    t, n = t_(2), 2
    form1 = a_(n, 1, 1) * x_(n, 1) + a_(n, 1, 2) * x_(n, 2)
    assert mat[0][0] == 1 - 2 * t ** 2 * a_(n, 1, 1) * form1
    assert mat[0][1] == -2 * t ** 2 * a_(n, 1, 2) * form1


def test_extract_d1_trace_and_determinant():
    gens = extract_generators(DLinearSpec(1, 2))
    zero = (0, 0)
    assert gens[JKey(0, zero)] == Poly.one(2)
    assert gens[JKey(1, zero)] == -a_(2, 1, 1) - a_(2, 2, 2)
    assert gens[JKey(2, zero)] == a_(2, 1, 1) * a_(2, 2, 2) - a_(2, 1, 2) * a_(2, 2, 1)


def test_extract_d2_first_row_generator():
    gens = extract_generators(DLinearSpec(2, 2))
    expected = -(a_(2, 1, 1) ** 2 + a_(2, 2, 2) * a_(2, 2, 1))
    assert gens[JKey(1, (1, 0))] == expected


def test_weight_w_examples():
    spec1 = DLinearSpec(1, 2)
    swap = SubsetPermutation.make((1, 2), (2, 1))
    assert weight_w(spec1, swap, ((), ())) == -a_(2, 1, 2) * a_(2, 2, 1)
    fix = SubsetPermutation.make((1,), (1,))
    assert weight_w(spec1, fix, ((),)) == -a_(2, 1, 1)
    spec2 = DLinearSpec(2, 2)
    assert weight_w(spec2, fix, ((1,),)) == -(a_(2, 1, 1) ** 2)


def test_weight_w_level_mismatch():
    with pytest.raises(DomainError):
        weight_w(DLinearSpec(2, 2), SubsetPermutation.make((1,), (1,)), ())


def test_generator_direct_examples():
    assert generator_direct(DLinearSpec(1, 2), JKey(1, (0, 0))) == (
        -a_(2, 1, 1) - a_(2, 2, 2)
    )
    assert generator_direct(DLinearSpec(2, 2), JKey(1, (1, 0))) == -(
        a_(2, 1, 1) ** 2 + a_(2, 2, 2) * a_(2, 2, 1)
    )
    assert generator_direct(DLinearSpec(2, 2), JKey(0, (0, 0))) == Poly.one(2)


@pytest.mark.parametrize("d,n", [(1, 2), (2, 2), (3, 2)])
def test_cross_check_small(d, n):
    report = cross_check_generators(DLinearSpec(d, n))
    assert report.ok, report.mismatches[:1]


def test_cross_check_reports_a_mismatch(monkeypatch):
    """A closed formula off by one on a single key fails on that key alone."""
    spec, key = DLinearSpec(2, 2), JKey(1, (1, 0))
    honest = generators.generator_direct
    monkeypatch.setattr(generators, "generator_direct",
                        lambda s, k: honest(s, k) + (1 if k == key else 0))
    report = cross_check_generators(spec)
    extracted = extract_generators(spec)[key]
    assert not report.ok
    assert report.mismatches == [(key, extracted, extracted + 1)]


def test_generator_homogeneity_and_row_degrees():
    for d, n in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        gens = extract_generators(DLinearSpec(d, n))
        for key in gens.keys_sorted():
            poly = gens[key]
            if key.k == 0 or poly.is_zero():
                continue
            for m in poly.terms:
                assert sum(m) == key.k * d
                assert not any(m[: 1 + n])  # free of x and t
                for i in range(n):
                    row_deg = sum(m[1 + n + i * n: 1 + n + (i + 1) * n])
                    assert row_deg % d == 0


def test_determinant_reconstructs_from_generators():
    for d, n in [(1, 2), (2, 2), (3, 2)]:
        spec = DLinearSpec(d, n)
        det = _poly_det(n, differential_matrix(spec))
        gens = extract_generators(spec)
        rebuilt = Poly.zero(n)
        for key in gens.keys_sorted():
            poly = gens[key]
            mono = t_(n) ** (d * key.k)
            for i, e in enumerate(key.alpha, start=1):
                mono = mono * x_(n, i) ** e
            rebuilt = rebuilt + Fraction(d) ** key.k * mono * poly
        assert rebuilt == det
        assert (0,) * n_vars(n) not in (det - 1).terms


def test_d1_generators_are_signed_principal_minor_sums():
    rng = Random(17)
    for n in (2, 3, 4):
        gens = extract_generators(DLinearSpec(1, n))
        for _ in range(5):
            A = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                 for _ in range(n)]
            assignment = {VarId("a", i + 1, j + 1): A[i][j]
                          for i in range(n) for j in range(n)}
            for k in range(n + 1):
                minors = Fraction(0)
                for rows in itertools.combinations(range(n), k):
                    minors += _det([[A[i][j] for j in rows] for i in rows])
                got = substitute_numeric(gens[JKey(k, (0,) * n)], assignment)
                assert got == (-1) ** k * minors


def _det(M):
    k = len(M)
    if k == 0:
        return Fraction(1)
    total = Fraction(0)
    for i in range(k):
        minor = [row[1:] for j, row in enumerate(M) if j != i]
        total += (-1) ** i * M[i][0] * _det(minor)
    return total


def test_zero_generators_materialized():
    gens = extract_generators(DLinearSpec(2, 2))
    for k in range(3):
        for alpha in enumerate_compositions(k, 2):
            assert JKey(k, alpha) in gens.entries


def _count_packed_entries(monkeypatch) -> list:
    """Record each entry that a later ``determinant_by_head`` packs, so a
    test can tell that its expansion ran on packed keys."""
    packed = []

    class Counted(poly._Packed):
        __slots__ = ()

        def __init__(self, terms):
            packed.append(terms)
            super().__init__(terms)

    monkeypatch.setattr(poly, "_Packed", Counted)
    return packed


def _with_stray_term(monkeypatch, stray):
    """Make the differential the 2 x 2 diagonal matrix of the real determinant
    plus ``stray``, and 1.  Its expansion runs one packed dot, as the real
    differential's does, and extraction splits that sum."""
    real = generators.differential_matrix
    packed = _count_packed_entries(monkeypatch)

    def matrix(spec):
        zero = Poly.zero(spec.n)
        return [[_poly_det(spec.n, real(spec)) + stray, zero], [zero, Poly.one(spec.n)]]

    monkeypatch.setattr(generators, "differential_matrix", matrix)
    return packed


def test_extract_rejects_coefficient_not_divisible_by_d_power(monkeypatch):
    """A t^(dk) x^alpha coefficient that d^k does not divide is an error."""
    n = 2
    packed = _with_stray_term(monkeypatch, t_(n) ** 2 * x_(n, 1) * a_(n, 1, 1) ** 2)
    with pytest.raises(VerificationError, match="not divisible by d\\^k = 2"):
        extract_generators(DLinearSpec(2, n))
    assert packed


@pytest.mark.parametrize("stray,message", [
    (t_(2) ** 3 * x_(2, 1) * a_(2, 1, 1) ** 3, "stray t-degree 3 in determinant"),
    (t_(2) ** 2 * x_(2, 1) * x_(2, 2) * a_(2, 1, 1) ** 2,
     "head t\\^2 x\\^\\(1, 1\\) violates the t,x pattern"),
])
def test_extract_rejects_a_head_outside_the_pattern(monkeypatch, stray, message):
    """A t-degree that d does not divide, or an x-degree other than k(d-1)."""
    packed = _with_stray_term(monkeypatch, stray)
    with pytest.raises(VerificationError, match=message):
        extract_generators(DLinearSpec(2, 2))
    assert packed


def test_split_by_head_rejects_an_indivisible_coefficient_when_packed(monkeypatch):
    rows = differential_matrix(DLinearSpec(2, 2))
    packed = _count_packed_entries(monkeypatch)
    with pytest.raises(VerificationError, match="is not divisible by d\\^k = 3"):
        determinant_by_head(rows, 2, lambda head: 3)
    assert packed


def _extract_by_split(spec: DLinearSpec) -> dict:
    """The extraction route before the one-pass split, as the reference: a
    level-by-level expansion over Poly entries, ``split_xt``, a divmod per
    coefficient, and each part normalized again by the Poly constructor."""
    d, n = spec.d, spec.n
    det = _poly_det(n, differential_matrix(spec))
    entries = {key: Poly.zero(n) for key in all_keys(spec)}
    for head, coeff in split_xt(det).items():
        t_deg, alpha = head[0], head[1:]
        assert t_deg % d == 0
        k = t_deg // d
        assert sum(alpha) == k * (d - 1) and k <= n
        scaled = {}
        for m, c in coeff.items():
            q, r = divmod(c, d ** k)
            assert not r
            scaled[m] = q
        entries[JKey(k, alpha)] = Poly(n, scaled)
    return entries


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3))
@example(42, 2)  # rows of total degree 125, summing to 250: packed
@example(43, 2)  # 128 each, summing to 256: the tuple expansion
def test_extract_matches_the_split_route(d, n):
    """Each generator prints from the part extraction left as the reference
    prints, and read through ``gens[key]`` it is the reference, term for term
    and in its order, and takes the part's place."""
    spec = DLinearSpec(d, n)
    gens = extract_generators(spec)
    expected = _extract_by_split(spec)
    assert list(gens.entries) == list(expected)
    for key, p in expected.items():
        assert type(gens.entries[key]) is PackedPart
        assert format_poly(gens.entries[key]) == format_poly(p)
        got = gens[key]
        assert gens.entries[key] is got
        assert got.terms == p.terms
        assert list(got.terms) == list(p.terms)
