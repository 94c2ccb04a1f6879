"""Generator extraction versus the closed subset-permutation formula."""

import itertools
from fractions import Fraction
from random import Random

import pytest

from jacverify import generators
from jacverify.combinatorics import SubsetPermutation, enumerate_compositions
from jacverify.generators import (
    DLinearSpec,
    JKey,
    cross_check_generators,
    differential_matrix,
    extract_generators,
    generator_direct,
    weight_w,
)
from jacverify.poly import (
    DomainError,
    Poly,
    VarId,
    VerificationError,
    a_,
    n_vars,
    poly_determinant,
    substitute_numeric,
    t_,
    x_,
)


def test_differential_d1_is_identity_minus_ta():
    mat = differential_matrix(DLinearSpec(1, 2))
    t = t_(2)
    for i in (1, 2):
        for j in (1, 2):
            expected = -t * a_(2, i, j)
            if i == j:
                expected = expected + 1
            assert mat.entries[i - 1][j - 1] == expected


def test_differential_d2_entries():
    mat = differential_matrix(DLinearSpec(2, 2))
    t, n = t_(2), 2
    form1 = a_(n, 1, 1) * x_(n, 1) + a_(n, 1, 2) * x_(n, 2)
    assert mat.entries[0][0] == 1 - 2 * t ** 2 * a_(n, 1, 1) * form1
    assert mat.entries[0][1] == -2 * t ** 2 * a_(n, 1, 2) * form1


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


def test_generator_homogeneity_and_row_degrees():
    for d, n in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        gens = extract_generators(DLinearSpec(d, n))
        for key, poly in gens.entries.items():
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
        det = poly_determinant(differential_matrix(spec))
        gens = extract_generators(spec)
        rebuilt = Poly.zero(n)
        for key, poly in gens.entries.items():
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


def test_extract_rejects_coefficient_not_divisible_by_d_power(monkeypatch):
    """A t^(dk) x^alpha coefficient that d^k does not divide is an error."""
    n = 2
    stray = t_(n) ** 2 * x_(n, 1) * a_(n, 1, 1) ** 2
    real = generators.poly_determinant
    monkeypatch.setattr(generators, "poly_determinant", lambda mat: real(mat) + stray)
    with pytest.raises(VerificationError, match="not divisible by d\\^k = 2"):
        extract_generators(DLinearSpec(2, n))
