"""Membership certificates: construction, soundness, fern and coefficient sweeps."""

from fractions import Fraction
from random import Random

import pytest

from jacverify import inverse
from jacverify.fern import FernLabeling, z_fern
from jacverify.generators import DLinearSpec, JKey
from jacverify.identities import generator_set
from jacverify.inverse import inverse_series
from jacverify.membership import (
    a_monomials_of_degree,
    build_basis,
    certificate_residual,
    membership,
    verify_fern_lemmas,
    verify_main_theorem,
)
from jacverify.poly import DomainError, Poly, a_, x_


def test_build_basis_row_counts():
    assert len(build_basis(DLinearSpec(2, 2), 2).rows) == 2
    assert build_basis(DLinearSpec(2, 2), 1).rows == []
    assert len(build_basis(DLinearSpec(1, 2), 2).rows) == 5


def test_membership_reference_fern_certificate():
    spec = DLinearSpec(2, 2)
    z = z_fern(FernLabeling(2, 2, 2, 1, 2, ((1,), (1,))))
    cert = membership(spec, z)
    assert cert.member
    assert certificate_residual(spec, cert).is_zero()
    # hand-checkable certificate: -a12*a11 times -(a11^2 + a22*a21)
    assert cert.combination == [
        (JKey(1, (1, 0)), -a_(2, 1, 2) * a_(2, 1, 1))
    ]


def test_membership_zero_and_low_degree():
    spec = DLinearSpec(2, 2)
    zero_cert = membership(spec, Poly.zero(2))
    assert zero_cert.member and zero_cert.combination == []
    low = membership(spec, a_(2, 1, 1))
    assert not low.member
    assert low.residual == a_(2, 1, 1)


def test_membership_rejects_inhomogeneous():
    spec = DLinearSpec(2, 2)
    with pytest.raises(DomainError):
        membership(spec, a_(2, 1, 1) ** 2 + a_(2, 1, 1))
    with pytest.raises(DomainError):
        membership(spec, x_(2, 1))


def test_random_combinations_are_members():
    rng = Random(29)
    for d in (1, 2):
        spec = DLinearSpec(d, 2)
        gens = generator_set(spec)
        keys = [k for k in gens.keys_sorted() if k.k >= 1 and not gens[k].is_zero()]
        for _ in range(10):
            degree = rng.choice([d + 1, 2 * d, 2 * d + 1])
            target = Poly.zero(2)
            for key in keys:
                extra = degree - key.k * d
                if extra < 0:
                    continue
                monos = a_monomials_of_degree(2, extra)
                mono = Poly(2, {rng.choice(monos): Fraction(rng.randint(-3, 3))})
                target = target + mono * gens[key]
            cert = membership(spec, target)
            assert cert.member, (d, degree)
            assert certificate_residual(spec, cert).is_zero()


def test_monomial_multiples_are_members():
    spec = DLinearSpec(2, 2)
    gens = generator_set(spec)
    for key in gens.keys_sorted():
        if key.k == 0 or gens[key].is_zero():
            continue
        for mono in a_monomials_of_degree(2, 1):
            product = Poly(2, {mono: Fraction(1)}) * gens[key]
            cert = membership(spec, product)
            assert cert.member
            assert certificate_residual(spec, cert).is_zero()


@pytest.mark.parametrize("d", [1, 2])
def test_fern_lemma_sweep(d):
    report = verify_fern_lemmas(d)
    assert report.ok, report.failures[:1]
    assert len(report.entries) == 4 * d * d
    for _, _, _, cert in report.entries:
        assert cert.member


def test_fern_lemma_d1_matches_power_certificates():
    # degree-1 fern weights are the entries of the squared symbolic matrix
    report = verify_fern_lemmas(1)
    assert report.ok
    spec = DLinearSpec(1, 2)
    for u0, u2, nu, cert in report.entries:
        assert nu == ((), ())
        assert certificate_residual(spec, cert).is_zero()


def test_main_theorem_small_sweep():
    report = verify_main_theorem(2, [4])
    assert report.ok
    assert not report.exceptional_entries()
    for entry in report.entries:
        if entry.certificate is not None:
            assert entry.member


def test_main_theorem_exceptional_orders_reported_not_asserted():
    report = verify_main_theorem(2, [2])
    assert report.ok  # non-members below order 2d are recorded, not failed
    exceptional = report.exceptional_entries()
    assert exceptional and all(e.N == 2 for e in exceptional)
    assert any(not e.member for e in exceptional)


def test_main_theorem_rejects_bad_orders():
    with pytest.raises(DomainError):
        verify_main_theorem(2, [3])
    with pytest.raises(DomainError):
        verify_main_theorem(2, [0])


def test_reduced_matrix_is_exposed():
    basis = build_basis(DLinearSpec(2, 2), 2)
    rows = basis.reduced_matrix()
    assert len(rows) == 2
    assert all(set(r) == {"pivot", "row"} for r in rows)


def test_main_theorem_splits_each_series_component_once(monkeypatch):
    calls = []
    real = inverse.split_xt

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(inverse, "split_xt", counting)
    report = verify_main_theorem(2, [4, 6, 8])
    assert report.ok and report.entries
    assert 1 <= len(calls) <= 2
    assert len({id(p) for p in calls}) == len(calls)


def _stored_coefficients_are_exact(p):
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in p.terms.values())


def test_computed_coefficients_are_int_or_proper_fraction():
    """Generators, series and certificates keep every coefficient exact and canonical."""
    polys = []
    for d, n in ((2, 3), (3, 3)):
        polys.extend(generator_set(DLinearSpec(d, n)).entries.values())
    polys.extend(inverse_series(DLinearSpec(2, 2), 8).components)
    spec = DLinearSpec(2, 2)
    gens = generator_set(spec)
    target = (Fraction(3, 2) * a_(2, 1, 2) ** 2 * gens[JKey(1, (1, 0))]
              + a_(2, 2, 1) * a_(2, 1, 1) * gens[JKey(1, (0, 1))] + a_(2, 1, 1) ** 4)
    cert = membership(spec, target)
    assert not cert.member and cert.residual.terms and cert.combination
    assert certificate_residual(spec, cert).is_zero()
    polys += [cert.target, cert.residual] + [poly for _, poly in cert.combination]
    assert any(type(c) is Fraction for p in polys for c in p.terms.values())
    assert all(_stored_coefficients_are_exact(p) for p in polys)
