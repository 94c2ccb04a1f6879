"""Membership certificates: construction, soundness, fern and coefficient sweeps."""

import importlib
from fractions import Fraction
from functools import cache
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacverify import inverse
from jacverify.fern import FernLabeling, z_fern
from jacverify.generators import DLinearSpec, GeneratorSet, JKey
from jacverify.identities import generator_set
from jacverify.inverse import inverse_series
from jacverify.membership import (
    BasisRow,
    _reduce,
    a_monomials_of_degree,
    a_weight,
    build_basis,
    certificate_residual,
    membership,
    verify_fern_lemmas,
    verify_main_theorem,
    weight_block_monomials,
)
from jacverify.poly import DomainError, Poly, VerificationError, a_, monomial_key, x_

# The module itself: the package export ``jacverify.membership`` is the function.
membership_module = importlib.import_module("jacverify.membership")


def _slice_weights(d, n, degree):
    """Every weight that occurs among the a-monomials of one degree."""
    return sorted({a_weight(d, n, m) for m in a_monomials_of_degree(n, degree)})


@cache
def _basis(d, n, degree):
    """The whole degree slice: every weight block it has."""
    return build_basis(DLinearSpec(d, n), degree, _slice_weights(d, n, degree))


def test_build_basis_row_counts():
    assert len(_basis(2, 2, 2).rows) == 2
    assert _basis(2, 2, 1).rows == []
    assert len(_basis(1, 2, 2).rows) == 5


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
    assert not any(e.exceptional for e in report.entries)
    for entry in report.entries:
        assert entry.member and entry.certificate.member


def test_main_theorem_exceptional_orders_reported_not_asserted():
    report = verify_main_theorem(2, [2])
    assert report.ok  # non-members below order 2d are recorded, not failed
    exceptional = [e for e in report.entries if e.exceptional]
    assert exceptional and all(e.N == 2 for e in exceptional)
    assert any(not e.member for e in exceptional)


def test_fern_lemma_non_member_fails(monkeypatch):
    """Fern weights swapped for a pure power, a non-member, fail one by one."""
    monkeypatch.setattr(importlib.import_module("jacverify.membership"), "z_fern",
                        lambda fl: a_(2, 1, 1) ** 2)
    report = verify_fern_lemmas(1)
    assert not report.ok
    assert len(report.failures) == len(report.entries) == 4
    for (u0, u2, nu, cert), failure in zip(report.entries, report.failures):
        assert not cert.member
        assert failure == (u0, u2, nu, str(cert.residual))


def test_main_theorem_non_member_at_order_2d_fails(monkeypatch):
    module = importlib.import_module("jacverify.membership")
    honest = module.coefficient_c

    def one_non_member(spec, i, alpha, N, series):
        return a_(2, 1, 1) ** 4 if (i, alpha) == (2, (1, 2)) else honest(spec, i, alpha, N, series)

    monkeypatch.setattr(module, "coefficient_c", one_non_member)
    report = verify_main_theorem(2, [4])
    assert not report.ok
    [failure] = report.failures
    assert failure[:3] == (2, (1, 2), 4)
    assert [(e.i, e.alpha) for e in report.entries if not e.member] == [(2, (1, 2))]


def test_main_theorem_rejects_bad_orders():
    with pytest.raises(DomainError):
        verify_main_theorem(2, [3])
    with pytest.raises(DomainError):
        verify_main_theorem(2, [0])


def test_main_theorem_refuses_an_empty_list_of_orders():
    """A sweep over no order would pass vacuously: an input error, not a pass."""
    with pytest.raises(DomainError, match="no order"):
        verify_main_theorem(2, [])


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
        gens = generator_set(DLinearSpec(d, n))
        polys.extend(gens[key] for key in gens.keys_sorted())
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


# -- heap-ordered reduction against the rescanning, eager reference -------


def _reduce_rescan(vec, pivots):
    """Reference reduction: rescan the whole vector for each lead term, and
    merge each used pivot's expression in original rows into acc, eagerly.

    pivots map lead monomials to (row vector, row combination)."""
    acc = {}
    residual = {}
    steps = []
    while vec:
        lead = max(vec, key=monomial_key)
        coeff = vec.pop(lead)
        hit = pivots.get(lead)
        if hit is None:
            residual[lead] = coeff
            continue
        steps.append((lead, coeff))
        rowvec, rowcombo = hit
        for m, c in rowvec.items():
            if m == lead:
                continue
            s = vec.get(m, 0) - coeff * c
            if s:
                vec[m] = s
            elif m in vec:
                del vec[m]
        for i, c in rowcombo.items():
            s = acc.get(i, 0) + coeff * c
            if s:
                acc[i] = s
            elif i in acc:
                del acc[i]
    return residual, steps, acc


def _eager_pivots(basis):
    """Elimination on the augmented matrix [A | I]: the basis's rows reduced in
    its order, each pivot keyed by its lead monomial and carrying its full
    expression in original row indices."""
    gens = generator_set(basis.spec)
    rows = basis.rows
    pivots = {}
    for idx in sorted(range(len(rows)), key=lambda i: (len(gens[rows[i].key].terms), i)):
        product = Poly(basis.spec.n, {rows[idx].multiplier: 1}) * gens[rows[idx].key]
        residual, _, acc = _reduce_rescan(dict(product.terms), pivots)
        if residual:
            lead = next(iter(residual))
            lc = Fraction(residual[lead])
            combo = {idx: 1 / lc}
            combo.update((i, -c / lc) for i, c in acc.items())
            pivots[lead] = ({m: c / lc for m, c in residual.items()}, combo)
    return pivots


@st.composite
def _reduction_cases(draw):
    n = draw(st.sampled_from([2, 3]))
    degree = draw(st.integers(2, 5 if n == 2 else 4))
    basis = _basis(2, n, degree)
    monos = a_monomials_of_degree(n, degree)
    coeff = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4))
    vec = {}
    for mono, c in draw(st.lists(st.tuples(st.sampled_from(monos), coeff), max_size=8)):
        vec[mono] = vec.get(mono, 0) + c
    # Add whole basis rows, so that the reduction cancels and members occur.
    for idx, c in draw(st.lists(st.tuples(st.integers(0, max(len(basis.rows) - 1, 0)),
                                          coeff), max_size=4 if basis.rows else 0)):
        row = basis.rows[idx]
        product = Poly(n, {row.multiplier: 1}) * generator_set(DLinearSpec(2, n))[row.key]
        for mono, rc in product.terms.items():
            vec[mono] = vec.get(mono, 0) + c * rc
    return basis, Poly(n, vec).terms


def _reduce_both_ways(basis, terms):
    """_reduce on the basis's monomial indices, its residual and steps mapped
    back to exponent tuples, and the rescan on the eager pivots of the same rows."""
    mon = basis.monomials
    eager = _eager_pivots(basis)
    assert list(eager) == [mon[lead] for lead in basis._pivots]
    for lead, (vec, *_) in basis._pivots.items():
        assert list(eager[mon[lead]][0].items()) == [(mon[i], c) for i, c in vec.items()]
    residual, steps = _reduce({basis._index[m]: c for m, c in terms.items()}, basis._pivots)
    got = ({mon[i]: c for i, c in residual.items()}, [(mon[j], c) for j, c in steps])
    return got, _reduce_rescan(dict(terms), eager)[:2]


@settings(max_examples=150, deadline=None)
@given(_reduction_cases())
def test_heap_reduce_matches_rescan_reference(case):
    got, want = _reduce_both_ways(*case)
    assert list(got[0].items()) == list(want[0].items())
    assert got[1] == want[1]


def test_reduce_in_a_degree_300_slice_matches_rescan():
    spec = DLinearSpec(1, 1)
    target = {(0, 0, 300): 3}
    got, want = _reduce_both_ways(_basis(1, 1, 300), target)
    assert got == want
    assert membership(spec, Poly(1, target)).member


@pytest.mark.parametrize("n,degree", [(2, 6), (3, 5)])
def test_basis_pivot_is_the_largest_monomial_of_its_row(n, degree):
    basis = _basis(2, n, degree)
    mon = basis.monomials
    assert basis._pivots
    for lead, (vec, *_) in basis._pivots.items():
        assert mon[lead] == max((mon[i] for i in vec), key=monomial_key)
        assert vec[lead] == 1


# -- weight blocks ---------------------------------------------------------


def test_membership_rejects_basis_without_the_target_block():
    spec = DLinearSpec(2, 2)
    gens = generator_set(spec)
    target = a_(2, 1, 2) * gens[JKey(1, (1, 0))]  # a member of weight (1, 2)
    assert membership(spec, target).member
    other = build_basis(spec, 3, [(0, 3)])
    assert other.rows
    with pytest.raises(DomainError):
        membership(spec, target, other)
    assert membership(spec, target, build_basis(spec, 3, [(0, 3), (1, 2)])).member
    for weight in [(1, 2, 0), (3,)]:
        with pytest.raises(DomainError):
            build_basis(spec, 3, [weight])
        with pytest.raises(DomainError):
            weight_block_monomials(2, 2, 3, weight)


@pytest.mark.parametrize("weights", [_slice_weights(2, 2, 3), [(-2, 4), (2, 0)]])
def test_build_basis_rejects_generator_off_its_weight(monkeypatch, weights):
    spec = DLinearSpec(2, 2)
    real = generator_set(spec)
    key = JKey(1, (1, 0))  # weight d*alpha = (2, 0); a[1,2]^2 weighs (-2, 4)
    entries = dict(real.entries)
    entries[key] = real[key] + a_(2, 1, 2) ** 2
    monkeypatch.setattr(membership_module, "generator_set", lambda s: GeneratorSet(s, entries))
    with pytest.raises(VerificationError):
        build_basis(spec, 3, weights)


# (d, n, largest degree) small enough to build the whole slice in a test.
_SLICES = [(1, 2, 4), (2, 2, 6), (3, 2, 6), (1, 3, 3), (2, 3, 5)]


@st.composite
def _slice_and_weights(draw):
    d, n, top = draw(st.sampled_from(_SLICES))
    degree = draw(st.integers(0, top))
    weights = draw(st.lists(st.sampled_from(_slice_weights(d, n, degree)),
                            min_size=1, max_size=4, unique=True))
    return d, n, degree, weights


@settings(max_examples=120, deadline=None)
@given(_slice_and_weights(), st.lists(st.integers(-4, 8), min_size=3, max_size=3))
def test_weight_block_monomials_filter_the_slice_in_order(case, stray):
    d, n, degree, weights = case
    monos = a_monomials_of_degree(n, degree)
    # stray: a weight of the right length that the slice may not have.
    for w in weights + [tuple(stray[:n])]:
        want = [m for m in monos if a_weight(d, n, m) == w]
        assert weight_block_monomials(d, n, degree, w) == want


@settings(max_examples=80, deadline=None)
@given(_slice_and_weights())
def test_basis_numbers_its_block_monomials_in_monomial_key_order(case):
    d, n, degree, weights = case
    basis = build_basis(DLinearSpec(d, n), degree, weights)
    blocks = [m for w in weights for m in weight_block_monomials(d, n, degree, w)]
    assert sorted(basis.monomials) == sorted(blocks)
    keys = [monomial_key(m) for m in basis.monomials]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert len(basis._index) == len(basis.monomials)
    assert all(basis.monomials[i] == m for m, i in basis._index.items())


def _pivots_by_monomial(basis):
    """Pivots with monomials as exponent tuples and each trace's row as its
    (key, multiplier), since bases of other weight sets number both apart."""
    mon, rows = basis.monomials, basis.rows
    return {mon[lead]: ([(mon[i], c) for i, c in vec.items()],
                        (rows[idx].key, rows[idx].multiplier), lc,
                        [(mon[j], c) for j, c in steps])
            for lead, (vec, idx, lc, steps) in basis._pivots.items()}


@settings(max_examples=60, deadline=None)
@given(_slice_and_weights())
def test_block_pivots_equal_the_full_build(case):
    d, n, degree, weights = case
    spec = DLinearSpec(d, n)
    full = _pivots_by_monomial(_basis(d, n, degree))
    blocks = _pivots_by_monomial(build_basis(spec, degree, weights))
    # Pivots of one block come in the same order; blocks may interleave.
    for w in weights:
        assert ([lead for lead in blocks if a_weight(d, n, lead) == w]
                == [lead for lead in full if a_weight(d, n, lead) == w])
    assert {a_weight(d, n, lead) for lead in blocks} <= set(weights)
    for lead, entry in blocks.items():
        assert entry == full[lead]


@st.composite
def _multi_weight_targets(draw):
    d, n, top = draw(st.sampled_from(_SLICES))
    degree = draw(st.integers(d, top))
    spec = DLinearSpec(d, n)
    gens = generator_set(spec)
    keys = [k for k in gens.keys_sorted()
            if k.k >= 1 and k.k * d <= degree and not gens[k].is_zero()]
    coeff = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))
    target = Poly.zero(n)
    for key, c in draw(st.lists(st.tuples(st.sampled_from(keys), coeff), max_size=4)):
        mult = draw(st.sampled_from(a_monomials_of_degree(n, degree - key.k * d)))
        target = target + Poly(n, {mult: c}) * gens[key]
    monos = a_monomials_of_degree(n, degree)
    target = target + Poly(n, dict(draw(st.lists(st.tuples(st.sampled_from(monos), coeff),
                                                  max_size=2))))
    return spec, degree, target


@settings(max_examples=80, deadline=None)
@given(_multi_weight_targets())
def test_block_certificates_equal_the_full_build(case):
    spec, degree, target = case
    cert = membership(spec, target)
    full = membership(spec, target, _basis(spec.d, spec.n, degree)) if target else cert
    assert cert.combination == full.combination
    assert cert.residual == full.residual
    assert certificate_residual(spec, cert).is_zero()



@st.composite
def _block_targets(draw):
    """A basis of some weight blocks and a target inside them: rows with
    int or Fraction coefficients, plus stray block monomials."""
    d, n, degree, weights = draw(_slice_and_weights())
    spec = DLinearSpec(d, n)
    basis = build_basis(spec, degree, weights)
    gens = generator_set(spec)
    coeff = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))
    target = Poly.zero(n)
    for idx, c in draw(st.lists(st.tuples(st.integers(0, max(len(basis.rows) - 1, 0)), coeff),
                                max_size=4 if basis.rows else 0)):
        target = target + Poly(n, {basis.rows[idx].multiplier: c}) * gens[basis.rows[idx].key]
    strays = draw(st.lists(st.tuples(st.sampled_from(basis.monomials), coeff), max_size=2))
    return spec, basis, target + Poly(n, dict(strays))


@settings(max_examples=150, deadline=None)
@given(_block_targets())
def test_back_substitution_equals_the_eager_combination(case):
    spec, basis, target = case
    cert = membership(spec, target, basis)
    got = {(key, m): c for key, coeff in cert.combination for m, c in coeff.terms.items()}
    residual, _, acc = _reduce_rescan(dict(target.terms), _eager_pivots(basis))
    rows = basis.rows
    assert got == {(rows[i].key, rows[i].multiplier): c for i, c in acc.items()}
    assert cert.residual.terms == residual
    assert certificate_residual(spec, cert).is_zero()

# -- rows read off the degree-D block listing ------------------------------


def _rows_from_shifted_blocks(spec, degree, weights, gens):
    """The rows as each generator's own multiplier blocks give them: degree
    D - k*d at the shifted weight w - d*alpha, block by block in sorted order."""
    d, n = spec.d, spec.n
    rows = []
    for key in gens.keys_sorted():
        if key.k == 0 or key.k * d > degree or gens[key].is_zero():
            continue
        own = tuple(d * a for a in key.alpha)
        for w in sorted(weights):
            shifted = tuple(a - b for a, b in zip(w, own))
            rows += [BasisRow(key, m)
                     for m in weight_block_monomials(d, n, degree - key.k * d, shifted)]
    return rows


@settings(max_examples=120, deadline=None)
@given(_slice_and_weights(), st.lists(st.tuples(st.integers(-4, 8), st.integers(-4, 8),
                                                st.integers(-4, 8)), max_size=2))
def test_basis_rows_equal_the_shifted_block_construction(case, strays):
    d, n, degree, weights = case
    # strays: weights of the right length, often with an empty block.
    weights = set(weights) | {w[:n] for w in strays}
    spec = DLinearSpec(d, n)
    assert (build_basis(spec, degree, weights).rows
            == _rows_from_shifted_blocks(spec, degree, weights, generator_set(spec)))


def test_build_basis_lists_each_requested_block_once(monkeypatch):
    calls = []
    real = membership_module.weight_block_monomials

    def counting(d, n, degree, weight):
        calls.append((degree, weight))
        return real(d, n, degree, weight)

    monkeypatch.setattr(membership_module, "weight_block_monomials", counting)
    weights = _slice_weights(2, 3, 4) + [(-5, 5, 4)]  # no a-variable weighs below -1
    basis = build_basis(DLinearSpec(2, 3), 4, weights)
    assert basis.rows
    assert sorted(calls) == sorted((4, w) for w in weights)


def test_build_basis_skips_a_zero_generator(monkeypatch):
    spec = DLinearSpec(2, 2)
    real = generator_set(spec)
    entries = dict(real.entries)
    entries[JKey(1, (1, 0))] = Poly.zero(2)
    gens = GeneratorSet(spec, entries)
    monkeypatch.setattr(membership_module, "generator_set", lambda s: gens)
    weights = _slice_weights(2, 2, 4)
    basis = build_basis(spec, 4, weights)
    assert basis.rows == _rows_from_shifted_blocks(spec, 4, weights, gens)
    assert all(row.key != JKey(1, (1, 0)) for row in basis.rows)
