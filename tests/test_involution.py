"""State enumeration, classification, the transfer maps and their inverses."""

from random import Random

import pytest

from jacverify.combinatorics import enumerate_compositions
from jacverify.identities import IdentityInstance, identity1_lhs, identity2_lhs
from jacverify.involution import (
    DOMAIN_SIDE,
    IMAGE_SIDE,
    TupleState,
    apply_involution,
    classify,
    enumerate_states,
    state_weight,
    tau,
    tau_inverse,
    verify_involution,
)
from jacverify.poly import DomainError, Poly, a_


def test_state_counts_d1_cross_counted():
    # closed count: k=0 has n^(path-1) interior paths, k=1 has n subsets,
    # k=2 exists only on the diagonal and contributes the two permutations
    states_eq = enumerate_states(1, 2, (0, 0), 1, 1)
    states_ne = enumerate_states(1, 2, (0, 0), 1, 2)
    assert len(states_eq) == 2 + 2 + 2
    assert len(states_ne) == 2 + 2
    assert len(set(states_eq)) == len(states_eq)


def test_full_subset_states_need_equal_endpoints():
    for s in enumerate_states(1, 2, (0, 0), 1, 2):
        assert len(s.S) < 2
    ks = {len(s.S) for s in enumerate_states(1, 2, (0, 0), 2, 2)}
    assert 2 in ks


def test_states_respect_content_constraint():
    for s in enumerate_states(2, 2, (2, 0), 1, 1):
        assert s.content() == (2, 0)


def test_state_weight_signs():
    s = TupleState(1, 2, (1, 1, 2), ((), ()), (), (), ())
    assert state_weight(s) == a_(2, 1, 1) * a_(2, 1, 2)
    plain = TupleState(1, 2, (1, 1), ((),), (), (), ())
    assert state_weight(plain) == a_(2, 1, 1)
    image = tau(plain, 1)
    assert image == TupleState(1, 2, (1,), (), (1,), (1,), ((),))
    assert state_weight(image) == -a_(2, 1, 1)


def test_signed_sums_match_identity_lhs():
    for d, n, alpha, u0, un in [
        (1, 2, (0, 0), 1, 1),
        (2, 2, (1, 1), 1, 2),
        (3, 2, (2, 2), 2, 2),
    ]:
        total = Poly.zero(n)
        for s in enumerate_states(d, n, alpha, u0, un):
            total = total + state_weight(s)
        inst = IdentityInstance("identity1", d, n, alpha, u0, un)
        assert total == identity1_lhs(inst)


def test_classify_reference_states():
    image = TupleState(1, 2, (1, 2), ((),), (1,), (1,), ((),))
    cls = classify(image)
    assert cls.side == IMAGE_SIDE and cls.h == 0 and cls.l1 is None

    domain = TupleState(1, 2, (1, 1), ((),), (), (), ())
    cls = classify(domain)
    assert cls.side == DOMAIN_SIDE and (cls.l1, cls.l2) == (0, 1) and cls.h is None


def test_classification_total_and_exclusive():
    for d, n, alpha in [(1, 2, (0, 0)), (2, 2, (2, 0)), (3, 2, (1, 3))]:
        for u0 in (1, 2):
            for un in (1, 2):
                for s in enumerate_states(d, n, alpha, u0, un):
                    classify(s)  # raises if the partition claim breaks


def test_tau_reference_application():
    s = TupleState(1, 2, (1, 1, 2), ((), ()), (), (), ())
    image = tau(s, 1)
    assert image == TupleState(1, 2, (1, 2), ((),), (1,), (1,), ((),))
    assert state_weight(image) == -state_weight(s)
    assert tau_inverse(image, 1) == s


def test_tau_variants_coincide_at_path_end():
    # last-rep ending at the final path slot forces the two cuts to agree
    s = TupleState(2, 2, (1, 2, 2), ((1,), (1,)), (), (), ())
    cls = classify(s)
    assert cls.l2 == len(s.lam) - 1
    assert tau(s, 1) == tau(s, 2)


def test_tau_variants_differ_in_row_transfer():
    s = TupleState(2, 2, (1, 1, 2), ((1,), (2,)), (), (), ())
    img1, img2 = tau(s, 1), tau(s, 2)
    assert img1.lam == img2.lam == (1, 2)
    assert img1.S == img2.S == (1,)
    assert img1.nu == ((2,),) and img1.rho == ((1,),)
    assert img2.nu == ((1,),) and img2.rho == ((2,),)
    assert tau_inverse(img1, 1) == s
    assert tau_inverse(img2, 2) == s


def test_tau_inverse_unique_when_b_closes_path():
    s = TupleState(2, 2, (1, 2, 2), ((1,), (1,)), (), (), ())
    img = tau(s, 1)
    assert classify(img).h == len(img.lam) - 1
    assert tau_inverse(img, 1) == tau_inverse(img, 2) == s


def test_tau_side_preconditions():
    domain = TupleState(1, 2, (1, 1), ((),), (), (), ())
    image = tau(domain, 1)
    with pytest.raises(DomainError):
        tau(image, 1)
    with pytest.raises(DomainError):
        tau_inverse(domain, 1)


def test_round_trip_sampled_states():
    rng = Random(23)
    pool = []
    for d, n in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        for alpha in enumerate_compositions(n * (d - 1), n):
            for u0 in range(1, n + 1):
                for un in range(1, n + 1):
                    pool.extend(enumerate_states(d, n, alpha, u0, un))
    domain_pool = [s for s in pool if classify(s).side == DOMAIN_SIDE]
    assert len(domain_pool) >= 1000
    for s in rng.sample(domain_pool, 1000):
        for variant in (1, 2):
            img = tau(s, variant)
            assert tau_inverse(img, variant) == s
            assert state_weight(img) == -state_weight(s)


def test_involutivity_on_every_state():
    for d, n, alpha in [(1, 2, (0, 0)), (2, 2, (1, 1))]:
        for u0, un in [(1, 1), (1, 2), (2, 1)]:
            for s in enumerate_states(d, n, alpha, u0, un):
                for variant in (1, 2):
                    once = apply_involution(s, variant)
                    assert apply_involution(once, variant) == s


def test_verify_involution_passes_and_matches_identity1():
    report = verify_involution(2, 2, (2, 0), 1, 1, 1)
    assert report.ok
    inst = IdentityInstance("identity1", 2, 2, (2, 0), 1, 1)
    assert report.signed_sum == identity1_lhs(inst)
    assert report.domain_count == report.image_count == len(report.pairs)


def test_verify_involution_restricted_matches_identity2():
    report = verify_involution(2, 2, (2, 0), 1, 2, 2, restricted_beta=(1,))
    assert report.ok
    inst = IdentityInstance("identity2", 2, 2, (2, 0), 1, 2, (1,))
    assert report.signed_sum == identity2_lhs(inst)


def test_restricted_preconditions():
    with pytest.raises(DomainError):
        verify_involution(2, 2, (2, 0), 1, 2, 1, restricted_beta=(1,))
    with pytest.raises(DomainError):
        verify_involution(2, 2, (2, 0), 1, 1, 2, restricted_beta=(1,))


def test_dropped_sign_is_caught(monkeypatch):
    """A weight without its cycle sign fails the weight and signed-sum checks,
    so the one-vector weight is really compared, not assumed."""
    import jacverify.involution as inv

    honest = inv.state_weight

    def unsigned(s):
        return Poly(s.n, {m: abs(c) for m, c in honest(s).terms.items()})

    assert verify_involution(2, 2, (1, 1), 1, 2, 1).ok
    monkeypatch.setattr(inv, "state_weight", unsigned)
    rep = verify_involution(2, 2, (1, 1), 1, 2, 1)
    kinds = {f["kind"] for f in rep.failures}
    assert {"weight", "signed-sum"} <= kinds
    assert not rep.signed_sum.is_zero()
