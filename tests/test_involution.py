"""State enumeration, classification, the transfer maps and their inverses."""

import pytest

from jacverify.combinatorics import enumerate_compositions, labeling_content
from jacverify.identities import IdentityInstance, identity1_lhs, identity2_lhs
from jacverify.involution import (
    DOMAIN_SIDE,
    IMAGE_SIDE,
    TupleState,
    classify,
    enumerate_states,
    state_weight,
    tau,
    tau_inverse,
    verify_involution,
)
from jacverify.poly import DomainError, Poly, StructuralError, a_


def apply_involution(s: TupleState, variant: int) -> TupleState:
    """tau on the domain side, tau_inverse on the image side."""
    if classify(s).side == DOMAIN_SIDE:
        return tau(s, variant)
    return tau_inverse(s, variant)


def _key(p: Poly) -> tuple:
    """A one-term Poly as a ``state_weight`` key: (exponent tuple, coefficient)."""
    (m, c), = p.terms.items()
    return m, c


def _poly(n: int, weight: tuple) -> Poly:
    return Poly(n, {weight[0]: weight[1]})


def _flipped(weight: tuple) -> tuple:
    return weight[0], -weight[1]


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
        assert labeling_content(s.nu + s.rho, s.n) == (2, 0)


def test_state_weight_signs():
    s = TupleState(1, 2, (1, 1, 2), ((), ()), (), (), ())
    assert state_weight(s) == _key(a_(2, 1, 1) * a_(2, 1, 2)) == _key(_product_weight(s))
    plain = TupleState(1, 2, (1, 1), ((),), (), (), ())
    assert state_weight(plain) == _key(a_(2, 1, 1)) == _key(_product_weight(plain))
    image = tau(plain, 1)
    assert image == TupleState(1, 2, (1,), (), (1,), (1,), ((),))
    assert state_weight(image) == _key(-a_(2, 1, 1)) == _key(_product_weight(image))


@pytest.mark.parametrize("field,value", [
    ("lam", lambda bad: (1, bad)), ("lam", lambda bad: (bad, 2)),
    ("nu", lambda bad: ((bad,),)), ("S", lambda bad: (bad,)),
    ("sigma", lambda bad: (bad,)), ("rho", lambda bad: ((bad,),)),
], ids=["lam-tail", "lam-head", "nu", "S", "sigma", "rho"])
@pytest.mark.parametrize("bad", [0, 3])
def test_a_label_outside_the_range_is_a_structural_error(field, value, bad):
    """A hand-built state with a label of 0 or n+1 is refused, not weighed: at
    index n*i + j, a[i,0] would land on a[i-1,n] and a[i,n+1] on a[i+1,1]."""
    s = TupleState(2, 2, (1, 2), ((1,),), (1,), (1,), ((2,),))
    assert state_weight(s) == _key(_product_weight(s))
    with pytest.raises(StructuralError, match=rf"^label {bad} outside \[1,2\] in "):
        state_weight(s._replace(**{field: value(bad)}))


def test_signed_sums_match_identity_lhs():
    for d, n, alpha, u0, un in [
        (1, 2, (0, 0), 1, 1),
        (2, 2, (1, 1), 1, 2),
        (3, 2, (2, 2), 2, 2),
    ]:
        total = Poly.zero(n)
        for s in enumerate_states(d, n, alpha, u0, un):
            total = total + _poly(n, state_weight(s))
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
    assert state_weight(image) == _flipped(state_weight(s))
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


def _every_state(d: int, n: int):
    """Every state of every instance at (d, n)."""
    for alpha in enumerate_compositions(n * (d - 1), n):
        for u0 in range(1, n + 1):
            for un in range(1, n + 1):
                yield from enumerate_states(d, n, alpha, u0, un)


def test_involutivity_on_every_state():
    """Every state of every instance up to (2,3) and (3,2), both variants: the
    map is an involution that changes side and flips the weight's sign.  Handed
    the state's classification, a map gives the image of its two-argument call,
    and a classification of the other side is still refused."""
    counts = {}
    for d, n in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        counts[d, n] = 0
        for s in _every_state(d, n):
            counts[d, n] += 1
            cls = classify(s)
            domain = cls.side == DOMAIN_SIDE
            fn, other = (tau, tau_inverse) if domain else (tau_inverse, tau)
            flipped = cls._replace(side=IMAGE_SIDE if domain else DOMAIN_SIDE)
            for variant in (1, 2):
                once = fn(s, variant, cls)
                assert once == fn(s, variant)
                with pytest.raises(DomainError, match="applies on the"):
                    fn(s, variant, flipped)
                with pytest.raises(DomainError, match="applies on the"):
                    other(s, variant, cls)
                assert apply_involution(once, variant) == s
                assert classify(once).side != cls.side
                assert state_weight(once) == _flipped(state_weight(s))
    assert counts[2, 3] == 6318 and counts[3, 2] == 320


@pytest.mark.parametrize("tamper", ["sign", "exponent"])
def test_a_tampered_weight_is_a_weight_failure(monkeypatch, tamper):
    """The pair check compares the stored weight keys: one state whose weight has
    one sign or one exponent changed fails it."""
    import jacverify.involution as inv

    honest = inv.state_weight
    victim = verify_involution(2, 3, (1, 1, 1), 1, 2, 1).pairs[5][0]

    def tampered(s):
        m, c = honest(s)
        if s != victim:
            return m, c
        if tamper == "sign":
            return m, -c
        return m[:-1] + (m[-1] + 1,), c

    monkeypatch.setattr(inv, "state_weight", tampered)
    rep = verify_involution(2, 3, (1, 1, 1), 1, 2, 1)
    assert [f["state"] for f in rep.failures if f["kind"] == "weight"] == [victim]


def _product_weight(s: TupleState) -> Poly:
    """The state weight as a product of a_ polynomials, one per path edge, leaf
    label, sigma image and rho label, signed by (-1)^cycles = (-1)^(k + inversions)."""
    w = Poly.one(s.n)
    for i in range(len(s.lam) - 1):
        w = w * a_(s.n, s.lam[i], s.lam[i + 1])
        for lab in s.nu[i]:
            w = w * a_(s.n, s.lam[i], lab)
    for elem, image, row in zip(s.S, s.sigma, s.rho):
        w = w * a_(s.n, elem, image)
        for lab in row:
            w = w * a_(s.n, elem, lab)
    pos = [s.S.index(image) for image in s.sigma]
    inversions = sum(pos[i] > pos[j] for i in range(len(pos)) for j in range(i + 1, len(pos)))
    return w if (len(s.S) + inversions) % 2 == 0 else -w


def test_state_weight_equals_the_factor_product():
    checked = 0
    instances = [(2, 2, alpha) for alpha in enumerate_compositions(2, 2)]
    instances.append((2, 3, (1, 1, 1)))
    for d, n, alpha in instances:
        for u0 in range(1, n + 1):
            for un in range(1, n + 1):
                for s in enumerate_states(d, n, alpha, u0, un):
                    assert state_weight(s) == _key(_product_weight(s)), s
                    checked += 1
    assert checked == 1484


def test_bad_variant_is_an_input_error(monkeypatch):
    """A variant other than 1 or 2 is rejected before any state is built or
    classified, instead of reading as a failed pairing."""
    import jacverify.involution as inv

    def never(*args):
        raise AssertionError("work started before the variant was checked")

    monkeypatch.setattr(inv, "enumerate_states", never)
    monkeypatch.setattr(inv, "classify", never)
    with pytest.raises(DomainError, match=r"^variant must be 1 or 2$"):
        verify_involution(2, 2, (1, 1), 1, 2, 3)
    s = TupleState(1, 2, (1, 1), ((),), (), (), ())
    for fn in (tau, tau_inverse):
        for variant in (0, 3):
            with pytest.raises(DomainError, match=r"^variant must be 1 or 2$"):
                fn(s, variant)


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
        m, c = honest(s)
        return m, abs(c)

    assert verify_involution(2, 2, (1, 1), 1, 2, 1).ok
    monkeypatch.setattr(inv, "state_weight", unsigned)
    rep = verify_involution(2, 2, (1, 1), 1, 2, 1)
    kinds = {f["kind"] for f in rep.failures}
    assert {"weight", "signed-sum"} <= kinds and not rep.ok
    expected = Poly.zero(2)
    for s in enumerate_states(2, 2, (1, 1), 1, 2):
        expected = expected + _poly(2, unsigned(s))
    assert rep.signed_sum == expected and not expected.is_zero()


def test_each_state_weight_built_once(monkeypatch):
    """The pairing check compares stored weights instead of rebuilding them."""
    import jacverify.involution as inv

    calls = []
    honest = inv.state_weight

    def counted(s):
        calls.append(s)
        return honest(s)

    monkeypatch.setattr(inv, "state_weight", counted)
    rep = verify_involution(2, 2, (1, 1), 1, 2, 1)
    assert rep.ok and rep.pairs
    assert len(calls) == rep.states == len(set(calls))


@pytest.mark.parametrize("args,message", [
    ((2, 3, (1, 1, 1, 0), 1, 2, 1), r"alpha \(1, 1, 1, 0\) has 4 parts, not n = 3"),
    ((2, 3, (1, 1), 1, 2, 1), r"alpha \(1, 1\) has 2 parts, not n = 3"),
    ((2, 3, (2, 2, -1), 1, 2, 1), r"alpha \(2, 2, -1\) has a negative part"),
    ((2, 3, (1, 1, 1), 1, 2, 2, (1, 2)), r"beta \(1, 2\) has 2 labels, not d - 1 = 1"),
    ((2, 3, (1, 1, 1), 1, 2, 2, ()), r"beta \(\) has 0 labels, not d - 1 = 1"),
    ((2, 3, (1, 1, 1), 1, 2, 2, (5,)), r"beta \(5,\) has a label outside \[1,3\]"),
    ((2, 3, (1, 1, 1), 1, 2, 2, (0,)), r"beta \(0,\) has a label outside \[1,3\]"),
    ((2, 3, (1, 1, 1), 0, 2, 1), r"u0 = 0 lies outside \[1,3\]"),
    ((2, 3, (1, 1, 1), 1, 4, 1), r"un = 4 lies outside \[1,3\]"),
], ids=["long-alpha", "short-alpha", "negative-part", "long-beta", "empty-beta",
        "beta-above-n", "beta-below-1", "u0-below-1", "un-above-n"])
def test_inputs_of_the_wrong_shape_are_input_errors(monkeypatch, args, message):
    """Each bad input raises DomainError naming its value before any state is
    built, in place of a pairing of no state or an error about an a index."""
    import jacverify.involution as inv

    def never(*args):
        raise AssertionError("states were enumerated before the inputs were checked")

    monkeypatch.setattr(inv, "enumerate_states", never)
    with pytest.raises(DomainError, match=f"^{message}$"):
        verify_involution(*args)


@pytest.mark.parametrize("args", [
    (2, 2, (2, 0), 1, 2, 2, (2,)),  # every state's first row is (1,)
    (3, 2, (4, 0), 2, 1, 2, (1, 2)),
], ids=["d2", "d3"])
def test_a_check_over_no_state_fails(args):
    """A pairing of no state proves nothing, so it is not ok and says why."""
    rep = verify_involution(*args)
    assert rep.states == 0 and rep.pairs == [] and rep.signed_sum.is_zero()
    assert not rep.ok
    assert rep.failures == [{"kind": "no-state", "detail": "no state to check"}]


# Each mutation below breaks one step of the pairing on an instance that
# passes honestly; the check must name that step and not be ok.
_INSTANCE = (2, 2, (1, 1), 1, 2, 1)


def _kinds(rep) -> set:
    assert not rep.ok
    return {f["kind"] for f in rep.failures}


def test_unclassifiable_state_is_a_partition_failure(monkeypatch):
    import jacverify.involution as inv

    honest = inv.classify
    first = enumerate_states(*_INSTANCE[:5])[0]

    def refuse_first(s):
        if s == first:
            raise inv.VerificationError("state not on exactly one side")
        return honest(s)

    assert verify_involution(*_INSTANCE).ok
    monkeypatch.setattr(inv, "classify", refuse_first)
    rep = verify_involution(*_INSTANCE)
    assert "partition" in _kinds(rep)
    [failure] = [f for f in rep.failures if f["kind"] == "partition"]
    assert failure["state"] == first


def test_image_outside_the_state_set_is_a_closure_failure(monkeypatch):
    import jacverify.involution as inv

    monkeypatch.setattr(inv, "tau", lambda s, variant, cls: s._replace(lam=()))
    assert {"closure", "unmatched-image"} == _kinds(verify_involution(*_INSTANCE))


def test_image_on_the_domain_side_is_a_side_failure(monkeypatch):
    import jacverify.involution as inv

    monkeypatch.setattr(inv, "tau", lambda s, variant, cls: s)
    assert {"side", "unmatched-image"} == _kinds(verify_involution(*_INSTANCE))


def test_two_states_with_one_image_are_a_collision(monkeypatch):
    import jacverify.involution as inv

    honest = inv.tau
    images = []

    def one_image(s, variant, cls):
        if not images:
            images.append(honest(s, variant, cls))
        return images[0]

    monkeypatch.setattr(inv, "tau", one_image)
    rep = verify_involution(*_INSTANCE)
    assert "collision" in _kinds(rep)
    assert all(f["partner"] == images[0] for f in rep.failures if f["kind"] == "collision")
    assert [img for _, img, _ in rep.pairs] == images


def test_inverse_that_misses_its_state_is_a_round_trip_failure(monkeypatch):
    import jacverify.involution as inv

    monkeypatch.setattr(inv, "tau_inverse", lambda s, variant, cls: s)
    rep = verify_involution(*_INSTANCE)
    assert {"round-trip"} == _kinds(rep)
    assert rep.pairs == []


def test_image_with_no_preimage_is_unmatched(monkeypatch):
    """Dropping one domain state leaves its image unmatched and the sum nonzero."""
    import jacverify.involution as inv

    honest = inv.enumerate_states
    dropped = next(s for s in honest(*_INSTANCE[:5]) if classify(s).side == DOMAIN_SIDE)
    monkeypatch.setattr(inv, "enumerate_states",
                        lambda *args: [s for s in honest(*args) if s != dropped])
    rep = verify_involution(*_INSTANCE)
    assert {"unmatched-image", "signed-sum"} == _kinds(rep)
    [failure] = [f for f in rep.failures if f["kind"] == "unmatched-image"]
    assert failure["state"] == tau(dropped, 1)
