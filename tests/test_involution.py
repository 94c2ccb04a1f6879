"""State enumeration, classification, the transfer maps and their inverses."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacverify.combinatorics import (
    cycle_count,
    enumerate_compositions,
    labeling_content,
    last_rep_indices,
    level_exponents,
)
from jacverify.identities import IdentityInstance, identity1_lhs, identity2_lhs
from jacverify.involution import (
    DOMAIN_SIDE,
    IMAGE_SIDE,
    Classification,
    TupleState,
    Weights,
    classify,
    enumerate_states,
    state_weight,
    tau,
    tau_inverse,
    verify_involution,
)
from jacverify.poly import DomainError, Poly, StructuralError, VerificationError, a_


def apply_involution(s: TupleState, variant: int) -> TupleState:
    """tau on the domain side, tau_inverse on the image side."""
    if classify(s).side == DOMAIN_SIDE:
        return tau(s, variant)
    return tau_inverse(s, variant)


def _weight(s: TupleState, weights: Weights | None = None) -> Poly:
    """The state's weight as a Poly, read back from its packed key."""
    if weights is None:
        weights = Weights(s.n, s.d)
    key, sign = state_weight(s, weights)
    return Poly(s.n, {weights.monomial(key): sign})


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
    assert _weight(s) == a_(2, 1, 1) * a_(2, 1, 2) == _product_weight(s)
    plain = TupleState(1, 2, (1, 1), ((),), (), (), ())
    assert _weight(plain) == a_(2, 1, 1) == _product_weight(plain)
    image = tau(plain, 1)
    assert image == TupleState(1, 2, (1,), (), (1,), (1,), ((),))
    assert _weight(image) == -a_(2, 1, 1) == _product_weight(image)
    assert state_weight(image) == _flipped(state_weight(plain))


@pytest.mark.parametrize("field,value", [
    ("lam", lambda bad: (1, bad)), ("lam", lambda bad: (bad, 2)),
    ("nu", lambda bad: ((bad,),)), ("S", lambda bad: (bad,)),
    ("sigma", lambda bad: (bad,)), ("rho", lambda bad: ((bad,),)),
], ids=["lam-tail", "lam-head", "nu", "S", "sigma", "rho"])
@pytest.mark.parametrize("bad", [0, 3])
def test_a_label_outside_the_range_is_a_structural_error(field, value, bad):
    """A hand-built state with a label of 0 or n+1 is refused, not weighed: at
    index n*i + j, a[i,0] would land on a[i-1,n] and a[i,n+1] on a[i+1,1].  A
    table that has refused a part still refuses it, and still weighs the rest."""
    s = TupleState(2, 2, (1, 2), ((1,),), (1,), (1,), ((2,),))
    weights = Weights(2, 2)
    bad_state = s._replace(**{field: value(bad)})
    for _ in range(2):
        with pytest.raises(StructuralError, match=rf"^label {bad} outside \[1,2\] in "):
            state_weight(bad_state, weights)
        assert _weight(s, weights) == _product_weight(s)


def test_signed_sums_match_identity_lhs():
    for d, n, alpha, u0, un in [
        (1, 2, (0, 0), 1, 1),
        (2, 2, (1, 1), 1, 2),
        (3, 2, (2, 2), 2, 2),
    ]:
        total = Poly.zero(n)
        for s in enumerate_states(d, n, alpha, u0, un):
            total = total + _weight(s)
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
        weights = Weights(n, d)
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
                assert state_weight(once, weights) == _flipped(state_weight(s, weights))
    assert counts[2, 3] == 6318 and counts[3, 2] == 320


@pytest.mark.parametrize("tamper", ["sign", "exponent"])
def test_a_tampered_weight_is_a_weight_failure(monkeypatch, tamper):
    """The pair check compares the stored packed keys: one state whose weight has
    its sign or one exponent changed (t's, the key's lowest field) fails it."""
    import jacverify.involution as inv

    honest = inv.state_weight
    victim = verify_involution(2, 3, (1, 1, 1), 1, 2, 1).pairs[5][0]

    def tampered(s, weights):
        m, c = honest(s, weights)
        if s != victim:
            return m, c
        if tamper == "sign":
            return m, -c
        return m + 1, c

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
                weights = Weights(n, d)
                for s in enumerate_states(d, n, alpha, u0, un):
                    assert _weight(s, weights) == _product_weight(s), s
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

    def unsigned(s, weights):
        m, c = honest(s, weights)
        return m, abs(c)

    assert verify_involution(2, 2, (1, 1), 1, 2, 1).ok
    monkeypatch.setattr(inv, "state_weight", unsigned)
    rep = verify_involution(2, 2, (1, 1), 1, 2, 1)
    kinds = {f["kind"] for f in rep.failures}
    assert {"weight", "signed-sum"} <= kinds and not rep.ok
    expected, weights = Poly.zero(2), Weights(2, 2)
    for s in enumerate_states(2, 2, (1, 1), 1, 2):
        key, sign = unsigned(s, weights)
        expected = expected + Poly(2, {weights.monomial(key): sign})
    assert rep.signed_sum == expected and not expected.is_zero()


def test_each_state_weight_built_once(monkeypatch):
    """The pairing check compares stored weights instead of rebuilding them."""
    import jacverify.involution as inv

    calls = []
    honest = inv.state_weight

    def counted(s, weights):
        calls.append(s)
        return honest(s, weights)

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


# Reference oracles: the per-state classification, maps and tuple-key weight
# that the group-keyed tables replace, read straight off one state each.

def _reference_weight(s: TupleState) -> tuple:
    """(exponent tuple, sign) of one state, both stacks counted in one call."""
    e = level_exponents(s.n, (s.lam, s.lam[1:], s.nu), (s.S, s.sigma, s.rho))
    return e, (-1) ** cycle_count(s.S, s.sigma)


def _reference_classify(s: TupleState) -> Classification:
    in_S = set(s.S)
    h = None
    for idx in range(len(s.lam) - 1, -1, -1):
        if s.lam[idx] in in_S:
            h = idx
            break
    rep = last_rep_indices(s.lam)
    is_domain = rep is not None and (h is None or h < rep.l1)
    is_image = h is not None and (rep is None or h > rep.l1)
    if is_domain == is_image:
        raise VerificationError(f"state not on exactly one side: {s}, h={h}, rep={rep}")
    l1, l2 = (rep.l1, rep.l2) if rep is not None else (None, None)
    return Classification(h, l1, l2, DOMAIN_SIDE if is_domain else IMAGE_SIDE)


def _reference_tau(s: TupleState, variant: int) -> TupleState:
    cls = _reference_classify(s)
    assert cls.side == DOMAIN_SIDE
    l1, l2 = cls.l1, cls.l2
    offset = int(variant == 2 and l2 < len(s.lam) - 1)
    lo, hi = l1 + offset, l2 + offset
    sigma = dict(zip(s.S, s.sigma))
    sigma.update(zip(s.lam[l1:l2], s.lam[l1 + 1:l2 + 1]))
    rows = dict(zip(s.S, s.rho))
    rows.update(zip(s.lam[lo:hi], s.nu[lo:hi]))
    S = tuple(sorted(sigma))
    return TupleState(s.d, s.n, s.lam[:lo] + s.lam[hi:], s.nu[:lo] + s.nu[hi:],
                      S, tuple(sigma[e] for e in S), tuple(rows[e] for e in S))


def _reference_tau_inverse(s: TupleState, variant: int) -> TupleState:
    cls = _reference_classify(s)
    assert cls.side == IMAGE_SIDE
    h = cls.h
    sigma = dict(zip(s.S, s.sigma))
    rows = dict(zip(s.S, s.rho))
    cyc = [s.lam[h]]
    while sigma[cyc[-1]] != cyc[0]:
        cyc.append(sigma[cyc[-1]])
    on_cycle = set(cyc)
    S = tuple(e for e in s.S if e not in on_cycle)
    offset = int(variant == 2 and h < len(s.lam) - 1)
    cyc = tuple(cyc[offset:] + cyc[:offset])
    h += offset
    return TupleState(s.d, s.n, s.lam[:h] + cyc + s.lam[h:],
                      s.nu[:h] + tuple(rows[e] for e in cyc) + s.nu[h:],
                      S, tuple(sigma[e] for e in S), tuple(rows[e] for e in S))


def _assert_matches_reference(s: TupleState, weights: Weights):
    """Weight, classification and both variants' map of one state equal the oracles'."""
    e, sign = _reference_weight(s)
    assert _weight(s, weights) == Poly(s.n, {e: sign}), s
    cls = classify(s)
    assert cls == _reference_classify(s), s
    for variant in (1, 2):
        if cls.side == DOMAIN_SIDE:
            assert tau(s, variant, cls) == _reference_tau(s, variant), (s, variant)
        else:
            assert tau_inverse(s, variant, cls) == _reference_tau_inverse(s, variant), (s, variant)


def test_tables_match_the_reference_on_every_state():
    """Every state of every instance up to (2,3) and (3,2): the group-keyed
    classification, maps and packed weights equal the per-state oracles."""
    counts = {}
    for d, n in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        weights = Weights(n, d)
        counts[d, n] = 0
        for s in _every_state(d, n):
            _assert_matches_reference(s, weights)
            counts[d, n] += 1
    assert counts[2, 3] == 6318 and counts[3, 2] == 320


@st.composite
def _sampled_states(draw):
    """Up to 30 states of one instance at (3,3) or (2,4)."""
    d, n = draw(st.sampled_from([(3, 3), (2, 4)]))
    alpha = draw(st.sampled_from(enumerate_compositions(n * (d - 1), n)))
    u0, un = draw(st.integers(1, n)), draw(st.integers(1, n))
    states = enumerate_states(d, n, alpha, u0, un)
    if not states:
        return d, n, []
    picks = draw(st.lists(st.integers(0, len(states) - 1), min_size=1, max_size=30))
    return d, n, [states[i] for i in picks]


@settings(max_examples=60, deadline=None)
@given(_sampled_states())
def test_tables_match_the_reference_on_sampled_larger_states(sample):
    d, n, states = sample
    weights = Weights(n, d)
    for s in states:
        _assert_matches_reference(s, weights)


@pytest.mark.parametrize("d,n", [(1, 2), (2, 2), (3, 2), (2, 3)])
def test_restricted_states_are_the_filtered_full_set(d, n):
    """For every instance and every beta, the restricted enumeration is the
    full one filtered to nu[0] = beta and |S| != n, in the same order.  At
    d = 1, beta = () and u0 = un, a state with |S| = n has no path edge to
    carry beta, so k = n must be skipped, not given a nu row."""
    nonempty = 0
    for alpha in enumerate_compositions(n * (d - 1), n):
        for u0, un in itertools.product(range(1, n + 1), repeat=2):
            full = enumerate_states(d, n, alpha, u0, un)
            for beta in itertools.product(range(1, n + 1), repeat=d - 1):
                kept = [s for s in full if len(s.S) != n and s.nu and s.nu[0] == beta]
                assert enumerate_states(d, n, alpha, u0, un, beta) == kept
                nonempty += bool(kept)
    assert nonempty


def test_each_weight_part_is_counted_once(monkeypatch):
    """A check calls level_exponents once per distinct fern part (lam, nu) and
    generator part (S, sigma, rho), not once per state."""
    import jacverify.involution as inv

    calls = []
    honest = inv.level_exponents

    def counted(n, *stacks):
        calls.append(stacks)
        return honest(n, *stacks)

    monkeypatch.setattr(inv, "level_exponents", counted)
    args = (3, 3, (2, 2, 2), 1, 2, 1)
    rep = verify_involution(*args)
    states = enumerate_states(*args[:5])
    parts = {(s.lam, s.nu) for s in states} | {(s.S, s.sigma, s.rho) for s in states}
    assert rep.ok and len(calls) == len(parts) < rep.states


def test_group_tables_do_not_grow_with_repeated_checks():
    """The classification and map tables are keyed by (lam, S, sigma), not by
    state: a second check of the same instance, or a check of another alpha at
    the same (d, n) and labels, adds no entry."""
    import jacverify.involution as inv

    tables = (inv._classification, inv._tau_map, inv._tau_inverse_map)
    assert verify_involution(2, 3, (2, 1, 0), 1, 2, 1).ok
    sizes = [t.cache_info().currsize for t in tables]
    assert verify_involution(2, 3, (2, 1, 0), 1, 2, 1).ok
    assert verify_involution(2, 3, (0, 1, 2), 1, 2, 1).ok
    assert [t.cache_info().currsize for t in tables] == sizes
