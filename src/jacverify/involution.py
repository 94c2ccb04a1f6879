"""Sign-reversing involutions on the monomial index set of the identities.

Every monomial in the identity-1 sum is indexed by a tuple state

    (lam, nu, S, sigma, rho)

where lam is the label path of a fern of length n-k (lam[0] = u0,
lam[-1] = un), nu its level labeling, S a k-subset of [1,n] with a
permutation sigma, and rho a k-level labeling feeding the generator
factor.  The signed weight of a state multiplies (-1)^cycles(sigma) into
one a-variable factor per fern edge, per extra leaf, per sigma image and
per rho entry; ``state_weight`` returns that product as a plain key,
(exponent tuple, sign), its exponents counted by
``combinatorics.level_exponents`` over the fern levels and the generator
levels.  ``verify_involution`` weighs each state once, sums the
signs per exponent tuple, compares every pair by its keys and builds a Poly
only for its report: the signed sum and each pair's weight.  It classifies
each state once, hands that classification to ``tau`` or ``tau_inverse``
and looks each image up once.

States split into two sides.  With h the greatest path index whose label
lies in S and (l1, l2) the last-rep indices of lam:

    domain:  (l1, l2) exists and h is absent or h < l1
    image:   h exists and (l1, l2) is absent or h > l1

The transfer maps cut l2 - l1 slots out of the path, adjoin their labels
to sigma as a new cycle (each to the next path label), and move the nu
rows of the cut slots into rho.  The variants differ by one cut offset,
o = v - 1 (o = 0 when l2 is the last slot): tau_v cuts slots l1+o..l2-1+o,
and as lam[l1] = lam[l2] both cuts take the same labels.  tau_inverse
splices the sigma cycle through lam[h], rotated by o, back in at slot h + o
(o = 0 when h is the last slot); every other subset element keeps its rho
row.  Both maps flip the sign (one extra cycle), preserve the monomial,
and are bijections from the domain side onto the image side, which forces
the total signed sum to vanish.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .combinatorics import (
    composition_sub_or_none,
    cycle_count,
    enumerate_compositions,
    enumerate_level_labelings,
    enumerate_subset_permutations,
    label_paths,
    last_rep_indices,
    level_exponents,
)
from .poly import DomainError, Poly, StructuralError, VerificationError

DOMAIN_SIDE = "domain"
IMAGE_SIDE = "image"


class TupleState(namedtuple("TupleState", "d n lam nu S sigma rho")):
    """One monomial index; sigma lists images aligned with the sorted S."""

    __slots__ = ()


Classification = namedtuple("Classification", "h l1 l2 side")


def enumerate_states(d: int, n: int, alpha: tuple, u0: int, un: int) -> list:
    """All states over k = 0..n whose joint nu,rho content equals alpha."""
    if sum(alpha) != n * (d - 1):
        raise DomainError("alpha must have weight n(d-1)")
    states = []
    for k in range(n + 1):
        path_len = n - k
        paths = label_paths(n, u0, un, path_len)
        if not paths:
            continue
        subset_perms = enumerate_subset_permutations(n, k)
        for alpha1 in enumerate_compositions(k * (d - 1), n):
            rem = composition_sub_or_none(alpha, alpha1)
            if rem is None:
                continue
            nus = enumerate_level_labelings(rem, path_len, d)
            rhos = enumerate_level_labelings(alpha1, k, d)
            for ssig in subset_perms:
                for lam in paths:
                    for nu in nus:
                        for rho in rhos:
                            states.append(
                                TupleState(d, n, lam, nu, ssig.S, ssig.sigma, rho)
                            )
    return states


@cache
def _sign(S: tuple, sigma: tuple) -> int:
    """(-1)^cycles of one (S, sigma), counted once: every state of a sweep
    shares its (S, sigma) with many others."""
    return (-1) ** cycle_count(S, sigma)


def state_weight(s: TupleState) -> tuple:
    """Signed monomial weight of one state as (exponent tuple, sign): its fern
    levels, then its generator levels; a label outside [1,n] raises StructuralError."""
    try:
        e = level_exponents(s.n, (s.lam, s.lam[1:], s.nu), (s.S, s.sigma, s.rho))
    except StructuralError as exc:
        raise StructuralError(f"{exc} in {s}") from None
    return e, _sign(s.S, s.sigma)


def classify(s: TupleState) -> Classification:
    """Assign the state to exactly one side; anything else is a failure."""
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


def tau(s: TupleState, variant: int, cls: Classification | None = None) -> TupleState:
    """Transfer the repeated stretch of lam into sigma (domain side only).

    ``cls`` is ``classify(s)`` when the caller has it; None classifies here."""
    if variant not in (1, 2):
        raise DomainError("variant must be 1 or 2")
    if cls is None:
        cls = classify(s)
    if cls.side != DOMAIN_SIDE:
        raise DomainError("tau applies on the domain side")
    l1, l2 = cls.l1, cls.l2
    offset = int(variant == 2 and l2 < len(s.lam) - 1)  # the cut offset o
    lo, hi = l1 + offset, l2 + offset
    sigma = dict(zip(s.S, s.sigma))
    sigma.update(zip(s.lam[l1:l2], s.lam[l1 + 1:l2 + 1]))
    rows = dict(zip(s.S, s.rho))
    rows.update(zip(s.lam[lo:hi], s.nu[lo:hi]))
    S = tuple(sorted(sigma))
    return TupleState(s.d, s.n, s.lam[:lo] + s.lam[hi:], s.nu[:lo] + s.nu[hi:],
                      S, tuple(sigma[e] for e in S), tuple(rows[e] for e in S))


def tau_inverse(s: TupleState, variant: int, cls: Classification | None = None) -> TupleState:
    """Splice the sigma cycle through the deepest path label back into lam
    (image side only); ``cls`` as for ``tau``."""
    if variant not in (1, 2):
        raise DomainError("variant must be 1 or 2")
    if cls is None:
        cls = classify(s)
    if cls.side != IMAGE_SIDE:
        raise DomainError("tau_inverse applies on the image side")
    h = cls.h
    sigma = dict(zip(s.S, s.sigma))
    rows = dict(zip(s.S, s.rho))
    cyc = [s.lam[h]]
    while sigma[cyc[-1]] != cyc[0]:
        cyc.append(sigma[cyc[-1]])
    on_cycle = set(cyc)
    S = tuple(e for e in s.S if e not in on_cycle)
    offset = int(variant == 2 and h < len(s.lam) - 1)  # the insertion offset o
    cyc = tuple(cyc[offset:] + cyc[:offset])
    h += offset
    return TupleState(s.d, s.n, s.lam[:h] + cyc + s.lam[h:],
                      s.nu[:h] + tuple(rows[e] for e in cyc) + s.nu[h:],
                      S, tuple(sigma[e] for e in S), tuple(rows[e] for e in S))


# states, domain_count and image_count count the states and their two sides;
# pairs holds (state, partner, the state's signed weight) for every checked pair.
InvolutionReport = namedtuple(
    "InvolutionReport", "states domain_count image_count pairs failures signed_sum ok")


def verify_involution(d, n, alpha, u0, un, variant, restricted_beta=None) -> InvolutionReport:
    """Check partition, bijection, sign reversal and weight preservation.

    With ``restricted_beta`` the state set is cut down to nu[0] = beta and
    |S| != n (requires variant 2 and u0 != un); the map must stay inside
    the restricted set, which is what makes the pinned-first-row identity
    follow from the same pairing.  A set with no state fails: a pairing of
    nothing proves nothing.  Inputs of the wrong shape (alpha not n
    nonnegative parts, a label outside [1,n], beta not d-1 labels) raise
    DomainError, which names the bad value.
    """
    if variant not in (1, 2):
        raise DomainError("variant must be 1 or 2")
    alpha = tuple(alpha)
    if len(alpha) != n:
        raise DomainError(f"alpha {alpha} has {len(alpha)} parts, not n = {n}")
    if any(part < 0 for part in alpha):
        raise DomainError(f"alpha {alpha} has a negative part")
    for name, label in (("u0", u0), ("un", un)):
        if not 1 <= label <= n:
            raise DomainError(f"{name} = {label} lies outside [1,{n}]")
    if restricted_beta is not None:
        restricted_beta = tuple(restricted_beta)
        if len(restricted_beta) != d - 1:
            raise DomainError(f"beta {restricted_beta} has {len(restricted_beta)} labels, "
                              f"not d - 1 = {d - 1}")
        if not all(1 <= label <= n for label in restricted_beta):
            raise DomainError(f"beta {restricted_beta} has a label outside [1,{n}]")
        if variant != 2:
            raise DomainError("the restricted pairing uses variant 2")
        if u0 == un:
            raise DomainError("the restricted pairing needs u0 != un")

    states = enumerate_states(d, n, alpha, u0, un)
    if restricted_beta is not None:
        states = [
            s for s in states
            if len(s.S) != n and len(s.nu) >= 1 and s.nu[0] == restricted_beta
        ]
    failures = [] if states else [{"kind": "no-state", "detail": "no state to check"}]

    sides = {}  # state -> its classification, None if it has no side
    totals = {}  # exponent tuple -> the sum of the signs of the states that weigh it
    domain_states = []  # (state, its classification, its weight), handed on to tau
    unmatched = {}  # image-side state -> (its weight, its classification); a pair takes it out
    for s in states:
        w = state_weight(s)
        totals[w[0]] = totals.get(w[0], 0) + w[1]
        try:
            cls = classify(s)
        except VerificationError as exc:
            sides[s] = None
            failures.append({"kind": "partition", "state": s, "detail": str(exc)})
            continue
        sides[s] = cls
        if cls.side == DOMAIN_SIDE:
            domain_states.append((s, cls, w))
        else:
            unmatched[s] = (w, cls)
    image_count = len(unmatched)
    signed_sum = Poly(n, totals)  # drops the exponent tuples whose signs cancel

    pairs = []
    for s, cls, w in domain_states:
        img = tau(s, variant, cls)
        found = unmatched.pop(img, None)
        if found is None:
            if img not in sides:
                kind = "closure"
            elif sides[img] is None or sides[img].side == DOMAIN_SIDE:
                kind = "side"
            else:
                kind = "collision"  # an image-side state that an earlier pair took
            failures.append({"kind": kind, "state": s, "partner": img})
            continue
        wi, img_cls = found
        if wi != (w[0], -w[1]):
            failures.append({"kind": "weight", "state": s, "partner": img,
                             "weights": (str(_poly(n, w)), str(_poly(n, wi)))})
            continue
        if tau_inverse(img, variant, img_cls) != s:
            failures.append({"kind": "round-trip", "state": s, "partner": img})
            continue
        pairs.append((s, img, _poly(n, w)))
    missed = sorted(unmatched, key=lambda s: (len(s.S), s.lam, s.nu, s.S, s.sigma, s.rho))
    failures.extend({"kind": "unmatched-image", "state": s} for s in missed)
    if not signed_sum.is_zero():
        failures.append({"kind": "signed-sum", "detail": str(signed_sum)})
    return InvolutionReport(len(states), len(domain_states), image_count, pairs,
                            failures, signed_sum, not failures)


def _poly(n: int, weight: tuple) -> Poly:
    """The Poly of a ``state_weight`` key, for the report."""
    return Poly(n, {weight[0]: weight[1]})
