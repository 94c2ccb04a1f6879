"""Sign-reversing involutions on the monomial index set of the identities.

Every monomial in the identity-1 sum is indexed by a tuple state

    (lam, nu, S, sigma, rho)

where lam is the label path of a fern of length n-k (lam[0] = u0,
lam[-1] = un), nu its level labeling, S a k-subset of [1,n] with a
permutation sigma, and rho a k-level labeling feeding the generator
factor.  The signed weight of a state multiplies (-1)^cycles(sigma) into
one a-variable factor per fern edge, per extra leaf, per sigma image and
per rho entry.  ``state_weight`` returns it as (packed key, sign): the key
is the sum of two packed ints, the fern part of (lam, nu) and the generator
part of (S, sigma, rho).  A check's ``Weights`` counts each distinct part
once with ``combinatorics.level_exponents`` and packs it with ``poly``'s
codec, in fields wide enough for a state's total degree n*d, so the sum
never carries.  ``verify_involution`` weighs each state once, sums the
signs per key, compares every pair by its keys and unpacks only for its
report: the signed sum and each distinct pair monomial.

Classification reads only (lam, S), and each map only (lam, S, sigma), the
classification and the variant.  So each is a table keyed by what it reads,
built once per group and shared by every check in the process: the tables
are bounded by n, not by the states checked.  A map's entry holds the
image's (lam, S, sigma) and the row indices that carry nu and rho across,
so mapping a state is two tuple selections from its rho + nu.
``verify_involution`` classifies each state once, hands that
classification to ``tau`` or ``tau_inverse`` and looks each image up once.

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
from functools import cache, partial
from itertools import product
from operator import itemgetter

from .combinatorics import (
    LastRep,
    check_instance,
    composition_sub_or_none,
    cycle_count,
    enumerate_compositions,
    enumerate_level_labelings,
    enumerate_subset_permutations,
    label_paths,
    labeling_content,
    last_rep_indices,
    level_exponents,
)
from .poly import DomainError, Poly, StructuralError, VerificationError, monomial_keys

DOMAIN_SIDE = "domain"
IMAGE_SIDE = "image"


class TupleState(namedtuple("TupleState", "d n lam nu S sigma rho")):
    """One monomial index; sigma lists images aligned with the sorted S."""

    __slots__ = ()


Classification = namedtuple("Classification", "h l1 l2 side")


def enumerate_states(d: int, n: int, alpha: tuple, u0: int, un: int, beta=None) -> list:
    """All states over k = 0..n whose joint nu,rho content equals alpha; with
    ``beta``, only those with nu[0] = beta and k < n, in the same order."""
    if sum(alpha) != n * (d - 1):
        raise DomainError("alpha must have weight n(d-1)")
    if beta is not None:
        first = labeling_content((beta,), n)
    make = partial(tuple.__new__, TupleState)  # product yields a state's seven fields in order
    states = []
    for k in range(n + 1 if beta is None else n):
        path_len = n - k
        paths = label_paths(n, u0, un, path_len)
        if not paths:
            continue
        subset_perms = enumerate_subset_permutations(n, k)
        for alpha1 in enumerate_compositions(k * (d - 1), n):
            rem = composition_sub_or_none(alpha, alpha1)
            if rem is None:
                continue
            if beta is None:
                nus = enumerate_level_labelings(rem, path_len, d)
            else:  # the labelings whose first row is beta, in their order among all
                rem = composition_sub_or_none(rem, first)
                if rem is None:
                    continue
                nus = [(beta,) + nu for nu in enumerate_level_labelings(rem, path_len - 1, d)]
            rhos = enumerate_level_labelings(alpha1, k, d)
            for ssig in subset_perms:  # then lam, nu and rho, rho the innermost
                states += map(make, product((d,), (n,), paths, nus, (ssig.S,), (ssig.sigma,), rhos))
    return states


@cache
def _sign(S: tuple, sigma: tuple) -> int:
    """(-1)^cycles of one (S, sigma), counted once: every state of a sweep
    shares its (S, sigma) with many others."""
    return (-1) ** cycle_count(S, sigma)


class Weights(dict):
    """One check's weight tables at (n, d): the packed key of each distinct fern
    part (lam, nu) and generator part (S, sigma, rho), keyed by the part and
    counted by ``level_exponents`` on its first lookup.  Keys have fields wide
    enough for a state's total degree n*d, so a state's key, the sum of its
    two parts' keys, never carries; ``poly`` and ``monomial`` unpack keys only
    for a report."""

    def __init__(self, n: int, d: int):
        self.key, self._monomials = monomial_keys(n, n * d)
        self.n = n
        self._unpacked = {}

    def __missing__(self, part):
        # A fern part's levels are lam[i] -> lam[i + 1] with row nu[i].
        levels = (part[0], part[0][1:], part[1]) if len(part) == 2 else part
        key = self[part] = self.key(level_exponents(self.n, levels))
        return key

    def poly(self, totals: dict) -> Poly:
        """The Poly of a dict from keys to coefficients; zero coefficients drop out."""
        live = {k: c for k, c in totals.items() if c}
        return Poly(self.n, dict(zip(self._monomials(live), live.values())))

    def monomial(self, key: int) -> tuple:
        """The exponent tuple of one key, unpacked once per distinct key."""
        m = self._unpacked.get(key)
        if m is None:
            [m] = self._monomials([key])
            self._unpacked[key] = m
        return m


def state_weight(s: TupleState, weights: Weights | None = None) -> tuple:
    """Signed monomial weight of one state as (packed key, sign): the key of its
    fern part (lam, nu) plus that of its generator part (S, sigma, rho), read
    from ``weights`` (fresh tables when None); a label outside [1,n] raises
    StructuralError."""
    if weights is None:
        weights = Weights(s.n, s.d)
    try:
        key = weights[s[2:4]] + weights[s[4:]]  # (lam, nu), (S, sigma, rho)
    except StructuralError as exc:
        raise StructuralError(f"{exc} in {s}") from None
    return key, _sign(s.S, s.sigma)


def classify(s: TupleState) -> Classification:
    """Assign the state to exactly one side; anything else is a failure."""
    cls = _classification(s.lam, s.S)
    if cls.side is None:
        rep = None if cls.l1 is None else LastRep(cls.l1, cls.l2)
        raise VerificationError(f"state not on exactly one side: {s}, h={cls.h}, rep={rep}")
    return cls


@cache
def _classification(lam: tuple, S: tuple) -> Classification:
    """``classify``'s table, keyed by the (lam, S) that is all it reads; side
    None marks a state on no side or on both."""
    h = next((idx for idx in range(len(lam) - 1, -1, -1) if lam[idx] in S), None)
    rep = last_rep_indices(lam)
    is_domain = rep is not None and (h is None or h < rep.l1)
    is_image = h is not None and (rep is None or h > rep.l1)
    l1, l2 = rep if rep is not None else (None, None)
    side = None if is_domain == is_image else DOMAIN_SIDE if is_domain else IMAGE_SIDE
    return Classification(h, l1, l2, side)


def _select(rows: list):
    """A function that picks these rows of a tuple into a tuple."""
    if len(rows) > 1:
        return itemgetter(*rows)
    return (lambda t: (t[rows[0]],)) if rows else (lambda t: ())


def tau(s: TupleState, variant: int, cls: Classification | None = None) -> TupleState:
    """Transfer the repeated stretch of lam into sigma (domain side only).

    ``cls`` is ``classify(s)`` when the caller has it; None classifies here."""
    return _transfer("tau", DOMAIN_SIDE, _tau_map, s, variant, cls)


def _transfer(name, side, table, s, variant, cls) -> TupleState:
    """Map ``s`` by the entry of ``table`` for its group, once the variant and
    the side of ``cls`` (``classify(s)`` when None) are checked."""
    if variant not in (1, 2):
        raise DomainError("variant must be 1 or 2")
    if cls is None:
        cls = classify(s)
    if cls.side != side:
        raise DomainError(f"{name} applies on the {side} side")
    lam, S, sigma, nu, rho = table(s.lam, s.S, s.sigma, cls, variant)
    rows = s.rho + s.nu
    return TupleState(s.d, s.n, lam, nu(rows), S, sigma, rho(rows))


@cache
def _tau_map(lam: tuple, S: tuple, sigma: tuple, cls: Classification, variant: int) -> tuple:
    """``tau`` on every state with this (lam, S, sigma): the image's lam, S and
    sigma, and the selections of its nu and rho from the state's rho + nu."""
    k, l1, l2 = len(S), cls.l1, cls.l2
    offset = int(variant == 2 and l2 < len(lam) - 1)  # the cut offset o
    lo, hi = l1 + offset, l2 + offset
    images = dict(zip(S, sigma))
    images.update(zip(lam[l1:l2], lam[l1 + 1:l2 + 1]))
    rows = dict(zip(S, range(k)))
    rows.update(zip(lam[lo:hi], range(k + lo, k + hi)))
    S = tuple(sorted(images))
    return (lam[:lo] + lam[hi:], S, tuple(images[e] for e in S),
            _select([*range(k, k + lo), *range(k + hi, k + len(lam) - 1)]),
            _select([rows[e] for e in S]))


def tau_inverse(s: TupleState, variant: int, cls: Classification | None = None) -> TupleState:
    """Splice the sigma cycle through the deepest path label back into lam
    (image side only); ``cls`` as for ``tau``."""
    return _transfer("tau_inverse", IMAGE_SIDE, _tau_inverse_map, s, variant, cls)


@cache
def _tau_inverse_map(lam: tuple, S: tuple, sigma: tuple, cls: Classification,
                     variant: int) -> tuple:
    """``tau_inverse`` on every state with this (lam, S, sigma), as ``_tau_map``."""
    k, h = len(S), cls.h
    images = dict(zip(S, sigma))
    rows = dict(zip(S, range(k)))
    cyc = [lam[h]]
    while images[cyc[-1]] != cyc[0]:
        cyc.append(images[cyc[-1]])
    S = tuple(e for e in S if e not in cyc)
    offset = int(variant == 2 and h < len(lam) - 1)  # the insertion offset o
    cyc = tuple(cyc[offset:] + cyc[:offset])
    h += offset
    return (lam[:h] + cyc + lam[h:], S, tuple(images[e] for e in S),
            _select([*range(k, k + h), *(rows[e] for e in cyc),
                     *range(k + h, k + len(lam) - 1)]),
            _select([rows[e] for e in S]))


# states, domain_count and image_count count the states and their two sides;
# pairs holds (state, partner, the state's weight as (exponent tuple, sign)) for
# every checked pair.
InvolutionReport = namedtuple(
    "InvolutionReport", "states domain_count image_count pairs failures signed_sum ok")


def verify_involution(d, n, alpha, u0, un, variant, restricted_beta=None) -> InvolutionReport:
    """Check partition, bijection, sign reversal and weight preservation.

    With ``restricted_beta`` only the states with nu[0] = beta and |S| != n
    are built (requires variant 2 and u0 != un); the map must stay inside
    the restricted set, which is what makes the pinned-first-row identity
    follow from the same pairing.  A set with no state fails: a pairing of
    nothing proves nothing.  The inputs are checked before any state is
    built, by ``check_instance``, the rules of an ``IdentityInstance``: a
    bad one raises DomainError, which names the bad value.
    """
    if variant not in (1, 2):
        raise DomainError("variant must be 1 or 2")
    alpha = tuple(alpha)
    if restricted_beta is not None:
        restricted_beta = tuple(restricted_beta)
    check_instance(d, n, alpha, u0, un, restricted_beta)
    if restricted_beta is not None and variant != 2:
        raise DomainError("the restricted pairing uses variant 2")

    states = enumerate_states(d, n, alpha, u0, un, restricted_beta)
    failures = [] if states else [{"kind": "no-state", "detail": "no state to check"}]

    weights = Weights(n, d)
    sides = {}  # state -> its classification, None if it has no side
    totals = {}  # weight key -> the sum of the signs of the states that weigh it
    domain_states = []  # (state, its classification, its weight), handed on to tau
    unmatched = {}  # image-side state -> (its weight, its classification); a pair takes it out
    for s in states:
        w = state_weight(s, weights)
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
    signed_sum = weights.poly(totals)  # drops the monomials whose signs cancel

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
                             "weights": (str(weights.poly({w[0]: w[1]})),
                                         str(weights.poly({wi[0]: wi[1]})))})
            continue
        if tau_inverse(img, variant, img_cls) != s:
            failures.append({"kind": "round-trip", "state": s, "partner": img})
            continue
        pairs.append((s, img, (weights.monomial(w[0]), w[1])))
    missed = sorted(unmatched, key=lambda s: (len(s.S), s.lam, s.nu, s.S, s.sigma, s.rho))
    failures.extend({"kind": "unmatched-image", "state": s} for s in missed)
    if not signed_sum.is_zero():
        failures.append({"kind": "signed-sum", "detail": str(signed_sum)})
    return InvolutionReport(len(states), len(domain_states), image_count, pairs,
                            failures, signed_sum, not failures)

