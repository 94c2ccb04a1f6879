"""Sign-reversing involutions on the monomial index set of the identities.

Every monomial in the identity-1 sum is indexed by a tuple state

    (lam, nu, S, sigma, rho)

where lam is the label path of a fern of length n-k (lam[0] = u0,
lam[-1] = un), nu its level labeling, S a k-subset of [1,n] with a
permutation sigma, and rho a k-level labeling feeding the generator
factor.  The signed weight of a state multiplies (-1)^cycles(sigma) into
one a-variable factor per fern edge, per extra leaf, per sigma image and
per rho entry; ``state_weight`` writes that product straight into one
exponent vector with ``poly.a_monomial``, and ``verify_involution`` sums
the one-term weights in a single term dict.

States split into two sides.  With h the greatest path index whose label
lies in S and (l1, l2) the last-rep indices of lam:

    domain:  (l1, l2) exists and h is absent or h < l1
    image:   h exists and (l1, l2) is absent or h > l1

The transfer maps tau_1 and tau_2 cut the repeated stretch of lam out of
the path, adjoin it to sigma as a new cycle, and move the matching nu
rows into rho.  They differ only in which copy of the repeated label
stays on the path: tau_1 removes positions l1..l2-1, tau_2 removes
l1+1..l2.  Either way each transferred vertex carries the nu row attached
to the edge leaving it, and every surviving subset element keeps its rho
row.  Both maps flip the sign (one extra cycle), preserve the monomial,
and are bijections from the domain side onto the image side, which forces
the total signed sum to vanish.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .combinatorics import (
    composition_sub_or_none,
    cycle_count,
    enumerate_compositions,
    enumerate_level_labelings,
    enumerate_subset_permutations,
    last_rep_indices,
)
from .poly import DomainError, Poly, VerificationError, a_monomial

DOMAIN_SIDE = "domain"
IMAGE_SIDE = "image"


@dataclass(frozen=True)
class TupleState:
    """One monomial index; sigma lists images aligned with the sorted S."""

    d: int
    n: int
    lam: tuple
    nu: tuple
    S: tuple
    sigma: tuple
    rho: tuple

    @property
    def k(self) -> int:
        return len(self.S)

    def sigma_map(self) -> dict:
        return dict(zip(self.S, self.sigma))

    def content(self) -> tuple:
        counts = [0] * self.n
        for row in self.nu + self.rho:
            for e in row:
                counts[e - 1] += 1
        return tuple(counts)


@dataclass(frozen=True)
class Classification:
    h: int | None
    l1: int | None
    l2: int | None
    side: str


def enumerate_states(d: int, n: int, alpha: tuple, u0: int, un: int) -> list:
    """All states over k = 0..n whose joint nu,rho content equals alpha."""
    if sum(alpha) != n * (d - 1):
        raise DomainError("alpha must have weight n(d-1)")
    states = []
    for k in range(n + 1):
        path_len = n - k
        if path_len == 0:
            if u0 != un:
                continue
            paths = [(u0,)]
        else:
            paths = [
                (u0,) + mid + (un,)
                for mid in itertools.product(range(1, n + 1), repeat=path_len - 1)
            ]
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


def state_weight(s: TupleState) -> Poly:
    """Signed monomial weight of one state."""
    entries = []
    for i in range(1, len(s.lam)):
        entries.append((s.lam[i - 1], s.lam[i]))
        entries.extend((s.lam[i - 1], lab) for lab in s.nu[i - 1])
    for i, elem in enumerate(s.S):
        entries.append((elem, s.sigma[i]))
        entries.extend((elem, lab) for lab in s.rho[i])
    return a_monomial(s.n, entries, (-1) ** cycle_count(s.S, s.sigma))


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


def _rebuild_subset(old_S, old_sigma, old_rho, cycle_map, carried_rows):
    """Merge a new cycle into sigma and align rho rows to the sorted set."""
    mapping = dict(zip(old_S, old_sigma))
    mapping.update(cycle_map)
    rows = {elem: old_rho[i] for i, elem in enumerate(old_S)}
    rows.update(carried_rows)
    new_S = tuple(sorted(mapping))
    new_sigma = tuple(mapping[e] for e in new_S)
    new_rho = tuple(rows[e] for e in new_S)
    return new_S, new_sigma, new_rho


def tau(s: TupleState, variant: int) -> TupleState:
    """Transfer the repeated stretch of lam into sigma (domain side only)."""
    if variant not in (1, 2):
        raise DomainError("variant must be 1 or 2")
    cls = classify(s)
    if cls.side != DOMAIN_SIDE:
        raise DomainError("tau applies on the domain side")
    l1, l2 = cls.l1, cls.l2
    last = len(s.lam) - 1

    if variant == 2 and l2 == last:
        variant = 1  # the two transfers coincide at the path end

    cycle_map = {s.lam[i]: s.lam[i + 1] for i in range(l1, l2)}
    if variant == 1:
        new_lam = s.lam[:l1] + s.lam[l2:]
        new_nu = s.nu[:l1] + s.nu[l2:]
        carried = {s.lam[j]: s.nu[j] for j in range(l1, l2)}
    else:
        new_lam = s.lam[: l1 + 1] + s.lam[l2 + 1:]
        new_nu = s.nu[: l1 + 1] + s.nu[l2 + 1:]
        carried = {s.lam[j]: s.nu[j] for j in range(l1 + 1, l2 + 1)}

    new_S, new_sigma, new_rho = _rebuild_subset(s.S, s.sigma, s.rho, cycle_map, carried)
    return TupleState(s.d, s.n, new_lam, new_nu, new_S, new_sigma, new_rho)


def tau_inverse(s: TupleState, variant: int) -> TupleState:
    """Splice the sigma cycle through the deepest path label back into lam."""
    if variant not in (1, 2):
        raise DomainError("variant must be 1 or 2")
    cls = classify(s)
    if cls.side != IMAGE_SIDE:
        raise DomainError("tau_inverse applies on the image side")
    h = cls.h
    b = s.lam[h]
    last = len(s.lam) - 1

    mapping = s.sigma_map()
    cyc = [b]
    cur = mapping[b]
    while cur != b:
        cyc.append(cur)
        cur = mapping[cur]

    rows = {elem: s.rho[i] for i, elem in enumerate(s.S)}
    keep = [e for e in s.S if e not in set(cyc)]
    new_S = tuple(keep)
    new_sigma = tuple(mapping[e] for e in keep)
    new_rho = tuple(rows[e] for e in keep)

    if variant == 2 and h == last:
        variant = 1  # unique reinsertion when b closes the path

    if variant == 1:
        new_lam = s.lam[:h] + tuple(cyc) + s.lam[h:]
        new_nu = s.nu[:h] + tuple(rows[e] for e in cyc) + s.nu[h:]
    else:
        rotated = cyc[1:] + cyc[:1]
        new_lam = s.lam[: h + 1] + tuple(rotated) + s.lam[h + 1:]
        new_nu = s.nu[: h + 1] + tuple(rows[e] for e in rotated) + s.nu[h + 1:]

    return TupleState(s.d, s.n, new_lam, new_nu, new_S, new_sigma, new_rho)


def apply_involution(s: TupleState, variant: int) -> TupleState:
    """tau on the domain side, tau_inverse on the image side."""
    if classify(s).side == DOMAIN_SIDE:
        return tau(s, variant)
    return tau_inverse(s, variant)


@dataclass
class InvolutionReport:
    d: int
    n: int
    alpha: tuple
    u0: int
    un: int
    variant: int
    beta: tuple | None
    states: int = 0
    domain_count: int = 0
    image_count: int = 0
    pairs: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    signed_sum: Poly | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_involution(d, n, alpha, u0, un, variant, restricted_beta=None) -> InvolutionReport:
    """Check partition, bijection, sign reversal and weight preservation.

    With ``restricted_beta`` the state set is cut down to nu[0] = beta and
    |S| != n (requires variant 2 and u0 != un); the map must stay inside
    the restricted set, which is what makes the pinned-first-row identity
    follow from the same pairing.
    """
    report = InvolutionReport(d, n, tuple(alpha), u0, un, variant, restricted_beta)
    if restricted_beta is not None:
        if variant != 2:
            raise DomainError("the restricted pairing uses variant 2")
        if u0 == un:
            raise DomainError("the restricted pairing needs u0 != un")
        restricted_beta = tuple(restricted_beta)

    states = enumerate_states(d, n, tuple(alpha), u0, un)
    if restricted_beta is not None:
        states = [
            s for s in states
            if len(s.S) != n and len(s.nu) >= 1 and s.nu[0] == restricted_beta
        ]
    state_set = set(states)
    report.states = len(states)

    signed: dict = {}
    domain_states = []
    image_states = set()
    for s in states:
        for mono, coeff in state_weight(s).terms.items():
            signed[mono] = signed.get(mono, 0) + coeff
        try:
            side = classify(s).side
        except VerificationError as exc:
            report.failures.append({"kind": "partition", "state": s, "detail": str(exc)})
            continue
        if side == DOMAIN_SIDE:
            domain_states.append(s)
        else:
            image_states.add(s)
    report.domain_count = len(domain_states)
    report.image_count = len(image_states)
    report.signed_sum = Poly(n, signed)

    seen_images = set()
    for s in domain_states:
        try:
            img = tau(s, variant)
        except DomainError as exc:
            report.failures.append({"kind": "transfer", "state": s, "detail": str(exc)})
            continue
        w, wi = state_weight(s), state_weight(img)
        if img not in state_set:
            report.failures.append({"kind": "closure", "state": s, "partner": img})
            continue
        if img not in image_states:
            report.failures.append({"kind": "side", "state": s, "partner": img})
            continue
        if img in seen_images:
            report.failures.append({"kind": "collision", "state": s, "partner": img})
            continue
        seen_images.add(img)
        if w + wi != Poly.zero(n):
            report.failures.append(
                {"kind": "weight", "state": s, "partner": img,
                 "weights": (str(w), str(wi))}
            )
            continue
        back = tau_inverse(img, variant)
        if back != s:
            report.failures.append({"kind": "round-trip", "state": s, "partner": img})
            continue
        report.pairs.append((s, img))
    if seen_images != image_states:
        missed = sorted(
            image_states - seen_images,
            key=lambda s: (len(s.S), s.lam, s.nu, s.S, s.sigma, s.rho),
        )
        for s in missed:
            report.failures.append({"kind": "unmatched-image", "state": s})
    if not report.signed_sum.is_zero():
        report.failures.append({"kind": "signed-sum", "detail": str(report.signed_sum)})
    return report
