"""The benchmark's workloads: the jacverify command lines each one runs.

Every workload is a list of argv lists for ``python -m jacverify.cli``.
Two workloads are fixed; the other two draw part of their commands from
the workload seed:

* ``inverse_membership`` picks one entry of the member pool recorded in
  ``expected.json``: a member target, built as an integer combination of
  monomial x generator products, and the same target plus a pure power
  ``a[p,q]^7``, which is a non-member because every such power is one.
* ``involution_pairs`` picks, for each of its five instances, a relabeling
  of the variable indices 1..n.  A relabeling maps states to states one to
  one, so every pick does the same work on different input bytes; that
  keeps ``wall_s`` comparable across seeds.

Sizes are chosen so one pass over a workload takes a few seconds on a
2-core machine, which leaves room for several passes per run.
"""

from __future__ import annotations

import itertools
import random
import shlex

MEMBER_DEGREE = 7

WORKLOADS = ("identity_sweep", "generator_expand", "inverse_membership",
             "involution_pairs")

FIXED = {
    # Many instances per command, all built from one generator set: fern
    # weights, level labelings and identity assembly carry the work, and the
    # polynomial layer sees millions of tiny products.
    "identity_sweep": [
        ["identity1", "--d", "2", "--n", "3", "--all"],
        ["identity2", "--d", "2", "--n", "3", "--all"],
        ["identity1", "--d", "6", "--n", "2", "--all"],
        ["identity2", "--d", "6", "--n", "2", "--all"],
    ],
    # A few very large products in the cofactor determinant, then megabytes
    # of formatted output; no fern work and nothing shared between commands.
    "generator_expand": [
        ["gens", "--d", "7", "--n", "3", "--format", "json"],
        ["gens", "--d", "6", "--n", "3", "--format", "json"],
        ["gens", "--d", "2", "--n", "4"],
        ["gens", "--d", "4", "--n", "3"],
    ],
    # Truncated series products, then exact rational elimination: every
    # member command rebuilds its degree slice of the ideal.
    "inverse_membership": [
        ["inverse", "--d", "2", "--n", "2", "--Nmax", "14"],
        ["inverse", "--d", "3", "--n", "2", "--Nmax", "15"],
        ["verify-theorem", "--d", "2", "--N", "4,6,8,10,12"],
    ],
    "involution_pairs": [],
}

# (d, n, alpha, u0, un, variant, beta) before relabeling.  Both variants at
# (3,3) and (2,4), plus one restricted variant-2 instance.
_INVOLUTION_BASES = [
    (3, 3, (2, 2, 2), 1, 2, 1, None),
    (3, 3, (2, 2, 2), 1, 2, 2, None),
    (2, 4, (2, 1, 1, 0), 1, 2, 1, None),
    (2, 4, (2, 1, 1, 0), 1, 2, 2, None),
    (3, 3, (2, 2, 2), 1, 2, 2, (1, 3)),
]


def _csv(values) -> str:
    return ",".join(map(str, values))


def _involution_argv(base, perm) -> list:
    """The base instance with every label i replaced by perm[i - 1]."""
    d, n, alpha, u0, un, variant, beta = base
    moved = [0] * n
    for i, part in enumerate(alpha):
        moved[perm[i] - 1] = part
    argv = ["involution", "--d", str(d), "--n", str(n), "--alpha", _csv(moved),
            "--u0", str(perm[u0 - 1]), "--un", str(perm[un - 1]),
            "--variant", str(variant)]
    if beta is not None:
        argv += ["--beta", _csv(perm[b - 1] for b in beta)]
    return argv + ["--format", "json"]


def involution_orbits() -> list:
    """For each base instance, every relabeled argv (the seed picks one)."""
    return [[_involution_argv(base, perm)
             for perm in itertools.permutations(range(1, base[1] + 1))]
            for base in _INVOLUTION_BASES]


def member_argv(poly_text: str) -> list:
    return ["member", "--d", "2", "--n", "3", "--poly", poly_text]


def commands(workload: str, seed: int, member_pool: list) -> list:
    """(argv, expected verdict line or None) for one pass of a workload.

    The verdict line is known by construction, independently of any
    recorded output; only member commands have one.
    """
    rng = random.Random(f"{workload}:{seed}")
    out = [(argv, None) for argv in FIXED[workload]]
    if workload == "inverse_membership":
        entry = rng.choice(member_pool)
        out.append((member_argv(entry["member"]), "member"))
        out.append((member_argv(entry["non_member"]), "non-member"))
    elif workload == "involution_pairs":
        out += [(rng.choice(orbit), None) for orbit in involution_orbits()]
    return out


def key(argv: list) -> str:
    """The lookup key of a command line in ``expected.json``."""
    return shlex.join(argv)
