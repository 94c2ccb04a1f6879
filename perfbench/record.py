"""Rewrite expected.json: the member pool and every command's recorded output.

Usage, from the root of a checkout:  python3 perfbench/record.py

Run it only when a change is meant to alter jacverify's output bytes; the
benchmark counts any other difference as a failure.  It builds the member
pool, checks each entry's verdict against its construction, then records
the exit code and stdout SHA-256 of every command any seed can pick.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import workloads
from run import HERE, SRC, child_env, cli_argv, execute

POOL_SIZE = 12
PRODUCTS = 3


def member_pool() -> list:
    """Targets built from generators, so each verdict is known in advance."""
    sys.path.insert(0, str(SRC))
    from jacverify import DLinearSpec, Poly, format_poly, generator_set
    from jacverify.membership import a_monomials_of_degree
    from jacverify.poly import a_

    n, degree = 3, workloads.MEMBER_DEGREE
    gens = generator_set(DLinearSpec(2, n))
    keys = [k for k in gens.keys_sorted()
            if k.k >= 1 and 2 * k.k <= degree and not gens[k].is_zero()]
    pool = []
    for index in range(POOL_SIZE):
        rng = random.Random(f"member-pool:{index}")
        target = Poly.zero(n)
        terms = []
        while target.is_zero():
            terms = []
            for _ in range(PRODUCTS):
                key = rng.choice(keys)
                mult = rng.choice(a_monomials_of_degree(n, degree - 2 * key.k))
                coeff = rng.choice([-3, -2, -1, 1, 2, 3])
                monomial = Poly(n, {mult: Fraction(coeff)})
                target = target + monomial * gens[key]
                terms.append({"monomial": format_poly(monomial), "k": key.k,
                              "alpha": list(key.alpha)})
        p, q = rng.randint(1, n), rng.randint(1, n)
        pool.append({
            "member": format_poly(target),
            "non_member": format_poly(target + a_(n, p, q) ** degree),
            "construction": {"products": terms, "power": f"a[{p},{q}]^{degree}"},
        })
    return pool


def main() -> int:
    env = child_env()
    pool = member_pool()
    outputs = {}

    def record(argv, want_code=None):
        out = execute(cli_argv(argv, False), env)
        if want_code is not None and out.code != want_code:
            raise SystemExit(f"{workloads.key(argv)[:120]}: exit {out.code}, "
                             f"construction says {want_code}")
        outputs[workloads.key(argv)] = {"code": out.code, "sha256": out.sha256,
                                        "bytes": out.stdout_bytes}
        print(f"{out.wall_s:6.2f} s  exit {out.code}  {workloads.key(argv)[:100]}",
              flush=True)

    # Every pure power is a non-member, so member + power is a non-member.
    for i in range(1, 4):
        for j in range(1, 4):
            out = execute(cli_argv(workloads.member_argv(
                f"a[{i},{j}]^{workloads.MEMBER_DEGREE}"), False), env)
            if out.code != 1:
                raise SystemExit(f"a[{i},{j}]^{workloads.MEMBER_DEGREE} is a member")
    for entry in pool:
        record(workloads.member_argv(entry["member"]), 0)
        record(workloads.member_argv(entry["non_member"]), 1)
    for fixed in workloads.FIXED.values():
        for argv in fixed:
            record(argv, 0)
    for orbit in workloads.involution_orbits():
        for argv in orbit:
            record(argv, 0)

    path = HERE / "expected.json"
    path.write_text(json.dumps({"member_pool": pool, "outputs": outputs}, indent=1) + "\n")
    print(f"wrote {len(outputs)} outputs to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
