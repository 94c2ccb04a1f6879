"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every check is exact rational arithmetic, tolerance zero.  Run with

    pytest tests/test_acceptance.py -v -s

to see the per-criterion lines alongside the pytest verdicts.
"""

import itertools

import pytest

from jacverify.cli import main as cli_main
from jacverify.combinatorics import enumerate_compositions
from jacverify.fern import FernLabeling, z_fern
from jacverify.generators import DLinearSpec, cross_check_generators
from jacverify.identities import (
    IdentityInstance,
    cayley_hamilton_numeric,
    identity1_instances,
    identity1_lhs,
    identity2_instances,
    identity2_lhs,
    relation_report,
)
from jacverify.inverse import (
    coefficient_c,
    degree_law_holds,
    inverse_series,
    tree_oracle_coefficient,
    verify_inverse,
)
from jacverify.involution import verify_involution
from jacverify.membership import (
    certificate_residual,
    verify_fern_lemmas,
    verify_main_theorem,
)


def _report(number, name, ok):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_cayley_hamilton_recovery():
    ok = True
    for n in (2, 3):
        for inst in identity1_instances(1, n):
            ok = ok and identity1_lhs(inst).is_zero()
    for n in (1, 2, 3, 4):
        ok = ok and cayley_hamilton_numeric(n, 100, seed=n).ok
    _report(1, "cayley-hamilton-recovery", ok)


def test_criterion_02_identity1_sweeps():
    ok = True
    counts = {}
    for d, n in [(2, 2), (3, 2), (2, 3)]:
        counts[(d, n)] = 0
        for inst in identity1_instances(d, n):
            ok = ok and identity1_lhs(inst).is_zero()
            counts[(d, n)] += 1
    ok = ok and counts == {(2, 2): 12, (3, 2): 20, (2, 3): 90}
    _report(2, "identity-1-vanishes", ok)


def test_criterion_03_identity2_sweeps():
    ok = True
    for d, n in [(2, 2), (3, 2), (2, 3)]:
        seen = 0
        for inst in identity2_instances(d, n):
            ok = ok and identity2_lhs(inst).is_zero()
            seen += 1
        ok = ok and seen > 0
    _report(3, "identity-2-vanishes", ok)


def test_criterion_04_generator_cross_check():
    ok = True
    for d, n in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]:
        report = cross_check_generators(DLinearSpec(d, n))
        ok = ok and report.ok
    _report(4, "generator-cross-check", ok)


def test_criterion_05_involutions():
    ok = True
    for d, n in [(1, 2), (2, 2), (3, 2)]:
        for alpha in enumerate_compositions(n * (d - 1), n):
            for u0 in (1, 2):
                for un in (1, 2):
                    for variant in (1, 2):
                        rep = verify_involution(d, n, alpha, u0, un, variant)
                        ok = ok and rep.ok
                        lhs = identity1_lhs(
                            IdentityInstance("identity1", d, n, alpha, u0, un))
                        ok = ok and rep.signed_sum == lhs
                    if u0 != un:
                        for beta in itertools.product((1, 2), repeat=d - 1):
                            rep = verify_involution(d, n, alpha, u0, un, 2,
                                                    restricted_beta=beta)
                            # A beta that alpha cannot hold leaves no state, and a
                            # pairing of nothing fails; the identity is then empty.
                            ok = ok and (rep.ok if rep.states else [
                                f["kind"] for f in rep.failures] == ["no-state"])
                            lhs = identity2_lhs(IdentityInstance(
                                "identity2", d, n, alpha, u0, un, beta))
                            ok = ok and rep.signed_sum == lhs
    _report(5, "sign-reversing-involutions", ok)


def test_criterion_06_formal_inverse():
    ok = True
    for d, n, n_max in [(1, 2, 8), (2, 2, 8), (3, 2, 6), (2, 3, 6)]:
        spec = DLinearSpec(d, n)
        ok = ok and verify_inverse(spec, n_max).ok
        ok = ok and degree_law_holds(spec, inverse_series(spec, n_max))
    for d in (1, 2):
        spec = DLinearSpec(d, 2)
        series = inverse_series(spec, 3 * d)
        for N in range(0, 3 * d + 1):
            if N % d != 0:
                continue
            leaves = 1 + (d - 1) * N // d if N else 1
            for i in (1, 2):
                for alpha in enumerate_compositions(leaves, 2):
                    got = tree_oracle_coefficient(spec, i, alpha, N)
                    ok = ok and got == coefficient_c(spec, i, alpha, N, series)
    _report(6, "formal-inverse", ok)


def test_criterion_07_fern_membership():
    ok = True
    for d in (1, 2, 3):
        report = verify_fern_lemmas(d)
        ok = ok and report.ok
        spec = DLinearSpec(d, 2)
        for u0, u2, nu, cert in report.entries:
            ok = ok and cert.member
            ok = ok and certificate_residual(spec, cert).is_zero()
            ok = ok and cert.target == z_fern(FernLabeling(d, 2, 2, u0, u2, nu))
    _report(7, "fern-membership-certificates", ok)


def test_criterion_08_main_theorem_desk_check():
    ok = True
    for d, orders in [(2, [2, 4, 6]), (3, [3, 6])]:
        report = verify_main_theorem(d, orders)
        ok = ok and report.ok
        spec = DLinearSpec(d, 2)
        exceptional = [e for e in report.entries if e.exceptional]
        ok = ok and all(e.N == d for e in exceptional) and exceptional
        for e in report.entries:
            ok = ok and e.member == e.certificate.member
            ok = ok and certificate_residual(spec, e.certificate).is_zero()
            if not e.exceptional:
                ok = ok and e.member
    _report(8, "main-theorem-desk-check", ok)


def test_criterion_09_two_ones_relation():
    ok = True
    findings = {}
    for d in (2, 3):
        report = relation_report(d)
        expected_grid = sum(1 for a1 in enumerate_compositions(d - 1, 2)
                            if a1[0] >= 1) * d * 2 * 2
        entries = [e for _, group in report.instances for e in group]
        ok = ok and len(entries) == expected_grid
        ok = ok and all(e.is_zero or e.homogeneous_2d for e in entries)
        findings[d] = sorted({e.v for e in entries if e.is_zero})
    print(f"ACCEPTANCE 09 note: leaf labels giving zero across the grid: {findings}")
    _report(9, "two-ones-relation-report", ok)


def test_criterion_10_determinism(capsys):
    commands = [
        ["gens", "--d", "2", "--n", "2", "--format", "json"],
        ["identity1", "--d", "2", "--n", "2", "--all"],
        ["identity2", "--d", "2", "--n", "2", "--all", "--format", "json"],
        ["relation", "--d", "2", "--all", "--format", "json"],
        ["involution", "--d", "2", "--n", "2", "--alpha", "1,1", "--u0", "1",
         "--un", "2", "--variant", "1", "--format", "json"],
        ["inverse", "--d", "2", "--n", "2", "--Nmax", "4", "--format", "json"],
        ["member", "--d", "1", "--n", "2", "--poly",
         "a[1,1]^2 + a[1,2]*a[2,1]", "--format", "json"],
        ["verify-theorem", "--d", "2", "--N", "4", "--format", "json"],
    ]
    ok = True
    for argv in commands:
        cli_main(argv)
        first = capsys.readouterr().out
        cli_main(argv)
        second = capsys.readouterr().out
        ok = ok and first == second and first
    with capsys.disabled():
        _report(10, "byte-identical-reports", ok)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
