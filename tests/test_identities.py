"""Both identities vanish; the two-ones relation is reported faithfully."""

from fractions import Fraction

import pytest

from jacverify.combinatorics import (
    composition_sub_or_none,
    enumerate_compositions,
    enumerate_level_labelings,
)
import jacverify.identities as identities
from jacverify.cli import main
from jacverify.fern import FernLabeling, _path_sum, z_fern
from jacverify.generators import DLinearSpec, GeneratorSet, JKey
from jacverify.identities import (
    IdentityInstance,
    cayley_hamilton_numeric,
    check_relation_2_1s,
    generator_set,
    identity1_instances,
    identity1_lhs,
    identity2_instances,
    identity2_lhs,
    relation_instances,
    relation_report,
)
from jacverify.poly import DomainError, Poly, a_, monomial_key
from jacverify.polytext import format_poly


def _fern(d, n, u0, un, nu):
    return z_fern(FernLabeling(d, n, len(nu), u0, un, nu))


def test_identity1_d1_matches_trace_expansion():
    """At degree 1 the sum telescopes matrix powers against minor sums."""
    n = 2
    gens = generator_set(DLinearSpec(1, n))
    for u0 in (1, 2):
        for un in (1, 2):
            inst = IdentityInstance("identity1", 1, n, (0, 0), u0, un)
            direct = Poly.zero(n)
            for k in range(n + 1):
                power = _fern(1, n, u0, un, ((),) * (n - k))
                direct = direct + power * gens[JKey(k, (0, 0))]
            assert identity1_lhs(inst) == direct
            assert direct.is_zero()


def test_identity1_d2_vanishes():
    inst = IdentityInstance("identity1", 2, 2, (2, 0), 1, 1)
    assert identity1_lhs(inst).is_zero()


def test_identity1_partial_sum_is_minus_top_generator():
    """Dropping the k=n term leaves minus the full-subset generator."""
    d, n = 2, 2
    gens = generator_set(DLinearSpec(d, n))
    for alpha in enumerate_compositions(n * (d - 1), n):
        for u0 in (1, 2):
            for un in (1, 2):
                partial = Poly.zero(n)
                for k in range(n):
                    for alpha1 in enumerate_compositions(k * (d - 1), n):
                        rem = composition_sub_or_none(alpha, alpha1)
                        if rem is None:
                            continue
                        for nu in enumerate_level_labelings(rem, n - k, d):
                            partial = partial + _fern(d, n, u0, un, nu) * gens[JKey(k, alpha1)]
                expected = Poly.zero(n)
                if u0 == un:
                    expected = -gens[JKey(n, alpha)]
                assert partial == expected


def test_identity2_reference_expansion():
    """The pinned instance splits into the binomial fern term plus one
    generator multiple, and the two cancel exactly."""
    d, n = 2, 2
    inst = IdentityInstance("identity2", d, n, (2, 0), 1, 2, (1,))
    gens = generator_set(DLinearSpec(d, n))
    k0 = _fern(d, n, 1, 2, ((1,), (1,)))  # binom(1,1) = 1 labeling survives
    k1 = a_(n, 1, 2) * a_(n, 1, 1) * gens[JKey(1, (1, 0))]
    assert identity2_lhs(inst) == k0 + k1
    assert (k0 + k1).is_zero()


def test_identity2_more_instances_vanish():
    assert identity2_lhs(
        IdentityInstance("identity2", 2, 2, (1, 1), 1, 2, (2,))
    ).is_zero()
    assert identity2_lhs(
        IdentityInstance("identity2", 3, 2, (2, 2), 2, 1, (1, 2))
    ).is_zero()


def test_identity2_preconditions():
    with pytest.raises(DomainError):
        IdentityInstance("identity2", 2, 2, (2, 0), 1, 1, (1,))
    with pytest.raises(DomainError):
        IdentityInstance("identity2", 2, 2, (2, 0), 1, 2, None)
    with pytest.raises(DomainError):
        IdentityInstance("identity1", 2, 2, (1, 0), 1, 1)


def _oracle_sum(inst, gens):
    """The identity's sum over every labeling, one fern path sum at a time."""
    d, n = inst.d, inst.n
    total = Poly.zero(n)
    for k in range(n + 1 if inst.beta is None else n):
        for alpha1 in enumerate_compositions(k * (d - 1), n):
            rem = composition_sub_or_none(inst.alpha, alpha1)
            if rem is None:
                continue
            for nu in enumerate_level_labelings(rem, n - k, d):
                if inst.beta is None or nu[0] == inst.beta:
                    total = total + _path_sum(d, n, inst.u0, inst.un, nu) * gens[JKey(k, alpha1)]
    return total


def test_sweeps_report_a_patched_generator(capsys, monkeypatch):
    """With one coefficient of G[(1, (1,0))] at (2,2) changed, each sweep exits 1 and
    prints NONZERO with the oracle's sum on exactly the instances where that sum
    is nonzero.  The unpatched sweeps pass before and after in the same process,
    so the partial sums cached for one generator set never serve another."""
    d, n = 2, 2
    spec = DLinearSpec(d, n)
    real = generator_set(spec)
    key = JKey(1, (1, 0))
    mono = min(real[key].terms, key=monomial_key)
    patched = GeneratorSet(spec, {**real.entries, key: real[key] + Poly(n, {mono: 1})})
    sweeps = {"identity1": identity1_instances, "identity2": identity2_instances}
    argv = lambda which: [which, "--d", str(d), "--n", str(n), "--all"]

    for which in sweeps:
        assert main(argv(which)) == 0
    capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setattr(identities, "generator_set", lambda s: patched)
        for which, instances in sweeps.items():
            lines = []
            for inst in instances(d, n):
                oracle = _oracle_sum(inst, patched)
                desc = f"alpha=({inst.alpha[0]},{inst.alpha[1]}) u0={inst.u0} un={inst.un}"
                if inst.beta is not None:
                    desc += f" beta=({inst.beta[0]})"
                lines.append(f"{which} d={d} n={n} {desc}: "
                             + ("zero" if oracle.is_zero() else f"NONZERO {format_poly(oracle)}"))
            failures = sum("NONZERO" in line for line in lines)
            assert 0 < failures < len(lines)
            lines.append(f"fail: {len(lines)} checked, {failures} failures")
            assert main(argv(which)) == 1
            assert capsys.readouterr().out == "\n".join(lines) + "\n"
    for which in sweeps:
        assert main(argv(which)) == 0
        assert "NONZERO" not in capsys.readouterr().out


def test_identity1_summands_homogeneous():
    d, n = 2, 2
    gens = generator_set(DLinearSpec(d, n))
    for alpha in enumerate_compositions(n * (d - 1), n):
        for k in range(n + 1):
            for alpha1 in enumerate_compositions(k * (d - 1), n):
                rem = composition_sub_or_none(alpha, alpha1)
                if rem is None:
                    continue
                for nu in enumerate_level_labelings(rem, n - k, d):
                    summand = _fern(d, n, 1, 2, nu) * gens[JKey(k, alpha1)]
                    for m in summand.terms:
                        assert sum(m) == n * d


def test_relation_d2_reports_both_leaf_labels():
    diffs = {v: check_relation_2_1s(2, (1, 0), (1, 0), 1, v) for v in (1, 2)}
    for diff in diffs.values():
        if not diff.is_zero():
            assert diff.is_homogeneous_in_a()
            assert {sum(m) for m in diff.terms} == {4}


@pytest.mark.parametrize("d", [2, 3])
def test_relation_grid_structure(d):
    report = relation_report(d)
    expected = sum(1 for a1 in enumerate_compositions(d - 1, 2) if a1[0] >= 1) \
        * len(enumerate_compositions(d - 1, 2)) * 2
    assert [inst for inst, _ in report.instances] == list(relation_instances(d))
    assert len(report.instances) == expected
    for _, entries in report.instances:
        assert [e.v for e in entries] == [1, 2]
        assert all(e.is_zero or e.homogeneous_2d for e in entries)
    assert report.unsatisfied == sum(
        not any(e.is_zero for e in entries) for _, entries in report.instances)


def test_relation_sweep_needs_d_at_least_two():
    """At d = 1 no instance exists, so the sweep is refused, not passed."""
    with pytest.raises(DomainError, match="d >= 2"):
        relation_report(1)
    with pytest.raises(DomainError, match="d >= 2"):
        list(relation_instances(1))


def test_relation_report_refuses_an_empty_instance_list():
    """A sweep over no instance would report 0 unsatisfied: refused, not passed."""
    with pytest.raises(DomainError, match="no instance"):
        relation_report(2, [])


def test_relation_report_of_one_instance():
    report = relation_report(3, [((1, 1), (2, 0), 2)])
    [(instance, entries)] = report.instances
    assert instance == ((1, 1), (2, 0), 2)
    assert [e.v for e in entries] == [1, 2]
    for e in entries:
        assert e.difference == check_relation_2_1s(3, (1, 1), (2, 0), 2, e.v)
        assert e.is_zero == e.difference.is_zero()
    assert report.unsatisfied == (0 if any(e.is_zero for e in entries) else 1)


def test_relation_rejects_bad_inputs():
    with pytest.raises(DomainError):
        check_relation_2_1s(2, (0, 1), (1, 0), 1, 1)
    with pytest.raises(DomainError):
        check_relation_2_1s(2, (1, 0), (2, 0), 1, 1)


def test_cayley_hamilton_hand_matrix():
    # A = [[1,2],[3,4]]: A^2 - 5A - 2I = 0 since tr = 5 and det = -2
    A = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    A2 = [[sum(A[i][k] * A[k][j] for k in range(2)) for j in range(2)]
          for i in range(2)]
    for i in range(2):
        for j in range(2):
            residual = A2[i][j] - 5 * A[i][j] - (2 if i == j else 0)
            assert residual == 0


def test_cayley_hamilton_numeric_small():
    assert cayley_hamilton_numeric(1, 5, seed=1).ok
    assert cayley_hamilton_numeric(2, 10, seed=2).ok
    report = cayley_hamilton_numeric(4, 3, seed=3)
    assert report.ok and not report.failures


@pytest.mark.parametrize("trials", [0, -1])
def test_cayley_hamilton_numeric_refuses_no_trial(trials):
    """A spot check over no matrix would pass vacuously: an input error."""
    with pytest.raises(DomainError, match="trials must be positive"):
        cayley_hamilton_numeric(2, trials)


def test_cayley_hamilton_numeric_reports_a_matrix_residual(monkeypatch):
    honest = identities._principal_minor_sum
    monkeypatch.setattr(identities, "_principal_minor_sum",
                        lambda A, k: honest(A, k) + (k == 2))
    report = cayley_hamilton_numeric(2, 3, seed=1)
    assert not report.ok
    assert [(trial, what) for trial, what, _, _ in report.failures] == [
        (0, "matrix residual"), (1, "matrix residual"), (2, "matrix residual")]
    # e_2(A) = det(A) one too large leaves the identity matrix as the residual.
    assert all(residual == [[1, 0], [0, 1]] for *_, residual in report.failures)


def test_cayley_hamilton_numeric_reports_an_identity_residual(monkeypatch):
    monkeypatch.setattr(identities, "substitute_numeric", lambda p, assignment: 1)
    report = cayley_hamilton_numeric(2, 2, seed=1)
    assert not report.ok
    assert [(trial, what) for trial, what, _, _ in report.failures] == [
        (trial, f"identity residual at {pair}")
        for trial in (0, 1) for pair in ((1, 1), (1, 2), (2, 1), (2, 2))]


def test_cli_numeric_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(identities, "substitute_numeric", lambda p, assignment: 1)
    argv = ["identity1", "--d", "1", "--n", "2", "--all", "--numeric-trials", "2"]
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["numeric n=2 trials=2 seed=0: FAIL", "fail: 6 checked, 8 failures"]
