"""Command-line entry point: every computation behind one reproducible tool.

Subcommands: gens, z, identity1, identity2, relation, involution, inverse,
member, verify-theorem.  Output is deterministic for a fixed command line
(stable orders, canonical polynomial text), so repeated runs are byte
identical; wall-clock time is tracked on the in-memory report but never
serialized.  Exit codes: 0 pass/member, 1 verification failure or
non-member, 2 usage or input error, including a sweep with no instance
and a count out of range (``--workers`` below 1, ``--numeric-trials``
below 0).

Sweeps (``--all``) run the library's instance enumerations
(``identity1_instances``, ``identity2_instances``) and can shard across
processes: ``--workers`` or the JACVERIFY_WORKERS environment variable set
the width, and results are merged in instance order so parallel runs print
the same bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .combinatorics import enumerate_compositions
from .fern import FernLabeling, z_fern
from .generators import DLinearSpec
from .identities import (
    IdentityInstance,
    cayley_hamilton_numeric,
    check_relation_2_1s,
    generator_set,
    identity1_instances,
    identity1_lhs,
    identity2_instances,
    identity2_lhs,
)
from .inverse import coefficient_c, inverse_series
from .involution import state_weight, verify_involution
from .membership import membership, verify_main_theorem
from .poly import DomainError, Poly, StructuralError, format_poly, parse_poly


@dataclass
class RunConfig:
    """Validated arguments for one dispatch."""

    subcommand: str
    d: int = 0
    n: int = 0
    alpha: tuple | None = None
    alpha1: tuple | None = None
    alpha2: tuple | None = None
    u0: int | None = None
    un: int | None = None
    beta: tuple | None = None
    nu: tuple | None = None
    u: int | None = None
    N_list: tuple | None = None
    n_max: int | None = None
    coeff: tuple | None = None
    poly_text: str | None = None
    variant: int | None = None
    sweep_all: bool = False
    numeric_trials: int = 0
    seed: int = 0
    fmt: str = "text"
    out: str | None = None
    dump: str | None = None
    workers: int = 1


@dataclass
class Report:
    """Outcome of one dispatch; fail implies a structured counterexample."""

    status: str  # pass | fail | info
    counts: dict = field(default_factory=dict)
    payload: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)
    wall_time: float = 0.0
    json_body: dict | None = None  # overrides the envelope when set

    def to_json(self) -> str:
        if self.json_body is not None:
            return json.dumps(self.json_body, indent=2)
        body = {"status": self.status, "counts": self.counts, "payload": self.payload}
        return json.dumps(body, indent=2)

    def to_text(self) -> str:
        return "\n".join(self.lines)


def _parse_ints(text: str, what: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise DomainError(f"{what} must be comma-separated integers, got {text!r}")


def _parse_comp(text: str, parts: int, what: str) -> tuple:
    values = _parse_ints(text, what)
    if len(values) != parts:
        raise DomainError(f"{what} needs exactly {parts} parts, got {len(values)}")
    if any(v < 0 for v in values):
        raise DomainError(f"{what} parts must be nonnegative")
    return values


def _parse_labels(text: str, width: int, n: int, what: str) -> tuple:
    values = () if text == "" else _parse_ints(text, what)
    if len(values) != width:
        raise DomainError(f"{what} needs exactly {width} labels, got {len(values)}")
    if any(not 1 <= v <= n for v in values):
        raise DomainError(f"{what} labels must lie in [1,{n}]")
    return values


def _parse_nu(text: str, d: int, n: int) -> tuple:
    if text == "":
        return ()
    rows = text.split(";")
    return tuple(_parse_labels(row, d - 1, n, "nu row") for row in rows)


# -- sweep workers (module level so process pools can pickle them) -------


def _identity_worker(inst: IdentityInstance) -> dict:
    lhs = identity1_lhs(inst) if inst.which == "identity1" else identity2_lhs(inst)
    return {"alpha": list(inst.alpha), "u0": inst.u0, "un": inst.un,
            **({"beta": list(inst.beta)} if inst.beta is not None else {}),
            "zero": lhs.is_zero(), "lhs": format_poly(lhs)}


def _pmap(fn, tasks, workers: int):
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


# -- subcommand implementations ------------------------------------------


def _run_gens(cfg: RunConfig) -> tuple:
    spec = DLinearSpec(cfg.d, cfg.n)
    gens = generator_set(spec)
    entries = []
    lines = []
    for key in gens.keys_sorted():
        text = format_poly(gens[key])
        entries.append({"k": key.k, "alpha": list(key.alpha), "poly": text})
        lines.append(f"k={key.k} alpha=({','.join(map(str, key.alpha))}): {text}")
    report = Report("info", {"generators": len(entries)}, {"generators": entries}, lines)
    report.json_body = {"d": cfg.d, "n": cfg.n, "generators": entries}
    return report, 0


def _run_z(cfg: RunConfig) -> tuple:
    fl = FernLabeling(cfg.d, cfg.n, len(cfg.nu), cfg.u0, cfg.un, cfg.nu)
    text = format_poly(z_fern(fl))
    report = Report("info", {}, {"poly": text}, [text])
    report.json_body = {
        "d": cfg.d, "n": cfg.n, "u0": cfg.u0, "uk": cfg.un,
        "nu": [list(r) for r in cfg.nu], "poly": text,
    }
    return report, 0


def _run_identity(which: str, cfg: RunConfig) -> tuple:
    if cfg.sweep_all:
        sweep = identity1_instances if which == "identity1" else identity2_instances
        instances = sweep(cfg.d, cfg.n)
    else:
        instances = [IdentityInstance(which, cfg.d, cfg.n, cfg.alpha, cfg.u0, cfg.un,
                                      cfg.beta)]
    generator_set(DLinearSpec(cfg.d, cfg.n))  # warm the shared cache once
    results = _pmap(_identity_worker, instances, cfg.workers)
    failures = [r for r in results if not r["zero"]]
    lines = []
    for r in results:
        desc = f"alpha=({','.join(map(str, r['alpha']))}) u0={r['u0']} un={r['un']}"
        if "beta" in r:
            desc += f" beta=({','.join(map(str, r['beta']))})"
        lines.append(f"{which} d={cfg.d} n={cfg.n} {desc}: "
                     + ("zero" if r["zero"] else f"NONZERO {r['lhs']}"))
    payload = {"d": cfg.d, "n": cfg.n, "instances": results}
    counts = {"checked": len(results), "failures": len(failures)}

    code = 0 if not failures else 1
    if which == "identity1" and cfg.numeric_trials > 0:
        if cfg.d != 1:
            raise DomainError("--numeric-trials applies at d=1 only")
        num = cayley_hamilton_numeric(cfg.n, cfg.numeric_trials, cfg.seed)
        payload["numeric"] = {
            "n": cfg.n, "trials": cfg.numeric_trials, "seed": cfg.seed,
            "ok": num.ok, "failures": len(num.failures),
        }
        lines.append(
            f"numeric n={cfg.n} trials={cfg.numeric_trials} seed={cfg.seed}: "
            + ("pass" if num.ok else "FAIL")
        )
        counts["checked"] += cfg.numeric_trials
        if not num.ok:
            counts["failures"] += len(num.failures)
            code = 1
    status = "pass" if code == 0 else "fail"
    lines.append(f"{status}: {counts['checked']} checked, {counts['failures']} failures")
    return Report(status, counts, payload, lines), code


def _run_relation(cfg: RunConfig) -> tuple:
    d = cfg.d
    if cfg.sweep_all:
        triples = [(a1, a2, u)
                   for a1 in enumerate_compositions(d - 1, 2) if a1[0] >= 1
                   for a2 in enumerate_compositions(d - 1, 2)
                   for u in (1, 2)]
    else:
        triples = [(cfg.alpha1, cfg.alpha2, cfg.u)]
    entries = []
    lines = []
    unsatisfied = 0
    for a1, a2, u in triples:
        zero_vs = []
        for v in (1, 2):
            diff = check_relation_2_1s(d, a1, a2, u, v)
            degs = {sum(m) for m in diff.terms}
            homog = diff.is_homogeneous_in_a() and degs <= {2 * d}
            entries.append({
                "alpha1": list(a1), "alpha2": list(a2), "u": u, "v": v,
                "zero": diff.is_zero(), "homogeneous_2d": homog,
                "difference": format_poly(diff),
            })
            if diff.is_zero():
                zero_vs.append(v)
            lines.append(
                f"relation d={d} alpha1=({','.join(map(str, a1))}) "
                f"alpha2=({','.join(map(str, a2))}) u={u} v={v}: "
                + ("zero" if diff.is_zero() else
                   "nonzero" + (" homogeneous-2d" if homog else " INHOMOGENEOUS"))
            )
        if zero_vs:
            lines.append(f"  satisfied by v={zero_vs}")
        else:
            unsatisfied += 1
    counts = {"checked": len(entries), "failures": unsatisfied}
    status = "pass" if unsatisfied == 0 else "info"
    lines.append(f"{status}: zero for some v on "
                 f"{len(triples) - unsatisfied} of {len(triples)} instances")
    report = Report(status, counts, {"d": d, "entries": entries}, lines)
    return report, 0 if unsatisfied == 0 else 1


def _state_json(s) -> dict:
    return {
        "lambda": list(s.lam),
        "nu": [list(r) for r in s.nu],
        "S": list(s.S),
        "sigma": [list(p) for p in zip(s.S, s.sigma)],
        "rho": [list(r) for r in s.rho],
    }


def _run_involution(cfg: RunConfig) -> tuple:
    rep = verify_involution(cfg.d, cfg.n, cfg.alpha, cfg.u0, cfg.un,
                            cfg.variant, cfg.beta)
    desc = (f"involution d={cfg.d} n={cfg.n} alpha=({','.join(map(str, cfg.alpha))}) "
            f"u0={cfg.u0} un={cfg.un} variant={cfg.variant}")
    if cfg.beta is not None:
        desc += f" beta=({','.join(map(str, cfg.beta))})"
    status = "pass" if rep.ok else "fail"
    lines = [f"{desc}: {status} (states={rep.states}, domain={rep.domain_count}, "
             f"image={rep.image_count}, pairs={len(rep.pairs)})"]
    for f in rep.failures:
        lines.append(f"  FAILURE {f['kind']}: {f}")
    pairs_json = []
    for s, img in rep.pairs:
        w = state_weight(s)
        (mono, coeff), = w.terms.items()
        pairs_json.append({
            "state": _state_json(s),
            "partner": _state_json(img),
            "monomial": format_poly(Poly(w.n, {mono: abs(coeff)})),
            "sign": 1 if coeff > 0 else -1,
        })
    payload = {
        "d": cfg.d, "n": cfg.n, "alpha": list(cfg.alpha),
        "u0": cfg.u0, "un": cfg.un, "variant": cfg.variant,
        "beta": list(cfg.beta) if cfg.beta is not None else None,
        "states": rep.states, "pairs": pairs_json,
        "signed_sum": format_poly(rep.signed_sum),
        "failures": [str(f) for f in rep.failures],
    }
    if cfg.dump:
        with open(cfg.dump, "w") as fh:
            json.dump(pairs_json, fh, indent=2)
        lines.append(f"pairs written to {cfg.dump}")
    counts = {"checked": rep.states, "failures": len(rep.failures)}
    return Report(status, counts, payload, lines), 0 if rep.ok else 1


def _run_inverse(cfg: RunConfig) -> tuple:
    spec = DLinearSpec(cfg.d, cfg.n)
    if cfg.coeff is not None:
        i, alpha, N = cfg.coeff
        poly = coefficient_c(spec, i, alpha, N)
        text = format_poly(poly)
        report = Report("info", {}, {}, [text])
        report.json_body = {"d": cfg.d, "n": cfg.n, "i": i, "alpha": list(alpha),
                            "N": N, "poly": text}
        return report, 0
    series = inverse_series(spec, cfg.n_max)
    components = []
    lines = []
    for i in range(1, cfg.n + 1):
        g = series.component(i)
        by_key: dict = {}
        for m, c in g.terms.items():
            key = (m[0], m[1:1 + cfg.n])
            by_key.setdefault(key, {})[(0,) * (1 + cfg.n) + m[1 + cfg.n:]] = c
        coeffs = []
        for (N, alpha) in sorted(by_key):
            text = format_poly(type(g)(cfg.n, by_key[(N, alpha)]))
            coeffs.append({"N": N, "alpha": list(alpha), "poly": text})
            lines.append(f"g[{i}] N={N} alpha=({','.join(map(str, alpha))}): {text}")
        components.append({"i": i, "coefficients": coeffs})
    report = Report("info", {"components": cfg.n}, {}, lines)
    report.json_body = {"d": cfg.d, "n": cfg.n, "N_max": cfg.n_max,
                        "components": components}
    return report, 0


def _run_member(cfg: RunConfig) -> tuple:
    spec = DLinearSpec(cfg.d, cfg.n)
    target = parse_poly(cfg.poly_text, cfg.n)
    cert = membership(spec, target)
    combination = [{"k": key.k, "alpha": list(key.alpha), "coeff": format_poly(c)}
                   for key, c in cert.combination]
    body = {"member": cert.member, "combination": combination,
            "residual": format_poly(cert.residual)}
    lines = ["member" if cert.member else "non-member"]
    for item in combination:
        lines.append(f"  k={item['k']} alpha=({','.join(map(str, item['alpha']))}) "
                     f"coeff: {item['coeff']}")
    if not cert.member:
        lines.append(f"  residual: {body['residual']}")
    report = Report("pass" if cert.member else "fail",
                    {"checked": 1, "failures": 0 if cert.member else 1},
                    body, lines)
    report.json_body = body
    return report, 0 if cert.member else 1


def _run_verify_theorem(cfg: RunConfig) -> tuple:
    rep = verify_main_theorem(cfg.d, list(cfg.N_list))
    entries = []
    lines = []
    for e in rep.entries:
        cert_json = None
        if e.certificate is not None:
            cert_json = {
                "member": e.certificate.member,
                "combination": [
                    {"k": key.k, "alpha": list(key.alpha), "coeff": format_poly(c)}
                    for key, c in e.certificate.combination
                ],
                "residual": format_poly(e.certificate.residual),
            }
        entries.append({"i": e.i, "alpha": list(e.alpha), "N": e.N,
                        "exceptional": e.exceptional, "member": e.member,
                        "certificate": cert_json})
        tag = "member" if e.member else "non-member"
        if e.exceptional:
            tag += " (exceptional, not asserted)"
        lines.append(f"N={e.N} i={e.i} alpha=({','.join(map(str, e.alpha))}): {tag}")
    status = "pass" if rep.ok else "fail"
    counts = {"checked": len(rep.entries), "failures": len(rep.failures)}
    lines.append(f"{status}: {counts['checked']} coefficients, "
                 f"{counts['failures']} failures, "
                 f"{len(rep.exceptional_entries())} exceptional")
    report = Report(status, counts,
                    {"d": cfg.d, "N": list(cfg.N_list), "entries": entries,
                     "failures": [str(f) for f in rep.failures]},
                    lines)
    return report, 0 if rep.ok else 1


_RUNNERS = {
    "gens": _run_gens,
    "z": _run_z,
    "identity1": lambda cfg: _run_identity("identity1", cfg),
    "identity2": lambda cfg: _run_identity("identity2", cfg),
    "relation": _run_relation,
    "involution": _run_involution,
    "inverse": _run_inverse,
    "member": _run_member,
    "verify-theorem": _run_verify_theorem,
}


def dispatch(cfg: RunConfig) -> tuple:
    """Route one validated config; returns (Report, exit code)."""
    start = time.monotonic()
    report, code = _RUNNERS[cfg.subcommand](cfg)
    report.wall_time = time.monotonic() - start
    return report, code


# -- argument parsing -----------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "json"], default="text")
    common.add_argument("--out", metavar="FILE", help="write output to FILE")
    common.add_argument("--workers", type=int, default=None,
                        help="sweep parallelism (default: JACVERIFY_WORKERS or 1)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized numeric spot checks")

    parser = argparse.ArgumentParser(
        prog="jacverify",
        description="Exact verification of trace identities for d-linear maps.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gens", parents=[common],
                       help="print the ideal generators keyed by (k, alpha)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("z", parents=[common], help="print one fern weight element")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u0", type=int, required=True)
    p.add_argument("--uk", type=int, required=True)
    p.add_argument("--nu", default="",
                   help="rows separated by ';', labels by ',' (empty for k=0; "
                        "for d=1 use k-1 bare semicolons)")

    for name in ("identity1", "identity2"):
        p = sub.add_parser(name, parents=[common],
                           help=f"assemble {name} and check it vanishes")
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--alpha", help="composition of n(d-1), comma separated")
        p.add_argument("--u0", type=int)
        p.add_argument("--un", type=int)
        if name == "identity2":
            p.add_argument("--beta", help="(d-1)-tuple of labels, comma separated")
        p.add_argument("--all", action="store_true", dest="sweep_all",
                       help="sweep every admissible instance")
        if name == "identity1":
            p.add_argument("--numeric-trials", type=int, default=0,
                           help="extra random-matrix spot checks (d=1 only)")

    p = sub.add_parser("relation", parents=[common],
                       help="report the two-ones relation differences")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha1", help="composition of d-1 into 2 parts")
    p.add_argument("--alpha2", help="composition of d-1 into 2 parts")
    p.add_argument("--u", type=int, choices=[1, 2])
    p.add_argument("--all", action="store_true", dest="sweep_all")

    p = sub.add_parser("involution", parents=[common],
                       help="verify the sign-reversing pairing on one instance")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--u0", type=int, required=True)
    p.add_argument("--un", type=int, required=True)
    p.add_argument("--variant", type=int, choices=[1, 2], required=True)
    p.add_argument("--beta", help="restrict to states with nu(1)=beta (variant 2)")
    p.add_argument("--dump", metavar="FILE", help="write the pair list as JSON")

    p = sub.add_parser("inverse", parents=[common],
                       help="truncated inverse series or one coefficient")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--Nmax", type=int, dest="n_max")
    p.add_argument("--coeff", help="i,alpha,N (alpha comma separated, n parts)")

    p = sub.add_parser("member", parents=[common],
                       help="ideal membership certificate for a polynomial")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--poly", required=True, help="polynomial in the text grammar")

    p = sub.add_parser("verify-theorem", parents=[common],
                       help="membership sweep of inverse coefficients (n=2)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", required=True, help="comma-separated multiples of d")
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand)
    cfg.fmt = args.format
    cfg.out = args.out
    cfg.seed = getattr(args, "seed", 0)
    env_workers = os.environ.get("JACVERIFY_WORKERS")
    if args.workers is not None:
        cfg.workers = args.workers
    elif env_workers:
        try:
            cfg.workers = int(env_workers)
        except ValueError:
            raise DomainError(f"JACVERIFY_WORKERS must be an integer, got {env_workers!r}")
    if cfg.workers < 1:
        raise DomainError(f"--workers and JACVERIFY_WORKERS must be at least 1, "
                          f"got {cfg.workers}")

    cfg.d = getattr(args, "d", 0)
    cfg.n = getattr(args, "n", 0)
    d, n = cfg.d, cfg.n
    if cfg.subcommand == "relation":
        cfg.n = n = 2

    cfg.sweep_all = getattr(args, "sweep_all", False)
    cfg.numeric_trials = getattr(args, "numeric_trials", 0)
    if cfg.numeric_trials < 0:
        raise DomainError(f"--numeric-trials must be at least 0, got {cfg.numeric_trials}")
    cfg.dump = getattr(args, "dump", None)
    cfg.variant = getattr(args, "variant", None)
    cfg.poly_text = getattr(args, "poly", None)
    cfg.n_max = getattr(args, "n_max", None)

    if cfg.subcommand == "z":
        cfg.u0 = args.u0
        cfg.un = args.uk
        cfg.nu = _parse_nu(args.nu, d, n)
    if cfg.subcommand in ("identity1", "identity2", "involution"):
        if cfg.subcommand == "involution" or not cfg.sweep_all:
            if args.alpha is None or args.u0 is None or args.un is None:
                raise DomainError("need --alpha, --u0 and --un (or --all)")
            cfg.alpha = _parse_comp(args.alpha, n, "alpha")
            cfg.u0, cfg.un = args.u0, args.un
        beta_text = getattr(args, "beta", None)
        if beta_text is not None:
            cfg.beta = _parse_labels(beta_text, d - 1, n, "beta")
        elif cfg.subcommand == "identity2" and not cfg.sweep_all:
            raise DomainError("identity2 needs --beta (or --all)")
    if cfg.subcommand == "relation":
        if d < 2:
            raise DomainError("the two-ones relation needs d >= 2")
        if not cfg.sweep_all:
            if args.alpha1 is None or args.alpha2 is None or args.u is None:
                raise DomainError("need --alpha1, --alpha2 and --u (or --all)")
            cfg.alpha1 = _parse_comp(args.alpha1, 2, "alpha1")
            cfg.alpha2 = _parse_comp(args.alpha2, 2, "alpha2")
            cfg.u = args.u
    if cfg.subcommand == "inverse":
        if args.coeff is not None:
            parts = _parse_ints(args.coeff, "--coeff")
            if len(parts) != n + 2:
                raise DomainError(f"--coeff needs i,alpha({n} parts),N")
            cfg.coeff = (parts[0], parts[1:-1], parts[-1])
        elif args.n_max is None:
            raise DomainError("need --Nmax or --coeff")
    if cfg.subcommand == "verify-theorem":
        cfg.N_list = _parse_ints(args.N, "--N")
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        report, code = dispatch(cfg)
    except (DomainError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = report.to_json() if cfg.fmt == "json" else report.to_text()
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
