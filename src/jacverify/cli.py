"""Command-line entry point: every computation behind one reproducible tool.

Subcommands: gens, z, identity1, identity2, relation, involution, inverse,
member, verify-theorem.  This module only parses arguments and formats
what the library computes into a ``Report`` (a JSON body and text lines);
the checking subcommands share one {status, counts, payload} envelope.
Output is deterministic for a fixed command line (stable orders, canonical
polynomial text), so repeated runs are byte identical.  Exit codes: 0
pass/member, 1 verification failure or non-member, 2 usage or input error,
including a sweep with no instance and a count out of range (``--workers``
below 1, ``--numeric-trials`` below 0).

Sweeps (``--all``) run the library's instance enumerations
(``identity1_instances``, ``identity2_instances``, ``relation_instances``
through ``relation_report``); the identity sweeps can shard across
processes: ``--workers`` or the JACVERIFY_WORKERS environment variable set
the width, and results are merged in instance order so parallel runs print
the same bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .fern import FernLabeling, z_fern
from .generators import DLinearSpec
from .identities import (
    IdentityInstance,
    cayley_hamilton_numeric,
    generator_set,
    identity1_instances,
    identity1_lhs,
    identity2_instances,
    identity2_lhs,
    relation_report,
)
from .inverse import coefficient_c, inverse_series
from .involution import verify_involution
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
    """What one dispatch prints: a JSON body and the text lines."""

    body: dict
    lines: list

    def to_json(self) -> str:
        return json.dumps(self.body, indent=2)

    def to_text(self) -> str:
        return "\n".join(self.lines)


def _verdict(status: str, counts: dict, payload: dict, lines: list) -> Report:
    """The {status, counts, payload} envelope of the checking subcommands."""
    return Report({"status": status, "counts": counts, "payload": payload}, lines)


def _tuple_text(values) -> str:
    return ",".join(map(str, values))


def _certificate_json(cert) -> dict:
    return {
        "member": cert.member,
        "combination": [{"k": key.k, "alpha": list(key.alpha), "coeff": format_poly(c)}
                        for key, c in cert.combination],
        "residual": format_poly(cert.residual),
    }


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
    gens = generator_set(DLinearSpec(cfg.d, cfg.n))
    entries = []
    lines = []
    for key in gens.keys_sorted():
        text = format_poly(gens[key])
        entries.append({"k": key.k, "alpha": list(key.alpha), "poly": text})
        lines.append(f"k={key.k} alpha=({_tuple_text(key.alpha)}): {text}")
    return Report({"d": cfg.d, "n": cfg.n, "generators": entries}, lines), 0


def _run_z(cfg: RunConfig) -> tuple:
    fl = FernLabeling(cfg.d, cfg.n, len(cfg.nu), cfg.u0, cfg.un, cfg.nu)
    text = format_poly(z_fern(fl))
    body = {"d": cfg.d, "n": cfg.n, "u0": cfg.u0, "uk": cfg.un,
            "nu": [list(r) for r in cfg.nu], "poly": text}
    return Report(body, [text]), 0


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
        desc = f"alpha=({_tuple_text(r['alpha'])}) u0={r['u0']} un={r['un']}"
        if "beta" in r:
            desc += f" beta=({_tuple_text(r['beta'])})"
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
    return _verdict(status, counts, payload, lines), code


def _run_relation(cfg: RunConfig) -> tuple:
    d = cfg.d
    instances = None if cfg.sweep_all else [(cfg.alpha1, cfg.alpha2, cfg.u)]
    rep = relation_report(d, instances)
    entries = []
    lines = []
    groups = rep.by_instance()
    for (a1, a2, u), group in groups:
        for e in group:
            entries.append({
                "alpha1": list(a1), "alpha2": list(a2), "u": u, "v": e.v,
                "zero": e.is_zero, "homogeneous_2d": e.homogeneous_2d,
                "difference": format_poly(e.difference),
            })
            lines.append(
                f"relation d={d} alpha1=({_tuple_text(a1)}) alpha2=({_tuple_text(a2)}) "
                f"u={u} v={e.v}: "
                + ("zero" if e.is_zero else
                   "nonzero" + (" homogeneous-2d" if e.homogeneous_2d else " INHOMOGENEOUS"))
            )
        zero_vs = [e.v for e in group if e.is_zero]
        if zero_vs:
            lines.append(f"  satisfied by v={zero_vs}")
    counts = {"checked": len(entries), "failures": rep.unsatisfied}
    status = "pass" if rep.unsatisfied == 0 else "info"
    lines.append(f"{status}: zero for some v on "
                 f"{len(groups) - rep.unsatisfied} of {len(groups)} instances")
    report = _verdict(status, counts, {"d": d, "entries": entries}, lines)
    return report, 0 if rep.unsatisfied == 0 else 1


def _state_json(s) -> dict:
    # json writes tuples as arrays, so the state's own tuples serve as is.
    return {"lambda": s.lam, "nu": s.nu, "S": s.S,
            "sigma": tuple(zip(s.S, s.sigma)), "rho": s.rho}


def _run_involution(cfg: RunConfig) -> tuple:
    rep = verify_involution(cfg.d, cfg.n, cfg.alpha, cfg.u0, cfg.un,
                            cfg.variant, cfg.beta)
    desc = (f"involution d={cfg.d} n={cfg.n} alpha=({_tuple_text(cfg.alpha)}) "
            f"u0={cfg.u0} un={cfg.un} variant={cfg.variant}")
    if cfg.beta is not None:
        desc += f" beta=({_tuple_text(cfg.beta)})"
    status = "pass" if rep.ok else "fail"
    lines = [f"{desc}: {status} (states={rep.states}, domain={rep.domain_count}, "
             f"image={rep.image_count}, pairs={len(rep.pairs)})"]
    for f in rep.failures:
        lines.append(f"  FAILURE {f['kind']}: {f}")
    pairs_json = []
    for s, img in rep.pairs:
        w = rep.weights[s]
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
    return _verdict(status, counts, payload, lines), 0 if rep.ok else 1


def _run_inverse(cfg: RunConfig) -> tuple:
    spec = DLinearSpec(cfg.d, cfg.n)
    if cfg.coeff is not None:
        i, alpha, N = cfg.coeff
        text = format_poly(coefficient_c(spec, i, alpha, N))
        body = {"d": cfg.d, "n": cfg.n, "i": i, "alpha": list(alpha), "N": N, "poly": text}
        return Report(body, [text]), 0
    series = inverse_series(spec, cfg.n_max)
    components = []
    lines = []
    for i in range(1, cfg.n + 1):
        heads = series.heads(i)
        coeffs = []
        for head in sorted(heads):
            N, alpha = head[0], head[1:]
            text = format_poly(Poly(cfg.n, heads[head]))
            coeffs.append({"N": N, "alpha": list(alpha), "poly": text})
            lines.append(f"g[{i}] N={N} alpha=({_tuple_text(alpha)}): {text}")
        components.append({"i": i, "coefficients": coeffs})
    body = {"d": cfg.d, "n": cfg.n, "N_max": cfg.n_max, "components": components}
    return Report(body, lines), 0


def _run_member(cfg: RunConfig) -> tuple:
    target = parse_poly(cfg.poly_text, cfg.n)
    body = _certificate_json(membership(DLinearSpec(cfg.d, cfg.n), target))
    lines = ["member" if body["member"] else "non-member"]
    for item in body["combination"]:
        lines.append(f"  k={item['k']} alpha=({_tuple_text(item['alpha'])}) "
                     f"coeff: {item['coeff']}")
    if not body["member"]:
        lines.append(f"  residual: {body['residual']}")
    return Report(body, lines), 0 if body["member"] else 1


def _run_verify_theorem(cfg: RunConfig) -> tuple:
    rep = verify_main_theorem(cfg.d, list(cfg.N_list))
    entries = []
    lines = []
    for e in rep.entries:
        cert_json = None if e.certificate is None else _certificate_json(e.certificate)
        entries.append({"i": e.i, "alpha": list(e.alpha), "N": e.N,
                        "exceptional": e.exceptional, "member": e.member,
                        "certificate": cert_json})
        tag = "member" if e.member else "non-member"
        if e.exceptional:
            tag += " (exceptional, not asserted)"
        lines.append(f"N={e.N} i={e.i} alpha=({_tuple_text(e.alpha)}): {tag}")
    status = "pass" if rep.ok else "fail"
    counts = {"checked": len(rep.entries), "failures": len(rep.failures)}
    lines.append(f"{status}: {counts['checked']} coefficients, "
                 f"{counts['failures']} failures, "
                 f"{len(rep.exceptional_entries())} exceptional")
    payload = {"d": cfg.d, "N": list(cfg.N_list), "entries": entries,
               "failures": [str(f) for f in rep.failures]}
    return _verdict(status, counts, payload, lines), 0 if rep.ok else 1


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
    return _RUNNERS[cfg.subcommand](cfg)


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
