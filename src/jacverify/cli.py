"""Command-line entry point: every computation behind one reproducible tool.

Subcommands: gens, z, identity1, identity2, relation, involution, inverse,
member, verify-theorem.  This module only parses arguments and formats
what the library computes into a ``Report`` (a JSON body and text lines);
the checking subcommands share one {status, counts, payload} envelope.
Each subparser binds its runner, and the runner reads its own flags from
the argparse namespace and checks them before any work starts.  Output is
deterministic for a fixed command line (stable orders, canonical
polynomial text), so repeated runs are byte identical.  Exit codes: 0
pass/member, 1 verification failure or non-member, 2 usage or input error,
including a sweep with no instance, a count out of range (``--workers``
below 1, ``--numeric-trials`` below 0) and ``--numeric-trials`` at d != 1.

Sweeps (``--all``) run the library's instance enumerations
(``identity1_instances``, ``identity2_instances``, ``relation_instances``
through ``relation_report``); the identity sweeps can shard across
``--workers`` processes, and results are merged in instance order so
parallel runs print the same bytes.
"""

from __future__ import annotations

import argparse
import sys


def _deferred(name: str):
    """A stand-in for the package export ``jacverify.<name>``; the package imports
    the name's home module on the first call.

    Importing the CLI thus loads no library module, and each command loads only
    those it runs.  The stand-in stays this module's attribute, so tests and the
    benchmark tracer can still replace or wrap ``cli.<name>``.
    """

    def stand_in(*args, **kwargs):
        return getattr(sys.modules[__package__], name)(*args, **kwargs)

    stand_in.__name__ = stand_in.__qualname__ = name
    return stand_in


FernLabeling = _deferred("FernLabeling")
z_fern = _deferred("z_fern")
DLinearSpec = _deferred("DLinearSpec")
IdentityInstance = _deferred("IdentityInstance")
cayley_hamilton_numeric = _deferred("cayley_hamilton_numeric")
generator_set = _deferred("generator_set")
identity1_instances = _deferred("identity1_instances")
identity1_lhs = _deferred("identity1_lhs")
identity2_instances = _deferred("identity2_instances")
identity2_lhs = _deferred("identity2_lhs")
relation_report = _deferred("relation_report")
coefficient_c = _deferred("coefficient_c")
inverse_series = _deferred("inverse_series")
verify_involution = _deferred("verify_involution")
membership = _deferred("membership")
verify_main_theorem = _deferred("verify_main_theorem")
Poly = _deferred("Poly")
format_poly = _deferred("format_poly")
parse_poly = _deferred("parse_poly")


def _json_text(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)``, for which json never uses its C encoder,
    from str, int, bool, None, list, tuple and str-keyed dict values; others raise TypeError."""
    from json.encoder import encode_basestring_ascii

    chunks = []  # joined once, so no string is copied per nesting level
    append = chunks.append
    levels = []  # per depth, built once: open [, open {, separator, close ], close }, keys

    def emit(o, depth):
        if isinstance(o, str):
            append(encode_basestring_ascii(o))
        elif o is None or o is True or o is False:
            append("null" if o is None else "true" if o else "false")
        elif isinstance(o, int):
            append(int.__repr__(o))
        elif not isinstance(o, (list, tuple, dict)):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        else:
            if depth == len(levels):
                pad, ind = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
                levels.append(("[" + ind, "{" + ind, "," + ind, pad + "]", pad + "}", {}))
            open_list, open_dict, sep, close_list, close_dict, keys = levels[depth]
            if isinstance(o, dict):
                for at, (k, v) in enumerate(o.items()):
                    if k not in keys:  # encode_basestring_ascii rejects a non-str key
                        name = encode_basestring_ascii(k) + ": "
                        keys[k] = (open_dict + name, sep + name)  # first item, later item
                    append(keys[k][at > 0])
                    emit(v, depth + 1)
                append(close_dict if o else "{}")
            elif o and all(type(v) is int for v in o):  # type, not isinstance: bools differ
                append(open_list + sep.join(map(int.__repr__, o)) + close_list)
            else:
                for at, v in enumerate(o):
                    append(sep if at else open_list)
                    emit(v, depth + 1)
                append(close_list if o else "[]")

    emit(obj, 0)
    return "".join(chunks)


class Report:
    """What one dispatch prints: a JSON body and the text lines."""

    def __init__(self, body: dict, lines: list):
        self.body = body
        self.lines = lines

    def to_json(self) -> str:
        return _json_text(self.body)

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
        from .poly import DomainError

        raise DomainError(f"{what} must be comma-separated integers, got {text!r}")


def _parse_comp(text: str, parts: int, what: str) -> tuple:
    from .poly import DomainError

    values = _parse_ints(text, what)
    if len(values) != parts:
        raise DomainError(f"{what} needs exactly {parts} parts, got {len(values)}")
    if any(v < 0 for v in values):
        raise DomainError(f"{what} parts must be nonnegative")
    return values


def _parse_labels(text: str, width: int, n: int, what: str) -> tuple:
    from .poly import DomainError

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


def _parse_beta(args) -> tuple | None:
    return None if args.beta is None else _parse_labels(args.beta, args.d - 1, args.n, "beta")


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
    # Imported here: only pooled sweeps pay for loading multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


# -- subcommand implementations ------------------------------------------


def _run_gens(args) -> tuple:
    gens = generator_set(DLinearSpec(args.d, args.n))
    entries = []
    lines = []
    for key in gens.keys_sorted():
        text = format_poly(gens[key])
        entries.append({"k": key.k, "alpha": list(key.alpha), "poly": text})
        lines.append(f"k={key.k} alpha=({_tuple_text(key.alpha)}): {text}")
    return Report({"d": args.d, "n": args.n, "generators": entries}, lines), 0


def _run_z(args) -> tuple:
    nu = _parse_nu(args.nu, args.d, args.n)
    fl = FernLabeling(args.d, args.n, len(nu), args.u0, args.uk, nu)
    text = format_poly(z_fern(fl))
    body = {"d": args.d, "n": args.n, "u0": args.u0, "uk": args.uk,
            "nu": [list(r) for r in nu], "poly": text}
    return Report(body, [text]), 0


def _run_identity(args) -> tuple:
    from .poly import DomainError

    which, d, n = args.subcommand, args.d, args.n
    trials = args.numeric_trials if which == "identity1" else 0
    if args.workers < 1:
        raise DomainError(f"--workers must be at least 1, got {args.workers}")
    if trials < 0:
        raise DomainError(f"--numeric-trials must be at least 0, got {trials}")
    if trials > 0 and d != 1:
        raise DomainError("--numeric-trials applies at d=1 only")
    beta = _parse_beta(args) if which == "identity2" else None
    if args.sweep_all:
        sweep = identity1_instances if which == "identity1" else identity2_instances
        instances = sweep(d, n)
    else:
        if args.alpha is None or args.u0 is None or args.un is None:
            raise DomainError("need --alpha, --u0 and --un (or --all)")
        if which == "identity2" and beta is None:
            raise DomainError("identity2 needs --beta (or --all)")
        alpha = _parse_comp(args.alpha, n, "alpha")
        instances = [IdentityInstance(which, d, n, alpha, args.u0, args.un, beta)]
    generator_set(DLinearSpec(d, n))  # warm the shared cache once
    results = _pmap(_identity_worker, instances, args.workers)
    failures = [r for r in results if not r["zero"]]
    lines = []
    for r in results:
        desc = f"alpha=({_tuple_text(r['alpha'])}) u0={r['u0']} un={r['un']}"
        if "beta" in r:
            desc += f" beta=({_tuple_text(r['beta'])})"
        lines.append(f"{which} d={d} n={n} {desc}: "
                     + ("zero" if r["zero"] else f"NONZERO {r['lhs']}"))
    payload = {"d": d, "n": n, "instances": results}
    counts = {"checked": len(results), "failures": len(failures)}

    code = 0 if not failures else 1
    if trials > 0:
        num = cayley_hamilton_numeric(n, trials, args.seed)
        payload["numeric"] = {
            "n": n, "trials": trials, "seed": args.seed,
            "ok": num.ok, "failures": len(num.failures),
        }
        lines.append(f"numeric n={n} trials={trials} seed={args.seed}: "
                     + ("pass" if num.ok else "FAIL"))
        counts["checked"] += trials
        if not num.ok:
            counts["failures"] += len(num.failures)
            code = 1
    status = "pass" if code == 0 else "fail"
    lines.append(f"{status}: {counts['checked']} checked, {counts['failures']} failures")
    return _verdict(status, counts, payload, lines), code


def _run_relation(args) -> tuple:
    from .poly import DomainError

    d = args.d
    if args.sweep_all:
        instances = None
    elif args.alpha1 is None or args.alpha2 is None or args.u is None:
        raise DomainError("need --alpha1, --alpha2 and --u (or --all)")
    else:
        instances = [(_parse_comp(args.alpha1, 2, "alpha1"),
                      _parse_comp(args.alpha2, 2, "alpha2"), args.u)]
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
    # _json_text writes tuples as arrays, so the state's own tuples serve as is.
    return {"lambda": s.lam, "nu": s.nu, "S": s.S,
            "sigma": tuple(zip(s.S, s.sigma)), "rho": s.rho}


def _pairs_json(rep) -> list:
    pairs = []
    for s, img in rep.pairs:
        w = rep.weights[s]
        (mono, coeff), = w.terms.items()
        pairs.append({
            "state": _state_json(s),
            "partner": _state_json(img),
            "monomial": format_poly(Poly(w.n, {mono: abs(coeff)})),
            "sign": 1 if coeff > 0 else -1,
        })
    return pairs


def _run_involution(args) -> tuple:
    d, n, u0, un, variant = args.d, args.n, args.u0, args.un, args.variant
    alpha = _parse_comp(args.alpha, n, "alpha")
    beta = _parse_beta(args)
    rep = verify_involution(d, n, alpha, u0, un, variant, beta)
    desc = (f"involution d={d} n={n} alpha=({_tuple_text(alpha)}) "
            f"u0={u0} un={un} variant={variant}")
    if beta is not None:
        desc += f" beta=({_tuple_text(beta)})"
    status = "pass" if rep.ok else "fail"
    lines = [f"{desc}: {status} (states={rep.states}, domain={rep.domain_count}, "
             f"image={rep.image_count}, pairs={len(rep.pairs)})"]
    for f in rep.failures:
        lines.append(f"  FAILURE {f['kind']}: {f}")
    # Only JSON output and --dump print the pair list; text output skips building it.
    pairs_json = _pairs_json(rep) if args.format == "json" or args.dump else None
    payload = {
        "d": d, "n": n, "alpha": list(alpha), "u0": u0, "un": un, "variant": variant,
        "beta": list(beta) if beta is not None else None,
        "states": rep.states, "pairs": pairs_json,
        "signed_sum": format_poly(rep.signed_sum),
        "failures": [str(f) for f in rep.failures],
    }
    if args.dump:
        with open(args.dump, "w") as fh:
            fh.write(_json_text(pairs_json))
        lines.append(f"pairs written to {args.dump}")
    counts = {"checked": rep.states, "failures": len(rep.failures)}
    return _verdict(status, counts, payload, lines), 0 if rep.ok else 1


def _run_inverse(args) -> tuple:
    from .poly import DomainError

    d, n = args.d, args.n
    if args.coeff is not None:
        parts = _parse_ints(args.coeff, "--coeff")
        if len(parts) != n + 2:
            raise DomainError(f"--coeff needs i,alpha({n} parts),N")
        i, alpha, N = parts[0], parts[1:-1], parts[-1]
        text = format_poly(coefficient_c(DLinearSpec(d, n), i, alpha, N))
        body = {"d": d, "n": n, "i": i, "alpha": list(alpha), "N": N, "poly": text}
        return Report(body, [text]), 0
    if args.n_max is None:
        raise DomainError("need --Nmax or --coeff")
    series = inverse_series(DLinearSpec(d, n), args.n_max)
    components = []
    lines = []
    for i in range(1, n + 1):
        heads = series.heads(i)
        coeffs = []
        for head in sorted(heads):
            N, alpha = head[0], head[1:]
            text = format_poly(Poly(n, heads[head]))
            coeffs.append({"N": N, "alpha": list(alpha), "poly": text})
            lines.append(f"g[{i}] N={N} alpha=({_tuple_text(alpha)}): {text}")
        components.append({"i": i, "coefficients": coeffs})
    body = {"d": d, "n": n, "N_max": args.n_max, "components": components}
    return Report(body, lines), 0


def _run_member(args) -> tuple:
    target = parse_poly(args.poly, args.n)
    body = _certificate_json(membership(DLinearSpec(args.d, args.n), target))
    lines = ["member" if body["member"] else "non-member"]
    for item in body["combination"]:
        lines.append(f"  k={item['k']} alpha=({_tuple_text(item['alpha'])}) "
                     f"coeff: {item['coeff']}")
    if not body["member"]:
        lines.append(f"  residual: {body['residual']}")
    return Report(body, lines), 0 if body["member"] else 1


def _run_verify_theorem(args) -> tuple:
    N_list = _parse_ints(args.N, "--N")
    rep = verify_main_theorem(args.d, list(N_list))
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
    payload = {"d": args.d, "N": list(N_list), "entries": entries,
               "failures": [str(f) for f in rep.failures]}
    return _verdict(status, counts, payload, lines), 0 if rep.ok else 1


def dispatch(args) -> tuple:
    """Run the subcommand's bound runner; returns (Report, exit code)."""
    return args.run(args)


# -- argument parsing -----------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "json"], default="text")
    common.add_argument("--out", metavar="FILE", help="write output to FILE")

    parser = argparse.ArgumentParser(
        prog="jacverify",
        description="Exact verification of trace identities for d-linear maps.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gens", parents=[common],
                       help="print the ideal generators keyed by (k, alpha)")
    p.set_defaults(run=_run_gens)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("z", parents=[common], help="print one fern weight element")
    p.set_defaults(run=_run_z)
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
        p.set_defaults(run=_run_identity)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--alpha", help="composition of n(d-1), comma separated")
        p.add_argument("--u0", type=int)
        p.add_argument("--un", type=int)
        if name == "identity2":
            p.add_argument("--beta", help="(d-1)-tuple of labels, comma separated")
        p.add_argument("--all", action="store_true", dest="sweep_all",
                       help="sweep every admissible instance")
        p.add_argument("--workers", type=int, default=1,
                       help="processes for the instances (at least 1)")
        if name == "identity1":
            p.add_argument("--numeric-trials", type=int, default=0,
                           help="extra random-matrix spot checks (d=1 only)")
            p.add_argument("--seed", type=int, default=0,
                           help="seed for the --numeric-trials matrices")

    p = sub.add_parser("relation", parents=[common],
                       help="report the two-ones relation differences")
    p.set_defaults(run=_run_relation)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha1", help="composition of d-1 into 2 parts")
    p.add_argument("--alpha2", help="composition of d-1 into 2 parts")
    p.add_argument("--u", type=int, choices=[1, 2])
    p.add_argument("--all", action="store_true", dest="sweep_all")

    p = sub.add_parser("involution", parents=[common],
                       help="verify the sign-reversing pairing on one instance")
    p.set_defaults(run=_run_involution)
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
    p.set_defaults(run=_run_inverse)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--Nmax", type=int, dest="n_max")
    p.add_argument("--coeff", help="i,alpha,N (alpha comma separated, n parts)")

    p = sub.add_parser("member", parents=[common],
                       help="ideal membership certificate for a polynomial")
    p.set_defaults(run=_run_member)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--poly", required=True, help="polynomial in the text grammar")

    p = sub.add_parser("verify-theorem", parents=[common],
                       help="membership sweep of inverse coefficients (n=2)")
    p.set_defaults(run=_run_verify_theorem)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", required=True, help="comma-separated multiples of d")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    from .poly import DomainError, StructuralError  # after parsing: --help loads no library

    try:
        report, code = dispatch(args)
    except (DomainError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
