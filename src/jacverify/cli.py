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
including a sweep with no instance, ``--all`` with a flag that pins one
instance, ``inverse --coeff`` with ``--Nmax``, an ``involution`` with no
state, a count out of range (``--workers`` below 1, ``--numeric-trials``
below 0) and ``--numeric-trials`` at d != 1.
A failed exact check in the library (``VerificationError``, such as a
``membership`` certificate that does not re-multiply) prints ``error:`` only.
A report is written only once its command has finished, so a command that
fails writes nothing to stdout; a stdout that refuses the write (a closed
pipe, a full device) exits 2 with one ``error:`` line and no traceback, as
an unwritable ``--out`` or ``--dump`` file does.  JSON goes out in batches
from ``jsonout.write_json``, which only JSON output loads.

Sweeps (``--all``) run the library's instance enumerations
(``identity1_instances``, ``identity2_instances``, ``relation_instances``
through ``relation_report``); the identity sweeps can shard across
``--workers`` processes (no more than there are instances or CPUs), and
results are merged in instance order so parallel runs print the same bytes.
"""

from __future__ import annotations

import argparse
import os
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
DomainError = _deferred("DomainError")
format_poly = _deferred("format_poly")
parse_poly = _deferred("parse_poly")


class Report:
    """What one dispatch prints: a JSON body and the text lines, an iterable read
    once.  Each render method passes its output, final newline included, to ``write``
    piece by piece."""

    def __init__(self, body: dict, lines):
        self.body = body
        self.lines = lines

    def to_json(self, write) -> None:
        from .jsonout import write_json

        write_json(self.body, write)
        write("\n")

    def to_text(self, write) -> None:
        # Line by line, so no joined copy of the text is held; no lines print one "\n".
        lines = iter(self.lines)
        write(next(lines, ""))
        for line in lines:
            write("\n")
            write(line)
        write("\n")


def _write(path: str, render) -> None:
    """Fill an --out or --dump file through ``render(write)``; a path that cannot be
    written is an input error."""
    try:
        with open(path, "w") as fh:
            render(fh.write)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from None


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


def _parse_beta(args) -> tuple | None:
    return None if args.beta is None else _parse_labels(args.beta, args.d - 1, args.n, "beta")


def _check_sweep_flags(args, names) -> None:
    """--all sweeps every instance, so a flag that pins one is an input error."""
    pinned = [f"--{name}" for name in names if getattr(args, name, None) is not None]
    if args.sweep_all and pinned:
        raise DomainError(f"--all sweeps every instance and takes no {', '.join(pinned)}")


# -- sweep workers (module level so process pools can pickle them) -------


def _identity_worker(inst: IdentityInstance) -> dict:
    lhs = identity1_lhs(inst) if inst.which == "identity1" else identity2_lhs(inst)
    return {"alpha": list(inst.alpha), "u0": inst.u0, "un": inst.un,
            **({"beta": list(inst.beta)} if inst.beta is not None else {}),
            "zero": lhs.is_zero(), "lhs": format_poly(lhs)}


def _pmap(fn, tasks, workers: int):
    # A pool forks all its processes at once, so it gets no more than tasks or CPUs.
    tasks = list(tasks)
    size = min(workers, len(tasks), os.cpu_count() or 1)
    if size <= 1:
        return [fn(t) for t in tasks]
    # Imported here: only pooled sweeps pay for loading multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    # Four chunks a worker, as multiprocessing.Pool.map cuts them: not a round trip per task.
    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(fn, tasks, chunksize=-(-len(tasks) // (4 * size))))


# -- subcommand implementations ------------------------------------------


def _run_gens(args) -> tuple:
    gens = generator_set(DLinearSpec(args.d, args.n))
    # Each generator is printed from the entry extraction left, never built as a Poly,
    # and only as it is written (one of the two renderings reads texts), so no output
    # holds the text of every generator.
    texts = ((key, format_poly(gens.entries[key])) for key in gens.keys_sorted())
    entries = ({"k": key.k, "alpha": list(key.alpha), "poly": text} for key, text in texts)
    lines = (f"k={key.k} alpha=({_tuple_text(key.alpha)}): {text}" for key, text in texts)
    return Report({"d": args.d, "n": args.n, "generators": entries}, lines), 0


def _run_z(args) -> tuple:
    nu = _parse_nu(args.nu, args.d, args.n)
    fl = FernLabeling(args.d, args.n, len(nu), args.u0, args.uk, nu)
    text = format_poly(z_fern(fl))
    body = {"d": args.d, "n": args.n, "u0": args.u0, "uk": args.uk,
            "nu": [list(r) for r in nu], "poly": text}
    return Report(body, [text]), 0


def _run_identity(args) -> tuple:
    _check_sweep_flags(args, ("alpha", "u0", "un", "beta"))
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
    _check_sweep_flags(args, ("alpha1", "alpha2", "u"))
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
    for (a1, a2, u), group in rep.instances:
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
                 f"{len(rep.instances) - rep.unsatisfied} of {len(rep.instances)} instances")
    report = _verdict(status, counts, {"d": d, "entries": entries}, lines)
    return report, 0 if rep.unsatisfied == 0 else 1


def _state_json(s) -> dict:
    # write_json writes tuples as arrays, so the state's own tuples serve as is.
    return {"lambda": s.lam, "nu": s.nu, "S": s.S,
            "sigma": tuple(zip(s.S, s.sigma)), "rho": s.rho}


def _pairs_json(rep) -> list:
    pairs = []
    texts = {}  # monomial -> its text: pairs share monomials, so each is formatted once
    for s, img, w in rep.pairs:
        (mono, coeff), = w.terms.items()  # a state weight is +1 or -1 times one monomial
        text = texts.get(mono)
        if text is None:
            text = texts[mono] = format_poly(Poly(w.n, {mono: 1}))
        pairs.append({
            "state": _state_json(s),
            "partner": _state_json(img),
            "monomial": text,
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
    if not rep.states:  # a check over no state proves nothing
        raise DomainError(f"{desc}: no state to check")
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
        from .jsonout import write_json

        _write(args.dump, lambda write: write_json(pairs_json, write))
        lines.append(f"pairs written to {args.dump}")
    counts = {"checked": rep.states, "failures": len(rep.failures)}
    return _verdict(status, counts, payload, lines), 0 if rep.ok else 1


def _run_inverse(args) -> tuple:
    d, n = args.d, args.n
    if args.coeff is not None:
        if args.n_max is not None:
            raise DomainError("--coeff reads one coefficient and takes no --Nmax")
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
    cert = membership(DLinearSpec(args.d, args.n), parse_poly(args.poly, args.n))
    body = _certificate_json(cert)
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
        entries.append({"i": e.i, "alpha": list(e.alpha), "N": e.N,
                        "exceptional": e.exceptional, "member": e.member,
                        "certificate": _certificate_json(e.certificate)})
        tag = "member" if e.member else "non-member"
        if e.exceptional:
            tag += " (exceptional, not asserted)"
        lines.append(f"N={e.N} i={e.i} alpha=({_tuple_text(e.alpha)}): {tag}")
    status = "pass" if rep.ok else "fail"
    counts = {"checked": len(rep.entries), "failures": len(rep.failures)}
    lines.append(f"{status}: {counts['checked']} coefficients, "
                 f"{counts['failures']} failures, "
                 f"{sum(e.exceptional for e in rep.entries)} exceptional")
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
    sized = argparse.ArgumentParser(add_help=False, parents=[common])
    sized.add_argument("--d", type=int, required=True)
    sized.add_argument("--n", type=int, required=True)

    parser = argparse.ArgumentParser(
        prog="jacverify",
        description="Exact verification of trace identities for d-linear maps.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gens", parents=[sized],
                       help="print the ideal generators keyed by (k, alpha)")
    p.set_defaults(run=_run_gens)

    p = sub.add_parser("z", parents=[sized], help="print one fern weight element")
    p.set_defaults(run=_run_z)
    p.add_argument("--u0", type=int, required=True)
    p.add_argument("--uk", type=int, required=True)
    p.add_argument("--nu", default="",
                   help="rows separated by ';', labels by ',' (empty for k=0; "
                        "for d=1 use k-1 bare semicolons)")

    for name in ("identity1", "identity2"):
        p = sub.add_parser(name, parents=[sized],
                           help=f"assemble {name} and check it vanishes")
        p.set_defaults(run=_run_identity)
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

    p = sub.add_parser("involution", parents=[sized],
                       help="verify the sign-reversing pairing on one instance")
    p.set_defaults(run=_run_involution)
    p.add_argument("--alpha", required=True)
    p.add_argument("--u0", type=int, required=True)
    p.add_argument("--un", type=int, required=True)
    p.add_argument("--variant", type=int, choices=[1, 2], required=True)
    p.add_argument("--beta", help="restrict to states with nu(1)=beta (variant 2)")
    p.add_argument("--dump", metavar="FILE", help="write the pair list as JSON")

    p = sub.add_parser("inverse", parents=[sized],
                       help="truncated inverse series or one coefficient")
    p.set_defaults(run=_run_inverse)
    p.add_argument("--Nmax", type=int, dest="n_max")
    p.add_argument("--coeff", help="i,alpha,N (alpha comma separated, n parts)")

    p = sub.add_parser("member", parents=[sized],
                       help="ideal membership certificate for a polynomial")
    p.set_defaults(run=_run_member)
    p.add_argument("--poly", required=True, help="polynomial in the text grammar")

    p = sub.add_parser("verify-theorem", parents=[common],
                       help="membership sweep of inverse coefficients (n=2)")
    p.set_defaults(run=_run_verify_theorem)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", required=True, help="comma-separated multiples of d")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    from .poly import DomainError, StructuralError, VerificationError  # not loaded by --help

    try:
        report, code = dispatch(args)
        render = report.to_json if args.format == "json" else report.to_text
        if args.out:
            _write(args.out, render)
    except (DomainError, StructuralError, VerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, VerificationError) else 2
    if not args.out:
        try:
            render(sys.stdout.write)
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe or a full device
            # Python flushes stdout again at exit: point it at devnull to keep that quiet.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
