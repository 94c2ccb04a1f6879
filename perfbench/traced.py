"""Run one jacverify command with per-layer spans installed.

Usage: python3 perfbench/traced.py <jacverify argv...>

The spans wrap module functions where their callers look them up, so the
command follows the same code path as ``python -m jacverify.cli``.  Spans
and counts stay in memory; when the command ends, one summary line
prefixed with ``MARK`` goes to stderr, and the exit code is the command's.
A span's self time is its duration minus the time of the spans it opened.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

MARK = "perfbench-trace "


class Tracer:
    """Open-span stack plus per-name totals for one process."""

    def __init__(self):
        self.stack = []  # [name, time covered by child spans]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.instance_s = []
        self.path_keys = set()
        self.missing = []

    def wrap(self, owner, attr, name, after=None, only_under=None):
        """Replace owner.attr by a spanned call; ``after`` sees the result.

        With ``only_under`` the span is recorded only when the innermost
        open span has that name; other calls pass straight through.
        """
        module, _, cls = owner.partition(":")
        target = importlib.import_module(module)
        if cls:
            target = getattr(target, cls, None)
        fn = getattr(target, attr, None)
        if fn is None:
            self.missing.append(f"{owner}.{attr}")
            return
        stack = self.stack

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if only_under is not None and (not stack or stack[-1][0] != only_under):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
            if after is not None:
                after(self, args, result, duration)
            return result

        setattr(target, attr, spanned)

    def summary(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "counts": self.counts,
                "instance_s": self.instance_s, "path_keys": len(self.path_keys),
                "missing": self.missing}


def _count(name, size):
    def after(tracer, args, result, duration):
        tracer.counts[name] += size(result)
    return after


def _path_sum(tracer, args, result, duration):
    d, n, u0, uk, nu = args
    tracer.counts["fern.terms_out"] += len(result.terms)
    tracer.path_keys.add((d, n, u0, uk, tuple(tuple(sorted(row)) for row in nu)))


def _instance(tracer, args, result, duration):
    tracer.instance_s.append(duration)


def _basis(tracer, args, result, duration):
    tracer.counts["membership.basis_rows"] += len(result.rows)
    tracer.counts["membership.pivots"] += len(result._pivots)


def _involution(tracer, args, result, duration):
    tracer.counts["involution.states"] += result.states
    tracer.counts["involution.pairs"] += len(result.pairs)


# (owner, attribute, span name, after, only_under).  The owner is the module
# whose global the caller reads, or "module:Class" for a method.
HOOKS = [
    ("jacverify.cli", "dispatch", "cli.dispatch", None, None),
    ("jacverify.cli:Report", "to_text", "cli.render", None, None),
    ("jacverify.cli:Report", "to_json", "cli.render", None, None),
    ("jacverify.cli", "format_poly", "poly.format", None, None),
    ("jacverify.cli", "parse_poly", "poly.parse", None, None),
    ("jacverify.generators", "poly_determinant", "poly.det",
     _count("poly.det_terms", lambda r: len(r.terms)), None),
    ("jacverify.identities", "extract_generators", "generators.extract",
     _count("generators.keys", lambda r: len(r.entries)), None),
    ("jacverify.identities", "_path_sum", "fern.path_sum", _path_sum, None),
    ("jacverify.identities", "enumerate_level_labelings", "combinatorics.labelings",
     _count("combinatorics.labelings_out", len), None),
    ("jacverify.involution", "enumerate_level_labelings", "combinatorics.labelings",
     _count("combinatorics.labelings_out", len), None),
    ("jacverify.cli", "identity1_lhs", "identities.instance", _instance, None),
    ("jacverify.cli", "identity2_lhs", "identities.instance", _instance, None),
    ("jacverify.cli", "inverse_series", "inverse.series",
     _count("inverse.series_terms", lambda r: sum(len(g.terms) for g in r.components)),
     None),
    ("jacverify.membership", "inverse_series", "inverse.series",
     _count("inverse.series_terms", lambda r: sum(len(g.terms) for g in r.components)),
     None),
    ("jacverify.membership", "coefficient_c", "inverse.coeff", None, None),
    ("jacverify.cli", "membership", "membership.target",
     _count("membership.members", lambda r: int(r.member)), None),
    ("jacverify.membership", "membership", "membership.target",
     _count("membership.members", lambda r: int(r.member)), None),
    ("jacverify.membership", "build_basis", "membership.basis", _basis, None),
    ("jacverify.membership", "_reduce", "membership.reduce", None, "membership.target"),
    ("jacverify.membership", "certificate_residual", "membership.recheck", None, None),
    ("jacverify.cli", "verify_involution", "involution.verify", _involution, None),
    ("jacverify.involution", "enumerate_states", "involution.enumerate", None, None),
    ("jacverify.involution", "state_weight", "involution.weight", None, None),
    ("jacverify.cli", "state_weight", "involution.weight", None, None),
    ("jacverify.involution", "tau", "involution.transfer", None, None),
    ("jacverify.involution", "tau_inverse", "involution.transfer", None, None),
    ("jacverify.involution", "classify", "involution.transfer", None, None),
]


def main(argv) -> int:
    tracer = Tracer()
    for hook in HOOKS:
        tracer.wrap(*hook)
    import jacverify.cli

    code = 2
    try:
        code = jacverify.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        sys.stderr.write(MARK + json.dumps(tracer.summary()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
