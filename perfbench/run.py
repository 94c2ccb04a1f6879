"""End-to-end and per-layer benchmark of the jacverify command-line tool.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command runs in a fresh ``python -m jacverify.cli`` process with
JACVERIFY_WORKERS removed, as a user runs it: nothing is cached between
commands and the sweep process pool is not used.  A run repeats passes
over the workload's commands while another fits in ``--seconds`` and checks
every command's exit code and stdout SHA-256 against ``expected.json``,
which was recorded from the code the benchmark was defined on
(``record.py`` rewrites it).  Member commands must also give the verdict
their construction implies.

Times are reported at a reference machine speed.  On a shared host the
speed of the machine can drift by up to half over minutes (as on the
2-core Intel Xeon VM the benchmark was defined on), which moves raw times
between runs far more than the program does.  So before each command and
after the last, ``probe.py``, a fixed pure-Python workload that imports
nothing from jacverify, runs in its own interpreter, and a command's wall
time is multiplied by PROBE_REFERENCE_S / (the mean time of the probes on
either side of it).  The measured, unscaled figures are printed alongside.

With ``--trace 0`` the result holds the end-to-end metrics:

    wall_s       sum over the commands of each command's median wall time
    setup_s      median time of ``jacverify --help``, sampled before each
                 command: interpreter start, ``import jacverify.cli`` and
                 building the parser
    peak_rss_mb  median over passes of the largest RSS of one command,
                 taken per child from wait4

With ``--trace 1`` each pass runs every command twice, traced
(``traced.py``) and not, and the result holds the per-layer metrics of
BENCHMARK.json, summed over the commands of a pass and taken as the
median over passes; span times are scaled by the same probe factor as
their command.  ``trace.overhead_s`` is the traced minus the untraced
time of a pass, and ``trace.unstable_counts`` the number of count
metrics that differed between passes, which must be 0.

The last line of stdout is the JSON result.  The line before it records
the ``src/`` line count, the Python version, the usable CPU count, the
median probe time, the unscaled times and the fail ratio,
``failed / attempted``: commands whose exit code, verdict or stdout
differed from what was expected.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads
from traced import MARK

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
MIN_PASSES = 3  # so every per-command median has a middle value
# A slow-phase time of probe.py on the 2-core Intel Xeon VM the benchmark
# was defined on, where it took 0.09 to 0.15 s as the host's speed drifted.
# Times are reported at this probe speed; see the docstring.
PROBE_REFERENCE_S = 0.15


@dataclass
class Outcome:
    """One finished command as seen from outside the process."""

    code: int
    sha256: str
    stdout_bytes: int
    first_line: str
    stderr: str
    wall_s: float
    rss_mb: float
    ref_s: float = 0.0  # wall_s at the reference probe speed


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("JACVERIFY_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def execute(argv: list, env: dict) -> Outcome:
    """Run argv to completion through spawn.py, hashing stdout as it streams."""
    report_r, report_w = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawn.py"), str(report_w), *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=(report_w,),
            env=env, cwd=ROOT)
    finally:
        os.close(report_w)
    digest = hashlib.sha256()
    size = 0
    head = b""
    err = bytearray()
    report = bytearray()
    with open(report_r, "rb", buffering=0) as report_file, \
            selectors.DefaultSelector() as sel:
        for stream in (proc.stdout, proc.stderr, report_file):
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                chunk = os.read(key.fd, 1 << 16)
                if not chunk:
                    sel.unregister(key.fileobj)
                elif key.fileobj is proc.stdout:
                    digest.update(chunk)
                    size += len(chunk)
                    if len(head) < 64:
                        head += chunk[:64]
                elif key.fileobj is proc.stderr:
                    err += chunk
                else:
                    report += chunk
    proc.stdout.close()
    proc.stderr.close()
    if proc.wait() != 0 or not report:
        raise RuntimeError(f"spawn.py failed on {argv[:4]}:\n{err.decode(errors='replace')}")
    code, wall, rss_kb = report.split()
    return Outcome(int(code), digest.hexdigest(), size,
                   head.split(b"\n", 1)[0].decode(errors="replace"),
                   err.decode(errors="replace"), float(wall), int(rss_kb) / 1024)


def cli_argv(argv: list, traced: bool) -> list:
    if traced:
        return [sys.executable, str(HERE / "traced.py"), *argv]
    return [sys.executable, "-m", "jacverify.cli", *argv]


def check(outcome: Outcome, argv: list, verdict: str | None, expected: dict) -> str | None:
    """Why the outcome is wrong, or None when it matches."""
    want = expected.get(workloads.key(argv))
    if want is None:
        return "no recorded output for this command"
    if outcome.code != want["code"]:
        return f"exit code {outcome.code}, expected {want['code']}"
    if verdict is not None and outcome.first_line != verdict:
        return f"verdict {outcome.first_line!r}, expected {verdict!r} by construction"
    if outcome.sha256 != want["sha256"]:
        return f"stdout differs ({outcome.stdout_bytes} bytes, expected {want['bytes']})"
    return None


def trace_summary(stderr: str) -> dict:
    for line in reversed(stderr.splitlines()):
        if line.startswith(MARK):
            return json.loads(line[len(MARK):])
    raise RuntimeError("traced command printed no span summary")


def merge(total: dict, part: dict, scale: float):
    """Add one command's span summary, its times scaled by ``scale``."""
    for field in ("calls", "self_s", "counts"):
        for name, value in part[field].items():
            total[field][name] += value * scale if field == "self_s" else value
    total["instance_s"] += [t * scale for t in part["instance_s"]]
    total["path_keys"] += part["path_keys"]
    total["missing"] |= set(part["missing"])


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _rank(values: list, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(agg: dict, output_bytes: int) -> dict:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    calls, self_s, counts = agg["calls"], agg["self_s"], agg["counts"]
    return {
        "cli.dispatch_s": self_s["cli.dispatch"],
        "cli.render_s": self_s["cli.render"],
        "cli.output_bytes": output_bytes,
        "poly.det_s": self_s["poly.det"],
        "poly.det_terms": counts["poly.det_terms"],
        "poly.format_s": self_s["poly.format"],
        "poly.format_calls": calls["poly.format"],
        "poly.parse_s": self_s["poly.parse"],
        "generators.extract_s": self_s["generators.extract"],
        "generators.keys": counts["generators.keys"],
        "fern.path_sum_calls": calls["fern.path_sum"],
        "fern.path_sum_s": self_s["fern.path_sum"],
        "fern.terms_out": counts["fern.terms_out"],
        "fern.repeat_ratio": _ratio(calls["fern.path_sum"] - agg["path_keys"],
                                    calls["fern.path_sum"]),
        "combinatorics.labelings_calls": calls["combinatorics.labelings"],
        "combinatorics.labelings_out": counts["combinatorics.labelings_out"],
        "combinatorics.labelings_s": self_s["combinatorics.labelings"],
        "identities.instances": calls["identities.instance"],
        "identities.assemble_self_s": self_s["identities.instance"],
        "identities.instance_p50_s": _rank(agg["instance_s"], 0.5),
        "identities.instance_p90_s": _rank(agg["instance_s"], 0.9),
        "identities.labeling_use_ratio": _ratio(calls["fern.path_sum"],
                                                counts["combinatorics.labelings_out"]),
        "inverse.series_s": self_s["inverse.series"],
        "inverse.series_terms": counts["inverse.series_terms"],
        "inverse.coeff_calls": calls["inverse.coeff"],
        "inverse.coeff_s": self_s["inverse.coeff"],
        "membership.basis_s": self_s["membership.basis"],
        "membership.basis_rows": counts["membership.basis_rows"],
        "membership.pivots": counts["membership.pivots"],
        "membership.pivot_ratio": _ratio(counts["membership.pivots"],
                                         counts["membership.basis_rows"]),
        "membership.reduce_s": self_s["membership.reduce"],
        "membership.recheck_s": self_s["membership.recheck"],
        "membership.targets": calls["membership.target"],
        "membership.members": counts["membership.members"],
        "involution.states": counts["involution.states"],
        "involution.enumerate_s": self_s["involution.enumerate"],
        "involution.weight_calls": calls["involution.weight"],
        "involution.weight_s": self_s["involution.weight"],
        "involution.transfer_s": self_s["involution.transfer"],
        "involution.verify_self_s": self_s["involution.verify"],
        "involution.pair_ratio": _ratio(2 * counts["involution.pairs"],
                                        counts["involution.states"]),
    }


class Bench:
    """One benchmark run: its commands, expected outputs and tallies."""

    def __init__(self, workload: str, seed: int):
        recorded = json.loads((HERE / "expected.json").read_text())
        self.expected = recorded["outputs"]
        self.commands = workloads.commands(workload, seed, recorded["member_pool"])
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.probe_s = []
        self.setup = []  # outcomes of jacverify --help

    def probe(self) -> float:
        out = execute([sys.executable, "-I", "-S", str(HERE / "probe.py")], self.env)
        if out.code != 0:
            raise RuntimeError(f"probe.py failed:\n{out.stderr}")
        self.probe_s.append(out.wall_s)
        return out.wall_s

    def run_pass(self, modes=(False,)) -> dict:
        """Every command once per mode (traced or not), back to back.

        Returns the outcomes of each mode in command order.  The probe runs
        before each command and after the last.  A set-up sample and the
        command follow each probe, and both are scaled by the mean of the
        probes on either side of them.
        """
        outcomes = {traced: [] for traced in modes}
        before = self.probe()
        for argv, verdict in self.commands:
            setup = execute(cli_argv(["--help"], False), self.env)
            if setup.code != 0:
                raise RuntimeError(f"jacverify --help failed:\n{setup.stderr}")
            runs = [(traced, execute(cli_argv(argv, traced), self.env)) for traced in modes]
            after = self.probe()
            scale = 2 * PROBE_REFERENCE_S / (before + after)
            before = after
            setup.ref_s = setup.wall_s * scale
            self.setup.append(setup)
            for traced, out in runs:
                out.ref_s = out.wall_s * scale
                self.attempted += 1
                problem = check(out, argv, verdict, self.expected)
                if problem is not None:
                    self.failed += 1
                    print(f"FAIL {workloads.key(argv)[:120]}: {problem}\n"
                          f"{out.stderr[-2000:]}", file=sys.stderr)
                outcomes[traced].append(out)
        return outcomes


def measure(bench: Bench, seconds: float) -> dict:
    """End-to-end metrics from untraced passes."""
    passes = []
    last_pass_s = 0.0
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() + last_pass_s < deadline:
        start = time.perf_counter()
        passes.append(bench.run_pass()[False])
        last_pass_s = time.perf_counter() - start
    per_command = list(zip(*passes))
    for (argv, _), outs in zip(bench.commands, per_command):
        print(f"# {workloads.key(argv)[:100]}: median "
              f"{statistics.median(o.wall_s for o in outs):.3f} s measured, "
              f"{statistics.median(o.ref_s for o in outs):.3f} s at reference speed, "
              f"peak {max(o.rss_mb for o in outs):.1f} MB over {len(outs)} runs")
    return {
        "wall_s": sum(statistics.median(o.ref_s for o in outs) for outs in per_command),
        "setup_s": statistics.median(o.ref_s for o in bench.setup),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in p) for p in passes),
    }, {
        "measured_wall_s": sum(statistics.median(o.wall_s for o in outs)
                               for outs in per_command),
        "measured_setup_s": statistics.median(o.wall_s for o in bench.setup),
    }


def measure_layers(bench: Bench, seconds: float, count_names: list) -> dict:
    """Per-layer metrics from passes that run each command traced and not.

    The two runs of a command are adjacent, in alternating order, so the
    tracing overhead is a paired difference within each pass.
    """
    traced, overhead = [], []
    last_pass_s = 0.0
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() + last_pass_s < deadline:
        start = time.perf_counter()
        outcomes = bench.run_pass((False, True) if len(traced) % 2 else (True, False))
        last_pass_s = time.perf_counter() - start
        plain_s = sum(o.ref_s for o in outcomes[False])
        traced_s = sum(o.ref_s for o in outcomes[True])
        overhead.append((traced_s - plain_s, plain_s))
        agg = {"calls": Counter(), "self_s": defaultdict(float), "counts": Counter(),
               "instance_s": [], "path_keys": 0, "missing": set()}
        for out in outcomes[True]:
            merge(agg, trace_summary(out.stderr), out.ref_s / out.wall_s)
        if agg["missing"]:
            print(f"warning: no hook for {sorted(agg['missing'])}", file=sys.stderr)
        traced.append(layer_metrics(agg, sum(o.stdout_bytes for o in outcomes[True])))

    unstable = [name for name in count_names
                if len({metrics[name] for metrics in traced}) > 1]
    if unstable:
        print(f"warning: counts differ between traced passes: {unstable}",
              file=sys.stderr)
    # Counts come from the first traced pass; times are medians over passes.
    result = {name: value if name in count_names
              else statistics.median(metrics[name] for metrics in traced)
              for name, value in traced[0].items()}
    result["trace.overhead_s"] = statistics.median(d for d, _ in overhead)
    result["trace.overhead_ratio"] = statistics.median(d / p for d, p in overhead)
    result["trace.unstable_counts"] = len(unstable)
    return result


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="picks the member targets and the involution sample")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jacverify" / "cli.py").is_file():
        print(f"error: no jacverify sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_specs}

    bench = Bench(args.workload, args.seed)
    # The first import compiles bytecode once; users do not pay that per run.
    execute(cli_argv(["--help"], False), bench.env)
    if args.trace:
        count_names = [n for n, u in units.items()
                       if u in ("count", "bytes") and not n.startswith("trace.")]
        values, measured = measure_layers(bench, args.seconds, count_names), {}
    else:
        values, measured = measure(bench, args.seconds)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                           "disagree with BENCHMARK.json")

    print(json.dumps({"context": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "src_lines": src_lines(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "fail_ratio": bench.failed / bench.attempted,
        "probe_median_s": statistics.median(bench.probe_s), **measured,
    }}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
