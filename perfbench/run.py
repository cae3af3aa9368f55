#!/usr/bin/env python3
"""The qhv benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qhv checkout; the package is imported from ``src``
(nothing is installed).  One client runs the workload's invocations one
child process at a time, and starts pass after pass until ``--seconds`` have
passed (a closed loop: qhv is a batch verifier with no arrival rate).  Every
report, basis and library result is checked against a known answer.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Times are scaled to
a reference host speed (hostclock.py).  The line before it holds the details:
provenance, every sample count, the raw times, the failures and (traced) the
span table.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gb
from hostclock import CAL_REF_S, CLOCK_PREFIX, Calibration, scaled
from tracer import CACHES, COUNTS, SPANS
from worker import TRACE_PREFIX

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
WORKER = HERE / "worker.py"
DEADLINE_S = 170.0  # a run must end within 180 s, whatever hangs
SETUP_SAMPLES = 5  # per pass, so the samples spread over the whole run
RULED_BOUND = 7

#: Check names of the qhv report stream, for the check.<name>.ms metrics.
CHECK_NAMES = (
    "quadric-gluing", "f4-adjudication", "f4-embedding", "f4-gluing",
    "f4-quotient", "equivariance", "quadric-singular-locus",
    "terminal-classification", "wps-vertices", "bundle-normalize",
    "minus-one-count", "homology-lemma",
)

#: Minus-one classes on the quadric blown up in r general points.
MINUS_ONE_COUNTS = {0: 0, 1: 3, 2: 6}


@dataclass
class Invocation:
    label: str
    argv: list  # qhv CLI arguments, or None for a library job
    ops: list = field(default_factory=list)  # library calls sent on stdin


def _twists(values):
    return ",".join(str(v) for v in values)


def workload(name, seed):
    """The invocations of one pass; only gb-systems draws from the seed."""
    if name == "cli-all":
        return [Invocation("all", ["all", "--golden", "goldens"])]
    if name == "charts":
        odd, f4 = _twists(range(1, 14, 2)), _twists(range(8))
        return [
            Invocation("verify-quadric", ["verify", "quadric", "--k", odd, "--l", odd]),
            Invocation("verify-f4", ["verify", "f4", "--k", f4, "--l", f4]),
            Invocation("verify-quotient", ["verify", "quotient", "--k", f4]),
            Invocation("equivariance-quadric", ["equivariance", "--family", "quadric",
                                                "--k", _twists(range(1, 12, 2)),
                                                "--l", _twists(range(1, 12, 2))]),
            Invocation("equivariance-f4", ["equivariance", "--family", "f4",
                                           "--k", _twists(range(6)), "--l", _twists(range(6))]),
            Invocation("singular-locus", ["singular-locus", "--k", _twists(range(1, 9))]),
        ]
    if name == "gb-systems":
        ops = []
        for system in gb.FIXED_SYSTEMS:
            names, gens = gb.fixed_system(system)
            ops.append({"op": system, "kind": "groebner", "names": names,
                        "gens": [gb.dump_poly(g) for g in gens]})
        names, gens = gb.fixed_system("katsura-4")
        ops.append({"op": "katsura-4-elim-u0", "kind": "eliminate", "names": names,
                    "gens": [gb.dump_poly(g) for g in gens], "drop": ["u0"]})
        for op, names, gens, solutions in gb.random_systems(seed):
            ops.append({"op": op, "kind": "groebner", "names": names,
                        "gens": [gb.dump_poly(g) for g in gens], "solutions": solutions})
        return [Invocation("groebner", None, ops)]
    if name == "combinatorics":
        ops = [{"op": f"minus-one-r{r}", "kind": "minus_one", "r": r, "bound": RULED_BOUND}
               for r in MINUS_ONE_COUNTS]
        ops += [{"op": f"homology-{fiber}", "kind": "homology", "fiber": fiber,
                 "bound": RULED_BOUND} for fiber in ("sigma1", "blowup1", "blowup2")]
        return [
            Invocation("terminal", ["terminal", "--n-max", "60"]),
            Invocation("wps", ["wps"]),
            Invocation("dp-homology", ["dp-homology"]),
            Invocation("ruled", None, ops),
        ]
    raise KeyError(name)


WORKLOADS = ("cli-all", "charts", "gb-systems", "combinatorics")


# -- child processes -------------------------------------------------------------


@dataclass
class Child:
    start: float  # time.perf_counter() at spawn
    wall_s: float
    cpu_s: float
    rss_mb: float
    first_line_s: float
    exit_code: int
    timed_out: bool
    lines: list
    trace: dict | None
    points: list  # the calibrations the process made (hostclock.Sampler)
    # set by Clock.scale: times at the reference host speed, calibrations left out
    scaled_wall_s: float = 0.0
    scaled_cpu_s: float = 0.0
    scaled_first_s: float = 0.0
    work_s: float = 0.0  # wall_s less the process's own calibrations


def run_child(argv, env, stdin, timeout):
    """Run one process to completion, timing its first stdout line."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    proc.stdin.write(stdin)
    proc.stdin.close()
    out, err = bytearray(), bytearray()
    first = None
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                timed_out = True
                break
            for key, _ in sel.select(remaining):
                chunk = os.read(key.fd, 1 << 16)
                if not chunk:
                    sel.unregister(key.fileobj)
                elif key.fileobj is proc.stdout:
                    if first is None and b"\n" in chunk:
                        first = time.perf_counter() - start
                    out += chunk
                else:
                    err += chunk
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    trace, points = None, []
    for line in err.decode(errors="replace").splitlines():
        if line.startswith(TRACE_PREFIX):
            trace = json.loads(line[len(TRACE_PREFIX):])
        elif line.startswith(CLOCK_PREFIX):
            points = json.loads(line[len(CLOCK_PREFIX):])
    return Child(start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 wall if first is None else first, proc.returncode, timed_out,
                 out.decode(errors="replace").splitlines(), trace, points)


# -- verification against known answers --------------------------------------


class Verifier:
    """Counts attempted and failed operations and keeps the failure messages.

    An operation is one report, one Groebner system or one library call.
    Reduced bases of the seeded systems are checked once per run with the
    benchmark's own reducer; a later pass must return the same basis.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self._fixed = json.loads((EXPECTED / "gb-fixed.json").read_text())
        self._verified = {}

    def _fail(self, where, message):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"{where}: {message}")

    def check(self, inv, child):
        """Verify one process's output; returns summed duration_ms per check name."""
        failed_before = self.failed
        durations = {}
        if inv.argv is not None:
            self._check_reports(inv, child.lines, durations)
        else:
            self._check_calls(inv, child.lines)
        if (child.timed_out or child.exit_code != 0) and self.failed == failed_before:
            self._fail(inv.label, "timed out" if child.timed_out else f"exit code {child.exit_code}")
        return durations

    def _check_reports(self, inv, lines, durations):
        expected_path = EXPECTED / f"{inv.label}.jsonl"
        expected = expected_path.read_text().splitlines() if expected_path.exists() else None
        wanted = 1 if expected is None else len(expected)
        self.attempted += max(len(lines), wanted)
        for _ in range(wanted - len(lines)):
            self._fail(inv.label, f"{len(lines)} reports, expected {wanted}")
        for i, line in enumerate(lines):
            try:
                report = json.loads(line)
                name = report["check_name"]
                durations[name] = durations.get(name, 0) + report.pop("duration_ms")
                stripped = json.dumps(report, separators=(",", ":"))
                if report["status"] != "pass":
                    problem = f"status {report['status']}"
                elif expected is not None and i >= len(expected):
                    problem = "report beyond the expected stream"
                elif expected is not None and stripped != expected[i]:
                    problem = "report differs from the expected stream"
                else:
                    problem = _verdict_problem(report)
            except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
                problem = f"malformed report: {type(exc).__name__}: {exc}"
            if problem:
                self._fail(f"{inv.label} line {i + 1}", problem)

    def _check_calls(self, inv, lines):
        self.attempted += len(inv.ops)
        results = {}
        for line in lines:
            try:
                row = json.loads(line)
                results[row["op"]] = row
            except (ValueError, KeyError, TypeError):
                pass  # a torn line; its call counts as having no result
        for op in inv.ops:
            row = results.get(op["op"])
            if row is None:
                problem = "no result"
            elif "error" in row:
                problem = row["error"]
            else:
                problem = self._call_problem(op, row["result"])
            if problem:
                self._fail(op["op"], problem)

    def _call_problem(self, op, result):
        kind, name = op["kind"], op["op"]
        if kind == "minus_one":
            want = MINUS_ONE_COUNTS[op["r"]]
            bad = [c for c in result if not _is_minus_one_class(c)]
            if len(result) != want or bad:
                return f"{len(result)} minus-one classes (expected {want}); not (-1)-classes: {bad}"
            return None
        if kind == "homology":
            missing = [c["trace"] for c in result["cases"] if not c["found"]]
            if missing or not result["passed"] or not result["cases"]:
                return f"no witness for traces {missing}"
            return None
        basis = result["basis"] if kind == "eliminate" else result
        canonical = gb.canonical_basis(basis)
        if name in self._fixed:
            if canonical != gb.canonical_basis(self._fixed[name]["basis"]):
                return "basis differs from the committed reduced basis"
            return None
        if name not in self._verified:
            gens = [gb.load_poly(g) for g in op["gens"]]
            problems = gb.basis_problems(gens, [gb.load_poly(p) for p in canonical],
                                         op["solutions"])
            self._verified[name] = canonical if not problems else None
            if problems:
                return "; ".join(problems[:3])
        if canonical != self._verified[name]:
            return "basis is not the verified reduced basis"
        return None


def _is_minus_one_class(coords):
    """D.D = -1 and -K.D = 1 on the quadric blow-up: D = (p, q; m1..mr)."""
    p, q, *m = coords
    return 2 * p * q - sum(x * x for x in m) == -1 and 2 * p + 2 * q - sum(m) == 1


def _verdict_problem(report):
    """Known answers checked beyond equality with the expected stream."""
    name, witnesses = report["check_name"], report["witnesses"]
    if name == "terminal-classification" and witnesses[0]["counterexamples"]:
        return "the counterexample table is not empty"
    if name == "minus-one-count":
        counts = {row["r"]: row["count"] for row in witnesses}
        if counts != MINUS_ONE_COUNTS:
            return f"minus-one counts {counts}"
    if name == "homology-lemma" and not all(case["found"] for case in witnesses):
        return "a homology-lemma case has no witness"
    return None


# -- host speed -----------------------------------------------------------------


class Clock:
    """Calibrates this process around each child and scales the child's times.

    See hostclock.py.  ``calibrations`` keeps every calibration of the run,
    this process's and the children's, in seconds per chunk.
    """

    def __init__(self):
        self.calibration = Calibration()
        self.last = self.calibration.measure()
        self.calibrations = [self.last]

    def scale(self, child):
        before, self.last = self.last, self.calibration.measure()
        self.calibrations += [cal for _, _, cal in child.points] + [self.last]
        t0 = child.start
        child.scaled_wall_s, child.work_s = scaled(t0, t0 + child.wall_s, child.points,
                                                   before, self.last)
        child.scaled_first_s, _ = scaled(t0, t0 + child.first_line_s, child.points,
                                         before, self.last)
        # Calibrating is all CPU time; the rest is scaled as the wall time is.
        busy = child.cpu_s - (child.wall_s - child.work_s)
        child.scaled_cpu_s = busy * child.scaled_wall_s / child.work_s if child.work_s else 0.0
        return child


def pin_to_one_cpu():
    """Run this process and its children on one CPU, so both calibrate the same CPU."""
    if hasattr(os, "sched_setaffinity"):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    return None


# -- one run ------------------------------------------------------------------


def measure_setup(env, count, deadline, clock):
    """Scaled wall times from a fresh interpreter to a completed ``import qhv.cli``."""
    samples = []
    for _ in range(count):
        child = clock.scale(run_child([sys.executable, "-c", "import qhv.cli"], env, b"",
                                      max(deadline - time.perf_counter(), 0.1)))
        if child.exit_code != 0 or child.timed_out:
            raise RuntimeError("import qhv.cli failed")
        samples.append(child.scaled_wall_s)
    return samples


def run_pass(invocations, env, traced, verifier, deadline, clock):
    """Run every invocation once, in order; returns the pass's measurements.

    ``wall_s``, ``cpu_s`` and ``first_report_s`` are at the reference host
    speed; ``work_s`` is the wall time as measured, calibrations left out, and
    ``raw_wall_s`` the wall time as measured.  The times a process reports
    itself, its span times and its checks' ``duration_ms``, are scaled by its
    scaled wall time over its raw wall time.
    """
    children = []
    durations = {}
    for inv in invocations:
        mode = ["lib"] if inv.argv is None else ["cli"] + inv.argv
        argv = [sys.executable, str(WORKER)] + (["--trace"] if traced else []) + mode
        stdin = json.dumps(inv.ops).encode() if inv.argv is None else b""
        child = clock.scale(run_child(argv, env, stdin, max(deadline - time.perf_counter(), 0.1)))
        factor = child.scaled_wall_s / child.wall_s
        for name, ms in verifier.check(inv, child).items():
            durations[name] = durations.get(name, 0) + ms * factor
        if child.trace is not None:
            child.trace["scale"] = factor
        children.append(child)
    return {
        "durations": durations,
        "wall_s": sum(c.scaled_wall_s for c in children),
        "cpu_s": sum(c.scaled_cpu_s for c in children),
        "first_report_s": sum(c.scaled_first_s for c in children),
        "work_s": sum(c.work_s for c in children),
        "raw_wall_s": sum(c.wall_s for c in children),
        "peak_rss_mb": max(c.rss_mb for c in children),
        "timed_out": any(c.timed_out for c in children),
        "traces": [c.trace for c in children if c.trace is not None],
    }


def summarize(values):
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "min": min(values), "max": max(values)}
    if n >= 20:
        q = int(100 * (1 - 10 / n))
        out[f"p{q}"] = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return out


def layer_metrics(traces, durations):
    """Per-layer metrics of one traced pass (traces of all its processes)."""
    spans = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPANS}
    counts = dict.fromkeys(COUNTS, 0)
    caches = {name: {"hits": 0, "misses": 0} for name in CACHES}
    for trace in traces:
        for name, s in trace["spans"].items():
            agg = spans[name]
            agg["calls"] += s["calls"]
            agg["total_s"] += s["total_s"] * trace["scale"]
            agg["self_s"] += s["self_s"] * trace["scale"]
        for name, v in trace["counts"].items():
            counts[name] += v
        for name, c in trace["caches"].items():
            agg = caches[name]
            for k in agg:
                agg[k] += c[k]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("polyring.mul", "polyring.subst", "ideals.groebner", "ideals.normal_form",
                 "group_actions.apply"):
        m[f"{name}.calls"] = (spans[name]["calls"], "count")
    for name in SPANS:
        if not name.startswith("cli."):
            m[f"{name}.self_s"] = (spans[name]["self_s"], "s")
    for name in COUNTS:
        m[name] = (counts[name], "count")
    for cache in ("derive_f4_ideal", "chart"):
        lookups = caches[cache]["hits"] + caches[cache]["misses"]
        m[f"degenerations.{cache}.hit_ratio"] = (ratio(caches[cache]["hits"], lookups), "ratio")
        m[f"degenerations.{cache}.lookups"] = (lookups, "count")
    m["singular.triples_per_s"] = (
        ratio(counts["singular.triples"], spans["singular.classify"]["self_s"]), "1/s")
    ruled_s = spans["ruled.minus_one"]["self_s"] + spans["ruled.homology"]["self_s"]
    m["ruled.classes_per_s"] = (ratio(counts["ruled.classes_scanned"], ruled_s), "1/s")
    m["cli.run.s"] = (spans["cli.run"]["total_s"], "s")
    m["cli.main.overhead_s"] = (spans["cli.main"]["total_s"] - spans["cli.run"]["total_s"], "s")
    for name in CHECK_NAMES:
        m[f"check.{name}.ms"] = (durations.get(name, 0), "ms")
    table = {"spans": spans, "counts": counts, "caches": caches,
             "self_sum_s": sum(s["self_s"] for s in spans.values())}
    return m, table


def git_commit(root):
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qhv" / "cli.py").is_file():
        print("perfbench: run from the root of a qhv checkout (src/qhv is missing)",
              file=sys.stderr)
        return 2
    if "QHV_BUDGET" in os.environ:
        print("perfbench: QHV_BUDGET is set; unset it, budgets must not leak into the run",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cpu = pin_to_one_cpu()
    provenance = {
        "commit": git_commit(root),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_before": os.getloadavg(),
        "pinned_cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }

    clock = Clock()
    measure_setup(env, 1, deadline, clock)  # writes the .pyc files users do not pay for
    setup = []
    invocations = workload(args.workload, args.seed)
    verifier = Verifier()
    untraced, traced = [], []
    loop_start = time.perf_counter()
    while True:
        setup += measure_setup(env, SETUP_SAMPLES, deadline, clock)
        tracing = bool(args.trace) and len(traced) < len(untraced)
        result = run_pass(invocations, env, tracing, verifier, deadline, clock)
        (traced if tracing else untraced).append(result)
        if result["timed_out"]:
            break
        elapsed = time.perf_counter() - loop_start
        done = elapsed >= args.seconds and (traced or not args.trace)
        if done or time.perf_counter() + result["raw_wall_s"] > deadline:
            break

    samples = {"setup_s": setup}
    for key in ("wall_s", "cpu_s", "first_report_s", "peak_rss_mb"):
        samples[key] = [p[key] for p in untraced]
    ok_frac = (verifier.attempted - verifier.failed) / max(verifier.attempted, 1)
    units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "first_report_s": "s",
             "peak_rss_mb": "MB"}
    end_to_end = {k: {"value": summarize(v)["median"], "unit": units[k]} for k, v in samples.items()}
    end_to_end["ok_frac"] = {"value": ok_frac, "unit": "ratio"}

    detail = {
        "provenance": provenance,
        "samples": {k: dict(summarize(v), unit=units[k]) for k, v in samples.items()},
        "raw_work_s": summarize([p["work_s"] for p in untraced]),
        "calibration_s": dict(summarize(clock.calibrations), reference=CAL_REF_S),
        "failed_frac": {"value": 1 - ok_frac, "unit": "ratio"},
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "failures": verifier.messages,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
    }
    metrics = end_to_end
    if args.trace:
        durations = {name: statistics.median(p["durations"].get(name, 0) for p in untraced)
                     for name in CHECK_NAMES}
        per_pass = [layer_metrics(p["traces"], durations) for p in traced or [{"traces": []}]]
        metrics = {name: {"value": statistics.median(m[name][0] for m, _ in per_pass),
                          "unit": unit}
                   for name, (_, unit) in per_pass[0][0].items()}
        traced_wall = statistics.median(p["wall_s"] for p in traced) if traced else 0.0
        metrics["trace.overhead_s"] = {
            "value": traced_wall - end_to_end["wall_s"]["value"], "unit": "s"}
        detail["traced_wall_s"] = traced_wall
        detail["layers"] = per_pass[0][1]
    provenance["loadavg_after"] = os.getloadavg()
    print(json.dumps(detail))
    print(json.dumps({"correct": verifier.failed == 0, "attempted": verifier.attempted,
                      "failed": verifier.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
