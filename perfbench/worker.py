"""Child process of the benchmark: one fresh interpreter per invocation.

    python3 perfbench/worker.py [--trace] cli ARG...   qhv.cli.main(ARG...)
    python3 perfbench/worker.py [--trace] lib          library calls read as JSON from stdin

``lib`` prints one JSON line per call as soon as it returns.  With
``--trace`` the span tracer is installed before any call, and its summary is
written to stderr as one line prefixed by ``TRACE_PREFIX`` when the process
ends.  Without it the process calibrates itself against the host's speed
(hostclock.py) and writes its calibrations to stderr the same way, prefixed by
``CLOCK_PREFIX``.
"""

from __future__ import annotations

import json
import sys

from gb import dump_poly, load_poly
from hostclock import CLOCK_PREFIX, Sampler

TRACE_PREFIX = "perfbench-trace "


def _call(op):
    from qhv import ideals, ruled
    from qhv.polyring import VariableContext

    kind = op["kind"]
    if kind in ("groebner", "eliminate"):
        ring = VariableContext(tuple(op["names"]))
        ideal = ideals.Ideal([ring.from_terms(load_poly(g)) for g in op["gens"]])
        if kind == "groebner":
            return [dump_poly(g.terms) for g in ideal.groebner_basis()]
        kept = ideals.eliminate(ideal, op["drop"])
        return {"names": list(kept.ring.names),
                "basis": [dump_poly(g.terms) for g in kept.generators]}
    if kind == "minus_one":
        classes = ruled.minus_one_curves(ruled.quadric_blowup(op["r"]), op["bound"])
        return [list(d.coords) for d in classes]
    if kind == "homology":
        return ruled.homology_lemma_cases(op["fiber"], op["bound"])
    raise ValueError(f"unknown library call {kind!r}")


def run_lib(ops):
    for op in ops:
        try:
            line = {"op": op["op"], "result": _call(op)}
        except Exception as exc:  # noqa: BLE001 - reported to run.py as a failed call
            line = {"op": op["op"], "error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(line), flush=True)
    return 0


def main(argv):
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
    tracer = sampler = None
    if trace:
        from tracer import Tracer

        tracer = Tracer().install()
    else:
        sampler = Sampler().install()  # not traced: a calibration would count in the spans
    try:
        if argv[0] == "cli":
            from qhv import cli

            return cli.main(argv[1:])
        return run_lib(json.load(sys.stdin))
    finally:
        sys.stdout.flush()
        if tracer is not None:
            print(TRACE_PREFIX + json.dumps(tracer.summary()), file=sys.stderr, flush=True)
        if sampler is not None:
            print(CLOCK_PREFIX + json.dumps(sampler.stop()), file=sys.stderr, flush=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
