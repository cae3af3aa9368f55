"""Span tracer that wraps qhv's public functions from outside the package.

``install()`` replaces every binding site of each traced function: the
defining module's attribute, every ``from .x import name`` copy in the other
qhv modules, and every class attribute holding a traced method (so
``Polynomial.__rmul__`` is traced along with ``__mul__``).  Each span adds
to its name's call count, total time and self time (its duration minus the
time its child spans cover).  Spans stay in memory as per-name totals and
are written out once, by ``Tracer.summary()``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from math import comb, gcd

#: span name -> (module, attribute path) of the traced function.
SPANS = {
    "polyring.mul": ("qhv.polyring", "Polynomial.__mul__"),
    "polyring.subst": ("qhv.polyring", "SubstitutionMap.apply"),
    "ideals.groebner": ("qhv.ideals", "Ideal.groebner_basis"),
    "ideals.normal_form": ("qhv.ideals", "normal_form"),
    "ideals.eliminate": ("qhv.ideals", "eliminate"),
    "ideals.minimal_generators": ("qhv.ideals", "minimal_generators"),
    "group_actions.apply": ("qhv.group_actions", "apply"),
    "group_actions.sl2_v4_triple": ("qhv.group_actions", "sl2_v4_triple"),
    "group_actions.invariance": ("qhv.group_actions", "check_ideal_invariance"),
    "degenerations.derive_f4_ideal": ("qhv.degenerations", "derive_f4_ideal"),
    "degenerations.gluing": ("qhv.degenerations", "verify_gluing"),
    "degenerations.equivariance": ("qhv.degenerations", "verify_equivariance"),
    "degenerations.adjudicate": ("qhv.degenerations", "adjudicate_f4_generators"),
    "degenerations.quotient": ("qhv.degenerations", "verify_quotient"),
    "singular.classify": ("qhv.singular", "classify_terminal_types"),
    "ruled.minus_one": ("qhv.ruled", "minus_one_curves"),
    "ruled.homology": ("qhv.ruled", "homology_lemma_cases"),
    "cli.run": ("qhv.cli", "run"),
    "cli.main": ("qhv.cli", "main"),
}

#: Work counters kept alongside the spans.
COUNTS = ("ideals.groebner.computed", "ideals.groebner.basis_elems",
          "ideals.budget_exceeded", "singular.triples", "ruled.classes_scanned")

#: lru caches whose hit counts show carry-over between calls in one process.
CACHES = {
    "derive_f4_ideal": ("qhv.degenerations", ("derive_f4_ideal",)),
    "chart": ("qhv.degenerations", ("quadric_chart", "f4_chart")),
}

#: Lattice rank of each homology-lemma fiber model.
FIBER_RANK = {"sigma1": 2, "blowup1": 3, "blowup2": 4}


def isolated_triples(n_max):
    """Isolated weight triples up to permutation for orders 2..n_max.

    These are the multisets of three units mod n, the set the terminal
    classification scans.
    """
    return sum(comb(sum(gcd(w, n) == 1 for w in range(1, n)) + 2, 3) for n in range(2, n_max + 1))


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}  # calls, total_s, self_s
        self.counts = dict.fromkeys(COUNTS, 0)
        self.bindings = []  # "module.attr" sites that were replaced
        self._stack = []
        self._caches = {}

    def _span(self, name, fn, before=None, after=None):
        stats = self.stats[name]
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter
        limit_error = sys.modules["qhv.ideals"].ResourceLimitExceeded

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before else None
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except limit_error as exc:
                if not getattr(exc, "perfbench_counted", False):
                    exc.perfbench_counted = True
                    counts["ideals.budget_exceeded"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
            if after:
                after(token, result)
            return result

        return traced

    def _hooks(self, name, fn):
        counts = self.counts
        if name == "ideals.groebner":
            def before(args, kwargs):
                return getattr(args[0], "_basis", None) is None

            def after(computed, basis):
                if computed:
                    counts["ideals.groebner.computed"] += 1
                    counts["ideals.groebner.basis_elems"] += len(basis)

            return before, after
        if name in ("singular.classify", "ruled.minus_one", "ruled.homology"):
            signature = inspect.signature(fn)

            def before(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                if name == "singular.classify":
                    counts["singular.triples"] += isolated_triples(a["n_max"])
                else:
                    rank = a["lat"].rank if "lat" in a else FIBER_RANK[a["fiber"]]
                    counts["ruled.classes_scanned"] += (2 * a["bound"] + 1) ** rank

            return before, None
        return None, None

    def install(self):
        modules = {
            m: importlib.import_module(m)
            for m in ("qhv.polyring", "qhv.ideals", "qhv.group_actions",
                      "qhv.degenerations", "qhv.singular", "qhv.ruled", "qhv.cli")
        }
        for cache, (module, names) in CACHES.items():
            self._caches[cache] = [getattr(modules[module], n) for n in names]
        for name, (module, path) in SPANS.items():
            owner = modules[module]
            if "." in path:
                cls_name, attr = path.split(".")
                owners = [getattr(owner, cls_name)]
                original = owners[0].__dict__[attr]
            else:
                original = getattr(owner, path)
                owners = list(modules.values())
            wrapper = self._span(name, original, *self._hooks(name, original))
            for site in owners:
                prefix = (f"{site.__module__}.{site.__qualname__}"
                          if isinstance(site, type) else site.__name__)
                for attr, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, attr, wrapper)
                        self.bindings.append(f"{prefix}.{attr}")
        return self

    def summary(self):
        spans = {
            name: {"calls": calls, "total_s": total, "self_s": self_s}
            for name, (calls, total, self_s) in self.stats.items()
        }
        caches = {}
        for cache, fns in self._caches.items():
            infos = [fn.cache_info() for fn in fns]
            caches[cache] = {"hits": sum(i.hits for i in infos),
                             "misses": sum(i.misses for i in infos)}
        return {"spans": spans, "counts": dict(self.counts), "caches": caches,
                "bindings": self.bindings}
