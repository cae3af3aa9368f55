"""Named mutants of the package and the tests that must kill them.

Each mutant is one literal edit of a file, ``old`` replaced by ``new``, and
the ids of the tests expected to fail under it (mutation analysis: DeMillo,
Lipton and Sayward, "Hints on test data selection", 1978).  Run

    python tests/mutants.py [NAME...]

to try the named mutants, every one by default.  For each, the runner copies
``src/``, ``tests/``, ``goldens/`` and ``pyproject.toml`` to a temporary
directory, applies the edit there, runs only the killing tests, and reports
the mutant as killed, as surviving (the tests passed), or as an error (the
edit no longer applies, or pytest could not run the tests).  It exits 1
when a mutant survives or errs.  ``tests/test_mutants.py`` checks, in the
fast suite, that every edit still applies and every killing test exists, so
a refactor updates a mutant beside the code it mutates.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "goldens", "pyproject.toml")
#: Seconds one mutant's tests may run before it is reported as an error.
TIMEOUT = 600


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    killers: tuple[str, ...]  # pytest ids, relative to the repository root


MUTANTS = {
    "smooth-verdict-never": Mutant(
        "src/qhv/degenerations.py",
        "if basis.generators == (chart_ring.one(),):",
        "if False:",
        ("tests/test_degenerations.py::TestSingularLoci::test_twist_one_smooth_everywhere",),
    ),
    "quotient-verdict-always": Mutant(
        "src/qhv/degenerations.py",
        "(sigma.apply(g), not image)",
        "(sigma.apply(g), True)",
        ("tests/test_degenerations.py::TestQuotient"
         "::test_verdict_is_membership_and_false_off_the_kernel",),
    ),
    "ages-from-two": Mutant(
        "src/qhv/singular.py",
        "for j in range(1, n):",
        "for j in range(2, n):",
        ("tests/test_acceptance.py::test_criterion_08_terminality",),
    ),
    # the full suite runs past 600 s under this mutant, so only the golden
    # comparison is named
    "grevlex-unreversed": Mutant(
        "src/qhv/polyring.py",
        "return (-sum(exp), exp[::-1])",
        "return (-sum(exp), exp)",
        ("tests/test_cli.py::TestGolden::test_full_run_matches_golden",),
    ),
    "minimal-generators-descending": Mutant(
        "src/qhv/ideals.py",
        "key=lambda p: grevlex(p.leading_term()[0]), reverse=True)",
        "key=lambda p: grevlex(p.leading_term()[0]))",
        ("tests/test_ideals.py::TestMinimalGenerators::test_drops_redundant",),
    ),
    "gluing-verdict-always": Mutant(
        "src/qhv/degenerations.py",
        "return images == fam.chart_inf.ideal.generators, witnesses",
        "return True, witnesses",
        ("tests/test_degenerations.py::TestGluingCertificate::test_permuted_presentation_fails",),
    ),
    "twist-free-generator-dropped": Mutant(
        "src/qhv/degenerations.py",
        "return tuple(primitive_integer_form(g) for g in quadrics)",
        "return tuple(primitive_integer_form(g) for g in quadrics[1:])",
        ("tests/test_degenerations.py::TestDeriveF4::test_six_quadrics",),
    ),
    "primitive-without-content": Mutant(
        "src/qhv/ideals.py",
        "    content = gcd(*terms.values())",
        "    content = 1",
        ("tests/test_polyring.py::TestUnitsAndNormalForms::test_primitive_integer_form",),
    ),
    "span-always-inside": Mutant(
        "src/qhv/ideals.py",
        "[None if any(col[n:]) else col[:n] for col in tails]",
        "[col[:n] for col in tails]",
        ("tests/test_group_actions.py::TestInvarianceChecks::test_noninvariant_ideal",
         "tests/test_degenerations.py::TestDeriveF4::test_adjudication_flags_variant_discrepancy"),
    ),
    "span-degree-guard-dropped": Mutant(
        "src/qhv/ideals.py",
        "if None in coordinates and len(",
        "if False and len(",
        ("tests/test_ideals.py::TestSpanCoordinates::test_degree_guard",),
    ),
    "reduction-without-multiplier": Mutant(
        "src/qhv/ideals.py",
        "work[target] = -coeff * gc",
        "work[target] = -gc",
        ("tests/test_ideals.py::TestNormalForm::test_two_non_unit_reducers_in_sequence",),
    ),
    # the results stay the same, but the pairs the Koszul criterion drops
    # are reduced, which the step pins count
    "koszul-syzygy-unrecorded": Mutant(
        "src/qhv/ideals.py",
        "                zs.append(koszul)",
        "                pass",
        ("tests/test_ideals.py::TestKnownAnswers::test_step_count_pinned",
         "tests/test_ideals.py::TestKnownAnswers::test_elimination_step_count_pinned",
         "tests/test_ideals.py::TestKnownAnswers::test_graph_elimination_step_count_pinned"),
    ),
    # every code loses its block weight, so eliminate orders grevlex and
    # keeps every element of the basis
    "code-block-weight-dropped": Mutant(
        "src/qhv/ideals.py",
        "return (sum(exp[: self.nb]) << self.shift) + (sum(exp)",
        "return (sum(exp)",
        ("tests/test_ideals.py::TestKnownAnswers::test_katsura4_elimination",
         "tests/test_ideals.py::TestKnownAnswers::test_elimination_step_count_pinned"),
    ),
    "monic-floor-quotient": Mutant(
        "src/qhv/ideals.py",
        "return Fraction(c, d) if r else q",
        "return q",
        ("tests/test_ideals.py::TestKnownAnswers::test_reduced_basis",
         "tests/test_ideals.py::TestKnownAnswers::test_katsura4_elimination"),
    ),
}


def run(name: str) -> str:
    """``killed``, ``survived`` or ``error: ...`` for the mutant ``name``."""
    mutant = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        copy = Path(tmp)
        for entry in COPIED:
            source = ROOT / entry
            if source.is_dir():
                shutil.copytree(source, copy / entry, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(source, copy / entry)
        path = copy / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return f"error: the old text occurs {text.count(mutant.old)} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   *mutant.killers]
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            result = subprocess.run(command, cwd=copy, env=env, capture_output=True,
                                    text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return f"error: the killing tests ran past {TIMEOUT} s"
    # pytest exits 1 when a test failed and 0 when all passed; any other
    # status (no test collected, a usage error) says nothing about the mutant
    if result.returncode == 1:
        return "killed"
    if result.returncode == 0:
        return "survived"
    return f"error: pytest exited {result.returncode}\n{result.stdout}{result.stderr}"


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - set(MUTANTS))
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for name in names or MUTANTS:
        outcome = run(name)
        print(f"{name}: {outcome}", flush=True)
        bad += outcome != "killed"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
