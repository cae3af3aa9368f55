"""Batch verification driver.

Runs named check suites over configured twist ranges and streams one JSON
report per check (``--human`` switches to plain lines).  Exit code 0 means
every check passed, 1 that some check failed or a golden comparison
mismatched, 2 that the command line or config file could not be parsed.

Each report is printed as soon as its check ends.  Reports are deterministic
for a fixed configuration; ``duration_ms`` is the only varying field and is
ignored by golden comparisons (``--golden DIR`` compares the reports of each
suite against ``DIR/<suite>.jsonl``, so ``all`` checks one file per suite;
``--update-golden`` rewrites those files and needs ``--golden``).  Every
engine call runs under the fixed step limit ``ideals.STEP_BUDGET``; a check
that exceeds it reports ``error``.

Importing this module loads no other ``qhv`` module.  Each suite and the
``family`` reader imports the library modules it uses when it runs, so a
command loads only the modules its suites use; ``all`` loads them all.  A
suite loads its modules before it yields its first check, so no check's
``duration_ms`` includes loading one.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from itertools import product
from pathlib import Path

_dumps = json.JSONEncoder(separators=(",", ":")).encode


def _run_check(name: str, params: dict, body) -> dict:
    """Time one check; ``body`` returns (passed, witnesses).

    The report is the JSON object printed, its keys in report order; status
    is pass, fail or error.
    """
    start = time.perf_counter()
    try:
        passed, witnesses = body()
        status = "pass" if passed else "fail"
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        status = "error"
        witnesses = [{"error": f"{type(exc).__name__}: {exc}"}]
    duration = int((time.perf_counter() - start) * 1000)
    if status == "fail" and not witnesses:
        witnesses = [{"error": "check failed without detail"}]
    return {"check_name": name, "params": params, "status": status,
            "witnesses": witnesses, "duration_ms": duration}


# -- suites --------------------------------------------------------------------
#
# A suite yields (check_name, params, body) in report order; ``body`` returns
# (passed, witnesses) and is run by ``run``.  Suites import their library
# modules before their first yield.  Each check is looked up on the module
# object when the suite yields it, or by the body that receives the module
# when it runs, so a wrapper on the module attribute sees every call.


def _glued(check, family: str, k: int, l: int):
    from . import degenerations as dg
    # the family is built inside the timed body, so a bad twist is an error report
    return check(dg.glued_family(family, k, l))


def _terminal(singular, n_max: int):
    table = singular.classify_terminal_types(n_max)
    return not table, [{"n_max": n_max, "counterexamples": table}]


def _wps(singular, weights: tuple[int, ...]):
    rows = singular.wps_singularity_report(list(weights))
    return all(r["terminal"] for r in rows), rows


def _bundle_normalize(ruled, n: int, k0: int, kinf: int):
    state = ruled.construct_twisted(n, k0, kinf)
    final, steps = ruled.figure1_normalize(state)
    round_trip = ruled.replay_reversed(n, steps) == state
    ok = final.fiber_m == 0 and len(steps) == k0 + kinf and round_trip
    witness = {
        "construction": list(state.transcript),
        "normalization": list(steps),
        "steps": len(steps),
        "final_fiber": final.fiber_m,
        "round_trip": round_trip,
    }
    return ok, [witness]


def _minus_one_count(ruled):
    # 0 on the minimal surface, 3 after one blow-up, 6 after two (the
    # degree-six del Pezzo's classical six lines).
    expected = {0: 0, 1: 3, 2: 6}
    rows = []
    ok = True
    for r, want in expected.items():
        classes = ruled.minus_one_curves(ruled.quadric_blowup(r))
        rows.append({"r": r, "count": len(classes), "classes": [str(c) for c in classes]})
        ok = ok and len(classes) == want
    return ok, rows


def _homology_lemma(ruled, fiber: str):
    rep = ruled.homology_lemma_cases(fiber)
    return rep["passed"], rep["cases"]


def suite_verify_quadric(cfg):
    from . import degenerations as dg
    for k, l in product(cfg["quadric-k"], cfg["quadric-l"]):
        body = partial(_glued, dg.verify_gluing, "quadric", k, l)
        yield "quadric-gluing", {"k": k, "l": l}, body


def suite_verify_f4(cfg):
    from . import degenerations as dg
    for k in cfg["f4-k"]:
        yield "f4-adjudication", {"k": k}, partial(dg.adjudicate_f4_generators, k)
        yield "f4-embedding", {"k": k}, partial(dg.verify_embedding, k)
    for k, l in product(cfg["f4-k"], cfg["f4-l"]):
        body = partial(_glued, dg.verify_gluing, "f4", k, l)
        yield "f4-gluing", {"k": k, "l": l}, body


def suite_verify_quotient(cfg):
    from . import degenerations as dg
    for k in cfg["f4-k"]:
        yield "f4-quotient", {"k": k}, partial(dg.verify_quotient, k)


def suite_equivariance(cfg):
    from . import degenerations as dg
    twists = {"quadric": (cfg["quadric-k"], cfg["quadric-l"]), "f4": (cfg["f4-k"], cfg["f4-l"])}
    for family in twists if cfg["family"] == "both" else (cfg["family"],):
        for k, l in product(*twists[family]):
            params = {"family": family, "k": k, "l": l}
            yield "equivariance", params, partial(_glued, dg.verify_equivariance, family, k, l)


def suite_singular_locus(cfg):
    from . import degenerations as dg
    for k in cfg["quadric-k"]:
        yield "quadric-singular-locus", {"k": k}, partial(dg.quadric_singular_loci, k)


def suite_terminal(cfg):
    from . import singular
    n_max = cfg["terminal-n-max"]
    yield "terminal-classification", {"n_max": n_max}, partial(_terminal, singular, n_max)


def suite_wps(cfg):
    from . import singular
    for weights in cfg["wps-weights"]:
        name = ",".join(str(w) for w in weights)
        yield "wps-vertices", {"weights": name}, partial(_wps, singular, weights)


def suite_bundle_normalize(cfg):
    from . import ruled
    n, k0, kinf = cfg["bundle"]
    params = {"n": n, "k0": k0, "kinf": kinf}
    yield "bundle-normalize", params, partial(_bundle_normalize, ruled, n, k0, kinf)


def suite_dp_homology(cfg):
    from . import ruled
    yield "minus-one-count", {}, partial(_minus_one_count, ruled)
    for fiber in ruled.FIBERS:
        yield "homology-lemma", {"fiber": fiber}, partial(_homology_lemma, ruled, fiber)


#: Every suite in the order ``qhv all`` runs them.
SUITES = {
    "verify-quadric": suite_verify_quadric,
    "verify-f4": suite_verify_f4,
    "verify-quotient": suite_verify_quotient,
    "equivariance": suite_equivariance,
    "singular-locus": suite_singular_locus,
    "terminal": suite_terminal,
    "wps": suite_wps,
    "bundle-normalize": suite_bundle_normalize,
    "dp-homology": suite_dp_homology,
}


# -- configuration ---------------------------------------------------------------


class ConfigError(ValueError):
    pass


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc
    if not values:
        # an empty twist list would run no checks and pass vacuously
        raise ConfigError(f"expected at least one integer, got {text!r}")
    return values


def _parse_family(text: str) -> str:
    from . import degenerations as dg
    if text not in ("both", *dg.FAMILIES):
        raise ConfigError(f"unknown family {text!r}")
    return text


def _parse_bundle(text: str) -> tuple[int, int, int]:
    values = _parse_int_list(text)
    if len(values) != 3:
        raise ConfigError("bundle needs exactly n, k0, kinf")
    return values


def read_config_file(path: str) -> dict:
    """Flat ``key = value`` text format; '#' starts a comment.  A key may
    appear once, so no value goes unread."""
    values: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} is given twice")
        values[key] = value.strip()
    return values


#: Each config key: its reader, its default and the flag that also sets it.
#: The run configuration is a dict of these keys.
_CONFIG_KEYS = {
    "quadric-k": (_parse_int_list, (1, 3, 5, 7, 9), "k"),
    "quadric-l": (_parse_int_list, (1, 3, 5, 7, 9), "l"),
    "f4-k": (_parse_int_list, (0, 1, 2, 3), "k"),
    "f4-l": (_parse_int_list, (0, 1, 2, 3), "l"),
    "family": (_parse_family, "both", "family"),
    "terminal-n-max": (int, 50, "n-max"),
    "wps-weights": (lambda text: tuple(_parse_int_list(part) for part in text.split(";")),
                    ((1, 1, 1, 2), (1, 1, 2, 3)), "weights"),
    "bundle": (_parse_bundle, (1, 2, 1), None),
}


def _flag_text(args, flag: str) -> str | None:
    """The text of ``--flag``, or None if it is not given.  Only ``--weights``
    may be repeated; its values join with ';'."""
    given = getattr(args, flag, None)
    if given is not None and len(given) > 1 and flag != "weights":
        raise ConfigError(f"flag --{flag} is given {len(given)} times")
    return None if given is None else ";".join(given)


def _read(what: str, reader, text: str):
    """``reader(text)``; a ValueError becomes a config error naming ``what``."""
    try:
        return reader(text)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def build_config(args, file_values: dict) -> dict:
    cfg = {key: default for key, (_, default, _) in _CONFIG_KEYS.items()}
    flag_values = [(key, _flag_text(args, flag)) for key, (_, _, flag) in _CONFIG_KEYS.items()
                   if flag]
    # the file is read before the flags, so a flag cannot hide a bad file value
    for key, text in [*file_values.items(), *flag_values]:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if text is not None:
            cfg[key] = _read(f"config key {key!r}", _CONFIG_KEYS[key][0], text)
    # --n, --k0 and --kinf each replace one entry of the bundle
    texts = {flag: _flag_text(args, flag) for flag in ("n", "k0", "kinf")}
    cfg["bundle"] = tuple(old if text is None else _read(f"flag --{flag}", int, text)
                          for old, (flag, text) in zip(cfg["bundle"], texts.items()))
    return cfg


# -- entry point -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # The shared flags may appear before or after the subcommand; SUPPRESS
    # keeps the subparser from clobbering values the main parser already set.
    sup = argparse.SUPPRESS
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--human", action="store_true", default=sup,
                        help="plain text output instead of JSON lines")
    common.add_argument("--golden", metavar="DIR", default=sup,
                        help="compare reports against stored files")
    common.add_argument("--update-golden", action="store_true", default=sup,
                        help="rewrite the stored golden files (needs --golden)")
    common.add_argument("--config", metavar="FILE", default=sup,
                        help="flat key=value config file")

    parser = argparse.ArgumentParser(
        prog="qhv",
        description="exact degeneration and bundle verification suites",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, summary, flags=None):
        """A subcommand; ``flags`` maps each of its value flags to its help.
        A value flag may be given more than once and is read by ``_flag_text``."""
        command = sub.add_parser(name, parents=[common], help=summary)
        for flag, text in (flags or {}).items():
            command.add_argument(f"--{flag}", dest=flag, action="append", help=text)
        return command

    twists = "comma-separated twists"
    verify = add("verify", "gluing, adjudication and quotient checks",
                 {"k": f"{twists} for the zero chart", "l": f"{twists} for the infinity chart"})
    verify.add_argument("target", choices=("quadric", "f4", "quotient"))
    add("equivariance", "action/gluing commutation checks",
        {"family": "a chart family, or both (the default)", "k": twists, "l": twists})
    add("singular-locus", "per-chart Jacobian certification", {"k": twists})
    add("terminal", "terminality classification table", {"n-max": None})
    add("wps", "weighted projective vertex reports",
        {"weights": "comma-separated weights (repeatable)"})
    add("bundle-normalize", "normal-form walk of a twisted bundle",
        {"n": None, "k0": None, "kinf": None})
    add("dp-homology", "minus-one curves and homology-lemma cases")
    add("all", "every suite at the configured ranges")
    return parser


def _suite_names(args) -> list[str]:
    if args.command == "verify":
        return [f"verify-{args.target}"]
    if args.command == "all":
        return list(SUITES)
    return [args.command]


def run(suites: list[str], cfg: dict, emit) -> dict[str, list[dict]]:
    """Run every check of the named suites in order; reports grouped by suite.

    ``emit`` receives each report as soon as its check ends.
    """
    results = {}
    for suite in suites:
        reports = results[suite] = []
        for name, params, body in SUITES[suite](cfg):
            report = _run_check(name, params, body)
            emit(report)
            reports.append(report)
    return results


def _golden_compare(suite: str, reports: list[dict], directory: str, update: bool):
    """Returns an error message or None; golden files ignore duration_ms."""
    path = Path(directory) / f"{suite}.jsonl"
    produced = [_dumps({k: v for k, v in r.items() if k != "duration_ms"}) for r in reports]
    if update:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("\n".join(produced) + "\n", encoding="utf-8")
        except OSError as exc:
            return f"cannot write golden file {path}: {exc}"
        return None
    if not path.exists():
        return f"golden file {path} does not exist (run with --update-golden)"
    try:
        stored = [line for line in path.read_text(encoding="utf-8").splitlines() if line]
    except (OSError, UnicodeDecodeError) as exc:
        return f"cannot read golden file {path}: {exc}"
    if stored == produced:
        return None
    diff = [
        f"line {i + 1}:\n  golden:   {s}\n  produced: {p}"
        for i, (s, p) in enumerate(zip(stored, produced))
        if s != p
    ][:5]
    if len(stored) != len(produced):
        diff.append(f"line counts differ: golden {len(stored)}, produced {len(produced)}")
    return f"golden mismatch for {path}:\n" + "\n".join(diff)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    def opt(name, default=None):
        return getattr(args, name, default)

    golden_dir = opt("golden")
    update = opt("update_golden", False)
    if update and not golden_dir:
        parser.error("--update-golden needs --golden DIR")
    try:
        config_path = opt("config")
        file_values = read_config_file(config_path) if config_path else {}
        cfg = build_config(args, file_values)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    human = opt("human", False)

    def emit(report: dict):
        if human:
            shown = " ".join(f"{k}={v}" for k, v in report["params"].items())
            line = (f"{report['status'].upper():5s} {report['check_name']} {shown} "
                    f"({report['duration_ms']} ms)")
        else:
            line = _dumps(report)
        print(line, flush=True)

    results = run(_suite_names(args), cfg, emit)
    passed = all(r["status"] == "pass" for reports in results.values() for r in reports)
    exit_code = 0 if passed else 1
    if golden_dir:
        for suite, suite_reports in results.items():
            message = _golden_compare(suite, suite_reports, golden_dir, update)
            if message:
                print(message, file=sys.stderr)
                exit_code = 1
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
