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

Importing this module loads no other ``qhv`` module.  Each suite, check body
and the ``family`` reader imports the library modules it uses when it runs,
so a command loads only the modules its suites use; ``all`` loads them all.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from functools import partial
from itertools import product
from pathlib import Path

_dumps = partial(json.dumps, separators=(",", ":"))


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
# (passed, witnesses) and is run by ``run``.  Suites and bodies import their
# library modules when they run, and look each check up on the module object
# then, so a wrapper on the module attribute sees every call.


def _glued(check, family: str, k: int, l: int):
    from . import degenerations as dg
    # the family is built inside the timed body, so a bad twist is an error report
    return check(dg.glued_family(family, k, l))


def _terminal(n_max: int):
    from . import singular
    table = singular.classify_terminal_types(n_max)
    return not table, [{"n_max": n_max, "counterexamples": table}]


def _wps(weights: tuple[int, ...]):
    from . import singular
    rows = singular.wps_singularity_report(list(weights))
    return all(r["terminal"] for r in rows), rows


def _bundle_normalize(n: int, k0: int, kinf: int):
    from . import ruled
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


def _minus_one_count():
    from . import ruled
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


def _homology_lemma(fiber: str):
    from . import ruled
    rep = ruled.homology_lemma_cases(fiber)
    return rep["passed"], rep["cases"]


def suite_verify_quadric(cfg):
    from . import degenerations as dg
    for k, l in product(cfg.quadric_k, cfg.quadric_l):
        body = partial(_glued, dg.verify_gluing, "quadric", k, l)
        yield "quadric-gluing", {"k": k, "l": l}, body


def suite_verify_f4(cfg):
    from . import degenerations as dg
    for k in cfg.f4_k:
        yield "f4-adjudication", {"k": k}, partial(dg.adjudicate_f4_generators, k)
        yield "f4-embedding", {"k": k}, partial(dg.verify_embedding, k)
    for k, l in product(cfg.f4_k, cfg.f4_l):
        body = partial(_glued, dg.verify_gluing, "f4", k, l)
        yield "f4-gluing", {"k": k, "l": l}, body


def suite_verify_quotient(cfg):
    from . import degenerations as dg
    for k in cfg.f4_k:
        yield "f4-quotient", {"k": k}, partial(dg.verify_quotient, k)


def suite_equivariance(cfg):
    from . import degenerations as dg
    twists = {"quadric": (cfg.quadric_k, cfg.quadric_l), "f4": (cfg.f4_k, cfg.f4_l)}
    for family in twists if cfg.family == "both" else (cfg.family,):
        for k, l in product(*twists[family]):
            params = {"family": family, "k": k, "l": l}
            yield "equivariance", params, partial(_glued, dg.verify_equivariance, family, k, l)


def suite_singular_locus(cfg):
    from . import degenerations as dg
    for k in cfg.quadric_k:
        yield "quadric-singular-locus", {"k": k}, partial(dg.quadric_singular_loci, k)


def suite_terminal(cfg):
    n_max = cfg.terminal_n_max
    yield "terminal-classification", {"n_max": n_max}, partial(_terminal, n_max)


def suite_wps(cfg):
    for weights in cfg.wps_weights:
        name = ",".join(str(w) for w in weights)
        yield "wps-vertices", {"weights": name}, partial(_wps, weights)


def suite_bundle_normalize(cfg):
    n, k0, kinf = cfg.bundle
    params = {"n": n, "k0": k0, "kinf": kinf}
    yield "bundle-normalize", params, partial(_bundle_normalize, n, k0, kinf)


def suite_dp_homology(cfg):
    from . import ruled
    yield "minus-one-count", {}, _minus_one_count
    for fiber in ruled.FIBERS:
        yield "homology-lemma", {"fiber": fiber}, partial(_homology_lemma, fiber)


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


@dataclass
class RunConfig:
    quadric_k: tuple[int, ...] = (1, 3, 5, 7, 9)
    quadric_l: tuple[int, ...] = (1, 3, 5, 7, 9)
    f4_k: tuple[int, ...] = (0, 1, 2, 3)
    f4_l: tuple[int, ...] = (0, 1, 2, 3)
    family: str = "both"
    terminal_n_max: int = 50
    wps_weights: tuple[tuple[int, ...], ...] = ((1, 1, 1, 2), (1, 1, 2, 3))
    bundle: tuple[int, int, int] = (1, 2, 1)


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


#: The reader of each config key; a key names its RunConfig field, "-" for "_".
_CONFIG_KEYS = {
    "quadric-k": _parse_int_list,
    "quadric-l": _parse_int_list,
    "f4-k": _parse_int_list,
    "f4-l": _parse_int_list,
    "family": _parse_family,
    "terminal-n-max": int,
    "wps-weights": lambda text: tuple(_parse_int_list(part) for part in text.split(";")),
    "bundle": _parse_bundle,
}

#: The config keys each flag sets; a repeated ``--weights`` joins with ';'.
_FLAG_KEYS = {
    "k": ("quadric-k", "f4-k"),
    "l": ("quadric-l", "f4-l"),
    "family": ("family",),
    "n_max": ("terminal-n-max",),
    "weights": ("wps-weights",),
}


def build_config(args, file_values: dict) -> RunConfig:
    flag_values = {}
    for flag, keys in _FLAG_KEYS.items():
        value = getattr(args, flag, None)
        if value is not None:
            value = ";".join(value) if flag == "weights" else value
            flag_values.update(dict.fromkeys(keys, value))
    cfg = RunConfig()
    # the file is read before the flags, so a flag cannot hide a bad file value
    for values in (file_values, flag_values):
        for key, raw in values.items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                setattr(cfg, key.replace("-", "_"), _CONFIG_KEYS[key](raw))
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
    flags = (getattr(args, name, None) for name in ("n", "k0", "kinf"))
    cfg.bundle = tuple(old if new is None else new for old, new in zip(cfg.bundle, flags))
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

    def add(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    verify = add("verify", help="gluing, adjudication and quotient checks")
    verify.add_argument("target", choices=("quadric", "f4", "quotient"))
    verify.add_argument("--k", help="comma-separated twists for the zero chart")
    verify.add_argument("--l", help="comma-separated twists for the infinity chart")

    equi = add("equivariance", help="action/gluing commutation checks")
    equi.add_argument("--family", help="a chart family, or both (the default)")
    equi.add_argument("--k", help="comma-separated twists")
    equi.add_argument("--l", help="comma-separated twists")

    sing = add("singular-locus", help="per-chart Jacobian certification")
    sing.add_argument("--k", help="comma-separated twists")

    term = add("terminal", help="terminality classification table")
    term.add_argument("--n-max", type=int, dest="n_max")

    wps = add("wps", help="weighted projective vertex reports")
    wps.add_argument(
        "--weights", action="append", help="comma-separated weights (repeatable)"
    )

    bn = add("bundle-normalize", help="normal-form walk of a twisted bundle")
    bn.add_argument("--n", type=int)
    bn.add_argument("--k0", type=int)
    bn.add_argument("--kinf", type=int)

    add("dp-homology", help="minus-one curves and homology-lemma cases")
    add("all", help="every suite at the configured ranges")
    return parser


def _suite_names(args) -> list[str]:
    if args.command == "verify":
        return [f"verify-{args.target}"]
    if args.command == "all":
        return list(SUITES)
    return [args.command]


def run(suites: list[str], cfg: RunConfig, emit) -> dict[str, list[dict]]:
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
    ]
    if len(stored) != len(produced):
        diff.append(f"line counts differ: golden {len(stored)}, produced {len(produced)}")
    return f"golden mismatch for {path}:\n" + "\n".join(diff[:5])


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
