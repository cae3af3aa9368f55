"""Batch verification driver.

Runs named check suites over configured twist ranges and streams one JSON
report per check as soon as it ends (``--human`` switches to plain lines).
Exit code 0 means every check passed, 1 that some check failed or a golden
comparison mismatched, 2 that the command line or config file could not be
parsed.  The command line is read from one table, ``COMMANDS``, keyed by the
words a command is typed with; ``SUITES`` is derived from it.  Reports are
deterministic for a fixed configuration; ``duration_ms`` is the only varying
field and is ignored by golden comparisons (``--golden DIR`` compares each
suite's reports against ``DIR/<suite>.jsonl``).  Every engine call runs under
the fixed step limit ``ideals.STEP_BUDGET``; a check that exceeds it reports
``error``.

Importing this module loads only ``json`` beyond ``sys``, ``os``, ``time``,
``functools`` and ``itertools``; reading the configuration loads no other
``qhv`` module.  Each suite imports the library modules it uses before it
yields its first check, so a command loads only the modules its suites use,
and no check's ``duration_ms`` includes loading one.
"""

from __future__ import annotations

import json
import os
import sys
import time
from functools import partial
from itertools import product

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


#: The k and l config keys of each family of ``degenerations.FAMILIES``.
_TWIST_KEYS = {"quadric": ("quadric-k", "quadric-l"), "f4": ("f4-k", "f4-l")}


def suite_equivariance(cfg):
    from . import degenerations as dg
    for family in _TWIST_KEYS if cfg["family"] == "both" else (cfg["family"],):
        for k, l in product(*(cfg[key] for key in _TWIST_KEYS[family])):
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
    if text not in ("both", *_TWIST_KEYS):
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
        with open(path, encoding="utf-8") as file:
            lines = file.read().splitlines()
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


def _flag_text(flags: dict, flag: str) -> str | None:
    """The text of ``--flag``, or None if it is not given.  Only ``--weights``
    may be repeated; its values join with ';'."""
    given = flags.get(flag)
    if given is not None and len(given) > 1 and flag != "weights":
        raise ConfigError(f"flag --{flag} is given {len(given)} times")
    return None if given is None else ";".join(given)


def _read(what: str, reader, text: str):
    """``reader(text)``; a ValueError becomes a config error naming ``what``."""
    try:
        return reader(text)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def build_config(flags: dict, file_values: dict) -> dict:
    cfg = {key: default for key, (_, default, _) in _CONFIG_KEYS.items()}
    flag_values = [(key, _flag_text(flags, flag)) for key, (_, _, flag) in _CONFIG_KEYS.items()
                   if flag]
    # the file is read before the flags, so a flag cannot hide a bad file value
    for key, text in [*file_values.items(), *flag_values]:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if text is not None:
            cfg[key] = _read(f"config key {key!r}", _CONFIG_KEYS[key][0], text)
    # --n, --k0 and --kinf each replace one entry of the bundle
    texts = {flag: _flag_text(flags, flag) for flag in ("n", "k0", "kinf")}
    cfg["bundle"] = tuple(old if text is None else _read(f"flag --{flag}", int, text)
                          for old, (flag, text) in zip(cfg["bundle"], texts.items()))
    return cfg


# -- entry point -----------------------------------------------------------------


#: Each command, keyed by the words it is typed with: its suite (None for
#: ``all``), exactly the value flags its suite reads, and its summary.
COMMANDS = {
    ("verify", "quadric"): (suite_verify_quadric, ("k", "l"), "quadric gluing checks"),
    ("verify", "f4"): (suite_verify_f4, ("k", "l"), "F4 adjudication, embedding, gluing checks"),
    ("verify", "quotient"): (suite_verify_quotient, ("k",), "F4 quotient structure checks"),
    ("equivariance",): (suite_equivariance, ("family", "k", "l"),
                        "action/gluing commutation checks"),
    ("singular-locus",): (suite_singular_locus, ("k",), "per-chart Jacobian certification"),
    ("terminal",): (suite_terminal, ("n-max",), "terminality classification table"),
    ("wps",): (suite_wps, ("weights",), "weighted projective vertex reports"),
    ("bundle-normalize",): (suite_bundle_normalize, ("n", "k0", "kinf"),
                            "normal-form walk of a twisted bundle"),
    ("dp-homology",): (suite_dp_homology, (), "minus-one curves and homology-lemma cases"),
    ("all",): (None, (), "every suite at the configured ranges"),
}
#: Every suite, named by its command's words, in the order ``qhv all`` runs them.
SUITES = {"-".join(words): suite for words, (suite, _, _) in COMMANDS.items() if suite}
#: The flags every command takes: value name (None for a switch) and summary.
SHARED_FLAGS = {
    "human": (None, "plain text output instead of JSON lines"),
    "golden": ("DIR", "compare reports against stored files"),
    "update-golden": (None, "rewrite the stored golden files (needs --golden)"),
    "config": ("FILE", "flat key=value config file"),
}
USAGE = "usage: qhv [--FLAG ...] COMMAND [--FLAG ...]  (see qhv --help)"


def _help() -> str:
    lines = [USAGE, "", "exact degeneration and bundle verification suites", "", "commands:"]
    for words, (_, flags, summary) in COMMANDS.items():
        usage = [*words, *(f"[--{flag} {flag.upper()}]" for flag in flags)]
        lines += ["  " + " ".join(usage), "      " + summary]
    lines += ["", "flags of every command (spelled in full, --flag VALUE or --flag=VALUE):",
              *(f"  --{f} {v or ''}".ljust(20) + s for f, (v, s) in SHARED_FLAGS.items())]
    return "\n".join(lines)


def _usage_error(message: str):
    print(f"{USAGE}\nqhv: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv: list[str]) -> tuple[list[str], dict[str, list[str]]]:
    """The suites ``argv`` names and its flags, each mapped to its values (none
    for a switch).  A value may start with ``-`` (a negative twist), not ``--``."""
    words, flags, args = [], {}, iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            print(_help())
            raise SystemExit(0)
        flag, eq, value = arg[2:].partition("=")
        if not arg.startswith("--"):
            words.append(arg)
        elif flag in SHARED_FLAGS and SHARED_FLAGS[flag][0] is None:
            if eq:
                _usage_error(f"flag --{flag} takes no value")
            flags[flag] = []
        else:
            value = value if eq else next(args, "--")
            if value.startswith("--"):
                _usage_error(f"flag --{flag} needs a value")
            flags.setdefault(flag, []).append(value)
    if tuple(words) not in COMMANDS:
        _usage_error(f"the command must be one of {', '.join(map(' '.join, COMMANDS))}")
    suite, own, _ = COMMANDS[tuple(words)]
    for flag in sorted(flags.keys() - SHARED_FLAGS.keys() - set(own)):
        _usage_error(f"unknown flag --{flag} for {' '.join(words)}")
    if "update-golden" in flags and not any(flags.get("golden", ())):
        _usage_error("--update-golden needs --golden DIR")
    return ["-".join(words)] if suite else list(SUITES), flags


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
    path = os.path.join(directory, f"{suite}.jsonl")
    produced = [_dumps({k: v for k, v in r.items() if k != "duration_ms"}) for r in reports]
    if update:
        try:
            os.makedirs(directory, exist_ok=True)
            with open(path, "w", encoding="utf-8") as file:
                file.write("\n".join(produced) + "\n")
        except OSError as exc:
            return f"cannot write golden file {path}: {exc}"
        return None
    if not os.path.exists(path):
        return f"golden file {path} does not exist (run with --update-golden)"
    try:
        with open(path, encoding="utf-8") as file:
            stored = [line for line in file.read().splitlines() if line]
    except (OSError, UnicodeDecodeError) as exc:
        return f"cannot read golden file {path}: {exc}"
    if stored == produced:
        return None
    diff = [f"line {i + 1}:\n  golden:   {s}\n  produced: {p}"
            for i, (s, p) in enumerate(zip(stored, produced)) if s != p][:5]
    if len(stored) != len(produced):
        diff.append(f"line counts differ: golden {len(stored)}, produced {len(produced)}")
    return f"golden mismatch for {path}:\n" + "\n".join(diff)


def main(argv: list[str] | None = None) -> int:
    suites, flags = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        golden_dir, config_path = _flag_text(flags, "golden"), _flag_text(flags, "config")
        cfg = build_config(flags, read_config_file(config_path) if config_path else {})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    def emit(report: dict):
        if "human" in flags:
            shown = " ".join(f"{k}={v}" for k, v in report["params"].items())
            line = (f"{report['status'].upper():5s} {report['check_name']} {shown} "
                    f"({report['duration_ms']} ms)")
        else:
            line = _dumps(report)
        print(line, flush=True)

    results = run(suites, cfg, emit)
    exit_code = int(any(r["status"] != "pass" for reports in results.values() for r in reports))
    if golden_dir:
        for suite, suite_reports in results.items():
            message = _golden_compare(suite, suite_reports, golden_dir, "update-golden" in flags)
            if message:
                print(message, file=sys.stderr)
                exit_code = 1
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
