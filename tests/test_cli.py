"""Driver behavior: exit codes, determinism, golden comparison, config."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from qhv import cli, degenerations, group_actions, ideals, polyring, ruled, singular


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def payloads(lines):
    return [json.loads(line) for line in lines]


GOLDENS = Path(__file__).resolve().parent.parent / "goldens"


class TestBasics:
    def test_quadric_single_pair(self, capsys):
        code, lines, _ = run_cli(capsys, "verify", "quadric", "--k", "3", "--l", "1")
        assert code == 0
        (report,) = payloads(lines)
        assert report["check_name"] == "quadric-gluing"
        assert report["params"] == {"k": 3, "l": 1}
        assert report["status"] == "pass"
        assert report["witnesses"][0]["cleared_power"] == 3

    def test_invalid_twist_yields_error_status(self, capsys):
        code, lines, _ = run_cli(capsys, "verify", "quadric", "--k", "2", "--l", "1")
        assert code == 1
        (report,) = payloads(lines)
        assert report["status"] == "error"
        assert "odd" in report["witnesses"][0]["error"]

    def test_negative_twist_one_error_text(self, capsys):
        code, lines, _ = run_cli(capsys, "verify", "f4", "--k", "-1", "--l", "1")
        errors = {r["witnesses"][0]["error"] for r in payloads(lines)}
        assert code == 1 and len(lines) == 3
        assert errors == {"ConstructionError: twist must be nonnegative, got -1"}

    def test_dp_homology_enumerates_each_lattice_once(self, capsys, monkeypatch):
        calls, original = [], ruled.minus_one_curves
        monkeypatch.setattr(
            ruled, "minus_one_curves", lambda lat, *a: calls.append(lat) or original(lat, *a)
        )
        assert run_cli(capsys, "dp-homology")[0] == 0
        assert calls == [ruled.quadric_blowup(r) for r in range(3)]

    def test_terminal_small(self, capsys):
        code, lines, _ = run_cli(capsys, "terminal", "--n-max", "12")
        assert code == 0
        (report,) = payloads(lines)
        assert report["witnesses"][0]["counterexamples"] == []

    def test_bundle_transcript(self, capsys):
        code, lines, _ = run_cli(
            capsys, "bundle-normalize", "--n", "1", "--k0", "2", "--kinf", "1"
        )
        assert code == 0
        (report,) = payloads(lines)
        assert report["witnesses"][0]["normalization"] == ["A0", "A0", "Ainf"]
        assert report["witnesses"][0]["steps"] == 3

    def test_bundle_base_index_error(self, capsys):
        code, lines, _ = run_cli(capsys, "bundle-normalize", "--n", "0")
        assert code == 1
        (report,) = payloads(lines)
        assert report["status"] == "error"
        assert "base index" in report["witnesses"][0]["error"]

    def test_human_mode(self, capsys):
        code, lines, _ = run_cli(capsys, "--human", "wps")
        assert code == 0
        assert all(line.startswith("PASS") for line in lines)

    def test_flags_after_subcommand(self, capsys):
        code, lines, _ = run_cli(capsys, "dp-homology", "--human")
        assert code == 0
        assert lines and lines[0].startswith("PASS")

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["no-such-suite"])
        assert excinfo.value.code == 2

    def test_budget_too_small_gives_error_report(self, capsys, monkeypatch):
        # the singular-locus check builds its ideals fresh, so no cache is read
        monkeypatch.setattr(ideals, "STEP_BUDGET", 4)
        code, lines, _ = run_cli(capsys, "singular-locus", "--k", "3")
        assert code == 1
        (report,) = payloads(lines)
        assert report["status"] == "error"
        message = report["witnesses"][0]["error"]
        assert message.startswith("ResourceLimitExceeded: step budget of 4 exceeded after ")
        assert "steps over the variables" in message

    def test_update_golden_without_golden_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["wps", "--update-golden"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--update-golden needs --golden" in captured.err


class TestGluingVerifiedOnce:
    def run_counted(self, capsys, monkeypatch, *argv):
        calls, original = [], degenerations.verify_gluing
        monkeypatch.setattr(
            degenerations, "verify_gluing", lambda fam: calls.append(fam) or original(fam)
        )
        code, lines, _ = run_cli(capsys, *argv)
        assert code == 0
        return [p["check_name"] for p in payloads(lines)], len(calls)

    @pytest.mark.parametrize("target", ["quadric", "f4"])
    def test_one_verification_per_gluing_check(self, capsys, monkeypatch, target):
        argv = ("verify", target, "--k", "1", "--l", "1,3")
        names, calls = self.run_counted(capsys, monkeypatch, *argv)
        assert names.count(f"{target}-gluing") == 2 and calls == 2

    def test_equivariance_does_not_verify_gluing(self, capsys, monkeypatch):
        argv = ("equivariance", "--k", "1", "--l", "1")
        names, calls = self.run_counted(capsys, monkeypatch, *argv)
        assert names == ["equivariance"] * 2 and calls == 0

    def test_every_gluing_of_all_matches_literally(self, capsys):
        # the gluing certificate is the literal match, so every pass is one
        code, lines, _ = run_cli(capsys, "all")
        gluings = [p for p in payloads(lines) if p["check_name"].endswith("-gluing")]
        assert code == 0
        assert len(gluings) == 25 + 16
        assert all(p["status"] == "pass" for p in gluings)


class TestStreaming:
    def test_each_report_emitted_before_next_check(self, monkeypatch):
        events = []

        def body(i):
            events.append(("start", i))
            return True, []

        def probe(cfg):
            for i in range(3):
                yield "probe", {"i": i}, lambda i=i: body(i)

        def emit(report):
            events.append(("emit", report["params"]["i"]))

        monkeypatch.setitem(cli.SUITES, "probe", probe)
        results = cli.run(["probe"], cli.RunConfig(), emit)
        assert events == [(kind, i) for i in range(3) for kind in ("start", "emit")]
        assert [r["params"]["i"] for r in results["probe"]] == [0, 1, 2]


class TestDeterminism:
    # Small ranges that still reach every suite.
    SMALL = cli.RunConfig(
        quadric_k=(1, 3), quadric_l=(1,), f4_k=(0, 1), f4_l=(1,), terminal_n_max=12
    )

    def checks(self):
        for suite in cli.SUITES.values():
            yield from suite(self.SMALL)

    def test_every_body_returns_a_verdict_and_witness_list(self):
        # a two-key dict would unpack into its key strings and read as a pass
        for name, params, body in self.checks():
            passed, witnesses = verdict = body()
            assert (type(verdict), type(passed), type(witnesses)) == (tuple, bool, list), name

    def test_byte_identical_without_duration(self, capsys):
        def stripped():
            code, lines, _ = run_cli(capsys, "verify", "quotient", "--k", "0,1")
            assert code == 0
            out = []
            for p in payloads(lines):
                p.pop("duration_ms")
                out.append(json.dumps(p, separators=(",", ":")))
            return out

        assert stripped() == stripped()

    def test_report_independent_of_earlier_runs(self, capsys):
        # The cold pass empties every cache in the package, and with the
        # charts every cached basis, before each check.  The caches are
        # found, not listed, so a new one fails the name check until it is
        # added there, and never escapes the cold pass.
        modules = (polyring, ideals, group_actions, degenerations, singular, ruled, cli)
        caches = {id(obj): obj for module in modules for obj in vars(module).values()
                  if hasattr(obj, "cache_clear")}.values()
        assert sorted(cache.__name__ for cache in caches) == [
            "_check_sl2", "_twist_free_f4_generators", "derive_f4_ideal", "f4_chart",
            "quadric_chart",
        ]
        cold = []
        for check in self.checks():
            for cache in caches:
                cache.cache_clear()
            cold.append({**cli._run_check(*check), "duration_ms": 0})
        assert run_cli(capsys, "all")[0] == 0
        warm = [{**cli._run_check(*check), "duration_ms": 0} for check in self.checks()]
        assert warm == cold


class TestGolden:
    def test_update_then_compare(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "verify",
            "quadric",
            "--k",
            "1",
            "--l",
            "1",
            "--golden",
            str(tmp_path),
            "--update-golden",
        )
        assert code == 0
        assert (tmp_path / "verify-quadric.jsonl").exists()
        code, _, err = run_cli(
            capsys,
            "verify",
            "quadric",
            "--k",
            "1",
            "--l",
            "1",
            "--golden",
            str(tmp_path),
        )
        assert code == 0 and err == ""

    def test_mismatch_detected(self, capsys, tmp_path):
        (tmp_path / "wps.jsonl").write_text('{"made": "up"}\n')
        code, _, err = run_cli(capsys, "wps", "--golden", str(tmp_path))
        assert code == 1
        assert "golden mismatch" in err

    def test_missing_golden_reported(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "wps", "--golden", str(tmp_path))
        assert code == 1
        assert "does not exist" in err

    def test_undecodable_golden_reported(self, capsys, tmp_path):
        (tmp_path / "wps.jsonl").write_bytes(b"\xff\xfe{}\n")
        code, _, err = run_cli(capsys, "wps", "--golden", str(tmp_path))
        assert code == 1
        assert f"cannot read golden file {tmp_path / 'wps.jsonl'}: " in err

    def test_unreadable_golden_reported(self, capsys, tmp_path):
        (tmp_path / "wps.jsonl").mkdir()
        code, _, err = run_cli(capsys, "wps", "--golden", str(tmp_path))
        assert code == 1
        assert f"cannot read golden file {tmp_path / 'wps.jsonl'}: " in err

    def test_unwritable_golden_reported(self, capsys, tmp_path):
        (tmp_path / "file").write_text("")
        target = tmp_path / "file" / "sub"
        code, _, err = run_cli(capsys, "wps", "--golden", str(target), "--update-golden")
        assert code == 1
        assert f"cannot write golden file {target / 'wps.jsonl'}: " in err

    def test_committed_goldens_match(self, capsys):
        for suite in ("verify-f4", "dp-homology", "wps"):
            argv = suite.split("-", 1) if suite.startswith("verify-") else [suite]
            code, _, err = run_cli(capsys, *argv, "--golden", str(GOLDENS))
            assert code == 0, f"{suite}: {err}"

    def test_full_run_matches_golden(self, capsys):
        code, lines, err = run_cli(capsys, "all", "--golden", str(GOLDENS))
        assert code == 0, err
        assert len(lines) == sum(
            len((GOLDENS / f"{suite}.jsonl").read_text().splitlines()) for suite in cli.SUITES
        )

    def test_all_compares_each_suite_file(self, capsys, tmp_path, monkeypatch):
        cheap = ("wps", "bundle-normalize")
        monkeypatch.setattr(cli, "SUITES", {name: cli.SUITES[name] for name in cheap})
        code, _, _ = run_cli(capsys, "all", "--golden", str(tmp_path), "--update-golden")
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{n}.jsonl" for n in cheap)
        for name in cheap:
            written = (tmp_path / f"{name}.jsonl").read_text()
            assert written == (GOLDENS / f"{name}.jsonl").read_text()
        (tmp_path / "wps.jsonl").write_text('{"made": "up"}\n')
        code, _, err = run_cli(capsys, "all", "--golden", str(tmp_path))
        assert code == 1
        assert "wps.jsonl" in err and "bundle-normalize.jsonl" not in err
        # an unreadable file is reported and the later suites are still compared
        (tmp_path / "wps.jsonl").write_bytes(b"\xff\xfe{}\n")
        (tmp_path / "bundle-normalize.jsonl").write_text('{"made": "up"}\n')
        code, _, err = run_cli(capsys, "all", "--golden", str(tmp_path))
        assert code == 1
        assert "cannot read golden file" in err
        assert f"golden mismatch for {tmp_path / 'bundle-normalize.jsonl'}" in err


class TestConfigFile:
    def test_config_values_and_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "quadric-k = 1,3\n"
            "quadric-l = 1\n"
            "terminal-n-max = 9\n"
        )
        code, lines, _ = run_cli(capsys, "verify", "quadric", "--config", str(cfg))
        assert code == 0
        assert [p["params"] for p in payloads(lines)] == [
            {"k": 1, "l": 1},
            {"k": 3, "l": 1},
        ]
        # a flag overrides the file
        code, lines, _ = run_cli(
            capsys, "verify", "quadric", "--config", str(cfg), "--k", "5"
        )
        assert [p["params"] for p in payloads(lines)] == [{"k": 5, "l": 1}]

    def test_bad_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense-key = 1\n")
        code, _, err = run_cli(capsys, "wps", "--config", str(cfg))
        assert code == 2
        assert "config error" in err

    def test_malformed_line_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        code, _, err = run_cli(capsys, "wps", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize(
        "argv", [("verify", "quadric", "--k", ","), ("equivariance", "--k", "1", "--l", "")]
    )
    def test_empty_integer_list_exit_2(self, capsys, argv):
        code, lines, err = run_cli(capsys, *argv)
        assert code == 2 and lines == [] and "at least one integer" in err

    def test_blank_separated_twists_exit_2(self, capsys):
        # blanks inside an entry must not join its digits into twist 13
        code, lines, err = run_cli(capsys, "verify", "quadric", "--k", "1 3", "--l", "1")
        assert code == 2 and lines == [] and "'1 3'" in err

    def test_blank_separated_config_list_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "blank.cfg"
        cfg.write_text("quadric-k = 1 3\n")
        code, lines, err = run_cli(capsys, "verify", "quadric", "--config", str(cfg))
        assert code == 2 and lines == []
        assert "quadric-k" in err and "'1 3'" in err

    def test_blanks_around_entries_allowed(self):
        assert cli._parse_int_list(" 1, 3 ") == (1, 3)

    def test_empty_config_list_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("quadric-k =\n")
        code, lines, err = run_cli(capsys, "verify", "quadric", "--config", str(cfg))
        assert code == 2 and lines == []
        assert "quadric-k" in err

    def test_budget_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "budget.cfg"
        cfg.write_text("budget = 10\n")
        code, lines, err = run_cli(capsys, "wps", "--config", str(cfg))
        assert code == 2 and lines == []
        assert "unknown config key 'budget'" in err

    def test_missing_config_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "wps", "--config", str(tmp_path / "none.cfg"))
        assert code == 2


def config_of(monkeypatch, *argv):
    """The RunConfig that ``qhv ARGV`` would run, with no check run."""
    seen = []
    monkeypatch.setattr(cli, "run", lambda suites, cfg, emit: seen.append(cfg) or {})
    assert cli.main(list(argv)) == 0
    (cfg,) = seen
    return cfg


def changed(cfg):
    """The RunConfig fields that differ from the defaults."""
    default = cli.RunConfig()
    return {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)
            if getattr(cfg, f.name) != getattr(default, f.name)}


class TestParameters:
    @pytest.mark.parametrize("line, expected", [
        ("quadric-k = 1,3", {"quadric_k": (1, 3)}),
        ("quadric-l = 5", {"quadric_l": (5,)}),
        ("f4-k = 0,2", {"f4_k": (0, 2)}),
        ("f4-l = 3", {"f4_l": (3,)}),
        ("family = f4", {"family": "f4"}),
        ("terminal-n-max = 9", {"terminal_n_max": 9}),
        ("wps-weights = 1,1,1,2; 1,2,3,5", {"wps_weights": ((1, 1, 1, 2), (1, 2, 3, 5))}),
        ("bundle = 2,1,3", {"bundle": (2, 1, 3)}),
    ])
    def test_each_config_key_sets_its_field(self, monkeypatch, tmp_path, line, expected):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        assert changed(config_of(monkeypatch, "all", "--config", str(path))) == expected

    @pytest.mark.parametrize("argv, expected", [
        (("verify", "quadric", "--k", "1,3"), {"quadric_k": (1, 3), "f4_k": (1, 3)}),
        (("verify", "f4", "--l", "3"), {"quadric_l": (3,), "f4_l": (3,)}),
        (("equivariance", "--family", "quadric"), {"family": "quadric"}),
        (("terminal", "--n-max", "9"), {"terminal_n_max": 9}),
        (("wps", "--weights", "1,1,1,2", "--weights", "1,2,3,5"),
         {"wps_weights": ((1, 1, 1, 2), (1, 2, 3, 5))}),
        (("bundle-normalize", "--n", "2"), {"bundle": (2, 2, 1)}),
        (("bundle-normalize", "--k0", "3"), {"bundle": (1, 3, 1)}),
        (("bundle-normalize", "--kinf", "4"), {"bundle": (1, 2, 4)}),
    ])
    def test_each_flag_sets_its_fields(self, monkeypatch, argv, expected):
        assert changed(config_of(monkeypatch, *argv)) == expected

    @pytest.mark.parametrize("argv, expected", [
        (("verify", "f4", "--k", "5"), {"quadric_k": (5,), "f4_k": (5,)}),
        (("equivariance", "--family", "quadric"), {"family": "quadric"}),
        (("terminal", "--n-max", "7"), {"terminal_n_max": 7}),
        (("wps", "--weights", "1,1,2,3"), {"wps_weights": ((1, 1, 2, 3),)}),
        (("bundle-normalize", "--k0", "4"), {"bundle": (2, 4, 3)}),
    ])
    def test_flag_wins_over_file(self, monkeypatch, tmp_path, argv, expected):
        path = tmp_path / "run.cfg"
        path.write_text("quadric-k = 1\nf4-k = 2\nfamily = f4\nterminal-n-max = 9\n"
                        "wps-weights = 1,1,1,2\nbundle = 2,1,3\n")
        cfg = config_of(monkeypatch, *argv, "--config", str(path))
        fields = {"quadric_k": (1,), "f4_k": (2,), "family": "f4", "terminal_n_max": 9,
                  "wps_weights": ((1, 1, 1, 2),), "bundle": (2, 1, 3)}
        assert changed(cfg) == {**fields, **expected}

    @pytest.mark.parametrize("line, argv", [
        ("quadric-k = 1 3", ("verify", "quadric", "--k", "5")),
        ("f4-l = x", ("verify", "f4", "--l", "1")),
        ("terminal-n-max = x", ("terminal", "--n-max", "5")),
        ("wps-weights = 1,,x", ("wps", "--weights", "1,1,1,2")),
        ("bundle = 1,x,1", ("bundle-normalize", "--k0", "2")),
    ])
    def test_bad_file_value_exit_2_under_a_flag(self, capsys, tmp_path, line, argv):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        code, lines, err = run_cli(capsys, *argv, "--config", str(path))
        key = line.split(" =")[0]
        assert code == 2 and lines == [] and f"config key {key!r}" in err

    def test_bad_family_in_file_exit_2_under_a_flag(self, capsys, tmp_path):
        path = tmp_path / "family.cfg"
        path.write_text("family = neither\n")
        code, lines, err = run_cli(capsys, "equivariance", "--config", str(path),
                                   "--family", "quadric", "--k", "1", "--l", "1")
        assert code == 2 and lines == []
        assert "config key 'family': unknown family 'neither'" in err

    @pytest.mark.parametrize("text, argv", [
        ("1,2", ("--kinf", "1")),
        ("1,2,3,4", ()),
    ])
    def test_wrong_length_bundle_exit_2(self, capsys, tmp_path, text, argv):
        path = tmp_path / "bundle.cfg"
        path.write_text(f"bundle = {text}\n")
        code, lines, err = run_cli(capsys, "bundle-normalize", "--config", str(path), *argv)
        assert code == 2 and lines == []
        assert "config error" in err and "bundle needs exactly n, k0, kinf" in err

    def test_repeated_key_exit_2(self, capsys, tmp_path):
        # the bad first value would otherwise go unread behind the good one
        path = tmp_path / "twice.cfg"
        path.write_text("bundle = x\n# a comment\nbundle = 1,2,1\n")
        code, lines, err = run_cli(capsys, "bundle-normalize", "--config", str(path))
        assert code == 2 and lines == []
        assert f"{path}:3: config key 'bundle' is given twice" in err

    def test_config_file_not_utf8_exit_2(self, capsys, tmp_path):
        path = tmp_path / "utf16.cfg"
        path.write_bytes(b"\xff\xfe" + "quadric-k = 1\n".encode("utf-16-le"))
        code, lines, err = run_cli(capsys, "wps", "--config", str(path))
        assert code == 2 and lines == []
        assert "config error" in err and str(path) in err


class TestReportShape:
    HUMAN = re.compile(r"^(PASS|FAIL|ERROR) +[a-z0-9-]+ (\S+=\S+( \S+=\S+)*)? \(\d+ ms\)$")

    def test_human_line_shape(self, capsys):
        lines = run_cli(capsys, "--human", "dp-homology")[1]
        lines += run_cli(capsys, "--human", "bundle-normalize", "--n", "0")[1]
        lines += run_cli(capsys, "--human", "wps", "--weights", "1,1,1,2")[1]
        assert len(lines) == 6 and lines[4].startswith("ERROR bundle-normalize n=0 k0=2 kinf=1 (")
        assert all(self.HUMAN.match(line) for line in lines), lines

    def test_fail_without_witness_gets_one(self, capsys, monkeypatch):
        def probe(cfg):
            yield "probe", {"i": 0}, lambda: (False, [])

        monkeypatch.setattr(cli, "SUITES", {"probe": probe})
        code, lines, _ = run_cli(capsys, "all")
        (report,) = payloads(lines)
        assert code == 1 and list(report) == [
            "check_name", "params", "status", "witnesses", "duration_ms"]
        assert report["status"] == "fail"
        assert report["witnesses"] == [{"error": "check failed without detail"}]
