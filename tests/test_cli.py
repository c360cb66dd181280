"""End-to-end tests for the command-line interface.

Every test drives ``main(argv)`` directly and asserts on the exit code and
the JSON report, including byte-identical output across repeated runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from countercollusion import cli, crypto, gametheory
from countercollusion.cli import main
from countercollusion.ledger import Params
from countercollusion.protocol import CloudStrategy, CtpAction, ReportChoice, Role, Schedule, Task


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


# ---------------------------------------------------------------------------
# check-params
# ---------------------------------------------------------------------------


def test_check_params_defaults_are_valid(capsys):
    code, report, _ = run_cli(capsys, "check-params")
    assert code == 0
    assert report["ok"] is True
    assert report["violations"] == []
    assert report["z"] == 101
    assert report["params"] == {"w": 100, "c": 10, "ch": 201, "d": 212, "t": 309, "b": 5}


def test_check_params_flags_override_and_fail(capsys):
    code, report, _ = run_cli(capsys, "check-params", "--ch", "150")
    assert code == 2
    assert report["ok"] is False
    assert report["violations"] == ["ch > 2w", "t > z + d - b"]


def test_check_params_config_file(capsys, tmp_path):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"w": 50, "c": 7, "ch": 101, "d": 109, "t": 158, "b": 3}))
    code, report, _ = run_cli(capsys, "check-params", "--config", str(cfg))
    assert code == 0
    assert report["z"] == 51
    # a flag tightens one field on top of the file
    code, report, _ = run_cli(capsys, "check-params", "--config", str(cfg), "--t", "157")
    assert code == 2
    assert report["violations"] == ["t > z + d - b"]


def test_check_params_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"w": 100, "c": 10, "ch": 201, "d": 212, "t": 309, "b": 5,
                               "fee": 1}))
    code, report, err = run_cli(capsys, "check-params", "--config", str(cfg))
    assert code == 2
    assert report is None
    assert "unknown keys" in err and "fee" in err


def test_check_params_rejects_non_integer(capsys, tmp_path):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"w": 100.5, "c": 10, "ch": 201, "d": 212, "t": 309, "b": 5}))
    code, _, err = run_cli(capsys, "check-params", "--config", str(cfg))
    assert code == 2
    assert "must be an integer" in err


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_defaults_to_honest_scenario(capsys):
    code, report, _ = run_cli(capsys, "run")
    assert code == 0
    assert report["terminal_label"] == "G1:v4"
    assert report["deltas"]["cloud1"] == 90
    assert report["deltas"]["cloud2"] == 90
    assert report["group"] == "toy"
    assert "transcript" not in report


def test_run_transcript_flag(capsys):
    code, report, _ = run_cli(capsys, "run", "--transcript")
    assert code == 0
    assert isinstance(report["transcript"], list) and report["transcript"]
    assert any(entry["tag"] == "prisoners/create" for entry in report["transcript"])


def test_run_coalition_config(capsys, tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({
        "cloud1": {"coalition_role": "initiate", "ctp_action": "r"},
        "cloud2": {"coalition_role": "accept", "ctp_action": "r"},
        "seed": 11,
    }))
    code, report, _ = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    assert report["terminal_label"] == "G2:v10"
    assert report["deltas"]["cloud1"] == 95
    assert report["deltas"]["cloud2"] == 105
    assert report["seed"] == 11
    assert report["strategies"]["cloud1"]["coalition_role"] == "initiate"


def test_run_seed_flag_overrides_config(capsys, tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"seed": 11}))
    code, report, _ = run_cli(capsys, "run", "--config", str(cfg), "--seed", "42")
    assert code == 0
    assert report["seed"] == 42


def test_run_output_is_byte_identical(capsys, tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({
        "cloud1": {"coalition_role": "initiate", "report_choice": "report_correct",
                   "ctp_action": "fx"},
        "cloud2": {"coalition_role": "accept", "report_choice": "report_correct",
                   "ctp_action": "r"},
    }))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "--config", str(cfg), "--out", str(out1), "--transcript"]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2), "--transcript"]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_run_inconsistent_strategies_exit_3(capsys, tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({
        "cloud1": {"coalition_role": "initiate"},
        "cloud2": {"coalition_role": "initiate"},
    }))
    code, report, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 3
    assert report is None
    assert "inconsistent-strategies" in err


def test_run_rejects_unknown_scenario_key(capsys, tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"clouds": []}))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 2
    assert "unknown keys" in err


def test_run_rejects_bad_enum_value(capsys, tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"cloud1": {"ctp_action": "stall"}}))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 2
    assert "ctp_action" in err and "withhold" in err


def test_run_rejects_malformed_json(capsys, tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 2
    assert "not valid JSON" in err


def test_run_missing_config_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", "--config", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read config" in err


def test_group_env_variable_sets_default(capsys, monkeypatch):
    monkeypatch.setenv("COUNTERCOLLUSION_GROUP", "secp256k1")
    code, report, _ = run_cli(capsys, "run")
    assert code == 0
    assert report["group"] == "secp256k1"
    assert report["terminal_label"] == "G1:v4"


@pytest.mark.parametrize("argv", [["run"], ["analyze", "--game", "g1"],
                                  ["batch", "--config", "absent.json"]],
                         ids=["run", "analyze", "batch"])
def test_malformed_group_env_variable_is_a_usage_error(capsys, monkeypatch, argv):
    # argparse never checks a default against ``choices``; unchecked, a
    # malformed group reaches ``setup`` and exits 4, a failed verification
    monkeypatch.setenv("COUNTERCOLLUSION_GROUP", "foo")
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --group: invalid choice: 'foo'" in err
    assert "COUNTERCOLLUSION_GROUP" in err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_g1_clean(capsys):
    code, report, _ = run_cli(capsys, "analyze", "--game", "g1")
    assert code == 0
    assert report["ok"] is True
    assert report["equilibrium_ok"] is True
    assert report["params_violations"] == []
    assert report["outcome"] == {"G1:v4": "1"}
    assert report["crosscheck"] == {"cells": 9, "mismatches": []}
    assert report["consistency"] == {"ok": True, "mismatches": []}
    sets = {entry["set_id"]: entry for entry in report["rationality"]["info_sets"]}
    assert sets["I1"]["equilibrium_value"] == "90"
    assert sets["I1"]["full_deviation_max_gain"] == "0"


def test_each_family_is_laid_out_once_per_process(capsys):
    """A cold ``analyze --game g4`` lays out g4 (its tree and every
    crosscheck label) and g3 (the label its declined offers share) once
    each; a second ``analyze`` lays out nothing."""
    gametheory._layout.cache_clear()
    for _ in range(2):
        code, report, _ = run_cli(capsys, "analyze", "--game", "g4")
        assert report["crosscheck"] == {"cells": 29, "mismatches": []}
        info = gametheory._layout.cache_info()
        assert (info.misses, info.currsize) == (2, 2) and info.hits > 29


def test_analyze_g4_base_params_fails_honestly(capsys):
    code, report, _ = run_cli(capsys, "analyze", "--game", "g4")
    assert code == 4
    assert report["ok"] is False
    assert report["equilibrium_ok"] is False
    assert report["params_violations"] == []
    # the protocol crosscheck itself is clean: the tables are right, the
    # stated strategies just are not rational at this deposit level
    assert report["crosscheck"]["cells"] == 29
    assert report["crosscheck"]["mismatches"] == []
    assert any("NOT satisfied" in note for note in report["notes"])
    sets = {entry["set_id"]: entry for entry in report["rationality"]["info_sets"]}
    assert sets["I1.2"]["weak_ok"] is False
    assert sets["I1.2"]["full_deviation_max_gain"] == "4"


def test_analyze_g4_with_raised_deposit_passes(capsys):
    code, report, _ = run_cli(capsys, "analyze", "--game", "g4", "--t", "314")
    assert code == 0
    assert report["ok"] is True
    assert any("(satisfied)" in note for note in report["notes"])


@pytest.mark.parametrize(
    "game,flag,value,violation",
    [
        ("g1", "--d", "211", "d > c + ch"),
        ("g2", "--t", "308", "t > z + d - b"),
        ("g2", "--b", "10", "b < c"),
    ],
)
def test_analyze_boundary_parameters_exit_4(capsys, game, flag, value, violation):
    code, report, _ = run_cli(capsys, "analyze", "--game", game, flag, value)
    assert code == 4
    assert report["params_violations"] == [violation]
    assert report["crosscheck"]["skipped"] == "parameters are invalid"


def test_analyze_rejects_tiny_kmax(capsys):
    """Consistency is exact, so there is no ladder and no ``--kmax``: the
    flag is a usage error, never silently ignored."""
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--game", "g1", "--kmax", "2"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --kmax 2" in capsys.readouterr().err


def test_analyze_unknown_game_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--game", "g9"])
    assert excinfo.value.code == 2
    capsys.readouterr()


# first 16 hex digits of each report's SHA-256, frozen from the release that
# built every game tree by hand, so any change to a report's bytes shows here
ANALYZE_DIGESTS = {
    ("g1", "309"): "db2b3e83dc7dabd5", ("g1", "314"): "82c745e162ae106d",
    ("g2", "309"): "65c1e89b13e01d27", ("g2", "314"): "6961eaa5914a83c0",
    ("g3", "309"): "f296a5daaeb685c2", ("g3", "314"): "f07b78935f5c37dd",
    ("g4", "309"): "9e5a00d1b144a1bd", ("g4", "314"): "3a730bdd305ad2c4",
}


@pytest.mark.parametrize("game,t", sorted(ANALYZE_DIGESTS))
def test_analyze_output_is_byte_identical(capsys, tmp_path, game, t):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    expected_code = 4 if (game, t) == ("g4", "309") else 0
    argv = ["analyze", "--game", game, "--t", t, "--group", "toy", "--out"]
    assert main(argv + [str(out1)]) == expected_code
    assert main(argv + [str(out2)]) == expected_code
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert hashlib.sha256(out1.read_bytes()).hexdigest()[:16] == ANALYZE_DIGESTS[game, t]


def _count_calls(monkeypatch, fn) -> list:
    """Record the arguments of every call to ``fn``, through every module of
    the package that imported it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "countercollusion":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_a_command_sets_up_one_group_and_builds_one_game(capsys, tmp_path, monkeypatch):
    setups = _count_calls(monkeypatch, crypto.setup)
    builds = _count_calls(monkeypatch, gametheory.build_game)
    code, report, _ = run_cli(capsys, "analyze", "--game", "g4", "--t", "314", "--group", "toy")
    assert code == 0 and report["crosscheck"]["cells"] == 29
    assert (len(setups), len(builds)) == (1, 1)

    setups.clear()
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps([{}, {"seed": 3}, {"cloud2": {"ctp_action": "r"}}]))
    code, report, _ = run_cli(capsys, "batch", "--config", str(cfg), "--group", "toy")
    assert code == 0 and report["count"] == 3
    assert setups == [("toy",)]


# ---------------------------------------------------------------------------
# The parser: one command's own parser per call
# ---------------------------------------------------------------------------


def _parse_outcome(capsys, parse, argv):
    """The exit code, stdout and stderr of a parse of ``argv`` that exits
    (help or a usage error), else the parsed arguments but ``command``."""
    try:
        args = parse(argv)
    except SystemExit as exc:
        out, err = capsys.readouterr()
        return exc.code, out, err
    return {name: value for name, value in vars(args).items() if name != "command"}


#: the flags each command requires
_REQUIRED = {"analyze": ["--game", "g1"], "batch": ["--config", "batch.json"]}
#: a bad choice and a non-integer parameter, for the commands that take them
_BAD_VALUES = {
    "check-params": [["--w", "x"]],
    "run": [["--group", "nope"], ["--seed", "x"]],
    "analyze": [["--game", "g9"], ["--t", "x"], ["--seed", "x"]],
    "crypto-selftest": [["--group", "nope"]],
    "batch": [["--group", "nope"]],
}
_FULL_USAGE = "usage: countercollusion [-h] {%s}" % ",".join(cli._COMMANDS)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_one_command_parser_reads_as_the_full_one(capsys, monkeypatch, command):
    """``main`` parses a named command with that command's parser alone:
    help, every usage error and every parsed argument list read exactly as
    the full parser's.  Arguments the command leaves over (an unknown flag,
    a stray positional, a trailing ``--``) fail in the full parser, whose
    usage line names every command."""
    help_text, add_flags, _ = cli._COMMANDS[command]
    # the handler hands the parsed arguments back instead of running
    monkeypatch.setitem(cli._COMMANDS, command, (help_text, add_flags, lambda args: args))
    required = _REQUIRED.get(command, [])
    helps = [["--help"], ["-h"]]
    parsed = [required, [*required, "--out", "r.json"]]
    errors = [["--out"]] + [[*required, *bad] for bad in _BAD_VALUES[command]]
    leftovers = [[*required, "--no-such-flag"], [*required, "stray"], [*required, "--"]]
    for case in helps + parsed + errors + leftovers:
        argv = [command, *case]
        outcome = _parse_outcome(capsys, main, argv)
        assert outcome == _parse_outcome(capsys, cli._build_parser().parse_args, argv), argv
        if case in helps:
            assert outcome[0] == 0 and outcome[1].startswith(f"usage: countercollusion {command}")
        elif case in parsed:
            assert isinstance(outcome, dict), argv
        else:
            assert outcome[0] == 2 and not outcome[1], argv
        if case in leftovers:
            # the usage line wraps at the terminal's width
            assert " ".join(outcome[2].split()).startswith(_FULL_USAGE), argv


def _count_subparsers(monkeypatch) -> list:
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    return added


def _count_parsers(monkeypatch) -> list:
    """Record the ``prog`` of every ``ArgumentParser`` built, subparsers too."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


def test_a_command_builds_only_its_own_subparser(capsys, monkeypatch):
    """A named command builds one ``ArgumentParser``, its own, and no
    subparser."""
    added, built = _count_subparsers(monkeypatch), _count_parsers(monkeypatch)
    code, report, _ = run_cli(capsys, "analyze", "--game", "g1", "--group", "toy")
    assert code == 0 and report["ok"] is True
    assert (built, added) == (["countercollusion analyze"], [])


@pytest.mark.parametrize("argv", [["--help"], [], ["no-such-command"]],
                         ids=["help", "no-command", "unknown-command"])
def test_help_and_bad_commands_build_every_subparser(capsys, monkeypatch, argv):
    added = _count_subparsers(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert added == list(cli._COMMANDS)
    if argv == ["--help"]:
        assert exc.value.code == 0
        for name, (help_text, _, _) in cli._COMMANDS.items():
            assert re.search(rf"^ +{name}\s+{re.escape(help_text)}$", out, re.M), name
    else:
        assert exc.value.code == 2 and "usage: countercollusion" in err


# ---------------------------------------------------------------------------
# crypto-selftest
# ---------------------------------------------------------------------------


def test_crypto_selftest_toy(capsys):
    code, report, _ = run_cli(capsys, "crypto-selftest", "--group", "toy")
    assert code == 0
    assert report["ok"] is True
    (entry,) = report["groups"]
    assert entry["completeness_failures"] == 0
    assert entry["forgery_accepts"] <= entry["forgery_accept_bound"]
    assert entry["roundtrip_ok"] is True
    assert entry["sizes_bits"] == {
        "commitment": 16, "equality_proof": 32, "inequality_proof": 48,
    }


@pytest.mark.parametrize("group", ["toy", "secp256k1"])
def test_crypto_selftest_fails_on_an_accept_all_inequality_verifier(capsys, monkeypatch, group):
    monkeypatch.setattr(cli, "verify_neq", lambda gp, c1, c2, proof: True)
    code, report, _ = run_cli(capsys, "crypto-selftest", "--group", group)
    assert code == 4
    (entry,) = report["groups"]
    assert entry["completeness_failures"] == 0
    assert entry["forgery_accepts"] > entry["forgery_accept_bound"]


def test_crypto_selftest_both_groups(capsys):
    code, report, _ = run_cli(capsys, "crypto-selftest")
    assert code == 0
    by_group = {entry["group"]: entry for entry in report["groups"]}
    assert set(by_group) == {"toy", "secp256k1"}
    secp = by_group["secp256k1"]
    assert secp["forgery_accepts"] == 0
    assert secp["sizes_bits"] == {
        "commitment": 512, "equality_proof": 768, "inequality_proof": 1024,
    }


# ---------------------------------------------------------------------------
# config schema: each config object is one record, keys and defaults its own
# ---------------------------------------------------------------------------

#: per scenario key, a config setting every field to a non-default value and
#: the record it parses to
_EVERY_FIELD_SET = {
    "params": ({"w": 50, "c": 7, "ch": 101, "d": 109, "t": 158, "b": 3},
               Params(w=50, c=7, ch=101, d=109, t=158, b=3)),
    "task": ({"kind": "arithmetic-expression", "x": "3", "rounds": 5, "expr": "x*x", "cost": 4},
             Task(kind="arithmetic-expression", x="3", rounds=5, expr="x*x", cost=4)),
    "cloud1": ({"coalition_role": "initiate", "report_choice": "report_wrong",
                "ctp_action": "withhold"},
               CloudStrategy(Role.INITIATE, ReportChoice.REPORT_WRONG, CtpAction.WITHHOLD)),
    "schedule": ({"T1": 11, "T2": 22, "T3": 33, "T4": 16, "T5": 37},
                 Schedule(T1=11, T2=22, T3=33, T4=16, T5=37)),
}


@pytest.mark.parametrize("key", list(_EVERY_FIELD_SET))
def test_a_config_setting_every_field_parses_to_its_record(key):
    config, record = _EVERY_FIELD_SET[key]
    defaults = type(record)._field_defaults or cli.DEFAULT_PARAMS._asdict()
    assert set(config) == set(record._fields)
    assert all(getattr(record, f) != defaults[f] for f in record._fields)
    parsed = cli._scenario_from_dict({key: config})[{"cloud1": "strat1"}.get(key, key)]
    assert type(parsed) is type(record) and parsed == record
    assert [type(v) for v in parsed] == [type(v) for v in record]


@pytest.mark.parametrize("argv", ["check-params", "run"])
def test_a_params_object_names_its_missing_keys_sorted(capsys, tmp_path, argv):
    cfg = tmp_path / "config.json"
    params = {"w": 100, "t": 309}
    cfg.write_text(json.dumps(params if argv == "check-params" else {"params": params}))
    code, report, err = run_cli(capsys, argv, "--config", str(cfg))
    assert (code, report) == (2, None)
    assert err == "error: params missing keys: b, c, ch, d\n"


def test_a_task_names_a_bad_field_in_field_order(capsys, tmp_path):
    # ``rounds`` comes before ``expr`` in ``Task``, so it is named first
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"task": {"rounds": "7", "expr": 5}}))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 2
    assert err == "error: task.rounds must be an integer (got '7')\n"


_STRATEGIES = [CloudStrategy(r, rc, a) for r in Role for rc in ReportChoice for a in CtpAction]


def _sparse(strategy: CloudStrategy) -> dict:
    """``strategy`` as a config object that leaves out its default fields."""
    defaults = CloudStrategy._field_defaults
    return {k: v.value for k, v in strategy._asdict().items() if v is not defaults[k]}


def test_a_reported_strategy_reproduces_its_run(capsys, tmp_path):
    # pairing each strategy with the one at the mirrored index puts all 48
    # in both seats and never two initiators together
    cfg = tmp_path / "scenario.json"
    for s1, s2 in zip(_STRATEGIES, reversed(_STRATEGIES)):
        cfg.write_text(json.dumps({"cloud1": _sparse(s1), "cloud2": _sparse(s2), "seed": 3}))
        assert main(["run", "--config", str(cfg), "--transcript"]) == 0
        first = capsys.readouterr().out
        strategies = json.loads(first)["strategies"]
        assert strategies == {name: {k: v.value for k, v in s._asdict().items()}
                              for name, s in (("cloud1", s1), ("cloud2", s2))}
        cfg.write_text(json.dumps({**strategies, "seed": 3}))
        assert main(["run", "--config", str(cfg), "--transcript"]) == 0
        assert capsys.readouterr().out == first


@pytest.mark.parametrize("value", [1, 1.0, 0, 0.0])
def test_traitor_enabled_takes_no_numbers(capsys, tmp_path, value):
    # 1 == True and 0 == False, yet a number is not a JSON boolean
    cfg = tmp_path / "scenario.json"
    scenario = {"traitor_enabled": value, "cloud2": {"report_choice": "report_correct"}}
    detail = "traitor_enabled must be true, false, or null"
    cfg.write_text(json.dumps(scenario))
    code, report, err = run_cli(capsys, "run", "--config", str(cfg))
    assert (code, report, err) == (2, None, f"error: {detail}\n")
    cfg.write_text(json.dumps([{}, scenario]))
    code, report, err = run_cli(capsys, "batch", "--config", str(cfg))
    assert (code, err) == (3, "")
    assert report["results"][1] == {"scenario_index": 1, "error": "invalid-config",
                                    "detail": detail}


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------


def test_batch_runs_all_scenarios(capsys, tmp_path):
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({"scenarios": [
        {},
        {"cloud1": {"coalition_role": "initiate", "ctp_action": "r"},
         "cloud2": {"coalition_role": "accept", "ctp_action": "r"}},
    ]}))
    code, report, _ = run_cli(capsys, "batch", "--config", str(cfg))
    assert code == 0
    assert report["count"] == 2
    assert report["ok"] is True
    labels = [entry["terminal_label"] for entry in report["results"]]
    assert labels == ["G1:v4", "G2:v10"]


def test_batch_reports_scenario_failures(capsys, tmp_path):
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps([
        {},
        {"cloud1": {"coalition_role": "initiate"},
         "cloud2": {"coalition_role": "initiate"}},
    ]))
    code, report, _ = run_cli(capsys, "batch", "--config", str(cfg))
    assert code == 3
    assert report["failures"] == 1
    assert report["results"][1] == {
        "scenario_index": 1,
        "error": "inconsistent-strategies",
        "detail": report["results"][1]["detail"],
    }


def test_hostile_arithmetic_task_is_a_scenario_error(capsys, tmp_path):
    cfg = tmp_path / "scenario.json"
    for x, expr in [
        ("3", "x" + "+x" * 200000),
        ("9" * 4000, "x*x"),  # 8000 digits, past the int-to-str digit limit
        (str(2**64 - 1), "x**64*x**64*x**64*x**64"),  # 4932 digits
        ("3", "True"),  # a bool literal, not an integer
    ]:
        scenario = {"task": {"kind": "arithmetic-expression", "x": x, "expr": expr}}
        cfg.write_text(json.dumps(scenario))
        code, report, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 3
        assert report is None
        assert "invalid-task" in err and "Traceback" not in err
        cfg.write_text(json.dumps([{}, scenario]))
        code, report, err = run_cli(capsys, "batch", "--config", str(cfg))
        assert code == 3
        assert report["failures"] == 1
        assert report["results"][1]["error"] == "invalid-task"
        assert "Traceback" not in err


def test_batch_rejects_empty_list(capsys, tmp_path):
    cfg = tmp_path / "batch.json"
    cfg.write_text("[]")
    code, _, err = run_cli(capsys, "batch", "--config", str(cfg))
    assert code == 2
    assert "non-empty" in err


@pytest.mark.parametrize("top", ['{"scenarios": 5}', '"x"', '{"scenarios": [], "x": 1}'])
def test_batch_rejects_a_malformed_top_level(capsys, tmp_path, top):
    cfg = tmp_path / "batch.json"
    cfg.write_text(top)
    code, report, err = run_cli(capsys, "batch", "--config", str(cfg))
    assert code == 2
    assert report is None
    assert err.startswith("error: ")


def test_batch_keeps_valid_results_past_a_malformed_entry(capsys, tmp_path):
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps([{}, {"seed": "x"}, 7]))
    code, report, err = run_cli(capsys, "batch", "--config", str(cfg))
    assert code == 3
    assert err == ""
    assert report["count"] == 3
    assert report["failures"] == 2
    assert report["results"][0]["terminal_label"] == "G1:v4"
    assert report["results"][1:] == [
        {"scenario_index": 1, "error": "invalid-config", "detail": "seed must be an integer"},
        {"scenario_index": 2, "error": "invalid-config",
         "detail": "scenario config must be an object"},
    ]


# ---------------------------------------------------------------------------
# hostile scenario configs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [("run",), ("batch",), ("check-params",),
                                  ("analyze", "--game", "g1")])
@pytest.mark.parametrize("content", [
    pytest.param(b"[" * 200_000 + b"]" * 200_000, id="too-deep"),
    pytest.param(b"\xff\xfe{}", id="not-utf8"),
])
def test_unreadable_config_is_a_config_error(capsys, tmp_path, argv, content):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(content)
    code, report, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert report is None
    assert err.startswith("error: config ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [("check-params",), ("run",)])
def test_unwritable_out_path_is_a_config_error(capsys, tmp_path, argv):
    out = tmp_path / "missing" / "report.json"
    code, report, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert report is None
    assert err.startswith("error: cannot write report ")
    assert not out.exists()

_JUNK = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
                  st.lists(st.integers(), max_size=2))
_INTS = st.one_of(st.integers(-5, 400), st.integers(-2**70, 2**70))


def _maybe_junk(strategy):
    """Mostly ``strategy``; one draw in ten is a value of the wrong type."""
    return st.integers(0, 9).flatmap(lambda i: _JUNK if i == 0 else strategy)


def _object(fields: dict):
    """A JSON object with any subset of ``fields``, now and then with an
    unknown key or replaced by a non-object."""
    keys = st.fixed_dictionaries({}, optional=fields)
    with_extra = keys.map(lambda d: {**d, "extra": 1})
    return st.integers(0, 19).flatmap(
        lambda i: _JUNK if i == 0 else with_extra if i == 1 else keys)


_SCENARIO = _object({
    "params": _object({k: _maybe_junk(_INTS) for k in ("w", "c", "ch", "d", "t", "b")}),
    "task": _object({
        "kind": _maybe_junk(st.sampled_from(["iterated-hash", "arithmetic-expression", "x"])),
        "x": _maybe_junk(st.one_of(st.sampled_from(["00", "ab", "zz", "-3", "9" * 40]),
                                   st.text(max_size=5))),
        "rounds": _maybe_junk(st.integers(-2, 20_001)),
        "expr": _maybe_junk(st.one_of(st.sampled_from(["x", "x**64*x**64", "x/2", "(x"]),
                                      st.text("x+-*0123456789() ", max_size=12))),
        "cost": _maybe_junk(_INTS),
    }),
    **{cloud: _object({
        "coalition_role": _maybe_junk(st.sampled_from(["honest", "initiate", "accept", "reject"])),
        "report_choice": _maybe_junk(
            st.sampled_from(["no_report", "report_correct", "report_wrong"])),
        "ctp_action": _maybe_junk(st.sampled_from(["fx", "r", "other", "withhold"])),
    }) for cloud in ("cloud1", "cloud2")},
    "seed": _maybe_junk(_INTS),
    "traitor_enabled": _maybe_junk(st.sampled_from([None, True, False])),
    "schedule": _object({k: _maybe_junk(_INTS) for k in ("T1", "T2", "T3", "T4", "T5")}),
})


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scenario=_SCENARIO)
def test_hostile_run_config_exits_with_a_documented_code(capsys, tmp_path, scenario):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scenario))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg), "--group", "toy")
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scenarios=st.lists(_SCENARIO, min_size=1, max_size=3))
def test_hostile_batch_config_exits_with_a_documented_code(capsys, tmp_path, scenarios):
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps(scenarios))
    code, report, err = run_cli(capsys, "batch", "--config", str(cfg), "--group", "toy")
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code in (0, 3):
        assert report["count"] == len(report["results"]) == len(scenarios)
        assert report["failures"] == sum("error" in entry for entry in report["results"])
