"""Command-line interface.

Subcommands:

* ``check-params``    validate the monetary parameters (exit 0 ok / 2 violated)
* ``run``             play one full contract scenario from a JSON config
* ``analyze``         build a game, machine-check its reference equilibrium,
                      and replay every terminal against the contracts
* ``crypto-selftest`` exercise the commitment and proof layer
* ``batch``           run a list of scenarios and write one combined report

Exit codes: 0 success; 2 malformed input (including a config nested too
deeply or an ``--out`` path that cannot be written); 3 scenario failure; 4 a
verification check failed.  All reports are JSON with sorted keys, so equal
inputs produce byte-identical output.  The commitment group defaults to the
fast toy group; select with ``--group`` or ``COUNTERCOLLUSION_GROUP``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from enum import Enum

from . import CodedError
from .crypto import (
    CryptoError,
    EqProof,
    GroupParams,
    NeqProof,
    Opening,
    commit,
    deserialize_commitment,
    deserialize_eq_proof,
    deserialize_neq_proof,
    prove_eq,
    prove_neq,
    serialize_commitment,
    serialize_eq_proof,
    serialize_neq_proof,
    setup,
    verify_eq,
    verify_neq,
)
from .gametheory import GAME_IDS, analyze_reference, payoff_crosscheck
from .ledger import Params, validate_params
from .protocol import CloudStrategy, Schedule, ScenarioError, Task, run_scenario

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional

__all__ = ["main", "ConfigError"]

DEFAULT_PARAMS = Params(w=100, c=10, ch=201, d=212, t=309, b=5)
_GROUPS = ("toy", "secp256k1")


class ConfigError(CodedError):
    """Malformed configuration input (code ``invalid-config``)."""

    def __init__(self, message: str) -> None:
        super().__init__("invalid-config", message)


# ---------------------------------------------------------------------------
# Config parsing (strict: unknown keys are rejected)
# ---------------------------------------------------------------------------


def _check_keys(d: dict, allowed: tuple[str, ...], what: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {what}: {', '.join(unknown)}")


def _record_from_dict(cls, d, what: str):
    """The record ``cls`` parsed from config object ``d``.  The record is its
    own schema: its fields are the allowed keys, a field with no default is
    required, and a field's default gives its type (an enum member, parsed by
    its value; a string; else an integer, as for ``Task.cost``'s ``None``)."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be an object")
    _check_keys(d, cls._fields, what)
    defaults = cls._field_defaults
    missing = sorted(set(cls._fields) - set(d) - set(defaults))
    if missing:
        raise ConfigError(f"{what} missing keys: {', '.join(missing)}")
    fields = {}
    for key in (k for k in cls._fields if k in d):
        value, default, name = d[key], defaults.get(key), f"{what}.{key}"
        if isinstance(default, Enum):
            try:
                value = type(default)(value)
            except ValueError:
                valid = ", ".join(member.value for member in type(default))
                raise ConfigError(f"{name} must be one of: {valid} (got {value!r})") from None
        elif isinstance(default, str):
            if not isinstance(value, str):
                raise ConfigError(f"{name} must be a string")
        elif not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{name} must be an integer (got {value!r})")
        fields[key] = value
    return cls(**fields)


_SCENARIO_KEYS = ("params", "task", "cloud1", "cloud2", "seed", "traitor_enabled", "schedule")


def _scenario_from_dict(d: dict) -> dict:
    if not isinstance(d, dict):
        raise ConfigError("scenario config must be an object")
    _check_keys(d, _SCENARIO_KEYS, "scenario")
    scenario = {
        "params": (_record_from_dict(Params, d["params"], "params") if "params" in d
                   else DEFAULT_PARAMS),
        "task": _record_from_dict(Task, d.get("task", {}), "task"),
        "strat1": _record_from_dict(CloudStrategy, d.get("cloud1", {}), "cloud1"),
        "strat2": _record_from_dict(CloudStrategy, d.get("cloud2", {}), "cloud2"),
        "seed": d.get("seed", 0),
        "traitor_enabled": d.get("traitor_enabled"),
        "schedule": (_record_from_dict(Schedule, d["schedule"], "schedule") if "schedule" in d
                     else None),
    }
    if not isinstance(scenario["seed"], int) or isinstance(scenario["seed"], bool):
        raise ConfigError("seed must be an integer")
    if not isinstance(scenario["traitor_enabled"], (bool, type(None))):
        raise ConfigError("traitor_enabled must be true, false, or null")
    return scenario


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON or not UTF-8
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} is nested too deeply") from exc


def _params_from_args(args) -> Params:
    base = DEFAULT_PARAMS
    if args.config:
        base = _record_from_dict(Params, _load_config(args.config), "params")
    return base._replace(**{k: getattr(args, k) for k in Params._fields
                            if getattr(args, k) is not None})


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_check_params(args) -> int:
    params = _params_from_args(args)
    violations = validate_params(params)
    _emit({
        "params": params._asdict(),
        "z": params.z,
        "violations": violations,
        "ok": not violations,
    }, args.out)
    return 0 if not violations else 2


def _run_one(scenario: dict, gp: GroupParams) -> dict:
    outcome = run_scenario(gp=gp, **scenario)
    return {
        **outcome._asdict(),
        "group": gp.group_id,
        "seed": scenario["seed"],
        "params": scenario["params"]._asdict(),
        "strategies": {
            name: {key: choice.value for key, choice in scenario[strat]._asdict().items()}
            for name, strat in (("cloud1", "strat1"), ("cloud2", "strat2"))
        },
        "settlement_clauses": sorted(set(outcome.settlement_clauses)),
    }


def cmd_run(args) -> int:
    config = _load_config(args.config) if args.config else {}
    scenario = _scenario_from_dict(config)
    if args.seed is not None:
        scenario["seed"] = args.seed
    report = _run_one(scenario, setup(args.group))
    if not args.transcript:
        del report["transcript"]
    _emit(report, args.out)
    return 0


def cmd_batch(args) -> int:
    config = _load_config(args.config)
    if isinstance(config, dict):
        _check_keys(config, ("scenarios",), "batch config")
        entries = config.get("scenarios")
    else:
        entries = config
    if not isinstance(entries, list) or not entries:
        raise ConfigError("batch config must hold a non-empty list of scenarios")
    gp = setup(args.group)
    results, failed = [], 0
    for idx, entry in enumerate(entries):
        try:
            report = _run_one(_scenario_from_dict(entry), gp)
            del report["transcript"]
            results.append(report)
        except (ConfigError, ScenarioError) as exc:
            failed += 1
            results.append({"scenario_index": idx, "error": exc.code, "detail": str(exc)})
    _emit({"count": len(entries), "failures": failed, "ok": failed == 0, "results": results},
          args.out)
    return 0 if failed == 0 else 3


def _serialize_rationality(report) -> dict:
    # each exact value (an int or a Fraction) is written as its str: "-213", "1/5"
    info_sets = []
    for check in report.checks:
        flags = [
            {
                "node": nc.node_id,
                "action": nc.action,
                "relation": nc.relation,
                "value": str(nc.value),
                "equilibrium_value": str(nc.eq_value),
            }
            for nc in check.node_checks if nc.relation != "worse"
        ]
        info_sets.append({
            "set_id": check.set_id,
            "player": check.player,
            "equilibrium_value": str(check.eq_value),
            "one_shot_values": {a: str(v) for a, v in check.one_shot_values.items()},
            "full_deviation_max_gain": str(check.full_deviation_max_gain),
            "weak_ok": check.weak_ok,
            "strict_ok": check.strict_ok,
            "nodes_ok": check.nodes_ok,
            "node_flags": flags,
        })
    return {
        "weak_ok": report.weak_ok,
        "strict_ok": report.strict_ok,
        "nodes_ok": report.nodes_ok,
        "ok": report.ok,
        "info_sets": info_sets,
    }


def cmd_analyze(args) -> int:
    params = _params_from_args(args)
    analysis = analyze_reference(args.game, params)
    if analysis.params_violations:
        crosscheck = {"skipped": "parameters are invalid", "cells": 0, "mismatches": []}
        crosscheck_ok = True
    else:
        cells, mismatches = payoff_crosscheck(analysis.game, setup(args.group),
                                              seed=args.seed if args.seed is not None else 7)
        crosscheck = {"cells": cells, "mismatches": mismatches}
        crosscheck_ok = not mismatches
    ok = analysis.ok and crosscheck_ok
    _emit({
        "game": args.game,
        "params": params._asdict(),
        "z": params.z,
        "params_violations": list(analysis.params_violations),
        "rationality": _serialize_rationality(analysis.rationality),
        "consistency": {
            "ok": analysis.consistency_ok,
            "mismatches": [{"set_id": set_id, "node": node, "belief": str(belief),
                            "limit": str(limit)}
                           for set_id, node, belief, limit in analysis.mismatches],
        },
        "outcome": {label: str(pr) for label, pr in analysis.outcome.items()},
        "crosscheck": crosscheck,
        "notes": list(analysis.notes),
        "equilibrium_ok": analysis.equilibrium_ok,
        "ok": ok,
    }, args.out)
    return 0 if ok else 4


def _selftest_group(group_id: str) -> dict:
    gp = setup(group_id, b"\x01")
    rng = random.Random(0xC0FFEE)
    completeness_trials = 400 if group_id == "toy" else 20
    completeness_failures = 0
    for _ in range(completeness_trials):
        m1 = rng.randrange(gp.q)
        m2 = (m1 + 1 + rng.randrange(gp.q - 1)) % gp.q
        s1, s2 = rng.randrange(gp.q), rng.randrange(gp.q)
        c1, c1b = commit(gp, m1, s1), commit(gp, m1, s2)
        eq = prove_eq(gp, c1, c1b, Opening(m1, s1), Opening(m1, s2), rng)
        if not verify_eq(gp, c1, c1b, eq):
            completeness_failures += 1
        c2 = commit(gp, m2, s2)
        neq = prove_neq(gp, c1, c2, Opening(m1, s1), Opening(m2, s2), rng)
        if not verify_neq(gp, c1, c2, neq):
            completeness_failures += 1

    eq_trials, neq_trials = (2000, 1000) if group_id == "toy" else (150, 50)
    forgery_trials = eq_trials + neq_trials
    accepts = 0
    backend = gp.backend
    for i in range(eq_trials):
        c1 = commit(gp, 1, rng.randrange(gp.q))
        c2 = commit(gp, 2, rng.randrange(gp.q))
        forged = EqProof(
            t=backend.hash_to_group(b"countercollusion/selftest", i.to_bytes(4, "big")),
            eta=rng.randrange(gp.q),
        )
        if verify_eq(gp, c1, c2, forged):
            accepts += 1
    # inequality proofs for two commitments to one message, simulated for a
    # challenge drawn before ``t`` (random, or 0 on every other trial):
    # t = eta1*(C1 - C2) + eta2*Q - delta*P
    for i in range(neq_trials):
        c1 = commit(gp, 1, rng.randrange(gp.q))
        c2 = commit(gp, 1, rng.randrange(gp.q))
        eta1, eta2 = rng.randrange(gp.q), rng.randrange(gp.q)
        delta = rng.randrange(gp.q) if i % 2 else 0
        t = gp.mul(eta1, backend.diff(c1.value, c2.value), eta2, gp.Q, -delta, gp.P)
        if verify_neq(gp, c1, c2, NeqProof(t=t, eta1=eta1, eta2=eta2)):
            accepts += 1
    # the tiny group has ~1/509 per-trial false-accept odds; the big group
    # must never accept a forgery
    accept_bound = (forgery_trials // 100) + 10 if group_id == "toy" else 0

    c = commit(gp, 3, 4)
    o3, o4 = rng.randrange(gp.q), rng.randrange(gp.q)
    ca, cb = commit(gp, 9, o3), commit(gp, 9, o4)
    eq = prove_eq(gp, ca, cb, Opening(9, o3), Opening(9, o4), rng)
    cc = commit(gp, 10, o4)
    neq = prove_neq(gp, ca, cc, Opening(9, o3), Opening(10, o4), rng)
    roundtrip_ok, sizes_bits = True, {}
    for name, obj, encode, decode in (
        ("commitment", c, serialize_commitment, deserialize_commitment),
        ("equality_proof", eq, serialize_eq_proof, deserialize_eq_proof),
        ("inequality_proof", neq, serialize_neq_proof, deserialize_neq_proof),
    ):
        raw = encode(gp, obj)
        back = decode(gp, raw)
        # records are tuples: equal values alone would pass another type
        roundtrip_ok &= type(back) is type(obj) and back == obj
        sizes_bits[name] = len(raw) * 8
    setup_deterministic = setup(group_id, b"\x01") == gp

    return {
        "group": group_id,
        "completeness_trials": completeness_trials,
        "completeness_failures": completeness_failures,
        "forgery_trials": forgery_trials,
        "forgery_accepts": accepts,
        "forgery_accept_bound": accept_bound,
        "sizes_bits": sizes_bits,
        "roundtrip_ok": roundtrip_ok,
        "setup_deterministic": setup_deterministic,
        "ok": (
            completeness_failures == 0
            and accepts <= accept_bound
            and roundtrip_ok
            and setup_deterministic
        ),
    }


def cmd_crypto_selftest(args) -> int:
    groups = _GROUPS if args.group == "both" else (args.group,)
    reports = [_selftest_group(g) for g in groups]
    ok = all(r["ok"] for r in reports)
    _emit({"groups": reports, "ok": ok}, args.out)
    return 0 if ok else 4


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with the monetary parameters")
    for key in Params._fields:
        parser.add_argument(f"--{key}", type=int, help=f"override parameter {key}")


def _group(name: str) -> str:
    """``--group``'s ``type``.  argparse checks ``choices`` against given
    values only; the default taken from ``COUNTERCOLLUSION_GROUP`` goes
    through ``type`` alone, so a malformed one is caught here, at parse
    time, with exit code 2."""
    if name not in _GROUPS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(_GROUPS)}; "
            "COUNTERCOLLUSION_GROUP sets the default)")
    return name


def _add_group_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--group", type=_group, choices=_GROUPS,
                        default=os.environ.get("COUNTERCOLLUSION_GROUP", "toy"))


def _run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON scenario config")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    _add_group_flag(parser)
    parser.add_argument("--transcript", action="store_true", help="include the ledger log")


def _analyze_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--game", choices=GAME_IDS, required=True)
    _add_param_flags(parser)
    parser.add_argument("--seed", type=int, help="seed for the protocol crosscheck")
    _add_group_flag(parser)


def _selftest_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--group", choices=_GROUPS + ("both",), default="both")


def _batch_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="JSON file with a scenario list")
    _add_group_flag(parser)


#: name -> (help, the flags before ``--out``, handler), in ``--help`` order
_COMMANDS = {
    "check-params": ("validate monetary parameters", _add_param_flags, cmd_check_params),
    "run": ("run one contract scenario", _run_flags, cmd_run),
    "analyze": ("machine-check a game's reference equilibrium", _analyze_flags, cmd_analyze),
    "crypto-selftest": ("exercise commitments and proofs", _selftest_flags, cmd_crypto_selftest),
    "batch": ("run many scenarios from one config", _batch_flags, cmd_batch),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Add command ``name``'s flags, ``--out`` and its handler to ``parser``."""
    _, add_flags, handler = _COMMANDS[name]
    add_flags(parser)
    parser.add_argument("--out", help="write the JSON report to this file")
    parser.set_defaults(func=handler)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    """The parser with a subparser for each command."""
    parser = argparse.ArgumentParser(
        prog="countercollusion",
        description="Contract-based counter-collusion simulator and verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A named command parses with its own parser, the full parser's subparser
    # for it.  Help, a missing or unknown command, and arguments the command
    # leaves over go to the full parser, whose usage and errors they are.
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    if named:
        own = argparse.ArgumentParser(prog=f"countercollusion {named}")
        args, extra = _add_command(own, named).parse_known_args(argv[1:])
    if not named or extra:
        args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScenarioError as exc:
        print(f"scenario error [{exc.code}]: {exc}", file=sys.stderr)
        return 3
    except CryptoError as exc:
        print(f"crypto error [{exc.code}]: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
