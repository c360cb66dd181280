#!/usr/bin/env python3
"""Reproduce the headline results: equilibrium checks for all four games
across several parameter sets, the tree-vs-contract payoff crosscheck, and
the deposit sweep showing exactly where the post-report profile becomes
sequentially rational (t > z + d, one unit stronger than the t > z + d - b
needed by the pre-report games).

Usage:
    python scripts/run_experiments.py [--group toy|secp256k1] [--json]
"""

from __future__ import annotations

import argparse
import json
import sys

from countercollusion.crypto import GroupParams, setup
from countercollusion.gametheory import (
    GAME_IDS,
    analyze_reference,
    build_game,
    check_sequential_rationality,
    payoff_crosscheck,
    reference_equilibrium,
)
from countercollusion.ledger import Params

PARAM_SETS = {
    "base": Params(w=100, c=10, ch=201, d=212, t=309, b=5),
    "near-boundary": Params(w=100, c=10, ch=201, d=212, t=305, b=9),
    "scaled": Params(w=50, c=7, ch=101, d=109, t=158, b=3),
    "larger": Params(w=1000, c=250, ch=2001, d=2252, t=3005, b=249),
    "g4-deposit": Params(w=100, c=10, ch=201, d=212, t=314, b=5),
}


def equilibrium_table(gp: GroupParams) -> list[dict]:
    rows = []
    for label, params in PARAM_SETS.items():
        for gid in GAME_IDS:
            analysis = analyze_reference(gid, params)
            cells, mismatches = payoff_crosscheck(analysis.game, gp)
            rows.append({
                "params": label,
                "game": gid,
                "rational": analysis.rationality.ok,
                "consistent": analysis.consistency_ok,
                "cells": cells,
                "mismatches": len(mismatches),
                "outcome": {k: str(v) for k, v in analysis.outcome.items()},
            })
    return rows


def deposit_sweep() -> list[dict]:
    """The post-report game as a function of the coalition deposit t."""
    rows = []
    base = PARAM_SETS["base"]
    for t in range(309, 319):
        params = Params(w=base.w, c=base.c, ch=base.ch, d=base.d, t=t, b=base.b)
        game = build_game("g4", params)
        report = check_sequential_rationality(game, reference_equilibrium(game))
        gain = max(chk.full_deviation_max_gain for chk in report.checks)
        rows.append({
            "t": t,
            "z_plus_d": params.z + params.d,
            "max_deviation_gain": str(gain),
            "weak_ok": report.weak_ok,
            "strict_ok": report.strict_ok,
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--group", choices=("toy", "secp256k1"), default="toy")
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    args = parser.parse_args(argv)

    table = equilibrium_table(setup(args.group))
    sweep = deposit_sweep()

    if args.json:
        print(json.dumps({"equilibria": table, "deposit_sweep": sweep}, indent=2))
        return 0

    print(f"equilibrium checks + payoff crosscheck (group={args.group})")
    print(f"{'params':<14} {'game':<5} {'rational':<9} {'consistent':<11} "
          f"{'cells':<6} {'mismatches'}")
    for row in table:
        print(f"{row['params']:<14} {row['game']:<5} {str(row['rational']):<9} "
              f"{str(row['consistent']):<11} {row['cells']:<6} {row['mismatches']}")

    print()
    print("post-report deposit sweep (profile is fully rational only once t > z + d)")
    print(f"{'t':<5} {'z+d':<5} {'max gain':<9} {'weak':<6} {'strict'}")
    for row in sweep:
        print(f"{row['t']:<5} {row['z_plus_d']:<5} {row['max_deviation_gain']:<9} "
              f"{str(row['weak_ok']):<6} {row['strict_ok']}")

    bad = [r for r in table if not (r["rational"] and r["consistent"]) and
           not (r["game"] == "g4" and r["params"] != "g4-deposit")]
    bad += [r for r in table if r["mismatches"]]
    if bad:
        print(f"\nunexpected failures: {bad}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
