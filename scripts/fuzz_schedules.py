#!/usr/bin/env python3
"""Fuzz the scenario driver with random deadline schedules and strategies.

Draws random Schedule values (a mix of valid and deliberately broken ones)
plus random consistent cloud strategies, runs each full scenario, and checks
that the driver's acceptance of a schedule matches the documented validity
predicate, that every accepted run settles with money conserved, and that
the client never spends more than the two payments it escrowed.

Usage:
    python scripts/fuzz_schedules.py [--trials 500] [--seed 1] [--group toy]
"""

from __future__ import annotations

import argparse
import collections
import random
import sys

from countercollusion.ledger import Params
from countercollusion.protocol import (
    CloudStrategy,
    CtpAction,
    ReportChoice,
    Role,
    ScenarioError,
    Schedule,
    Task,
    run_scenario,
    setup,
)

PARAMS = Params(w=100, c=10, ch=201, d=212, t=309, b=5)


def schedule_is_valid(s: Schedule) -> bool:
    return (2 <= s.T1 < s.T2 < s.T3 < s.T5
            and 4 < s.T4 < s.T2 and s.T2 > 5 and s.T3 > s.T2 + 1)


def random_schedule(rng: random.Random) -> Schedule:
    if rng.random() < 0.7:
        # aim inside the valid region (the draw can still miss it)
        T1 = rng.randint(2, 12)
        T4 = rng.randint(5, 14)
        T2 = rng.randint(max(T1, T4, 5) + 1, 25)
        T3 = rng.randint(T2 + 2, 34)
        T5 = rng.randint(T3 + 1, 45)
        return Schedule(T1=T1, T2=T2, T3=T3, T4=T4, T5=T5)
    return Schedule(T1=rng.randint(0, 30), T2=rng.randint(0, 30),
                    T3=rng.randint(0, 40), T4=rng.randint(0, 30),
                    T5=rng.randint(0, 50))


def random_strategies(rng: random.Random) -> tuple[CloudStrategy, CloudStrategy]:
    def one() -> CloudStrategy:
        return CloudStrategy(
            coalition_role=rng.choice(list(Role)),
            report_choice=rng.choice(list(ReportChoice)),
            ctp_action=rng.choice(list(CtpAction)),
        )

    while True:
        s1, s2 = one(), one()
        if not (s1.coalition_role is Role.INITIATE and s2.coalition_role is Role.INITIATE):
            return s1, s2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--group", choices=("toy", "secp256k1"), default="toy")
    args = parser.parse_args(argv)

    gp = setup(args.group)
    rng = random.Random(args.seed)
    accepted = rejected = 0
    labels: collections.Counter = collections.Counter()
    problems: list[str] = []

    for trial in range(args.trials):
        sched = random_schedule(rng)
        s1, s2 = random_strategies(rng)
        valid = schedule_is_valid(sched)
        try:
            out = run_scenario(PARAMS, Task(), s1, s2, gp, seed=rng.randrange(2**32),
                               schedule=sched)
        except ScenarioError as exc:
            if exc.code != "invalid-schedule":
                problems.append(f"trial {trial}: unexpected error {exc.code}")
            elif valid:
                problems.append(f"trial {trial}: valid schedule rejected: {sched}")
            rejected += 1
            continue
        if not valid:
            problems.append(f"trial {trial}: invalid schedule accepted: {sched}")
        accepted += 1
        labels[out.terminal_label] += 1
        if sum(out.deltas.values()) != 0:
            problems.append(f"trial {trial}: deltas do not sum to zero")
        if out.deltas["client"] < -2 * PARAMS.w:
            problems.append(f"trial {trial}: client overspent: {out.deltas['client']}")

    print(f"{args.trials} trials: {accepted} ran, {rejected} rejected as invalid")
    print("top outcomes:", ", ".join(f"{label} x{n}" for label, n in labels.most_common(8)))
    if problems:
        print(f"{len(problems)} problems:", file=sys.stderr)
        for line in problems[:20]:
            print("  " + line, file=sys.stderr)
        return 1
    print("all invariants held (schedule acceptance, zero-sum, client outlay bound)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
