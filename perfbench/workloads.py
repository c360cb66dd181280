"""The benchmark's three workloads: seeded inputs, one timed operation, checks.

Every workload is a closed loop with one client.  A workload has ``ops``
slots, and each slot belongs to a stratum (a game and a side of the g4
bound, a band of strategy pairs, a proof kind).  The seed shuffles the
strata into slots in blocks of fixed composition, so each run measures the
same mix of cheap and expensive operations whatever the seed picks inside
each stratum, and the percentiles do not move with the seed.

Every execution gets fresh inputs drawn from its slot's stratum, and
``Workload.op`` refuses inputs that an earlier operation of the process
already had.  So a cache in the program keyed by its inputs never hits
across operations, just as it cannot across the separate processes of real
CLI calls.

A workload exposes ``make(slot)`` (untimed: draw fresh inputs for the slot,
and any reference result the check needs), ``run(op)`` (timed: the call
into the program) and ``check(op, result)`` (untimed: a list of problems,
empty when the output is correct).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from countercollusion import cli, crypto
from countercollusion.crypto import CryptoError, Opening
from countercollusion.protocol import CloudStrategy, CtpAction, ReportChoice, Role

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    slot: int
    args: object
    key: object
    expect: dict = field(default_factory=dict)


@dataclass
class Result:
    exit_code: int | None = None
    report: dict | None = None
    report_bytes: int = 0
    accepted: bool | None = None


class Workload:
    """Fresh, never repeated operations drawn from seeded slots."""

    ops: int
    trace_ops: int

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.seen: set = set()

    def shuffled_blocks(self, block: list) -> list:
        """``ops`` slots: copies of ``block``, each shuffled by the seed."""
        slots = []
        while len(slots) < self.ops:
            slots += self.rng.sample(block, len(block))
        return slots[:self.ops]

    def op(self, slot: int) -> Op:
        """A fresh operation for ``slot`` whose inputs no earlier one had."""
        while True:
            op = self.make(slot)
            if op.key not in self.seen:
                self.seen.add(op.key)
                return op


def strategy_pairs() -> list[tuple[CloudStrategy, CloudStrategy]]:
    """The 2160 consistent strategy pairs, in a fixed order: 4 roles x 3
    reports x 4 actions per cloud, minus the pairs with two initiators."""
    strategies = [CloudStrategy(role, report, action)
                  for role in Role for report in ReportChoice for action in CtpAction]
    return [(s1, s2) for s1, s2 in itertools.product(strategies, strategies)
            if not (s1.coalition_role is Role.INITIATE and s2.coalition_role is Role.INITIATE)]


def _strategy_dict(s: CloudStrategy) -> dict:
    return {"coalition_role": s.coalition_role.value, "report_choice": s.report_choice.value,
            "ctp_action": s.ctp_action.value}


def _cli(argv: list[str], out: Path) -> Result:
    """One CLI invocation; the JSON report is read back only if written."""
    out.unlink(missing_ok=True)
    code = cli.main(argv + ["--out", str(out)])
    if not out.exists():
        return Result(exit_code=code)
    text = out.read_text()
    return Result(exit_code=code, report=json.loads(text), report_bytes=len(text))


# ---------------------------------------------------------------------------
# secp-scenarios
# ---------------------------------------------------------------------------


class SecpScenarios(Workload):
    """``run`` on secp256k1 for a seed-drawn strategy pair, scenario seed and
    task.  The pairs are split into 20 strata by their group-operation count
    (``pair_muls.json``, measured once on toy and then frozen so every
    version of the program draws the same pairs for a seed); each block of
    20 slots holds every stratum once.

    The label, deltas, roles and clauses depend only on the strategy pair
    (the parameters are the defaults and no task sets a cost), so the check
    compares them with the pair's toy run at ``REFERENCE_SEED`` and the
    default task, the setting the acceptance suite checks for all 2160
    pairs.  A toy run at the operation's own seed is not a safe reference:
    the 509-element toy group lets distinct commitments collide, and about
    1 in 3000 random-seed toy runs settles differently."""

    REFERENCE_SEED = 5

    name = "secp-scenarios"
    group = "secp256k1"
    STRATA = 20
    ops = 100
    trace_ops = 40

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed)
        self.workdir = workdir
        self.pairs = strategy_pairs()
        muls = json.loads((HERE / "pair_muls.json").read_text())["muls"]
        order = sorted(range(len(self.pairs)), key=lambda i: (muls[i], i))
        size = len(order) // self.STRATA
        self.strata = [order[k * size:(k + 1) * size] for k in range(self.STRATA)]
        self.slots = self.shuffled_blocks(list(range(self.STRATA)))
        self.references: dict[int, dict] = {}

    def _task(self) -> dict:
        rng = self.rng
        if rng.random() < 0.5:
            return {"kind": "iterated-hash", "x": rng.randbytes(rng.randrange(33)).hex(),
                    "rounds": rng.randrange(1, 17)}
        expr = rng.choice(("x", "x*x+3", "x**3-x", "(x+1)*(x-2)*x", "2**x+x"))
        return {"kind": "arithmetic-expression", "x": str(rng.randrange(1, 60)), "expr": expr}

    def make(self, slot: int) -> Op:
        pair = self.rng.choice(self.strata[self.slots[slot]])
        strategies = {"cloud1": _strategy_dict(self.pairs[pair][0]),
                      "cloud2": _strategy_dict(self.pairs[pair][1])}
        if pair not in self.references:
            path = self.workdir / "reference.json"
            path.write_text(json.dumps({**strategies, "seed": self.REFERENCE_SEED}))
            self.references[pair] = _cli(["run", "--config", str(path), "--group", "toy"],
                                         self.workdir / "toy.json").report
        config = json.dumps({**strategies, "seed": self.rng.randrange(2**32), "task": self._task()})
        path = self.workdir / f"scenario-{slot}.json"
        path.write_text(config)
        return Op(slot, ["run", "--config", str(path), "--group", self.group], config,
                  expect={"toy": self.references[pair], "w": cli.DEFAULT_PARAMS.w})

    def run(self, op: Op) -> Result:
        return _cli(op.args, self.workdir / "out.json")

    @staticmethod
    def check(op: Op, result: Result) -> list[str]:
        if result.exit_code != 0 or result.report is None:
            return [f"exit code {result.exit_code}, expected 0 with a report"]
        report, toy, w = result.report, op.expect["toy"], op.expect["w"]
        problems = []
        if sum(report["deltas"].values()) != 0:
            problems.append(f"deltas sum to {sum(report['deltas'].values())}")
        outlay = -report["deltas"]["client"]
        if outlay > 2 * w:
            problems.append(f"client outlay {outlay} > 2w")
        if any("/pay/8b" in c for c in report["settlement_clauses"]) and outlay != 2 * w:
            problems.append(f"client outlay {outlay} != 2w on a full payment")
        for key in ("terminal_label", "deltas", "roles", "settlement_clauses"):
            if toy is None or report[key] != toy[key]:
                problems.append(f"{key} differs from the toy run")
        return problems


# ---------------------------------------------------------------------------
# toy-analyze
# ---------------------------------------------------------------------------


def draw_params(rng: random.Random, g4_holds: bool) -> dict:
    """Valid parameters, with ``t`` above ``z + d`` when ``g4_holds`` and in
    ``(z + d - b, z + d]`` otherwise (valid, but g4 is not an equilibrium)."""
    c = rng.randrange(2, 41)
    w = rng.randrange(c, 201)
    ch = 2 * w + rng.randrange(1, 61)
    d = c + ch + rng.randrange(1, 151)
    b = rng.randrange(1, c)
    bound = (w - c + d - ch) + d
    t = bound + rng.randrange(1, 101) if g4_holds else bound - rng.randrange(b)
    return {"w": w, "c": c, "ch": ch, "d": d, "t": t, "b": b}


class ToyAnalyze(Workload):
    """``analyze`` on toy for each game with seed-drawn valid parameters.
    Each block of 10 slots holds g1, g2, g3 and twice g4 with ``t > z + d``,
    and the same with ``t <= z + d``.

    g4, the full game with the betrayal contract, has two slots per side
    because with equal shares the median would fall in the gap between the
    g2 (about 13 ms) and g3 (about 45 ms) latencies.  There it is the mean of
    the slowest g2 and the fastest g3 run, and swings by 10% from run to run.
    With g4 doubled the median is the middle g3 run and the 90th percentile
    lies among the g4 runs."""

    name = "toy-analyze"
    group = "toy"
    GAMES = ("g1", "g2", "g3", "g4", "g4")
    ops = 120
    trace_ops = 30

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed)
        self.workdir = workdir
        self.slots = self.shuffled_blocks(
            [(g, holds) for holds in (True, False) for g in self.GAMES])

    def make(self, slot: int) -> Op:
        game, g4_holds = self.slots[slot]
        params = draw_params(self.rng, g4_holds)
        # The crosscheck keeps the CLI's default seed: on toy, other seeds
        # occasionally hit commitment collisions that report mismatches.
        argv = ["analyze", "--game", game, "--group", self.group]
        for key, value in params.items():
            argv += [f"--{key}", str(value)]
        z = params["w"] - params["c"] + params["d"] - params["ch"]
        g4_fails = game == "g4" and params["t"] <= z + params["d"]
        return Op(slot, argv, tuple(argv), expect={"exit_code": 4 if g4_fails else 0})

    def run(self, op: Op) -> Result:
        return _cli(op.args, self.workdir / "out.json")

    @staticmethod
    def check(op: Op, result: Result) -> list[str]:
        problems = []
        if result.exit_code != op.expect["exit_code"]:
            problems.append(f"exit code {result.exit_code}, expected {op.expect['exit_code']}")
        if result.report is None:
            problems.append("no report written")
        elif result.report["crosscheck"].get("mismatches") != []:
            problems.append("crosscheck mismatches")
        return problems


# ---------------------------------------------------------------------------
# secp-audit
# ---------------------------------------------------------------------------


class SecpAudit(Workload):
    """Deserialize one wire record (two commitments and a proof) and verify
    it on secp256k1.  Each record is made just before it is verified,
    through the public ``commit``/``prove_*``/``serialize_*``.

    The shares of equality and inequality proofs follow the verifications
    one ``secp-scenarios`` operation makes (``VERIFIES_PER_SCENARIO``, the
    ``crypto.verify_eq.count`` and ``crypto.verify_neq.count`` of its traced
    run).  The protocol's provers never send a bad proof, so tampered records
    are held to what the check needs: one equality and one inequality slot
    out of ``ops``, each with one scalar replaced."""

    name = "secp-audit"
    group = "secp256k1"
    ops = 100
    trace_ops = 100
    VERIFIES_PER_SCENARIO = {"eq": 1.025, "neq": 1.867}

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed)
        self.gp = crypto.setup(self.group)
        eq, neq = self.VERIFIES_PER_SCENARIO["eq"], self.VERIFIES_PER_SCENARIO["neq"]
        valid_eq = round((self.ops - 2) * eq / (eq + neq))
        kinds = ([("eq", True)] * valid_eq + [("neq", True)] * (self.ops - 2 - valid_eq)
                 + [("eq", False), ("neq", False)])
        self.slots = self.rng.sample(kinds, len(kinds))

    def make(self, slot: int) -> Op:
        kind, valid = self.slots[slot]
        rng, gp, q = self.rng, self.gp, self.gp.q
        m1 = crypto.digest(gp, rng.randbytes(32))
        m2 = m1 if kind == "eq" else crypto.digest(gp, rng.randbytes(32) + b"|other")
        o1, o2 = Opening(m1, rng.randrange(q)), Opening(m2, rng.randrange(q))
        c1, c2 = crypto.commit(gp, o1.m, o1.s), crypto.commit(gp, o2.m, o2.s)
        if kind == "eq":
            proof = crypto.prove_eq(gp, c1, c2, o1, o2, rng)
            raw = crypto.serialize_eq_proof(gp, proof)
        else:
            proof = crypto.prove_neq(gp, c1, c2, o1, o2, rng)
            raw = crypto.serialize_neq_proof(gp, proof)
        if not valid:
            # replace one scalar (the last 32-byte field, or the one before it)
            ss = gp.scalar_size
            pos = len(raw) - ss * (1 + (kind == "neq" and rng.random() < 0.5))
            old = int.from_bytes(raw[pos:pos + ss], "big")
            new = (old + 1 + rng.randrange(q - 1)) % q
            raw = raw[:pos] + new.to_bytes(ss, "big") + raw[pos + ss:]
        wire = crypto.serialize_commitment(gp, c1) + crypto.serialize_commitment(gp, c2) + raw
        return Op(slot, (kind, wire), wire, expect={"valid": valid})

    def run(self, op: Op) -> Result:
        gp = self.gp
        kind, wire = op.args
        es = gp.elem_size
        try:
            c1 = crypto.deserialize_commitment(gp, wire[:es])
            c2 = crypto.deserialize_commitment(gp, wire[es:2 * es])
            if kind == "eq":
                accepted = crypto.verify_eq(gp, c1, c2, crypto.deserialize_eq_proof(gp, wire[2 * es:]))
            else:
                accepted = crypto.verify_neq(gp, c1, c2, crypto.deserialize_neq_proof(gp, wire[2 * es:]))
        except CryptoError:
            accepted = False
        return Result(accepted=accepted)

    @staticmethod
    def check(op: Op, result: Result) -> list[str]:
        if result.accepted != op.expect["valid"]:
            return ["valid record rejected" if op.expect["valid"] else "tampered record accepted"]
        return []


WORKLOADS = {w.name: w for w in (SecpScenarios, ToyAnalyze, SecpAudit)}
