"""Party drivers: play a full outsourcing scenario against the contracts.

``run_scenario`` wires up a client, two clouds, an arbiter, and a cost sink
on a fresh ledger over a given commitment group, then drives one engagement
end to end under configurable cloud strategies:

* ``coalition_role`` -- whether a cloud tries to initiate a bribery
  coalition, accepts/rejects one, or stays out of coalition politics;
* ``report_choice`` -- whether it betrays the coalition to the client with a
  correct or a wrong side-result (reporting without a real coalition
  fabricates a decoy coalition contract, which the client cannot
  distinguish from a genuine one);
* ``ctp_action`` -- what it delivers in the outsourcing contract: the true
  result ``f(x)``, the agreed cheap wrong result ``r``, some other wrong
  value, or nothing.

The driver enforces the protocol conventions: each cloud computes ``f(x)``
at most once (costs are transfers into the ``costs`` sink account), the
client always raises a dispute once a traitor's contract exists, and the
first report wins.  The outcome is labeled with the terminal node that the
played actions reach in the corresponding extensive-form game family (G1
plain, G2 coalition, G3 reporting without coalition, G4 coalition plus
reporting).

A play is an opening (bids, coalition, report and side delivery, up to t=4),
which ignores ``ctp_action``, then a settlement (deliveries, arbitration,
the traitor check, enforcement, the invariants and the ``Outcome``).
``play_all`` plays a list of plays of one engagement: plays that differ only
in their deliveries settle forks of one opening, and all share one
``Prover``, which holds the arbiter's random stream, its opening of its own
result, and each (in)equality proof made once per statement.  The contracts
verify every proof they receive.  ``run_scenario`` is a one-play
``play_all``.
"""

from __future__ import annotations

import enum
import random

from . import CodedError, Record
from .contracts import (
    CCState,
    ColludersContract,
    PrisonersContract,
    TCState,
    TraitorsContract,
    fork,
)
from .crypto import (Commitment, CryptoError, EqProof, GroupParams, NeqProof, Opening, commit,
                     digest, prove_eq, prove_neq, setup, sha256)
from .gametheory import family_of, terminal_label
from .ledger import AccountId, Ledger, Money, Params, validate_params

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterator, Optional

__all__ = [
    "Role",
    "ReportChoice",
    "CtpAction",
    "CloudStrategy",
    "Task",
    "Schedule",
    "Outcome",
    "Prover",
    "ScenarioError",
    "run_scenario",
    "play_all",
    "setup",
    "ttp_resolve",
]


class ScenarioError(CodedError):
    """Scenario-level configuration or invariant failure."""


class Role(enum.Enum):
    HONEST = "honest"
    INITIATE = "initiate"
    ACCEPT = "accept"
    REJECT = "reject"


class ReportChoice(enum.Enum):
    NO_REPORT = "no_report"
    REPORT_CORRECT = "report_correct"
    REPORT_WRONG = "report_wrong"


class CtpAction(enum.Enum):
    FX = "fx"  # deliver the true result
    R = "r"  # deliver the agreed cheap wrong result
    OTHER = "other"  # deliver some other wrong value
    WITHHOLD = "withhold"  # deliver nothing


class CloudStrategy(Record):
    coalition_role: Role = Role.HONEST
    report_choice: ReportChoice = ReportChoice.NO_REPORT
    ctp_action: CtpAction = CtpAction.FX


class Task(Record):
    """The outsourced computation.

    ``iterated-hash``: y = SHA-256 applied ``rounds`` times to ``x`` (hex).
    ``arithmetic-expression``: y = decimal encoding of ``expr`` evaluated at
    integer ``x`` (operators ``+ - * **`` only).
    ``cost`` overrides the per-execution compute cost (defaults to params.c).
    """

    kind: str = "iterated-hash"
    x: str = "00"
    rounds: int = 2
    expr: str = "x"
    cost: Optional[Money] = None

    def description_bytes(self) -> bytes:
        if self.kind == "iterated-hash":
            return b"iterated-hash|rounds=%d" % self.rounds
        if self.kind == "arithmetic-expression":
            return b"arithmetic-expression|" + self.expr.encode()
        raise ScenarioError("invalid-task", f"unknown task kind {self.kind!r}")

    def input_bytes(self) -> bytes:
        if self.kind == "iterated-hash":
            try:
                return bytes.fromhex(self.x)
            except ValueError as exc:
                raise ScenarioError("invalid-task", f"bad hex input: {exc}") from exc
        return self.x.encode()

    def evaluate(self) -> bytes:
        if self.kind == "iterated-hash":
            if not 1 <= self.rounds <= 10_000:
                raise ScenarioError("invalid-task", "rounds out of range")
            data = self.input_bytes()
            for _ in range(self.rounds):
                data = sha256(data).digest()
            return data
        if self.kind == "arithmetic-expression":
            try:
                return str(_eval_arith(self.expr, int(self.x))).encode()
            except ValueError as exc:  # not an integer, or past the int-to-str digit limit
                raise ScenarioError("invalid-task", f"bad integer input or result: {exc}") from exc
        raise ScenarioError("invalid-task", f"unknown task kind {self.kind!r}")


#: Longest arithmetic expression accepted; keeps parsing within the
#: interpreter's stack and memory whatever the task config holds.
_MAX_EXPR_LEN = 1000


def _eval_arith(expr: str, x: int) -> int:
    """Evaluate a tiny arithmetic language over one variable, safely."""
    import ast  # only arithmetic tasks parse, so a cold start skips it

    if len(expr) > _MAX_EXPR_LEN:
        raise ScenarioError("invalid-task", f"expression longer than {_MAX_EXPR_LEN} characters")

    def ev(node: ast.AST) -> int:
        if isinstance(node, ast.BinOp):
            left, right = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Pow):
                if right < 0 or right > 64 or abs(left) > 2**64:
                    raise ScenarioError("invalid-task", "exponent out of range")
                return left**right
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            value = ev(node.operand)
            return -value if isinstance(node.op, ast.USub) else value
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            return node.value
        elif isinstance(node, ast.Name) and node.id == "x":
            return x
        raise ScenarioError("invalid-task", f"unsupported syntax in {expr!r}")

    try:
        return ev(ast.parse(expr, mode="eval").body)
    except SyntaxError as exc:
        raise ScenarioError("invalid-task", f"bad expression: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioError("invalid-task", "expression nested too deeply") from exc


class Schedule(Record):
    """Contract deadlines: bid by T1, deliver by T2, settle by T3; coalition
    joining closes at T4 and its enforcement opens at T5."""

    T1: int = 10
    T2: int = 20
    T3: int = 30
    T4: int = 15
    T5: int = 35


class Outcome(Record):
    terminal_label: str
    game_family: str
    deltas: dict[str, Money]
    roles: dict[str, str]
    transcript: tuple[dict, ...]
    settlement_clauses: tuple[str, ...]


# ---------------------------------------------------------------------------
# Deterministic scenario values
# ---------------------------------------------------------------------------


def _derive_distinct_values(gp, task: Task, seed: int) -> dict[str, int]:
    """Derive the shared cheap result ``r`` and per-cloud wrong values so all
    committed digests are pairwise distinct (required so other-vs-other
    mismatches stay mismatches even in the toy group).  Returns the digest
    of the task's result ``y_true`` and of each derived value, by name."""
    digests = {"y_true": digest(gp, task.evaluate())}
    for name in ("r", "other1", "other2", "ywrong"):
        counter = 0
        while True:
            dg = digest(gp, b"%s|%d|%d" % (name.encode(), seed, counter))
            if dg not in digests.values():
                digests[name] = dg
                break
            counter += 1
    return digests


# ---------------------------------------------------------------------------
# Arbiter driver
# ---------------------------------------------------------------------------


class Prover:
    """The off-chain prover of one engagement: the arbiter's random stream
    ``Random(seed ^ 0x5EED)``, the arbiter's opening of its own result, and
    every (in)equality proof the arbiter and the client make from them.

    Each proof is made once per statement ``(c1, c2, o1, o2)`` and handed
    out again whenever that statement is asked for again, in the same play
    or a later play of the engagement; the contracts still verify it every
    time.  The arbiter's opening is drawn and committed on the first
    dispute, so a play settled without one commits nothing more, and a
    play whose statements are distinct draws the stream in the order a
    play always did.
    """

    def __init__(self, gp: GroupParams, task: Task, seed: int) -> None:
        self.gp, self.task = gp, task
        self.rng = random.Random(seed ^ 0x5EED)
        self.proofs: dict[tuple, EqProof | NeqProof] = {}
        self.arbiter: Optional[tuple[Opening, Commitment]] = None

    def arbiter_opening(self) -> tuple[Opening, Commitment]:
        """The arbiter's result opening and its commitment ``com_yt``."""
        if self.arbiter is None:
            gp = self.gp
            opening = Opening(digest(gp, self.task.evaluate()), self.rng.randrange(gp.q))
            self.arbiter = opening, commit(gp, opening.m, opening.s)
        return self.arbiter

    def prove(self, c1: Commitment, c2: Commitment, o1: Opening, o2: Opening) -> EqProof | NeqProof:
        """An equality proof if ``o1`` and ``o2`` hide one message, else an
        inequality proof.  ``CryptoError('witness-mismatch')`` if they do not
        open ``c1`` and ``c2``; nothing is kept then."""
        key = (c1, c2, o1, o2)
        proof = self.proofs.get(key)
        if proof is None:
            prove = prove_eq if o1.m % self.gp.q == o2.m % self.gp.q else prove_neq
            proof = self.proofs[key] = prove(self.gp, c1, c2, o1, o2, self.rng)
        return proof


def ttp_resolve(ctp: PrisonersContract, prover: Prover,
                received: dict[AccountId, Opening]) -> Opening:
    """The arbiter settles the dispute from its own result, which ``prover``
    recomputes on the engagement's first dispute.

    ``received`` holds the per-cloud result openings the client forwarded.
    Returns the arbiter's own result opening (forwarded back to the client,
    who may need it to prove a reporter's side-commitment correct).
    """
    opening_t, com_yt = prover.arbiter_opening()
    nizks = []
    for worker in ctp.workers:
        com_y = ctp.delivered.get(worker)
        opening = received.get(worker)
        nizk = None
        if com_y is not None and opening is not None:
            try:
                nizk = prover.prove(com_y, com_yt, opening, opening_t)
            except CryptoError as exc:
                # an opening that does not open the delivery earns no proof
                if exc.code != "witness-mismatch":
                    raise
        nizks.append(nizk)
    ctp.dispute(ctp.ttp, com_yt, nizks[0], nizks[1])
    return opening_t


# ---------------------------------------------------------------------------
# Scenario engine
# ---------------------------------------------------------------------------


_CLIENT, _TTP = AccountId("client"), AccountId("ttp")
_CLOUDS = (AccountId("cloud1"), AccountId("cloud2"))
_COSTS = AccountId("costs", kind="sink")


class _Engagement(Record):
    """What every play of one engagement shares, whatever the strategies:
    the checked parameters, task and schedule, the funding, the digests of
    the task's result and of the derived values (``_derive_distinct_values``),
    the two commitments the outsourcing contract is created with, and every
    commitment its plays have made, by ``(message, blinding)``."""

    params: Params
    task: Task
    gp: GroupParams
    seed: int
    schedule: Schedule
    task_cost: Money
    funding: dict[AccountId, Money]
    digests: dict[str, int]
    com_f: Commitment
    com_x: Commitment
    commitments: dict[tuple[int, int], Commitment]

    def commit(self, m: int, s: int) -> Commitment:
        """The commitment to ``m`` under blinding ``s``, made once per engagement."""
        if (m, s) not in self.commitments:
            self.commitments[m, s] = commit(self.gp, m, s)
        return self.commitments[m, s]


def _engage(params: Params, task: Task, gp: GroupParams, seed: int,
            schedule: Optional[Schedule]) -> _Engagement:
    """Check the engagement and derive what every play of it shares."""
    violations = validate_params(params)
    if violations:
        raise ScenarioError("invalid-params", "; ".join(violations))
    sched = schedule or Schedule()
    if not (2 <= sched.T1 < sched.T2 < sched.T3 < sched.T5 and 4 < sched.T4 < sched.T2 and sched.T2 > 5 and sched.T3 > sched.T2 + 1):
        raise ScenarioError("invalid-schedule", f"{sched}")
    task_cost = params.c if task.cost is None else task.cost
    if task_cost <= 0:
        raise ScenarioError("invalid-task", "cost must be positive")
    stake = params.d + params.t + params.b + params.ch + task_cost
    funding = {_CLIENT: 3 * params.w + 2 * params.d, _CLOUDS[0]: stake, _CLOUDS[1]: stake,
               _TTP: 0, _COSTS: 0}
    digests = _derive_distinct_values(gp, task, seed)
    # the first two draws of the play's stream: ``_open_play`` skips them
    rng = random.Random(seed)
    com_f = commit(gp, digest(gp, task.description_bytes()), rng.randrange(gp.q))
    com_x = commit(gp, digest(gp, task.input_bytes()), rng.randrange(gp.q))
    return _Engagement(params, task, gp, seed, sched, task_cost, funding, digests, com_f, com_x,
                       {})


def run_scenario(
    params: Params,
    task: Task,
    strat1: CloudStrategy,
    strat2: CloudStrategy,
    gp: GroupParams,
    seed: int = 0,
    traitor_enabled: Optional[bool] = None,
    schedule: Optional[Schedule] = None,
) -> Outcome:
    """Play one engagement under ``strat1``/``strat2`` and label its outcome.

    Every commitment and proof of the run is made over ``gp``.  It depends
    only on the group, so a caller builds it once with ``setup``
    (re-exported here) and passes it to every scenario it runs.  ``seed``
    fixes the blindings and the derived wrong values.
    """
    [outcome] = play_all(params, task, [(strat1, strat2, traitor_enabled)], gp, seed, schedule)
    return outcome


def play_all(params: Params, task: Task, plays, gp: GroupParams, seed: int = 0,
             schedule: Optional[Schedule] = None) -> Iterator[Outcome]:
    """Yield the outcome of each ``(strat1, strat2, traitor_enabled)`` of
    ``plays``, in order: each is the one ``run_scenario`` gives for it alone.

    The engagement is checked and derived once.  The plays that share roles,
    reports and the traitor flag share one opening, and each settles its
    own fork of it, except the opening's last play, which settles the
    opening itself.  All plays share one ``Prover``, so a proof is made once
    per statement and verified in every play that receives it."""
    plays = list(plays)
    eng = _engage(params, task, gp, seed, schedule)
    prover, openings = Prover(gp, task, seed), {}
    keys = [(s1.coalition_role, s2.coalition_role, s1.report_choice, s2.report_choice,
             traitor_enabled) for s1, s2, traitor_enabled in plays]
    last = {key: i for i, key in enumerate(keys)}  # each opening's last play
    for i, ((s1, s2, traitor_enabled), key) in enumerate(zip(plays, keys)):
        if key not in openings:
            openings[key] = _open_play(eng, s1, s2, traitor_enabled)
        opening = openings.pop(key) if last[key] == i else openings[key].fork()
        yield _settle_play(eng, prover, opening, s1, s2)


class _Opening:
    """A play up to t=4: the ledger and the contracts after the bids, the
    coalition offer and join, the report and the side delivery, plus what
    the settlement reads of them.  It reads only each cloud's
    ``coalition_role`` and ``report_choice`` and the traitor flag, so the
    plays that agree on those share one opening, and each settles a
    ``fork`` of it."""

    def __init__(self, **fields) -> None:
        vars(self).update(fields)

    def fork(self) -> "_Opening":
        """A copy with its own ledger and contracts (``contracts.fork``);
        every other field is immutable and shared."""
        ledger, clones = fork(self.ledger)
        return _Opening(**{**vars(self), "ledger": ledger, "ctp": clones[self.ctp],
                           "ctc": clones.get(self.ctc), "ctt": clones.get(self.ctt)})


def _open_play(eng: _Engagement, strat1: CloudStrategy, strat2: CloudStrategy,
               traitor_enabled: Optional[bool]) -> _Opening:
    """Check the strategies and play ``eng`` from t=0 up to the deliveries."""
    reports = (strat1.report_choice, strat2.report_choice)
    any_report = any(rc is not ReportChoice.NO_REPORT for rc in reports)
    if traitor_enabled is None:
        traitor_enabled = any_report
    if any_report and not traitor_enabled:
        raise ScenarioError("inconsistent-strategies", "reporting requires the traitor module")
    if strat1.coalition_role is Role.INITIATE and strat2.coalition_role is Role.INITIATE:
        raise ScenarioError("inconsistent-strategies", "two initiators")

    gp, sched, params, digests = eng.gp, eng.schedule, eng.params, eng.digests
    rng = random.Random(eng.seed)
    rng.randrange(gp.q), rng.randrange(gp.q)  # the blindings of com_f and com_x
    client, clouds = _CLIENT, _CLOUDS
    w, ch, d, t, b = params.w, params.ch, params.d, params.t, params.b
    ledger = Ledger(eng.funding)
    strategies = {clouds[0]: strat1, clouds[1]: strat2}

    # --- create the outsourcing contract at t=0 -----------------------------
    ctp = PrisonersContract.create(
        ledger, gp, client, _TTP, eng.com_f, eng.com_x, w, d, ch, sched.T1, sched.T2, sched.T3
    )

    ledger.advance_time(1)
    for cloud in clouds:
        ctp.bid(cloud)

    # --- coalition attempt at t=2 -------------------------------------------
    initiator = next((cl for cl in clouds if strategies[cl].coalition_role is Role.INITIATE), None)
    responder = None if initiator is None else clouds[1 - clouds.index(initiator)]
    coalition_attempt = initiator is not None
    # both parties learn r and the two blindings off-chain when the offer is made
    s_r = {clouds[0]: rng.randrange(gp.q), clouds[1]: rng.randrange(gp.q)}
    com_r = {cl: eng.commit(digests["r"], s_r[cl]) for cl in clouds} if coalition_attempt else {}
    ctc: Optional[ColludersContract] = None
    ledger.advance_time(1)
    if coalition_attempt:
        ctc = ColludersContract.create(
            ledger, ctp, initiator, responder, t, b, sched.T4, sched.T5,
            com_r_creator=com_r[initiator], com_r_other=com_r[responder],
        )

    # --- reporting at t=3 -----------------------------------------------------
    # A responder who was actually offered a coalition reports first (it
    # reacts to the offer); otherwise cloud order decides.  Only the first
    # report is accepted by the client (contract enforces it too).
    ledger.advance_time(1)
    candidates = [cl for cl in clouds if strategies[cl].report_choice is not ReportChoice.NO_REPORT]
    if coalition_attempt and responder in candidates:
        candidates.sort(key=lambda cl: 0 if cl == responder else 1)
    reporter: Optional[AccountId] = candidates[0] if candidates else None
    ctt: Optional[TraitorsContract] = None
    if reporter is not None:
        reported_ctc = ctc
        if reported_ctc is None:
            # fabricate a decoy coalition contract to have something to report;
            # the client cannot tell it from a genuine offer
            peer = clouds[1 - clouds.index(reporter)]
            reported_ctc = ColludersContract.create(
                ledger, ctp, reporter, peer, t, b, sched.T4, sched.T5,
                com_r_creator=eng.commit(digests["r"], rng.randrange(gp.q)),
                com_r_other=eng.commit(digests["r"], rng.randrange(gp.q)),
            )
        ctt = TraitorsContract.create(ledger, ctp, reported_ctc, client, reporter)
        ctt.join(reporter)
    for candidate in candidates[1:]:
        ledger.record("protocol/report-denied", actor=candidate)

    # --- coalition joining + traitor side-delivery at t=4 --------------------
    ledger.advance_time(1)
    # a ringleader who reported its own attempt makes the responder back off
    coalition_formed = (coalition_attempt and strategies[responder].coalition_role is Role.ACCEPT
                        and reporter != initiator)
    if coalition_formed:
        ctc.join(responder)

    o_prime: Optional[Opening] = None  # the reporter's side-result opening
    computed = frozenset()  # the clouds that paid for computing f(x)
    if ctt is not None:
        if strategies[reporter].report_choice is ReportChoice.REPORT_CORRECT:
            ledger.transfer(reporter, _COSTS, eng.task_cost, tag="protocol/compute-cost")
            computed, m_prime = frozenset((reporter,)), digests["y_true"]
        else:
            m_prime = digests["ywrong"]
        o_prime = Opening(m_prime, rng.randrange(gp.q))
        ctt.deliver(reporter, eng.commit(o_prime.m, o_prime.s))
    # the settlement draws at most one blinding per cloud, the stream's next two
    blindings = (rng.randrange(gp.q), rng.randrange(gp.q))
    return _Opening(ledger=ledger, ctp=ctp, ctc=ctc, ctt=ctt, traitor_enabled=traitor_enabled,
                    responder=responder, reporter=reporter, coalition_formed=coalition_formed,
                    com_r=com_r, s_r=s_r, o_prime=o_prime, computed=computed,
                    blindings=blindings)


def _settle_play(eng: _Engagement, prover: Prover, opening: _Opening, strat1: CloudStrategy,
                 strat2: CloudStrategy) -> Outcome:
    """Play ``opening`` on from the deliveries at t=5 to the outcome, with
    the proofs ``prover`` makes for ``eng``; it changes the opening's ledger
    and contracts."""
    gp, sched, client, clouds, digests = eng.gp, eng.schedule, _CLIENT, _CLOUDS, eng.digests
    ledger, ctp, ctc, ctt = opening.ledger, opening.ctp, opening.ctc, opening.ctt
    reporter, strategies = opening.reporter, {clouds[0]: strat1, clouds[1]: strat2}
    blindings = iter(opening.blindings)

    # --- deliveries in the outsourcing contract at t=5 ------------------------
    ledger.advance_time(1)
    y_openings: dict[AccountId, Opening] = {}  # the deliveries as the client sees them
    for idx, cloud in enumerate(clouds):
        action = strategies[cloud].ctp_action
        if action is CtpAction.WITHHOLD:
            continue
        if action is CtpAction.R and opening.com_r:
            # deliver exactly the commitment registered in the coalition
            # contract so conformance is recognized at enforcement
            com_y, s_y, m_y = opening.com_r[cloud], opening.s_r[cloud], digests["r"]
        else:
            if action is CtpAction.FX and cloud not in opening.computed:
                ledger.transfer(cloud, _COSTS, eng.task_cost, tag="protocol/compute-cost")
            # fx, r with no coalition to conform to, or a private wrong value
            m_y = digests["y_true" if action is CtpAction.FX else "r" if action is CtpAction.R
                          else f"other{idx + 1}"]
            s_y = next(blindings)
            com_y = eng.commit(m_y, s_y)
        ctp.deliver(cloud, com_y)
        y_openings[cloud] = Opening(m_y, s_y)

    # --- settlement just after T2 ---------------------------------------------
    ledger.advance_time(sched.T2 + 1 - ledger.clock)
    o1, o2 = (y_openings.get(cl) for cl in clouds)
    # without a report the client pays if nobody delivered or both delivered
    # one value; otherwise, and always once a traitor's contract exists
    # (clause 7), it disputes
    if ctt is None and not y_openings:
        ctp.pay(client, None)
    elif ctt is None and o1 is not None and o2 is not None and o1.m % gp.q == o2.m % gp.q:
        ctp.pay(client, prover.prove(ctp.delivered[clouds[0]], ctp.delivered[clouds[1]], o1, o2))
    else:
        o_t = ttp_resolve(ctp, prover, y_openings)
        if ctt is not None and ctt.state is TCState.COMPUTED:
            o_prime, proof = opening.o_prime, None
            if o_prime.m % gp.q == o_t.m % gp.q:
                proof = prover.prove(ctt.com_yprime, ctp.dispute_record.com_yt, o_prime, o_t)
            ctt.check(client, proof)

    # --- coalition enforcement after T5 ----------------------------------------
    ledger.advance_time(sched.T5 + 1 - ledger.clock)
    if ctc is not None and ctc.state is CCState.COLLUDED:
        ctc.enforce(ctc.creator)
    ledger.advance_time(5)

    # --- invariants --------------------------------------------------------------
    ledger.check_conservation()
    if ledger._timers:  # a contract, a decoy included, is not final
        live = ledger._timers[0].__self__
        raise ScenarioError("invariant-breach", f"{live.account.id} ended {live.state.value}")
    for acct, balance in ledger.balances.items():
        if acct.kind == "contract" and balance != 0:
            raise ScenarioError("invariant-breach", f"escrow {acct.id} holds {balance}")

    deltas = {acct.id: ledger.balance(acct) - funded for acct, funded in eng.funding.items()}

    # the game has a coalition prefix iff a coalition formed and a report
    # layer iff the traitor module is on; player 2 is the responder, else the
    # reporter, else cloud2 by convention.  The path played: the coalition
    # moves, player 2's report, then both deliveries, ``withhold`` as ``other``
    game_id, role_names = family_of(opening.coalition_formed, opening.traitor_enabled)
    second = opening.responder if opening.coalition_formed else reporter or clouds[1]
    players = (clouds[1 - clouds.index(second)], second)
    path = ["init", "collude"] if opening.coalition_formed else []
    if opening.traitor_enabled:
        path.append(strategies[reporter].report_choice.value if reporter else "no_report")
    actions = [strategies[cl].ctp_action for cl in players]
    path += [CtpAction.OTHER.value if a is CtpAction.WITHHOLD else a.value for a in actions]
    return Outcome(
        terminal_label=terminal_label(game_id, path),
        game_family=game_id.upper(),
        deltas=deltas,
        roles={cl.id: role for cl, role in zip(players, role_names)},
        transcript=tuple(ledger.log),
        settlement_clauses=tuple(ledger.settlements),
    )

