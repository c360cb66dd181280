"""Executable state machines for the three escrow contracts.

Three contracts cooperate on one ledger:

* ``PrisonersContract`` -- the client outsources one computation to two
  clouds, each of which posts deposit ``d``; matching results are paid
  ``w`` each, mismatches go to an arbiter (``ttp``) who attributes fault
  from commitment (in)equality proofs.
* ``ColludersContract`` -- a would-be ringleader escrows ``t + b`` to bribe
  the other cloud into delivering an agreed wrong result; the follower
  escrows ``t``; after the prisoner's contract settles, conformance with
  the agreed commitments is rewarded and deviation punished.
* ``TraitorsContract`` -- the client pays ``w + 2d - ch`` up front so that a
  cloud reporting a collusion attempt (genuine or fabricated) can commit to
  the correct result out of band and be made whole if the report checks out;
  the reporter stakes the arbiter fee ``ch``.

Every contract goes through one shared escrow path (``_Escrow``):
``_open`` escrows the creator's funds, registers the timer and logs the
``create`` record; ``_enter`` logs a transition that moves no money out;
``_settle`` is the single writer of settlements -- it pays each
``(recipient, amount)`` out of escrow under the tag
``"<contract>/<verb>/<clause>"``, enters the next state (cancelling the
timer if the state is final) and logs the one ``"<contract>/<verb>"``
record carrying the clause.  The clause catalog (one row per ``_settle``
call) is in the README.  Money leaves an escrow only through ``_pay``,
which also appends the tag of each payout a call (not a timer) makes to
``ledger.settlements``.  Every call either completes or raises
``ContractError`` with a stable error code -- contracts never reach
undefined states.  ``fork`` clones a ledger with every live contract on
it, so a play can branch without replaying its prefix.

State machines (terminal states marked *):

    Prisoners: CREATED -> COMPUTE -> PAY -> DONE* | ERROR -> DONE* | ABORTED*
    Colluders: CREATED -> COLLUDED -> DONE* | ABORTED*
    Traitors:  CREATED -> JOINED -> COMPUTED -> DONE* | ABORTED*
"""

from __future__ import annotations

import enum

from . import CodedError, Record
from .crypto import Commitment, EqProof, GroupParams, NeqProof, verify_eq, verify_neq
from .ledger import AccountId, Ledger, Money

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional

__all__ = [
    "ContractError",
    "fork",
    "PCState",
    "CCState",
    "TCState",
    "DisputeRecord",
    "PrisonersContract",
    "ColludersContract",
    "TraitorsContract",
]


class ContractError(CodedError):
    """Contract precondition failure."""


class PCState(enum.Enum):
    CREATED = "CREATED"
    COMPUTE = "COMPUTE"
    PAY = "PAY"
    ERROR = "ERROR"
    DONE = "DONE"
    ABORTED = "ABORTED"


class CCState(enum.Enum):
    CREATED = "CREATED"
    COLLUDED = "COLLUDED"
    DONE = "DONE"
    ABORTED = "ABORTED"


class TCState(enum.Enum):
    CREATED = "CREATED"
    JOINED = "JOINED"
    COMPUTED = "COMPUTED"
    DONE = "DONE"
    ABORTED = "ABORTED"


class DisputeRecord(Record):
    """Arbitration verdict: the arbiter's result commitment and who cheated."""

    com_yt: Commitment
    cheated: dict[AccountId, bool]


# ---------------------------------------------------------------------------
# Shared escrow transitions
# ---------------------------------------------------------------------------


class _Escrow:
    """The one transition path of the three contracts: plain classes whose
    ``create`` passes every field without a class-level default (``ledger``
    and ``account`` among them), with a ``state`` field, an ``on_timer``
    method and a ``_kind`` that prefixes every tag.  A contract is mutable
    and equal only to itself."""

    def __init__(self, **fields) -> None:
        vars(self).update(fields)

    def _open(self, payer: AccountId, amount: Money, **detail):
        """Escrow ``amount`` from ``payer``, register the timer, log ``create``."""
        self.ledger.transfer(payer, self.account, amount, tag=f"{self._kind}/create/escrow")
        self.ledger.register_timer(self.on_timer)
        self.ledger.record(f"{self._kind}/create", actor=payer, contract=self.account.id,
                           **detail, state=self.state.value)
        return self

    def _require(self, verb: str, *states) -> None:
        if self.state not in states:
            raise ContractError("wrong-state", f"{verb} in {self.state.value}")

    def _enter(self, verb: str, actor: AccountId, state) -> None:
        """Enter ``state`` after a call that moves no money out of escrow."""
        self.state = state
        self.ledger.record(f"{self._kind}/{verb}", actor=actor, contract=self.account.id,
                           state=state.value)

    def _pay(self, verb: str, clause: str, payouts) -> None:
        """Pay each ``(recipient, amount)`` out of escrow; a call's payouts,
        not a timer's, also go into ``ledger.settlements``."""
        tag = f"{self._kind}/{verb}/{clause}"
        for recipient, amount in payouts:
            self.ledger.transfer(self.account, recipient, amount, tag=tag)
            if verb != "timer":
                self.ledger.settlements.append(tag)

    def _settle(self, verb: str, clause: str, state, payouts=(),
                actor: Optional[AccountId] = None, **detail) -> None:
        """Pay ``payouts`` out of escrow under ``clause``, enter ``state``, log it.

        ``actor`` is the caller; ``None`` marks a timer firing.
        """
        self._pay(verb, clause, payouts)
        self.state = state
        if state.value in ("DONE", "ABORTED"):  # final: the timer can never fire again
            self.ledger.cancel_timer(self.on_timer)
        if actor is None:
            self.ledger.record(f"{self._kind}/{verb}", contract=self.account.id,
                               clause=clause, state=state.value)
        else:
            self.ledger.record(f"{self._kind}/{verb}", actor=actor, clause=clause,
                               contract=self.account.id, state=state.value, **detail)


def fork(ledger: Ledger) -> tuple[Ledger, dict[_Escrow, _Escrow]]:
    """Clone ``ledger`` and every live contract on it (each holds a timer), a
    decoy that only a traitor's contract references included, in timer
    order.  The clones reference each other (``ctp``, ``ctc``; a final
    contract never changes, so it is kept) and own their ``workers`` and
    ``delivered``; the other fields are immutable, or never changed after
    ``create``, and are shared.  Returns the copy and each original's clone."""
    twin, clones = ledger.copy(), {}
    for timer in ledger._timers:  # every timer is an escrow's ``on_timer``
        contract = timer.__self__
        clone = clones[contract] = object.__new__(type(contract))
        vars(clone).update(vars(contract), ledger=twin)
        twin.register_timer(clone.on_timer)
    for clone in clones.values():
        fields = vars(clone)
        for name in ("ctp", "ctc"):
            if name in fields:
                fields[name] = clones.get(fields[name], fields[name])
        if "workers" in fields:
            fields.update(workers=list(clone.workers), delivered=dict(clone.delivered))
    return twin, clones


# ---------------------------------------------------------------------------
# Prisoner's contract
# ---------------------------------------------------------------------------


class PrisonersContract(_Escrow):
    ledger: Ledger
    gp: GroupParams
    account: AccountId
    client: AccountId
    ttp: AccountId
    com_f: Commitment
    com_x: Commitment
    w: Money
    d: Money
    ch: Money
    T1: int
    T2: int
    T3: int
    workers: list[AccountId]
    delivered: dict[AccountId, Commitment]
    state: PCState = PCState.CREATED
    dispute_record: Optional[DisputeRecord] = None
    reporter: Optional[AccountId] = None  # the traitor of the first report

    _kind = "prisoners"

    @classmethod
    def create(
        cls,
        ledger: Ledger,
        gp: GroupParams,
        client: AccountId,
        ttp: AccountId,
        com_f: Commitment,
        com_x: Commitment,
        w: Money,
        d: Money,
        ch: Money,
        T1: int,
        T2: int,
        T3: int,
    ) -> "PrisonersContract":
        if not ledger.clock < T1 < T2 < T3:
            raise ContractError("bad-deadlines", f"need now < T1 < T2 < T3, got {ledger.clock},{T1},{T2},{T3}")
        return cls(
            ledger=ledger, gp=gp, account=ledger.fresh_account(cls._kind), client=client,
            ttp=ttp, com_f=com_f, com_x=com_x, w=w, d=d, ch=ch, T1=T1, T2=T2, T3=T3,
            workers=[], delivered={},
        )._open(client, 2 * w + ch)

    # -- worker entry ---------------------------------------------------------

    def bid(self, cloud: AccountId) -> None:
        self._require("bid", PCState.CREATED)
        if self.ledger.clock >= self.T1:
            raise ContractError("deadline-passed", "bidding closed")
        if cloud in (self.client, self.ttp) or cloud.kind != "external":
            raise ContractError("not-a-worker", f"{cloud.id} cannot bid")
        if cloud in self.workers:
            raise ContractError("double-bid", cloud.id)
        self.ledger.transfer(cloud, self.account, self.d, tag="prisoners/bid/deposit")
        self.workers.append(cloud)
        self._enter("bid", cloud, PCState.COMPUTE if len(self.workers) == 2 else self.state)

    def deliver(self, cloud: AccountId, com_y: Commitment) -> None:
        self._require("deliver", PCState.COMPUTE)
        if self.ledger.clock >= self.T2:
            raise ContractError("deadline-passed", "delivery closed")
        if cloud not in self.workers:
            raise ContractError("not-a-worker", cloud.id)
        if cloud in self.delivered:
            raise ContractError("double-deliver", cloud.id)
        self.delivered[cloud] = com_y
        self._enter("deliver", cloud, PCState.PAY if len(self.delivered) == 2 else self.state)

    # -- settlement -----------------------------------------------------------

    def pay(self, caller: AccountId, eq_proof: Optional[EqProof]) -> None:
        """Clause 8: settle without arbitration.

        8a: nobody delivered -- the whole escrow (payments, fee, and the
            forfeited deposits) returns to the client.
        8b: both delivered and the client proves the commitments open to the
            same value -- each cloud is paid ``w`` plus its deposit, the
            client recovers the unused arbiter fee.
        Anything else parks the contract in ERROR for arbitration.
        """
        if caller != self.client:
            raise ContractError("not-client", caller.id)
        self._require("pay", PCState.PAY)
        if self.ledger.clock >= self.T3:
            raise ContractError("too-late", "arbitration window closed")
        if not self.delivered:
            refund = 2 * self.w + self.ch + self.d * len(self.workers)
            clause, state, payouts = "8a", PCState.DONE, [(self.client, refund)]
        elif (len(self.delivered) == 2 and isinstance(eq_proof, EqProof)
              and verify_eq(self.gp, *(self.delivered[wk] for wk in self.workers), eq_proof)):
            clause, state = "8b", PCState.DONE
            payouts = [(wk, self.w + self.d) for wk in self.workers] + [(self.client, self.ch)]
        else:
            clause, state, payouts = "error", PCState.ERROR, ()
        self._settle("pay", clause, state, payouts, caller)

    def dispute(
        self,
        caller: AccountId,
        com_yt: Commitment,
        nizk1: Optional[EqProof | NeqProof],
        nizk2: Optional[NeqProof | EqProof],
    ) -> None:
        """Clauses 9/10: arbiter settles from per-cloud (in)equality proofs.

        For each worker the arbiter supplies, against its own result
        commitment ``com_yt``: an equality proof (honest), an inequality
        proof (cheated), or nothing (no/invalid delivery = cheated).  A
        proof that fails verification is the arbiter's fault and aborts the
        call.  The arbiter always earns ``ch`` (clause 9); the remaining
        escrow goes per clause 10a (none cheated), 10b (both), 10c (one).
        """
        if caller != self.ttp:
            raise ContractError("not-ttp", caller.id)
        self._require("dispute", PCState.PAY, PCState.ERROR)
        if self.ledger.clock >= self.T3:
            raise ContractError("too-late", "arbitration window closed")
        cheated: dict[AccountId, bool] = {}
        for worker, nizk in zip(self.workers, (nizk1, nizk2)):
            com_y = self.delivered.get(worker)
            if nizk is None:
                cheated[worker] = True  # no delivery or unopenable delivery
            elif com_y is None:
                raise ContractError("ttp-proof-invalid", "proof for a missing delivery")
            elif isinstance(nizk, EqProof):
                if not verify_eq(self.gp, com_y, com_yt, nizk):
                    raise ContractError("ttp-proof-invalid", f"equality proof for {worker.id}")
                cheated[worker] = False
            elif isinstance(nizk, NeqProof):
                if not verify_neq(self.gp, com_y, com_yt, nizk):
                    raise ContractError("ttp-proof-invalid", f"inequality proof for {worker.id}")
                cheated[worker] = True
            else:
                raise ContractError("ttp-proof-invalid", "unrecognized proof object")
        self._pay("dispute", "9", ((self.ttp, self.ch),))
        guilty = [wk for wk in self.workers if cheated[wk]]
        if len(guilty) == 0:
            clause, payouts = "10a", [(wk, self.w + self.d) for wk in self.workers]
        elif len(guilty) == 2:
            clause, payouts = "10b", [(self.client, 2 * (self.w + self.d))]
        else:
            honest = next(wk for wk in self.workers if not cheated[wk])
            clause, payouts = "10c", [(honest, self.w + 2 * self.d - self.ch),
                                      (self.client, self.w + self.ch)]
        self.dispute_record = DisputeRecord(com_yt=com_yt, cheated=cheated)
        self._settle("dispute", clause, PCState.DONE, payouts, caller,
                     cheated=[wk.id for wk in guilty])

    # -- timers -----------------------------------------------------------------

    def on_timer(self) -> bool:
        now = self.ledger.clock
        if self.state is PCState.CREATED and now >= self.T1:
            # not enough bids in time: full refunds
            clause, state = "abort", PCState.ABORTED
            payouts = [(self.client, 2 * self.w + self.ch)] + [(wk, self.d) for wk in self.workers]
        elif self.state is PCState.COMPUTE and now >= self.T2:
            clause, state, payouts = "to-pay", PCState.PAY, ()
        elif self.state in (PCState.PAY, PCState.ERROR) and now >= self.T3:
            # clause 11: lazy client -- deliverers are paid, residue refunded
            clause, state = "11", PCState.DONE
            payouts = [(wk, self.w + self.d) for wk in self.workers if wk in self.delivered]
            residue = self.ledger.balance(self.account) - (self.w + self.d) * len(payouts)
            payouts.append((self.client, residue))
        else:
            return False
        self._settle("timer", clause, state, payouts)
        return True


# ---------------------------------------------------------------------------
# Colluder's contract
# ---------------------------------------------------------------------------


class ColludersContract(_Escrow):
    ledger: Ledger
    ctp: PrisonersContract
    account: AccountId
    creator: AccountId
    other: AccountId
    t: Money
    b: Money
    T4: int
    T5: int
    com_r: dict[AccountId, Commitment]
    state: CCState = CCState.CREATED

    _kind = "colluders"

    @classmethod
    def create(
        cls,
        ledger: Ledger,
        ctp: PrisonersContract,
        creator: AccountId,
        other: AccountId,
        t: Money,
        b: Money,
        T4: int,
        T5: int,
        com_r_creator: Commitment,
        com_r_other: Commitment,
    ) -> "ColludersContract":
        if not (ledger.clock < T4 < ctp.T2 < ctp.T3 < T5):
            raise ContractError("bad-deadlines", f"need now < T4 < T2 < T3 < T5")
        if ctp.state is not PCState.COMPUTE:
            raise ContractError("wrong-state", "outsourcing contract not in COMPUTE")
        if creator not in ctp.workers or other not in ctp.workers or creator == other:
            raise ContractError("not-a-worker", "colluders must be the two workers")
        return cls(
            ledger=ledger, ctp=ctp, account=ledger.fresh_account(cls._kind), creator=creator,
            other=other, t=t, b=b, T4=T4, T5=T5,
            com_r={creator: com_r_creator, other: com_r_other},
        )._open(creator, t + b)

    def join(self, caller: AccountId) -> None:
        self._require("join", CCState.CREATED)
        if caller != self.other:
            raise ContractError("not-a-worker", caller.id)
        if self.ledger.clock >= self.T4:
            raise ContractError("deadline-passed", "joining closed")
        self.ledger.transfer(caller, self.account, self.t, tag="colluders/join/deposit")
        self._enter("join", caller, CCState.COLLUDED)

    def enforce(self, caller: AccountId) -> None:
        """Clause 5: reward conformance with the agreed wrong-result commitments.

        5a: both delivered the agreed commitments -- creator recovers ``t``,
            the follower earns its deposit back plus the bribe.
        5b: only the creator conformed -- it takes the whole pot ``2t + b``.
        5c: only the follower conformed -- it takes ``2t + b``.
        5d: neither conformed -- both are refunded.
        A missing delivery counts as non-conformance.
        """
        if caller not in (self.creator, self.other):
            raise ContractError("not-a-worker", caller.id)
        self._require("enforce", CCState.COLLUDED)
        if self.ledger.clock < self.T5 or self.ctp.state is not PCState.DONE:
            raise ContractError("enforce-before-settlement",
                                "outsourcing contract not yet settled")
        delivered, t, b = self.ctp.delivered, self.t, self.b
        creator_conformed = delivered.get(self.creator) == self.com_r[self.creator]
        other_conformed = delivered.get(self.other) == self.com_r[self.other]
        if creator_conformed and other_conformed:
            clause, payouts = "5a", ((self.creator, t), (self.other, t + b))
        elif creator_conformed:
            clause, payouts = "5b", ((self.creator, 2 * t + b),)
        elif other_conformed:
            clause, payouts = "5c", ((self.other, 2 * t + b),)
        else:
            clause, payouts = "5d", ((self.creator, t + b), (self.other, t))
        self._settle("enforce", clause, CCState.DONE, payouts, caller)

    def on_timer(self) -> bool:
        if self.state is CCState.CREATED and self.ledger.clock >= self.T4:
            self._settle("timer", "abort", CCState.ABORTED, ((self.creator, self.t + self.b),))
            return True
        return False


# ---------------------------------------------------------------------------
# Traitor's contract
# ---------------------------------------------------------------------------


class TraitorsContract(_Escrow):
    ledger: Ledger
    ctp: PrisonersContract
    ctc: ColludersContract
    account: AccountId
    client: AccountId
    traitor: AccountId
    com_yprime: Optional[Commitment] = None
    state: TCState = TCState.CREATED

    _kind = "traitors"

    @classmethod
    def create(
        cls,
        ledger: Ledger,
        ctp: PrisonersContract,
        ctc: ColludersContract,
        client: AccountId,
        traitor: AccountId,
    ) -> "TraitorsContract":
        if client != ctp.client:
            raise ContractError("not-client", client.id)
        if ctp.reporter is not None:
            raise ContractError("not-first-reporter", f"{ctp.reporter.id} already reported")
        if ctc.state not in (CCState.CREATED, CCState.COLLUDED):
            raise ContractError("wrong-state", "reported coalition contract not open")
        if traitor not in ctp.workers:
            raise ContractError("not-a-worker", traitor.id)
        if ledger.clock >= ctp.T2:
            raise ContractError("deadline-passed", "reporting closed")
        contract = cls(ledger=ledger, ctp=ctp, ctc=ctc, account=ledger.fresh_account(cls._kind),
                       client=client, traitor=traitor)
        contract._open(client, ctp.w + 2 * ctp.d - ctp.ch, traitor=traitor.id)
        ctp.reporter = traitor
        return contract

    def join(self, caller: AccountId) -> None:
        self._require("join", TCState.CREATED)
        if caller != self.traitor:
            raise ContractError("not-a-worker", caller.id)
        if self.ledger.clock >= self.ctp.T2:
            raise ContractError("deadline-passed", "joining closed")
        if self.ctp.state is not PCState.COMPUTE:
            raise ContractError("wrong-state", "outsourcing contract not in COMPUTE")
        self.ledger.transfer(caller, self.account, self.ctp.ch, tag="traitors/join/stake")
        self._enter("join", caller, TCState.JOINED)

    def deliver(self, caller: AccountId, com_yprime: Commitment) -> None:
        self._require("deliver", TCState.JOINED)
        if caller != self.traitor:
            raise ContractError("not-a-worker", caller.id)
        if self.ledger.clock >= self.ctp.T2:
            raise ContractError("deadline-passed", "delivery closed")
        self.com_yprime = com_yprime
        self._enter("deliver", caller, TCState.COMPUTED)

    def check(self, caller: AccountId, eq_proof: Optional[EqProof]) -> None:
        """Clause 8: settle the report against the arbitration verdict.

        ``eq_proof`` (from the client) shows the reporter's side commitment
        opens to the same value as the arbiter's result commitment, i.e. the
        report was *correct*.

        8a: nobody cheated in the outsourcing contract -- the report was
            pointless; the reporter forfeits its stake to the client.
        8b: the reporter cheated there, the other cloud was honest, and the
            report is correct -- the reporter is made whole (w + ch), the
            client recovers the rest.
        8c: both cheated and the report is correct -- the reporter collects
            the whole escrow (w + 2d).
        8d: anything else -- both sides are refunded.
        """
        if caller != self.client:
            raise ContractError("not-client", caller.id)
        self._require("check", TCState.COMPUTED)
        if self.ctp.state is not PCState.DONE or self.ctp.dispute_record is None:
            raise ContractError("wrong-state", "no arbitration verdict to check against")
        record = self.ctp.dispute_record
        other = next(wk for wk in self.ctp.workers if wk != self.traitor)
        correct = (eq_proof is not None and self.com_yprime is not None
                   and verify_eq(self.ctp.gp, self.com_yprime, record.com_yt, eq_proof))
        w, d, ch = self.ctp.w, self.ctp.d, self.ctp.ch
        if not record.cheated[self.traitor] and not record.cheated[other]:
            clause, payouts = "8a", ((self.client, w + 2 * d),)
        elif record.cheated[self.traitor] and not record.cheated[other] and correct:
            clause, payouts = "8b", ((self.traitor, w + ch), (self.client, 2 * d - ch))
        elif record.cheated[self.traitor] and record.cheated[other] and correct:
            clause, payouts = "8c", ((self.traitor, w + 2 * d),)
        else:
            clause, payouts = "8d", ((self.client, w + 2 * d - ch), (self.traitor, ch))
        self._settle("check", clause, TCState.DONE, payouts, caller)

    def on_timer(self) -> bool:
        now = self.ledger.clock
        w, d, ch = self.ctp.w, self.ctp.d, self.ctp.ch
        if self.state is TCState.CREATED and now >= self.ctp.T2:
            clause, state, payouts = "abort", TCState.ABORTED, ((self.client, w + 2 * d - ch),)
        elif self.state is TCState.JOINED and now >= self.ctp.T2:
            # reporter never committed a side result: stake forfeited
            clause, state, payouts = "no-deliver", TCState.DONE, ((self.client, w + 2 * d),)
        elif self.state is TCState.COMPUTED and now >= self.ctp.T3:
            # client never checked: the whole escrow goes to the reporter
            clause, state, payouts = "no-check", TCState.DONE, ((self.traitor, w + 2 * d),)
        else:
            return False
        self._settle("timer", clause, state, payouts)
        return True
