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

Every transition logs a clause-tagged record (the clause catalog is
documented in the README), moves money only through the contract's escrow
account, and either completes or raises ``ContractError`` with a stable
error code -- contracts never reach undefined states.

State machines (terminal states marked *):

    Prisoners: CREATED -> COMPUTE -> PAY -> DONE* | ERROR -> DONE* | ABORTED*
    Colluders: CREATED -> COLLUDED -> DONE* | ABORTED*
    Traitors:  CREATED -> JOINED -> COMPUTED -> DONE* | ABORTED*
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from . import CodedError
from .crypto import Commitment, EqProof, GroupParams, NeqProof, verify_eq, verify_neq
from .ledger import AccountId, Ledger, Money

__all__ = [
    "ContractError",
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


@dataclass(frozen=True)
class DisputeRecord:
    """Arbitration verdict: the arbiter's result commitment and who cheated."""

    com_yt: Commitment
    cheated: dict[AccountId, bool]


# ---------------------------------------------------------------------------
# Prisoner's contract
# ---------------------------------------------------------------------------


@dataclass
class PrisonersContract:
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
    state: PCState = PCState.CREATED
    workers: list[AccountId] = field(default_factory=list)
    delivered: dict[AccountId, Commitment] = field(default_factory=dict)
    dispute_record: Optional[DisputeRecord] = None
    traitor_contract: Optional["TraitorsContract"] = None

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
        account = ledger.fresh_account("prisoners")
        ledger.transfer(client, account, 2 * w + ch, tag="prisoners/create/escrow")
        contract = cls(
            ledger=ledger, gp=gp, account=account, client=client, ttp=ttp,
            com_f=com_f, com_x=com_x, w=w, d=d, ch=ch, T1=T1, T2=T2, T3=T3,
        )
        ledger.register_timer(contract.on_timer)
        ledger.record("prisoners/create", actor=client, contract=account.id,
                      state=contract.state.value)
        return contract

    # -- worker entry ---------------------------------------------------------

    def bid(self, cloud: AccountId) -> None:
        if self.state is not PCState.CREATED:
            raise ContractError("wrong-state", f"bid in {self.state.value}")
        if self.ledger.clock >= self.T1:
            raise ContractError("deadline-passed", "bidding closed")
        if cloud in (self.client, self.ttp) or cloud.kind != "external":
            raise ContractError("not-a-worker", f"{cloud.id} cannot bid")
        if cloud in self.workers:
            raise ContractError("double-bid", cloud.id)
        self.ledger.transfer(cloud, self.account, self.d, tag="prisoners/bid/deposit")
        self.workers.append(cloud)
        if len(self.workers) == 2:
            self.state = PCState.COMPUTE
        self.ledger.record("prisoners/bid", actor=cloud, contract=self.account.id,
                           state=self.state.value)

    def deliver(self, cloud: AccountId, com_y: Commitment) -> None:
        if self.state is not PCState.COMPUTE:
            raise ContractError("wrong-state", f"deliver in {self.state.value}")
        if self.ledger.clock >= self.T2:
            raise ContractError("deadline-passed", "delivery closed")
        if cloud not in self.workers:
            raise ContractError("not-a-worker", cloud.id)
        if cloud in self.delivered:
            raise ContractError("double-deliver", cloud.id)
        self.delivered[cloud] = com_y
        if len(self.delivered) == 2:
            self.state = PCState.PAY
        self.ledger.record("prisoners/deliver", actor=cloud, contract=self.account.id,
                           state=self.state.value)

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
        if self.state is not PCState.PAY:
            raise ContractError("wrong-state", f"pay in {self.state.value}")
        if self.ledger.clock >= self.T3:
            raise ContractError("too-late", "arbitration window closed")
        n = len(self.delivered)
        if n == 0:
            refund = 2 * self.w + self.ch + self.d * len(self.workers)
            self.ledger.transfer(self.account, self.client, refund, tag="prisoners/pay/8a")
            self.state = PCState.DONE
            self.ledger.record("prisoners/pay", actor=caller, clause="8a",
                               contract=self.account.id, state=self.state.value)
            return
        if n == 2 and isinstance(eq_proof, EqProof):
            c1, c2 = (self.delivered[wk] for wk in self.workers)
            if verify_eq(self.gp, c1, c2, eq_proof):
                for wk in self.workers:
                    self.ledger.transfer(self.account, wk, self.w + self.d, tag="prisoners/pay/8b")
                self.ledger.transfer(self.account, self.client, self.ch, tag="prisoners/pay/8b")
                self.state = PCState.DONE
                self.ledger.record("prisoners/pay", actor=caller, clause="8b",
                                   contract=self.account.id, state=self.state.value)
                return
        self.state = PCState.ERROR
        self.ledger.record("prisoners/pay", actor=caller, clause="error",
                           contract=self.account.id, state=self.state.value)

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
        if self.state not in (PCState.PAY, PCState.ERROR):
            raise ContractError("wrong-state", f"dispute in {self.state.value}")
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
        self.ledger.transfer(self.account, self.ttp, self.ch, tag="prisoners/dispute/9")
        guilty = [wk for wk in self.workers if cheated[wk]]
        if len(guilty) == 0:
            clause = "10a"
            for wk in self.workers:
                self.ledger.transfer(self.account, wk, self.w + self.d, tag="prisoners/dispute/10a")
        elif len(guilty) == 2:
            clause = "10b"
            self.ledger.transfer(self.account, self.client, 2 * (self.w + self.d), tag="prisoners/dispute/10b")
        else:
            clause = "10c"
            honest = next(wk for wk in self.workers if not cheated[wk])
            self.ledger.transfer(self.account, honest, self.w + 2 * self.d - self.ch, tag="prisoners/dispute/10c")
            self.ledger.transfer(self.account, self.client, self.w + self.ch, tag="prisoners/dispute/10c")
        self.dispute_record = DisputeRecord(com_yt=com_yt, cheated=cheated)
        self.state = PCState.DONE
        self.ledger.record("prisoners/dispute", actor=caller, clause=clause,
                           contract=self.account.id, state=self.state.value,
                           cheated=[wk.id for wk in guilty])

    # -- timers -----------------------------------------------------------------

    def on_timer(self) -> bool:
        now = self.ledger.clock
        if self.state is PCState.CREATED and now >= self.T1:
            # not enough bids in time: full refunds
            self.ledger.transfer(self.account, self.client, 2 * self.w + self.ch,
                                 tag="prisoners/timer/abort")
            for wk in self.workers:
                self.ledger.transfer(self.account, wk, self.d, tag="prisoners/timer/abort")
            self.state = PCState.ABORTED
            self.ledger.record("prisoners/timer", contract=self.account.id,
                               clause="abort", state=self.state.value)
            return True
        if self.state is PCState.COMPUTE and now >= self.T2:
            self.state = PCState.PAY
            self.ledger.record("prisoners/timer", contract=self.account.id,
                               clause="to-pay", state=self.state.value)
            return True
        if self.state in (PCState.PAY, PCState.ERROR) and now >= self.T3:
            # clause 11: lazy client -- deliverers are paid, residue refunded
            for wk in self.workers:
                if wk in self.delivered:
                    self.ledger.transfer(self.account, wk, self.w + self.d,
                                         tag="prisoners/timer/11")
            residue = self.ledger.balance(self.account)
            self.ledger.transfer(self.account, self.client, residue, tag="prisoners/timer/11")
            self.state = PCState.DONE
            self.ledger.record("prisoners/timer", contract=self.account.id,
                               clause="11", state=self.state.value)
            return True
        return False


# ---------------------------------------------------------------------------
# Colluder's contract
# ---------------------------------------------------------------------------


@dataclass
class ColludersContract:
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
        account = ledger.fresh_account("colluders")
        ledger.transfer(creator, account, t + b, tag="colluders/create/escrow")
        contract = cls(
            ledger=ledger, ctp=ctp, account=account, creator=creator, other=other,
            t=t, b=b, T4=T4, T5=T5,
            com_r={creator: com_r_creator, other: com_r_other},
        )
        ledger.register_timer(contract.on_timer)
        ledger.record("colluders/create", actor=creator, contract=account.id,
                      state=contract.state.value)
        return contract

    def join(self, caller: AccountId) -> None:
        if self.state is not CCState.CREATED:
            raise ContractError("wrong-state", f"join in {self.state.value}")
        if caller != self.other:
            raise ContractError("not-a-worker", caller.id)
        if self.ledger.clock >= self.T4:
            raise ContractError("deadline-passed", "joining closed")
        self.ledger.transfer(caller, self.account, self.t, tag="colluders/join/deposit")
        self.state = CCState.COLLUDED
        self.ledger.record("colluders/join", actor=caller, contract=self.account.id,
                           state=self.state.value)

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
        if self.state is not CCState.COLLUDED:
            raise ContractError("wrong-state", f"enforce in {self.state.value}")
        if self.ledger.clock < self.T5 or self.ctp.state is not PCState.DONE:
            raise ContractError("enforce-before-settlement",
                                "outsourcing contract not yet settled")
        conforming = {
            party: self.ctp.delivered.get(party) == self.com_r[party]
            for party in (self.creator, self.other)
        }
        if conforming[self.creator] and conforming[self.other]:
            clause = "5a"
            self.ledger.transfer(self.account, self.creator, self.t, tag="colluders/enforce/5a")
            self.ledger.transfer(self.account, self.other, self.t + self.b, tag="colluders/enforce/5a")
        elif conforming[self.creator]:
            clause = "5b"
            self.ledger.transfer(self.account, self.creator, 2 * self.t + self.b, tag="colluders/enforce/5b")
        elif conforming[self.other]:
            clause = "5c"
            self.ledger.transfer(self.account, self.other, 2 * self.t + self.b, tag="colluders/enforce/5c")
        else:
            clause = "5d"
            self.ledger.transfer(self.account, self.creator, self.t + self.b, tag="colluders/enforce/5d")
            self.ledger.transfer(self.account, self.other, self.t, tag="colluders/enforce/5d")
        self.state = CCState.DONE
        self.ledger.record("colluders/enforce", actor=caller, clause=clause,
                           contract=self.account.id, state=self.state.value)

    def on_timer(self) -> bool:
        if self.state is CCState.CREATED and self.ledger.clock >= self.T4:
            self.ledger.transfer(self.account, self.creator, self.t + self.b,
                                 tag="colluders/timer/abort")
            self.state = CCState.ABORTED
            self.ledger.record("colluders/timer", contract=self.account.id,
                               clause="abort", state=self.state.value)
            return True
        return False


# ---------------------------------------------------------------------------
# Traitor's contract
# ---------------------------------------------------------------------------


@dataclass
class TraitorsContract:
    ledger: Ledger
    ctp: PrisonersContract
    ctc: ColludersContract
    account: AccountId
    client: AccountId
    traitor: AccountId
    com_yprime: Optional[Commitment] = None
    state: TCState = TCState.CREATED

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
        if ctp.traitor_contract is not None:
            raise ContractError("not-first-reporter",
                                f"{ctp.traitor_contract.traitor.id} already reported")
        if ctc.state not in (CCState.CREATED, CCState.COLLUDED):
            raise ContractError("wrong-state", "reported coalition contract not open")
        if traitor not in ctp.workers:
            raise ContractError("not-a-worker", traitor.id)
        if ledger.clock >= ctp.T2:
            raise ContractError("deadline-passed", "reporting closed")
        account = ledger.fresh_account("traitors")
        stake = ctp.w + 2 * ctp.d - ctp.ch
        ledger.transfer(client, account, stake, tag="traitors/create/escrow")
        contract = cls(ledger=ledger, ctp=ctp, ctc=ctc, account=account,
                       client=client, traitor=traitor)
        ctp.traitor_contract = contract
        ledger.register_timer(contract.on_timer)
        ledger.record("traitors/create", actor=client, contract=account.id,
                      traitor=traitor.id, state=contract.state.value)
        return contract

    def join(self, caller: AccountId) -> None:
        if self.state is not TCState.CREATED:
            raise ContractError("wrong-state", f"join in {self.state.value}")
        if caller != self.traitor:
            raise ContractError("not-a-worker", caller.id)
        if self.ledger.clock >= self.ctp.T2:
            raise ContractError("deadline-passed", "joining closed")
        if self.ctp.state is not PCState.COMPUTE:
            raise ContractError("wrong-state", "outsourcing contract not in COMPUTE")
        self.ledger.transfer(caller, self.account, self.ctp.ch, tag="traitors/join/stake")
        self.state = TCState.JOINED
        self.ledger.record("traitors/join", actor=caller, contract=self.account.id,
                           state=self.state.value)

    def deliver(self, caller: AccountId, com_yprime: Commitment) -> None:
        if self.state is not TCState.JOINED:
            raise ContractError("wrong-state", f"deliver in {self.state.value}")
        if caller != self.traitor:
            raise ContractError("not-a-worker", caller.id)
        if self.ledger.clock >= self.ctp.T2:
            raise ContractError("deadline-passed", "delivery closed")
        self.com_yprime = com_yprime
        self.state = TCState.COMPUTED
        self.ledger.record("traitors/deliver", actor=caller, contract=self.account.id,
                           state=self.state.value)

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
        if self.state is not TCState.COMPUTED:
            raise ContractError("wrong-state", f"check in {self.state.value}")
        if self.ctp.state is not PCState.DONE or self.ctp.dispute_record is None:
            raise ContractError("wrong-state", "no arbitration verdict to check against")
        record = self.ctp.dispute_record
        other = next(wk for wk in self.ctp.workers if wk != self.traitor)
        correct = (
            eq_proof is not None
            and self.com_yprime is not None
            and verify_eq(self.ctp.gp, self.com_yprime, record.com_yt, eq_proof)
        )
        w, d, ch = self.ctp.w, self.ctp.d, self.ctp.ch
        if not record.cheated[self.traitor] and not record.cheated[other]:
            clause = "8a"
            self.ledger.transfer(self.account, self.client, w + 2 * d, tag="traitors/check/8a")
        elif record.cheated[self.traitor] and not record.cheated[other] and correct:
            clause = "8b"
            self.ledger.transfer(self.account, self.traitor, w + ch, tag="traitors/check/8b")
            self.ledger.transfer(self.account, self.client, 2 * d - ch, tag="traitors/check/8b")
        elif record.cheated[self.traitor] and record.cheated[other] and correct:
            clause = "8c"
            self.ledger.transfer(self.account, self.traitor, w + 2 * d, tag="traitors/check/8c")
        else:
            clause = "8d"
            self.ledger.transfer(self.account, self.client, w + 2 * d - ch, tag="traitors/check/8d")
            self.ledger.transfer(self.account, self.traitor, ch, tag="traitors/check/8d")
        self.state = TCState.DONE
        self.ledger.record("traitors/check", actor=caller, clause=clause,
                           contract=self.account.id, state=self.state.value)

    def on_timer(self) -> bool:
        now = self.ledger.clock
        w, d, ch = self.ctp.w, self.ctp.d, self.ctp.ch
        if self.state is TCState.CREATED and now >= self.ctp.T2:
            self.ledger.transfer(self.account, self.client, w + 2 * d - ch,
                                 tag="traitors/timer/abort")
            self.state = TCState.ABORTED
            self.ledger.record("traitors/timer", contract=self.account.id,
                               clause="abort", state=self.state.value)
            return True
        if self.state is TCState.JOINED and now >= self.ctp.T2:
            # reporter never committed a side result: stake forfeited
            self.ledger.transfer(self.account, self.client, w + 2 * d,
                                 tag="traitors/timer/no-deliver")
            self.state = TCState.DONE
            self.ledger.record("traitors/timer", contract=self.account.id,
                               clause="no-deliver", state=self.state.value)
            return True
        if self.state is TCState.COMPUTED and now >= self.ctp.T3:
            # client never checked: the whole escrow goes to the reporter
            self.ledger.transfer(self.account, self.traitor, w + 2 * d,
                                 tag="traitors/timer/no-check")
            self.state = TCState.DONE
            self.ledger.record("traitors/timer", contract=self.account.id,
                               clause="no-check", state=self.state.value)
            return True
        return False
