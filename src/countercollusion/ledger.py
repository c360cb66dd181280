"""Deterministic in-memory ledger: accounts, clock, transfers, timers.

Money is integral (smallest currency unit).  The ledger never creates or
destroys funds after initial minting; every movement is a transfer between
accounts, and ``total()`` is invariant.  Compute costs are modeled as
transfers into a dedicated sink account (kind ``"sink"``) so that
conservation holds exactly over *all* accounts while the external parties'
deltas sum to minus the sink delta.

Contracts register themselves to receive timer callbacks; ``advance_time``
moves the clock once and then runs every registered timer to a fixed point,
which makes one jump of ``dt`` equivalent to ``dt`` unit steps (all timer
guards are monotone in the clock).  Timers belong to live contracts: each
contract cancels its timer as it enters a final state, so a settled ledger
holds none, and reference counting frees it with its contracts.
"""

from __future__ import annotations

from . import CodedError, Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Optional

__all__ = [
    "Money",
    "AccountId",
    "Params",
    "LedgerError",
    "Ledger",
    "validate_params",
]

#: Integral money in the smallest currency unit.
Money = int


class LedgerError(CodedError):
    """Monetary precondition failure."""


class AccountId(Record):
    """A named account; ``kind`` is one of ``external``, ``contract``, ``sink``."""

    id: str
    kind: str = "external"


class Params(Record):
    """The monetary parameters of one outsourcing engagement.

    w   payment per cloud for the computation
    c   a cloud's cost of actually running the computation
    ch  the arbiter's fee (also the traitor-contract entry stake)
    d   a cloud's deposit in the prisoner's contract
    t   deposit in the colluder's contract
    b   bribe offered for colluding
    z = w - c + d - ch is the payoff of a cloud that wins a dispute.
    """

    w: Money
    c: Money
    ch: Money
    d: Money
    t: Money
    b: Money

    @property
    def z(self) -> Money:
        return self.w - self.c + self.d - self.ch


def validate_params(params: Params) -> list[str]:
    """Return the violated constraint strings (empty when all hold).

    The constraints make honesty dominant and collusion self-defeating:
    ``w >= c``, ``ch > 2w``, ``d > c + ch``, ``b < c``, ``t > z + d - b``,
    plus positivity of every amount.
    """
    violations: list[str] = []
    for name in Params._fields:
        value = getattr(params, name)
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            violations.append(f"{name} > 0")
    if violations:
        return violations
    if not params.w >= params.c:
        violations.append("w >= c")
    if not params.ch > 2 * params.w:
        violations.append("ch > 2w")
    if not params.d > params.c + params.ch:
        violations.append("d > c + ch")
    if not params.b < params.c:
        violations.append("b < c")
    if not params.t > params.z + params.d - params.b:
        violations.append("t > z + d - b")
    return violations


class Ledger:
    """Accounts, balances, a monotone clock, and an append-only event log."""

    def __init__(self, balances: dict[AccountId, Money]) -> None:
        for acct, amount in balances.items():
            if not isinstance(amount, int) or isinstance(amount, bool) or amount < 0:
                raise LedgerError("bad-amount", f"mint of {amount!r} for {acct.id}")
        self.balances: dict[AccountId, Money] = dict(balances)
        self.clock: int = 0
        self.log: list[dict] = []
        #: the tag of every payout a contract call made out of escrow, in order
        self.settlements: list[str] = []
        self._timers: list[Callable[[], bool]] = []
        self._minted: Money = sum(balances.values())
        self._seq: int = 0

    def fresh_account(self, prefix: str) -> AccountId:
        """Mint a unique zero-balance contract account (a contract's escrow)."""
        self._seq += 1
        acct = AccountId(f"{prefix}#{self._seq}", kind="contract")
        self.balances.setdefault(acct, 0)
        return acct

    # -- bookkeeping ---------------------------------------------------------

    def total(self) -> Money:
        return sum(self.balances.values())

    def balance(self, acct: AccountId) -> Money:
        return self.balances.get(acct, 0)

    def copy(self) -> "Ledger":
        """This ledger's balances, clock, log, settlements and account
        counter, with no timers.  The copy shares the log's entries, which
        nothing changes once they are recorded."""
        twin = object.__new__(Ledger)
        vars(twin).update(vars(self), balances=dict(self.balances), log=list(self.log),
                          settlements=list(self.settlements), _timers=[])
        return twin

    def record(self, tag: str, actor: Optional[AccountId] = None, **detail) -> None:
        if actor is None:
            self.log.append({"time": self.clock, "tag": tag, **detail})
        else:
            self.log.append({"time": self.clock, "tag": tag, "actor": actor.id, **detail})

    # -- money movement --------------------------------------------------------

    def transfer(self, src: AccountId, dst: AccountId, amount: Money, tag: str = "transfer") -> None:
        if not isinstance(amount, int) or isinstance(amount, bool) or amount < 0:
            raise LedgerError("bad-amount", f"transfer of {amount!r}")
        balances, have = self.balances, self.balances.get(src, 0)
        if have < amount:
            raise LedgerError("insufficient-funds", f"{src.id} has {have}, needs {amount}")
        if amount:
            balances[src] = have - amount
            balances[dst] = balances.get(dst, 0) + amount
            self.log.append({"time": self.clock, "tag": tag, "actor": src.id, "to": dst.id,
                             "amount": amount})

    # -- time -----------------------------------------------------------------

    def register_timer(self, callback: Callable[[], bool]) -> None:
        """Register a timer callback returning True when it made progress."""
        self._timers.append(callback)

    def cancel_timer(self, callback: Callable[[], bool]) -> None:
        self._timers.remove(callback)

    def advance_time(self, dt: int) -> None:
        if not isinstance(dt, int) or isinstance(dt, bool) or dt < 1:
            raise LedgerError("bad-dt", f"dt must be a positive int, got {dt!r}")
        self.clock += dt
        progressed = True
        while progressed:
            progressed = False
            for callback in tuple(self._timers):  # a firing timer may cancel itself
                if callback():
                    progressed = True

    # -- integrity --------------------------------------------------------------

    def check_conservation(self) -> None:
        if self.total() != self._minted:
            raise LedgerError(
                "conservation-violated",
                f"total {self.total()} != minted {self._minted}",
            )

