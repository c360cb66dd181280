"""Ledger unit tests: conservation, clock semantics, parameter validation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countercollusion.ledger import (
    AccountId,
    Ledger,
    LedgerError,
    Params,
    validate_params,
)

A = AccountId("alice")
B = AccountId("bob")
SINK = AccountId("costs", kind="sink")

BASE = Params(w=100, c=10, ch=201, d=212, t=309, b=5)


def make_ledger(a=1000, b=500):
    return Ledger({A: a, B: b, SINK: 0})


def test_transfer_moves_money_and_conserves():
    led = make_ledger()
    led.transfer(A, B, 300)
    assert led.balance(A) == 700
    assert led.balance(B) == 800
    led.check_conservation()
    assert led.total() == 1500


def test_insufficient_funds():
    led = make_ledger(a=10)
    with pytest.raises(LedgerError) as e:
        led.transfer(A, B, 11)
    assert e.value.code == "insufficient-funds"
    assert led.balance(A) == 10  # unchanged


def test_negative_and_bogus_amounts_rejected():
    led = make_ledger()
    with pytest.raises(LedgerError):
        led.transfer(A, B, -1)
    with pytest.raises(LedgerError):
        led.transfer(A, B, True)
    for bad in (-5, True, False, 1.5):
        with pytest.raises(LedgerError) as e:
            Ledger({A: bad})
        assert e.value.code == "bad-amount" and repr(bad) in str(e.value)


def test_advance_time_requires_positive_int():
    led = make_ledger()
    for bad in (0, -1, 1.5, True):
        with pytest.raises(LedgerError):
            led.advance_time(bad)
    led.advance_time(3)
    assert led.clock == 3


def test_timer_fixpoint_and_jump_equivalence():
    """One jump of dt must match dt unit steps, including chained timers."""

    def build():
        led = Ledger({A: 100, B: 0})
        state = {"stage": 0}

        def timer_a():
            if state["stage"] == 0 and led.clock >= 5:
                led.transfer(A, B, 10, tag="timer-a")
                state["stage"] = 1
                return True
            return False

        def timer_b():
            # becomes enabled only after timer_a ran: same-tick chaining
            if state["stage"] == 1 and led.clock >= 5:
                led.transfer(A, B, 1, tag="timer-b")
                state["stage"] = 2
                return True
            return False

        led.register_timer(timer_a)
        led.register_timer(timer_b)
        return led, state

    led1, s1 = build()
    led1.advance_time(7)  # single jump over the threshold
    led2, s2 = build()
    for _ in range(7):
        led2.advance_time(1)
    assert led1.balances == led2.balances
    assert s1 == s2 == {"stage": 2}
    assert led1.balance(B) == 11


@settings(max_examples=50, deadline=None)
@given(
    amounts=st.lists(st.integers(0, 50), min_size=1, max_size=20),
    start_a=st.integers(0, 2000),
)
def test_conservation_under_random_transfers(amounts, start_a):
    led = Ledger({A: start_a, B: 100, SINK: 0})
    total = led.total()
    for i, amount in enumerate(amounts):
        src, dst = (A, B) if i % 2 == 0 else (B, SINK)
        try:
            led.transfer(src, dst, amount)
        except LedgerError as e:
            assert e.code == "insufficient-funds"
    assert led.total() == total
    led.check_conservation()


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------


def test_base_params_valid():
    assert BASE.z == 101
    assert validate_params(BASE) == []


def test_arbiter_fee_violation():
    # lowering ch also raises z, so the follow-up deposit bound fails too
    assert validate_params(Params(w=100, c=10, ch=150, d=212, t=309, b=5)) == [
        "ch > 2w",
        "t > z + d - b",
    ]
    # isolated violation: bump t so only the fee bound fails
    assert validate_params(Params(w=100, c=10, ch=199, d=212, t=400, b=5)) == ["ch > 2w"]


def test_each_constraint_violation_detected():
    assert "w >= c" in validate_params(Params(w=9, c=10, ch=201, d=212, t=309, b=5))
    assert "d > c + ch" in validate_params(Params(w=100, c=10, ch=201, d=211, t=309, b=5))
    assert "b < c" in validate_params(Params(w=100, c=10, ch=201, d=212, t=309, b=10))
    # t must exceed z + d - b = 101 + 212 - 5 = 308
    assert "t > z + d - b" in validate_params(Params(w=100, c=10, ch=201, d=212, t=308, b=5))
    assert validate_params(Params(w=100, c=10, ch=201, d=212, t=309, b=5)) == []


def test_near_boundary_params_valid():
    # d = c + ch + 1, b = c - 1, t = z + d - b + 1
    p = Params(w=100, c=10, ch=201, d=212, t=309, b=9)
    assert validate_params(p) == []
    assert p.z == 101


def test_positivity_checked_first():
    assert validate_params(Params(w=100, c=0, ch=201, d=212, t=309, b=5)) == ["c > 0"]
    assert "b > 0" in validate_params(Params(w=100, c=10, ch=201, d=212, t=309, b=0))
