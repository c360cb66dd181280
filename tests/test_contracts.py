"""Clause-by-clause tests of the three contract state machines.

Each test drives contracts directly (no protocol layer), checks payouts to
the unit, asserts escrow accounts empty themselves at terminal states, and
pins the stable error codes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from countercollusion.contracts import (
    CCState,
    ColludersContract,
    ContractError,
    PCState,
    PrisonersContract,
    TCState,
    TraitorsContract,
    fork,
)
from countercollusion.crypto import (
    NEQ_TAG,
    Commitment,
    NeqProof,
    Opening,
    commit,
    digest,
    prove_eq,
    prove_neq,
    setup,
    _challenge,
)
from countercollusion.ledger import AccountId, Ledger

GP = setup("toy", b"\x01")
W, C, CH, D, T, B = 100, 10, 201, 212, 309, 5

CLIENT = AccountId("client")
CLOUD1 = AccountId("cloud1")
CLOUD2 = AccountId("cloud2")
TTP = AccountId("ttp")

M_GOOD = digest(GP, b"result-good")  # the true result digest
M_BAD = digest(GP, b"result-bad")  # a wrong result digest
M_AGREED = digest(GP, b"agreed-wrong")  # the coalition's agreed wrong digest
assert len({M_GOOD, M_BAD, M_AGREED}) == 3


@dataclass
class World:
    ledger: Ledger
    ctp: PrisonersContract
    rng: random.Random

    def balance(self, acct):
        return self.ledger.balance(acct)


def make_world(bid=True) -> World:
    ledger = Ledger({CLIENT: 2000, CLOUD1: 2000, CLOUD2: 2000, TTP: 0})
    com_f = commit(GP, digest(GP, b"f-desc"), 1)
    com_x = commit(GP, digest(GP, b"x-input"), 2)
    ctp = PrisonersContract.create(
        ledger, GP, CLIENT, TTP, com_f, com_x, W, D, CH, T1=10, T2=20, T3=30
    )
    world = World(ledger=ledger, ctp=ctp, rng=random.Random(0))
    if bid:
        ctp.bid(CLOUD1)
        ctp.bid(CLOUD2)
    return world


def deliver(world: World, m1: int, m2: int, s1: int = 11, s2: int = 22):
    """Both clouds deliver commitments to digests m1, m2; returns openings."""
    c1, c2 = commit(GP, m1, s1), commit(GP, m2, s2)
    world.ctp.deliver(CLOUD1, c1)
    world.ctp.deliver(CLOUD2, c2)
    return (c1, Opening(m1, s1)), (c2, Opening(m2, s2))


def ttp_proofs(world: World, sides, m_true: int = M_GOOD, st: int = 77):
    """Build the arbiter's commitment and per-cloud proofs from openings."""
    com_yt = commit(GP, m_true, st)
    o_t = Opening(m_true, st)
    nizks = []
    for side in sides:
        if side is None:
            nizks.append(None)
            continue
        com_y, opening = side
        if opening.m == m_true:
            nizks.append(prove_eq(GP, com_y, com_yt, opening, o_t, world.rng))
        else:
            nizks.append(prove_neq(GP, com_y, com_yt, opening, o_t, world.rng))
    return com_yt, nizks


# ---------------------------------------------------------------------------
# Prisoner's contract
# ---------------------------------------------------------------------------


def test_create_rejects_bad_deadlines():
    ledger = Ledger({CLIENT: 2000})
    com = commit(GP, 1, 1)
    with pytest.raises(ContractError) as e:
        PrisonersContract.create(ledger, GP, CLIENT, TTP, com, com, W, D, CH, 10, 9, 30)
    assert e.value.code == "bad-deadlines"
    ledger.advance_time(12)
    with pytest.raises(ContractError) as e:
        PrisonersContract.create(ledger, GP, CLIENT, TTP, com, com, W, D, CH, 10, 20, 30)
    assert e.value.code == "bad-deadlines"


def test_bidding_rules():
    world = make_world(bid=False)
    ctp = world.ctp
    assert ctp.state is PCState.CREATED
    ctp.bid(CLOUD1)
    with pytest.raises(ContractError) as e:
        ctp.bid(CLOUD1)
    assert e.value.code == "double-bid"
    with pytest.raises(ContractError) as e:
        ctp.bid(CLIENT)
    assert e.value.code == "not-a-worker"
    with pytest.raises(ContractError) as e:
        ctp.bid(TTP)
    assert e.value.code == "not-a-worker"
    ctp.bid(CLOUD2)
    assert ctp.state is PCState.COMPUTE
    with pytest.raises(ContractError) as e:
        ctp.bid(AccountId("cloud3"))
    assert e.value.code == "wrong-state"


def test_bid_deadline():
    world = make_world(bid=False)
    world.ctp.bid(CLOUD1)
    world.ledger.advance_time(10)  # clock = T1: timer aborts and refunds
    assert world.ctp.state is PCState.ABORTED
    assert world.balance(CLOUD1) == 2000
    assert world.balance(CLIENT) == 2000
    assert world.balance(world.ctp.account) == 0


def test_deliver_rules():
    world = make_world()
    com = commit(GP, M_GOOD, 5)
    world.ctp.deliver(CLOUD1, com)
    with pytest.raises(ContractError) as e:
        world.ctp.deliver(CLOUD1, com)
    assert e.value.code == "double-deliver"
    with pytest.raises(ContractError) as e:
        world.ctp.deliver(AccountId("cloud3"), com)
    assert e.value.code == "not-a-worker"
    world.ctp.deliver(CLOUD2, com)
    assert world.ctp.state is PCState.PAY


def test_pay_8b_matching_results():
    world = make_world()
    (c1, o1), (c2, o2) = deliver(world, M_GOOD, M_GOOD)
    proof = prove_eq(GP, c1, c2, o1, o2, world.rng)
    world.ledger.advance_time(15)
    world.ctp.pay(CLIENT, proof)
    assert world.ctp.state is PCState.DONE
    assert world.balance(CLOUD1) == 2000 + W  # deposit back + payment
    assert world.balance(CLOUD2) == 2000 + W
    assert world.balance(CLIENT) == 2000 - 2 * W  # fee ch recovered
    assert world.balance(TTP) == 0
    assert world.balance(world.ctp.account) == 0


def test_pay_8a_no_results():
    world = make_world()
    world.ledger.advance_time(20)  # T2 timer: COMPUTE -> PAY
    assert world.ctp.state is PCState.PAY
    world.ctp.pay(CLIENT, None)
    assert world.ctp.state is PCState.DONE
    # both clouds forfeited deposits to the client
    assert world.balance(CLIENT) == 2000 + 2 * D
    assert world.balance(CLOUD1) == 2000 - D
    assert world.balance(world.ctp.account) == 0


def test_pay_mismatch_goes_to_error():
    world = make_world()
    deliver(world, M_GOOD, M_BAD)
    world.ctp.pay(CLIENT, None)
    assert world.ctp.state is PCState.ERROR


def test_pay_guards():
    world = make_world()
    with pytest.raises(ContractError) as e:
        world.ctp.pay(CLIENT, None)  # still COMPUTE
    assert e.value.code == "wrong-state"
    deliver(world, M_GOOD, M_GOOD)
    with pytest.raises(ContractError) as e:
        world.ctp.pay(CLOUD1, None)
    assert e.value.code == "not-client"
    world.ledger.advance_time(30)  # past T3; timer settles first
    assert world.ctp.state is PCState.DONE
    with pytest.raises(ContractError) as e:
        world.ctp.pay(CLIENT, None)
    assert e.value.code == "wrong-state"


def test_pay_too_late_guard():
    """Reaching T3 with the timer disabled shows the explicit window guard."""
    world = make_world()
    deliver(world, M_GOOD, M_GOOD)
    world.ctp.ledger.clock = 30  # bypass advance_time so no timer fires
    with pytest.raises(ContractError) as e:
        world.ctp.pay(CLIENT, None)
    assert e.value.code == "too-late"
    with pytest.raises(ContractError) as e:
        world.ctp.dispute(TTP, commit(GP, M_GOOD, 1), None, None)
    assert e.value.code == "too-late"


def test_dispute_10a_none_cheated():
    world = make_world()
    sides = deliver(world, M_GOOD, M_GOOD)
    world.ctp.pay(CLIENT, None)  # client "loses" the proof -> ERROR
    assert world.ctp.state is PCState.ERROR
    com_yt, nizks = ttp_proofs(world, sides)
    world.ctp.dispute(TTP, com_yt, *nizks)
    assert world.ctp.state is PCState.DONE
    assert world.balance(CLOUD1) == 2000 + W
    assert world.balance(CLOUD2) == 2000 + W
    assert world.balance(TTP) == CH
    assert world.balance(CLIENT) == 2000 - 2 * W - CH
    assert world.balance(world.ctp.account) == 0
    assert world.ctp.dispute_record.cheated == {CLOUD1: False, CLOUD2: False}


def test_dispute_10b_both_cheated():
    world = make_world()
    sides = deliver(world, M_BAD, M_AGREED)
    world.ctp.pay(CLIENT, None)
    com_yt, nizks = ttp_proofs(world, sides)
    world.ctp.dispute(TTP, com_yt, *nizks)
    assert world.balance(CLIENT) == 2000 - CH + 2 * D  # recovers 2(w+d), paid 2w+ch
    assert world.balance(CLOUD1) == 2000 - D
    assert world.balance(CLOUD2) == 2000 - D
    assert world.balance(TTP) == CH
    assert world.balance(world.ctp.account) == 0


def test_dispute_10c_one_honest():
    world = make_world()
    sides = deliver(world, M_GOOD, M_BAD)
    world.ctp.pay(CLIENT, None)
    com_yt, nizks = ttp_proofs(world, sides)
    world.ctp.dispute(TTP, com_yt, *nizks)
    assert world.balance(CLOUD1) == 2000 + W + D - CH  # honest: w + 2d - ch net +w+d-ch
    assert world.balance(CLOUD2) == 2000 - D
    assert world.balance(CLIENT) == 2000 - W  # recovered w + ch of the 2w + ch
    assert world.balance(TTP) == CH
    assert world.balance(world.ctp.account) == 0


def test_dispute_missing_delivery_counts_as_cheat():
    world = make_world()
    c1 = commit(GP, M_GOOD, 11)
    world.ctp.deliver(CLOUD1, c1)
    world.ledger.advance_time(20)  # -> PAY via timer
    com_yt, nizks = ttp_proofs(world, [(c1, Opening(M_GOOD, 11)), None])
    world.ctp.dispute(TTP, com_yt, nizks[0], None)
    assert world.ctp.dispute_record.cheated == {CLOUD1: False, CLOUD2: True}
    assert world.balance(CLOUD1) == 2000 + W + D - CH


def test_dispute_rejects_bad_proofs():
    world = make_world()
    sides = deliver(world, M_GOOD, M_GOOD)
    world.ctp.pay(CLIENT, None)
    com_yt, nizks = ttp_proofs(world, sides)
    with pytest.raises(ContractError) as e:
        world.ctp.dispute(CLOUD1, com_yt, *nizks)
    assert e.value.code == "not-ttp"
    # an equality proof computed against the wrong commitment fails hard
    with pytest.raises(ContractError) as e:
        world.ctp.dispute(TTP, commit(GP, M_GOOD, 999), *nizks)
    assert e.value.code == "ttp-proof-invalid"
    # a proof supplied for a worker who never delivered fails hard
    world2 = make_world()
    c1 = commit(GP, M_GOOD, 11)
    world2.ctp.deliver(CLOUD1, c1)
    world2.ledger.advance_time(20)
    com_yt2, nizks2 = ttp_proofs(world2, [(c1, Opening(M_GOOD, 11)), None])
    with pytest.raises(ContractError) as e:
        world2.ctp.dispute(TTP, com_yt2, nizks2[0], nizks2[0])
    assert e.value.code == "ttp-proof-invalid"


def test_framing_arbiter_cannot_punish_an_honest_cloud_secp256k1():
    """Clause 10c punishes a cloud only on a verified inequality proof.  An
    arbiter who holds the openings of two honest deliveries and forges one
    for cloud2 from the blinding difference alone (the former verifier's
    recipe packed into ``(t, eta1, eta2)``, or a proof simulated for a
    challenge chosen before ``t``) is refused, and no money moves."""
    gp = setup("secp256k1", b"\x01")
    g, q = gp.backend, gp.q
    ledger = Ledger({CLIENT: 2000, CLOUD1: 2000, CLOUD2: 2000, TTP: 0})
    ctp = PrisonersContract.create(
        ledger, gp, CLIENT, TTP, commit(gp, 1, 1), commit(gp, 2, 2), W, D, CH, T1=10, T2=20, T3=30
    )
    ctp.bid(CLOUD1)
    ctp.bid(CLOUD2)
    m, s1, s2, st = digest(gp, b"result-good"), 11, 22, 77
    c1, c2, com_yt = commit(gp, m, s1), commit(gp, m, s2), commit(gp, m, st)
    ctp.deliver(CLOUD1, c1)
    ctp.deliver(CLOUD2, c2)
    ctp.pay(CLIENT, None)
    rng = random.Random(5)
    honest = prove_eq(gp, c1, com_yt, Opening(m, s1), Opening(m, st), rng)

    a, e = rng.randrange(q), rng.randrange(q)
    t = g.mul(a + 1, gp.P, e, gp.Q)  # t1 + t2 of the former recipe
    delta = _challenge(gp, NEQ_TAG, c2.value, com_yt.value, t)
    eta1, eta2 = rng.randrange(q), rng.randrange(q)
    forgeries = [
        NeqProof(t=t, eta1=(a + 1) % q, eta2=(delta * (s2 - st) + e) % q),
        NeqProof(
            t=g.mul(eta1, g.sub(c2.value, com_yt.value), eta2, gp.Q, -rng.randrange(q), gp.P),
            eta1=eta1, eta2=eta2,
        ),
    ]
    before = dict(ledger.balances)
    for forged in forgeries:
        with pytest.raises(ContractError) as err:
            ctp.dispute(TTP, com_yt, honest, forged)
        assert err.value.code == "ttp-proof-invalid"
        assert dict(ledger.balances) == before
        assert ctp.state is PCState.ERROR
    honest2 = prove_eq(gp, c2, com_yt, Opening(m, s2), Opening(m, st), rng)
    ctp.dispute(TTP, com_yt, honest, honest2)
    assert ctp.dispute_record.cheated == {CLOUD1: False, CLOUD2: False}


def test_timer_clause_11_lazy_client():
    world = make_world()
    deliver(world, M_GOOD, M_BAD)
    world.ledger.advance_time(30)  # past T3 without pay/dispute
    assert world.ctp.state is PCState.DONE
    assert world.balance(CLOUD1) == 2000 + W
    assert world.balance(CLOUD2) == 2000 + W
    assert world.balance(CLIENT) == 2000 - 2 * W  # residue ch comes back
    assert world.balance(world.ctp.account) == 0


# ---------------------------------------------------------------------------
# Colluder's contract
# ---------------------------------------------------------------------------


def setup_coalition(world: World, s1: int = 31, s2: int = 32):
    com_r1 = commit(GP, M_AGREED, s1)
    com_r2 = commit(GP, M_AGREED, s2)
    ctc = ColludersContract.create(
        world.ledger, world.ctp, CLOUD1, CLOUD2, T, B, T4=15, T5=35,
        com_r_creator=com_r1, com_r_other=com_r2,
    )
    return ctc, (com_r1, Opening(M_AGREED, s1)), (com_r2, Opening(M_AGREED, s2))


def test_colluders_create_guards():
    world = make_world(bid=False)
    com = commit(GP, M_AGREED, 1)
    with pytest.raises(ContractError) as e:  # outsourcing not yet COMPUTE
        ColludersContract.create(world.ledger, world.ctp, CLOUD1, CLOUD2, T, B, 15, 35, com, com)
    assert e.value.code == "wrong-state"
    world.ctp.bid(CLOUD1)
    world.ctp.bid(CLOUD2)
    with pytest.raises(ContractError) as e:  # T4 after T2
        ColludersContract.create(world.ledger, world.ctp, CLOUD1, CLOUD2, T, B, 25, 35, com, com)
    assert e.value.code == "bad-deadlines"
    with pytest.raises(ContractError) as e:  # outsider cannot be a colluder
        ColludersContract.create(world.ledger, world.ctp, CLOUD1, AccountId("x"), T, B, 15, 35, com, com)
    assert e.value.code == "not-a-worker"


def test_colluders_join_and_timer_abort():
    world = make_world()
    ctc, _, _ = setup_coalition(world)
    assert world.balance(CLOUD1) == 2000 - D - T - B
    with pytest.raises(ContractError) as e:
        ctc.join(CLOUD1)
    assert e.value.code == "not-a-worker"
    # unanswered attempt: refunded at T4
    world.ledger.advance_time(15)
    assert ctc.state is CCState.ABORTED
    assert world.balance(CLOUD1) == 2000 - D
    assert world.balance(ctc.account) == 0
    with pytest.raises(ContractError) as e:
        ctc.join(CLOUD2)
    assert e.value.code == "wrong-state"


def run_ctp_with_dispute(world, m1, m2):
    sides = deliver(world, m1, m2, s1=41, s2=42)
    world.ledger.advance_time(21 - world.ledger.clock)
    world.ctp.pay(CLIENT, None)
    if world.ctp.state is PCState.ERROR:
        com_yt, nizks = ttp_proofs(world, sides)
        world.ctp.dispute(TTP, com_yt, *nizks)
    return sides


def test_colluders_enforce_guards_and_5a():
    world = make_world()
    ctc, (com_r1, o1), (com_r2, o2) = setup_coalition(world)
    ctc.join(CLOUD2)
    assert ctc.state is CCState.COLLUDED
    # both deliver the agreed commitments (digest differs from truth)
    world.ctp.deliver(CLOUD1, com_r1)
    world.ctp.deliver(CLOUD2, com_r2)
    with pytest.raises(ContractError) as e:
        ctc.enforce(CLOUD1)  # outsourcing contract not settled yet
    assert e.value.code == "enforce-before-settlement"
    proof = prove_eq(GP, com_r1, com_r2, o1, o2, world.rng)
    world.ctp.pay(CLIENT, proof)  # matching wrong results: pay 8b
    assert world.ctp.state is PCState.DONE
    with pytest.raises(ContractError) as e:
        ctc.enforce(CLOUD1)  # before T5
    assert e.value.code == "enforce-before-settlement"
    world.ledger.advance_time(35)
    with pytest.raises(ContractError) as e:
        ctc.enforce(CLIENT)
    assert e.value.code == "not-a-worker"
    ctc.enforce(CLOUD1)
    assert ctc.state is CCState.DONE
    # coalition succeeded: leader w - b, follower w + b (before compute costs)
    assert world.balance(CLOUD1) == 2000 + W - B
    assert world.balance(CLOUD2) == 2000 + W + B
    assert world.balance(ctc.account) == 0


def test_colluders_enforce_5b_only_creator_conformed():
    world = make_world()
    ctc, (com_r1, _), _ = setup_coalition(world)
    ctc.join(CLOUD2)
    world.ctp.deliver(CLOUD1, com_r1)
    world.ctp.deliver(CLOUD2, commit(GP, M_GOOD, 55))  # follower defects to truth
    run = run_ctp_with_dispute  # already delivered; just settle
    world.ledger.advance_time(21)
    world.ctp.pay(CLIENT, None)
    com_yt, nizks = ttp_proofs(
        world, [(com_r1, Opening(M_AGREED, 31)), (commit(GP, M_GOOD, 55), Opening(M_GOOD, 55))]
    )
    world.ctp.dispute(TTP, com_yt, *nizks)
    world.ledger.advance_time(14)
    ctc.enforce(CLOUD2)
    # creator takes 2t + b: net +t over its stake
    assert world.balance(CLOUD1) == 2000 - D + T  # lost deposit, won coalition pot
    assert world.balance(ctc.account) == 0


def test_colluders_enforce_5c_only_follower_conformed():
    world = make_world()
    ctc, _, (com_r2, _) = setup_coalition(world)
    ctc.join(CLOUD2)
    world.ctp.deliver(CLOUD1, commit(GP, M_GOOD, 66))  # creator defects to truth
    world.ctp.deliver(CLOUD2, com_r2)
    world.ledger.advance_time(21)
    world.ctp.pay(CLIENT, None)
    com_yt, nizks = ttp_proofs(
        world, [(commit(GP, M_GOOD, 66), Opening(M_GOOD, 66)), (com_r2, Opening(M_AGREED, 32))]
    )
    world.ctp.dispute(TTP, com_yt, *nizks)
    world.ledger.advance_time(14)
    ctc.enforce(CLOUD2)
    assert world.balance(CLOUD2) == 2000 - D + T + B  # won 2t + b on a stake of t
    assert world.balance(CLOUD1) == 2000 - T - B + W + D - CH  # honest in ctp, lost pot
    assert world.balance(ctc.account) == 0


def test_colluders_enforce_5d_nobody_conformed():
    world = make_world()
    ctc, _, _ = setup_coalition(world)
    ctc.join(CLOUD2)
    world.ctp.deliver(CLOUD1, commit(GP, M_GOOD, 71))
    world.ctp.deliver(CLOUD2, commit(GP, M_GOOD, 72))
    proof = prove_eq(
        GP, world.ctp.delivered[CLOUD1], world.ctp.delivered[CLOUD2],
        Opening(M_GOOD, 71), Opening(M_GOOD, 72), world.rng,
    )
    world.ctp.pay(CLIENT, proof)
    world.ledger.advance_time(35)
    ctc.enforce(CLOUD1)
    # both refunded their stakes: coalition was a no-op
    assert world.balance(CLOUD1) == 2000 + W
    assert world.balance(CLOUD2) == 2000 + W
    assert world.balance(ctc.account) == 0


# ---------------------------------------------------------------------------
# Traitor's contract
# ---------------------------------------------------------------------------


def setup_report(world: World, traitor=CLOUD2):
    ctc, r1, r2 = setup_coalition(world)
    ctt = TraitorsContract.create(world.ledger, world.ctp, ctc, CLIENT, traitor)
    return ctc, ctt, r1, r2


def test_traitors_create_guards():
    world = make_world()
    ctc, ctt, _, _ = setup_report(world)
    with pytest.raises(ContractError) as e:
        TraitorsContract.create(world.ledger, world.ctp, ctc, CLIENT, CLOUD1)
    assert e.value.code == "not-first-reporter"

    world2 = make_world()
    ctc2, _, _ = setup_coalition(world2)
    with pytest.raises(ContractError) as e:
        TraitorsContract.create(world2.ledger, world2.ctp, ctc2, CLOUD1, CLOUD2)
    assert e.value.code == "not-client"
    with pytest.raises(ContractError) as e:
        TraitorsContract.create(world2.ledger, world2.ctp, ctc2, CLIENT, AccountId("x"))
    assert e.value.code == "not-a-worker"
    world2.ledger.advance_time(15)  # coalition offer expires
    assert ctc2.state is CCState.ABORTED
    with pytest.raises(ContractError) as e:
        TraitorsContract.create(world2.ledger, world2.ctp, ctc2, CLIENT, CLOUD2)
    assert e.value.code == "wrong-state"


def test_traitors_join_deliver_and_check_8c():
    """Both clouds deliver the agreed wrong result; the traitor's correct
    side-commitment wins it the whole escrow (clause 8c)."""
    world = make_world()
    ctc, ctt, (com_r1, o_r1), (com_r2, o_r2) = setup_report(world)
    with pytest.raises(ContractError) as e:
        ctt.join(CLOUD1)
    assert e.value.code == "not-a-worker"
    ctt.join(CLOUD2)
    s_prime = 91
    com_yprime = commit(GP, M_GOOD, s_prime)
    ctt.deliver(CLOUD2, com_yprime)
    assert ctt.state is TCState.COMPUTED
    ctc.join(CLOUD2)  # traitor still joins the coalition to avoid tipping off
    world.ctp.deliver(CLOUD1, com_r1)
    world.ctp.deliver(CLOUD2, com_r2)
    world.ledger.advance_time(21)
    # clause 7: a client who signed a traitor's contract always disputes
    com_yt_st = 97
    com_yt = commit(GP, M_GOOD, com_yt_st)
    nizk1 = prove_neq(GP, com_r1, com_yt, o_r1, Opening(M_GOOD, com_yt_st), world.rng)
    nizk2 = prove_neq(GP, com_r2, com_yt, o_r2, Opening(M_GOOD, com_yt_st), world.rng)
    world.ctp.dispute(TTP, com_yt, nizk1, nizk2)
    correctness = prove_eq(
        GP, com_yprime, com_yt, Opening(M_GOOD, s_prime), Opening(M_GOOD, com_yt_st), world.rng
    )
    ctt.check(CLIENT, correctness)
    assert ctt.state is TCState.DONE
    # traitor: -d (ctp deposit) - t (coalition) - ch (stake) + (w + 2d) + coalition 5a later
    assert world.balance(CLOUD2) == 2000 - D - T - CH + W + 2 * D
    assert world.balance(ctt.account) == 0
    world.ledger.advance_time(14)
    ctc.enforce(CLOUD2)
    assert world.balance(CLOUD2) == 2000 - D - CH + W + 2 * D + B
    assert world.balance(world.ctp.account) == 0


def test_traitors_check_8a_pointless_report():
    """Nobody cheated in the outsourcing contract: reporter forfeits its stake."""
    world = make_world()
    ctc, ctt, _, _ = setup_report(world)
    ctt.join(CLOUD2)
    com_yprime = commit(GP, M_GOOD, 91)
    ctt.deliver(CLOUD2, com_yprime)
    sides = deliver(world, M_GOOD, M_GOOD, s1=51, s2=52)
    world.ledger.advance_time(21)
    com_yt, nizks = ttp_proofs(world, sides)
    world.ctp.dispute(TTP, com_yt, *nizks)
    proof = prove_eq(GP, com_yprime, com_yt, Opening(M_GOOD, 91), Opening(M_GOOD, 77), world.rng)
    ctt.check(CLIENT, proof)
    # ctp: 10a pays the clouds, client covers 2w + ch; ctt 8a returns w + 2d,
    # so the reporter's forfeited stake ends up funding the arbiter fee and
    # the client's outlay is exactly 2w.
    assert world.balance(CLIENT) - 2000 == -(2 * W)
    assert world.balance(CLOUD2) == 2000 + W - CH  # honest pay w+d, lost ch stake
    assert world.balance(ctt.account) == 0


def test_traitors_check_8b_other_honest():
    """Traitor cheated in ctp, other cloud honest, report correct: made whole."""
    world = make_world()
    ctc, ctt, (com_r1, o_r1), (com_r2, o_r2) = setup_report(world)
    ctt.join(CLOUD2)
    s_prime = 91
    com_yprime = commit(GP, M_GOOD, s_prime)
    ctt.deliver(CLOUD2, com_yprime)
    c1 = commit(GP, M_GOOD, 61)  # cloud1 delivers the truth
    world.ctp.deliver(CLOUD1, c1)
    world.ctp.deliver(CLOUD2, com_r2)  # traitor delivers the agreed wrong value
    world.ledger.advance_time(21)
    st = 97
    com_yt = commit(GP, M_GOOD, st)
    nizk1 = prove_eq(GP, c1, com_yt, Opening(M_GOOD, 61), Opening(M_GOOD, st), world.rng)
    nizk2 = prove_neq(GP, com_r2, com_yt, o_r2, Opening(M_GOOD, st), world.rng)
    world.ctp.dispute(TTP, com_yt, nizk1, nizk2)
    proof = prove_eq(GP, com_yprime, com_yt, Opening(M_GOOD, s_prime), Opening(M_GOOD, st), world.rng)
    ctt.check(CLIENT, proof)
    # traitor: -d (lost in ctp 10c) - ch + (w + ch) = w - d
    assert world.balance(CLOUD2) == 2000 - D + W
    assert world.balance(ctt.account) == 0


def test_traitors_check_8d_wrong_report_refunds():
    world = make_world()
    ctc, ctt, (com_r1, o_r1), (com_r2, o_r2) = setup_report(world)
    ctt.join(CLOUD2)
    com_yprime = commit(GP, M_BAD, 91)  # reporter commits to a wrong value
    ctt.deliver(CLOUD2, com_yprime)
    world.ctp.deliver(CLOUD1, com_r1)
    world.ctp.deliver(CLOUD2, com_r2)
    world.ledger.advance_time(21)
    st = 97
    com_yt = commit(GP, M_GOOD, st)
    nizk1 = prove_neq(GP, com_r1, com_yt, o_r1, Opening(M_GOOD, st), world.rng)
    nizk2 = prove_neq(GP, com_r2, com_yt, o_r2, Opening(M_GOOD, st), world.rng)
    world.ctp.dispute(TTP, com_yt, nizk1, nizk2)
    ctt.check(CLIENT, None)  # client cannot prove correctness
    # both sides refunded: client w+2d-ch, traitor ch; cloud2 never joined the
    # coalition here, so its only loss is the forfeited outsourcing deposit
    assert world.balance(CLOUD2) == 2000 - D
    assert world.balance(ctt.account) == 0


def test_traitors_check_requires_verdict():
    world = make_world()
    ctc, ctt, (com_r1, o1), (com_r2, o2) = setup_report(world)
    ctt.join(CLOUD2)
    com_yprime = commit(GP, M_GOOD, 91)
    ctt.deliver(CLOUD2, com_yprime)
    world.ctp.deliver(CLOUD1, com_r1)
    world.ctp.deliver(CLOUD2, com_r2)
    proof = prove_eq(GP, com_r1, com_r2, o1, o2, world.rng)
    world.ctp.pay(CLIENT, proof)  # settles without arbitration
    with pytest.raises(ContractError) as e:
        ctt.check(CLIENT, None)
    assert e.value.code == "wrong-state"
    # at T3 the unchecked contract pays out to the reporter
    world.ledger.advance_time(30)
    assert ctt.state is TCState.DONE
    assert world.balance(ctt.account) == 0


def test_traitors_timers():
    # CREATED at T2: refund client
    world = make_world()
    ctc, ctt, _, _ = setup_report(world)
    world.ledger.advance_time(20)
    assert ctt.state is TCState.ABORTED
    assert world.balance(CLIENT) == 2000 - 2 * W - CH  # only ctp escrow out
    # JOINED at T2: reporter forfeits stake
    world2 = make_world()
    ctc2, ctt2, _, _ = setup_report(world2)
    ctt2.join(CLOUD2)
    world2.ledger.advance_time(20)
    assert ctt2.state is TCState.DONE
    assert world2.balance(CLOUD2) == 2000 - D - T - B - CH + (T + B)  # decoy refunded at T4
    assert world2.balance(ctt2.account) == 0


def test_a_fork_refers_to_a_final_contract_as_it_is():
    """Once the reported coalition offer expires, its contract is final and
    holds no timer, though the traitor's contract still references it.  A
    fork clones the live contracts, refers to the final one as it is, and
    settles as the original does, leaving no timer on either ledger."""
    world = make_world()
    ctc, ctt, _, _ = setup_report(world)
    ctt.join(CLOUD2)
    world.ledger.advance_time(15)  # T4: the offer expires
    assert ctc.state is CCState.ABORTED
    assert [timer.__self__ for timer in world.ledger._timers] == [world.ctp, ctt]
    twin, clones = fork(world.ledger)
    assert list(clones) == [world.ctp, ctt]
    assert clones[ctt].ctc is ctc and clones[ctt].ctp is clones[world.ctp]
    for ledger in (world.ledger, twin):
        ledger.advance_time(16)  # past T3: nobody delivered, so the timers settle
    assert twin.log == world.ledger.log and twin.balances == world.ledger.balances
    assert twin._timers == world.ledger._timers == []
    assert ctt.state is clones[ctt].state is TCState.DONE


def test_all_contract_escrows_empty_at_terminal_states():
    world = make_world()
    sides = deliver(world, M_GOOD, M_BAD)
    world.ledger.advance_time(21)
    world.ctp.pay(CLIENT, None)
    com_yt, nizks = ttp_proofs(world, sides)
    world.ctp.dispute(TTP, com_yt, *nizks)
    world.ledger.check_conservation()
    for acct, balance in world.ledger.balances.items():
        if acct.kind == "contract":
            assert balance == 0, acct
