"""Acceptance gate: seven end-to-end criteria, one pass/fail line each.

Each test prints exactly one ``[acceptance] criterion N ...: PASS/FAIL`` line
(written straight to the real stdout so it survives pytest's capture) and
then asserts, so a red criterion is both visible in the run log and fails
the suite.

Criteria:
  1. the four game trees' payoff tables are reproduced exactly by executing
     the contracts, across several distinct valid parameter sets;
  2. the four reference equilibria pass all sequential-rationality checks,
     their beliefs are exactly the consistent ones, and the 1/k ladder of
     fully-mixed assessments closes in on them at exactly 2/k (<= 1e-6 at
     k=1e7);
  3. equilibrium play reaches the stated honest terminal with probability 1;
  4. breaking each monetary boundary constraint is detected (CLI exits 4);
  5. the proof system is complete (toy group), sound against random
     equality forgeries and against inequality forgeries for commitments to
     one message (secp256k1), and bit-exact against frozen known answers;
  6. 1000 randomized contract call/timing sequences never break money
     conservation, never leave escrow stuck, and always end in a defined
     terminal state;
  7. the client's outlay never exceeds 2w in any consistent strategy pair,
     and equals 2w exactly whenever the full-payment clause fires.

Note on criterion 2: the post-report game's stated strategy profile is
sequentially rational only under the strengthened deposit condition
t > z + d, so it is checked at t=314 (all other games use the base
parameters, where t > z + d - b suffices).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from countercollusion.cli import main
from countercollusion.contracts import (
    CCState,
    ColludersContract,
    ContractError,
    PCState,
    PrisonersContract,
    TCState,
    TraitorsContract,
)
from countercollusion.crypto import (
    NEQ_TAG,
    EqProof,
    NeqProof,
    Opening,
    commit,
    digest,
    prove_eq,
    prove_neq,
    serialize_commitment,
    serialize_eq_proof,
    serialize_neq_proof,
    setup,
    verify_eq,
    verify_neq,
    _challenge,
)
from countercollusion.gametheory import (
    GAME_IDS,
    build_game,
    check_consistency,
    check_sequential_rationality,
    payoff_crosscheck,
    play,
    reference_equilibrium,
)
from countercollusion.ledger import AccountId, Ledger, LedgerError, Params, validate_params
from countercollusion.protocol import (
    CloudStrategy,
    CtpAction,
    ReportChoice,
    Role,
    Task,
    run_scenario,
)
from oracles import ladder_residual

BASE = Params(w=100, c=10, ch=201, d=212, t=309, b=5)
PARAM_SETS = {
    "base": BASE,
    "near-boundary": Params(w=100, c=10, ch=201, d=212, t=305, b=9),
    "scaled": Params(w=50, c=7, ch=101, d=109, t=158, b=3),
    "larger": Params(w=1000, c=250, ch=2001, d=2252, t=3005, b=249),
}
# deposit strengthened to t > z + d so the post-report profile is rational
G4_PARAMS = Params(w=100, c=10, ch=201, d=212, t=314, b=5)

TOY = setup("toy", b"\x01")

_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_reporting(capsys):
    """Let _report bypass pytest's capture so every criterion line shows."""
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _report(criterion: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. payoff tables == contract execution
# ---------------------------------------------------------------------------


def test_criterion_1_payoff_tables_match_contract_execution():
    start = time.monotonic()
    total_cells = 0
    mismatches: list = []
    for label, params in PARAM_SETS.items():
        assert validate_params(params) == [], f"{label} must be a valid parameter set"
        for gid in GAME_IDS:
            cells, bad = payoff_crosscheck(build_game(gid, params), TOY, seed=7)
            total_cells += cells
            mismatches.extend((label, gid, entry) for entry in bad)
    elapsed = time.monotonic() - start
    ok = not mismatches and total_cells == 4 * (9 + 11 + 27 + 29) and elapsed < 10.0
    _report(
        "criterion 1 (payoff tables match contract execution)",
        ok,
        f"{total_cells} terminal cells across {len(PARAM_SETS)} parameter sets, "
        f"{len(mismatches)} mismatches, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. the four reference equilibria are machine-verified
# ---------------------------------------------------------------------------


def test_criterion_2_reference_equilibria_verified():
    start = time.monotonic()
    failures = []
    for gid, params in (("g1", BASE), ("g2", BASE), ("g3", BASE), ("g4", G4_PARAMS)):
        game = build_game(gid, params)
        assessment = reference_equilibrium(game)
        rationality = check_sequential_rationality(game, assessment)
        if not (rationality.weak_ok and rationality.strict_ok and rationality.nodes_ok):
            failures.append(f"{gid}: sequential rationality")
        if any(chk.full_deviation_max_gain != 0 for chk in rationality.checks):
            failures.append(f"{gid}: a full deviation gains")
        if check_consistency(game, assessment) != ():
            failures.append(f"{gid}: beliefs are not the consistent ones")
        residuals = {k: ladder_residual(game, assessment, k) for k in (10, 100, 1000, 10**7)}
        if any(res != Fraction(2, k) for k, res in residuals.items()):
            failures.append(f"{gid}: residual ladder is not exactly 2/k")
        if residuals[10**7] > Fraction(1, 10**6):
            failures.append(f"{gid}: residual at k=1e7 exceeds 1e-6")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 5.0
    _report(
        "criterion 2 (reference equilibria verified)",
        ok,
        (f"g1/g2/g3 at base, g4 at t=314 (needs t > z + d); {elapsed:.2f}s"
         if not failures else "; ".join(failures)),
    )


# ---------------------------------------------------------------------------
# 3. equilibrium play reaches the stated outcome
# ---------------------------------------------------------------------------


def test_criterion_3_equilibrium_play_reaches_stated_outcomes():
    expected = {"g1": "G1:v4", "g2": "G2:v10", "g3": "G3:v13", "g4": "G3:v13"}
    wrong = []
    for gid, label in expected.items():
        params = G4_PARAMS if gid == "g4" else BASE
        game = build_game(gid, params)
        dist = play(game, reference_equilibrium(game).profile)
        if dict(dist) != {label: Fraction(1)}:
            wrong.append(f"{gid} -> {dict(dist)}")
    _report(
        "criterion 3 (equilibrium play hits the stated terminal)",
        not wrong,
        ("honest terminal reached with probability 1 in all four games"
         if not wrong else "; ".join(wrong)),
    )


# ---------------------------------------------------------------------------
# 4. boundary parameters are detected
# ---------------------------------------------------------------------------


def test_criterion_4_boundary_parameters_are_detected(capsys):
    cases = [
        ("g1", "--d", "211", "d > c + ch"),
        ("g2", "--t", "308", "t > z + d - b"),
        ("g2", "--b", "10", "b < c"),
    ]
    problems = []
    for game, flag, value, violation in cases:
        code = main(["analyze", "--game", game, flag, value])
        report = json.loads(capsys.readouterr().out)
        if code != 4:
            problems.append(f"{flag}={value}: exit {code} != 4")
        if report["params_violations"] != [violation]:
            problems.append(f"{flag}={value}: violations {report['params_violations']}")
        if report["equilibrium_ok"]:
            problems.append(f"{flag}={value}: equilibrium still reported ok")
    _report(
        "criterion 4 (boundary parameters detected)",
        not problems,
        ("d=c+ch, t=z+d-b, b=c each rejected with exit code 4"
         if not problems else "; ".join(problems)),
    )


# ---------------------------------------------------------------------------
# 5. proof-system completeness, soundness, and known answers
# ---------------------------------------------------------------------------


def test_criterion_5_crypto_completeness_soundness_kats():
    problems = []

    # frozen known answers (independent hashlib oracle, setup seed b"\x01")
    if (TOY.P, TOY.Q, TOY.q) != (118, 621, 509):
        problems.append("toy generators differ from known answers")
    if commit(TOY, 3, 5).value != 68:
        problems.append("toy commitment known answer")
    if digest(TOY, b"") != 132 or digest(TOY, b"counter-collusion") != 66:
        problems.append("digest known answers")
    eq_kat = prove_eq(TOY, commit(TOY, 7, 11), commit(TOY, 7, 13),
                      Opening(7, 11), Opening(7, 13), random.Random(42))
    if (eq_kat.t, eq_kat.eta) != (935, 69):
        problems.append("equality proof known answer")
    neq_kat = prove_neq(TOY, commit(TOY, 7, 11), commit(TOY, 9, 13),
                        Opening(7, 11), Opening(9, 13), random.Random(43))
    if (neq_kat.t, neq_kat.eta1, neq_kat.eta2) != (806, 306, 211):
        problems.append("inequality proof known answer")

    # completeness: 1000 random equality + inequality proofs all verify (toy)
    rng = random.Random(4)
    completeness_failures = 0
    for _ in range(1000):
        m1 = rng.randrange(TOY.q)
        m2 = (m1 + 1 + rng.randrange(TOY.q - 1)) % TOY.q
        s1, s2 = rng.randrange(TOY.q), rng.randrange(TOY.q)
        c1, c1b = commit(TOY, m1, s1), commit(TOY, m1, s2)
        if not verify_eq(TOY, c1, c1b,
                         prove_eq(TOY, c1, c1b, Opening(m1, s1), Opening(m1, s2), rng)):
            completeness_failures += 1
        c2 = commit(TOY, m2, s2)
        if not verify_neq(TOY, c1, c2,
                          prove_neq(TOY, c1, c2, Opening(m1, s1), Opening(m2, s2), rng)):
            completeness_failures += 1
    if completeness_failures:
        problems.append(f"{completeness_failures} completeness failures")

    # soundness: 1000 random forged equality proofs for *unequal* messages
    # never verify on the 256-bit group
    secp = setup("secp256k1", b"\x01")
    rng = random.Random(1002)
    accepts = 0
    c1 = commit(secp, 1, 5)
    c2 = commit(secp, 2, 6)
    for i in range(1000):
        forged = EqProof(
            t=secp.backend.hash_to_group(b"acceptance/forgery", i.to_bytes(4, "big")),
            eta=rng.randrange(secp.q),
        )
        if verify_eq(secp, c1, c2, forged):
            accepts += 1
    if accepts:
        problems.append(f"{accepts} forged proofs accepted on secp256k1")

    # wire sizes on the 256-bit group: 512/768/1024-bit objects
    eq = prove_eq(secp, c1, commit(secp, 1, 7), Opening(1, 5), Opening(1, 7), rng)
    neq = prove_neq(secp, c1, c2, Opening(1, 5), Opening(2, 6), rng)
    sizes = (
        len(serialize_commitment(secp, c1)) * 8,
        len(serialize_eq_proof(secp, eq)) * 8,
        len(serialize_neq_proof(secp, neq)) * 8,
    )
    if sizes != (512, 768, 1024):
        problems.append(f"serialized sizes {sizes} != (512, 768, 1024)")

    # soundness of the inequality proof against the forgery the former
    # two-equation verifier accepted: commitments to one message and a proof
    # made from the blinding difference alone
    g, c1b = secp.backend, commit(secp, 1, 9)
    neq_accepts = 0
    for _ in range(10):
        a, e = rng.randrange(secp.q), rng.randrange(secp.q)
        t = g.mul(a + 1, secp.P, e, secp.Q)
        delta = _challenge(secp, NEQ_TAG, c1.value, c1b.value, t)
        forged = NeqProof(t=t, eta1=(a + 1) % secp.q, eta2=(delta * (5 - 9) + e) % secp.q)
        neq_accepts += verify_neq(secp, c1, c1b, forged)
    if neq_accepts:
        problems.append(f"{neq_accepts} forged inequality proofs accepted on secp256k1")

    _report(
        "criterion 5 (proof completeness, soundness, known answers)",
        not problems,
        ("1000/1000 proofs verified, 0/1000 forgeries accepted, "
         "0/10 inequality forgeries for one message accepted, "
         "known answers bit-exact, sizes 512/768/1024 bits"
         if not problems else "; ".join(problems)),
    )


# ---------------------------------------------------------------------------
# 6. randomized contract fuzz: conservation and defined terminal states
# ---------------------------------------------------------------------------


def _fuzz_episode(seed: int) -> tuple[int, int, set, Ledger]:
    """One random call/timing sequence; returns (executed, rejected, clause
    kinds, ledger).

    Every operation either succeeds or raises a typed contract/ledger error;
    after each step money conservation must hold, and after the drain phase
    every contract must sit in a terminal state with an empty escrow.
    """
    rng = random.Random(seed)
    params = rng.choice(list(PARAM_SETS.values()))
    w, d, t, b, ch = params.w, params.d, params.t, params.b, params.ch
    T1, T2, T3, T4, T5 = 10, 20, 30, 15, 35

    client, ttp = AccountId("client"), AccountId("ttp")
    clouds = [AccountId("cloud1"), AccountId("cloud2")]
    funding = 10 * (2 * w + ch + 2 * d + t + b)
    ledger = Ledger({client: funding, clouds[0]: funding, clouds[1]: funding, ttp: funding})
    minted = ledger.total()
    parties = [client, ttp, *clouds]

    m_true = digest(TOY, b"fuzz result")
    m_wrong = (m_true + 1) % TOY.q
    openings: dict = {}

    def fresh_com(m: int):
        s = rng.randrange(TOY.q)
        com = commit(TOY, m, s)
        openings[com] = Opening(m, s)
        return com

    def random_com():
        return fresh_com(rng.choice((m_true, m_wrong, rng.randrange(TOY.q))))

    def junk_eq() -> EqProof:
        return EqProof(t=TOY.backend.hash_to_group(b"fuzz/junk", rng.randbytes(8)),
                       eta=rng.randrange(TOY.q))

    def eq_between(ca, cb):
        oa, ob = openings.get(ca), openings.get(cb)
        if oa and ob and oa.m == ob.m and rng.random() < 0.85:
            return prove_eq(TOY, ca, cb, oa, ob, rng)
        return junk_eq()

    def arbiter_nizk(com_y, com_yt):
        """eq/neq/None for one worker, mostly genuine, sometimes junk."""
        if com_y is None or com_y not in openings or rng.random() < 0.1:
            return None
        oy, oyt = openings[com_y], openings[com_yt]
        if rng.random() < 0.1:
            return junk_eq()
        if oy.m == oyt.m:
            return prove_eq(TOY, com_y, com_yt, oy, oyt, rng)
        return prove_neq(TOY, com_y, com_yt, oy, oyt, rng)

    pc = cc = tc = None
    executed = rejected = 0

    def op_advance():
        ledger.advance_time(rng.randint(1, 4))

    def op_pc_create():
        nonlocal pc
        pc = PrisonersContract.create(
            ledger, TOY, client, ttp, random_com(), random_com(), w, d, ch, T1, T2, T3,
        )

    def op_pc_bid():
        pc.bid(rng.choice(clouds) if rng.random() < 0.8 else rng.choice(parties))

    def op_pc_deliver():
        pc.deliver(rng.choice(clouds), random_com())

    def op_pc_pay():
        delivered = [pc.delivered.get(wk) for wk in pc.workers]
        if len(delivered) == 2 and all(delivered) and rng.random() < 0.7:
            proof = eq_between(delivered[0], delivered[1])
        else:
            proof = None if rng.random() < 0.5 else junk_eq()
        pc.pay(rng.choice((client, client, client, ttp)), proof)

    def op_pc_dispute():
        com_yt = fresh_com(m_true)
        nizks = [arbiter_nizk(pc.delivered.get(wk), com_yt) for wk in pc.workers]
        nizks += [None] * (2 - len(nizks))
        pc.dispute(rng.choice((ttp, ttp, ttp, client)), com_yt, nizks[0], nizks[1])

    def op_cc_create():
        nonlocal cc
        creator = rng.choice(clouds) if rng.random() < 0.8 else rng.choice(parties)
        other = (next(cl for cl in clouds if cl != creator)
                 if creator in clouds else rng.choice(clouds))
        cc = ColludersContract.create(
            ledger, pc, creator, other, t, b, T4, T5, random_com(), random_com(),
        )

    def op_cc_join():
        cc.join(cc.other if rng.random() < 0.8 else rng.choice(parties))

    def op_cc_enforce():
        cc.enforce(rng.choice(clouds) if rng.random() < 0.8 else rng.choice(parties))

    def op_tc_create():
        nonlocal tc
        tc = TraitorsContract.create(
            ledger, pc, cc, rng.choice((client, client, client, ttp)), rng.choice(clouds),
        )

    def op_tc_join_or_deliver():
        if tc.state is TCState.CREATED or rng.random() < 0.2:
            tc.join(tc.traitor if rng.random() < 0.8 else rng.choice(clouds))
        else:
            tc.deliver(tc.traitor if rng.random() < 0.8 else rng.choice(clouds),
                       random_com())

    def op_tc_check():
        record = pc.dispute_record if pc is not None else None
        if record is not None and tc.com_yprime is not None and rng.random() < 0.8:
            proof = eq_between(tc.com_yprime, record.com_yt)
        else:
            proof = None if rng.random() < 0.5 else junk_eq()
        tc.check(rng.choice((client, client, client, clouds[1])), proof)

    for _ in range(35):
        # ops currently worth trying, weighted toward state progress
        available = [op_advance]
        if pc is None:
            available += [op_pc_create] * 5
        else:
            available += [op_pc_bid] * 3 + [op_pc_deliver] * 3 + [op_pc_pay, op_pc_dispute]
            if cc is None:
                available += [op_cc_create] * 2
            else:
                available += [op_cc_join] * 2 + [op_cc_enforce]
                if tc is None:
                    available += [op_tc_create] * 2
            if tc is not None:
                available += [op_tc_join_or_deliver] * 2 + [op_tc_check]
        try:
            rng.choice(available)()
            executed += 1
        except (ContractError, LedgerError):
            rejected += 1
        ledger.check_conservation()
        assert min(ledger.balances.values()) >= 0

    # drain: run every timer past the last deadline, then settle any open
    # coalition (possible once the outsourcing contract is DONE)
    while ledger.clock <= T5:
        ledger.advance_time(5)
    if cc is not None and cc.state is CCState.COLLUDED:
        cc.enforce(cc.creator)
        executed += 1
    ledger.check_conservation()
    assert ledger.total() == minted
    for contract, terminal in (
        (pc, (PCState.DONE, PCState.ABORTED)),
        (cc, (CCState.DONE, CCState.ABORTED)),
        (tc, (TCState.DONE, TCState.ABORTED)),
    ):
        if contract is not None:
            assert contract.state in terminal, f"{contract.account.id}: {contract.state}"
            assert ledger.balance(contract.account) == 0, f"stuck escrow {contract.account.id}"

    kinds = set()
    for entry in ledger.log:
        for kind in ("pay", "dispute", "enforce", "check", "timer"):
            if f"/{kind}/" in entry["tag"]:
                kinds.add(kind)
    return executed, rejected, kinds, ledger


def test_criterion_6_randomized_contract_fuzz():
    start = time.monotonic()
    executed = rejected = 0
    kinds: set = set()
    for seed in range(1000):
        ok_ops, bad_ops, episode_kinds, _ = _fuzz_episode(seed)
        executed += ok_ops
        rejected += bad_ops
        kinds |= episode_kinds
    elapsed = time.monotonic() - start
    # meaningful coverage: every settlement family fired somewhere in the run
    required = {"pay", "dispute", "enforce", "check", "timer"}
    ok = required <= kinds and rejected > 0
    _report(
        "criterion 6 (randomized conservation fuzz)",
        ok,
        f"1000 episodes, {executed} accepted + {rejected} rejected calls, "
        f"settlement kinds {sorted(kinds)}, conservation and terminal-state "
        f"invariants held, {elapsed:.2f}s",
    )


# Frozen before the contracts' escrow transitions were folded into one helper.
# The fuzz reaches timer, abort and rejected-call paths that no scenario
# does; seeds 0-999 hash to ``e812257645aeaa54...`` the same way.
FUZZ_LOG_DIGEST = "31167948456f275b0b0ae25345f0e7c0726c3dbaf7593a0f88f5c38f96542e05"


def test_fuzz_ledger_logs_are_byte_identical():
    h = hashlib.sha256()
    for seed in range(300):
        h.update(json.dumps(_fuzz_episode(seed)[3].log, sort_keys=True).encode())
    assert h.hexdigest() == FUZZ_LOG_DIGEST


# ---------------------------------------------------------------------------
# 7. the client never pays more than 2w
# ---------------------------------------------------------------------------


def test_criterion_7_client_outlay_never_exceeds_two_payments():
    strategies = [
        CloudStrategy(role, report, action)
        for role in Role for report in ReportChoice for action in CtpAction
    ]
    checked = full_payment_runs = 0
    violations = []
    for s1, s2 in itertools.product(strategies, strategies):
        if s1.coalition_role is Role.INITIATE and s2.coalition_role is Role.INITIATE:
            continue  # the one inconsistent pairing
        out = run_scenario(BASE, Task(), s1, s2, TOY, seed=5)
        checked += 1
        spent = -out.deltas["client"]
        if spent > 2 * BASE.w:
            violations.append((s1, s2, spent))
        if any("/pay/8b" in clause for clause in out.settlement_clauses):
            full_payment_runs += 1
            if spent != 2 * BASE.w:
                violations.append((s1, s2, "full payment", spent))
    ok = not violations and full_payment_runs > 0
    _report(
        "criterion 7 (client outlay bounded by 2w)",
        ok,
        f"{checked} consistent strategy pairs; outlay <= {2 * BASE.w} everywhere, "
        f"== {2 * BASE.w} on all {full_payment_runs} full-payment runs"
        + (f"; violations: {violations[:3]}" if violations else ""),
    )
