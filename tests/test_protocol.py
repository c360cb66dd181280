"""End-to-end scenario runs: terminal labels, exact money deltas, invariants.

The expected per-cloud deltas below were frozen by hand from the contract
clause arithmetic before the driver existed; they serve as an independent
oracle for every cell of the four outcome families.
"""

import gc
import hashlib
import itertools
import json
import random

import pytest

from countercollusion import crypto, protocol
from countercollusion.contracts import PrisonersContract, TraitorsContract
from countercollusion.crypto import (CryptoError, Opening, commit, digest, prove_eq, prove_neq,
                                     setup)
from countercollusion.gametheory import build_game, payoff_crosscheck
from countercollusion.ledger import Params
from countercollusion.protocol import (
    CloudStrategy,
    CtpAction,
    ReportChoice,
    Role,
    Schedule,
    ScenarioError,
    Task,
    run_scenario,
)

W, C, CH, D, T, B = 100, 10, 201, 212, 309, 5
Z = W - C + D - CH  # 101
BASE = Params(w=W, c=C, ch=CH, d=D, t=T, b=B)
TASK = Task()
TOY = setup("toy")

ACTIONS = (CtpAction.FX, CtpAction.R, CtpAction.OTHER)
#: the 48 static strategies
STRATEGIES = [CloudStrategy(r, rc, a) for r in Role for rc in ReportChoice for a in CtpAction]


def strat(role=Role.HONEST, report=ReportChoice.NO_REPORT, action=CtpAction.FX):
    return CloudStrategy(coalition_role=role, report_choice=report, ctp_action=action)


def run(s1, s2, **kw):
    kw.setdefault("seed", 7)
    kw.setdefault("gp", TOY)
    return run_scenario(BASE, TASK, s1, s2, **kw)


# (first role, second role) cloud deltas per terminal, frozen by hand
G1_TABLE = {
    4: (W - C, W - C), 5: (Z, -D), 6: (Z, -D),
    7: (-D, Z), 8: (W, W), 9: (-D, -D),
    10: (-D, Z), 11: (-D, -D), 12: (-D, -D),
}

G2_TABLE = {  # (LDR, FLR)
    6: (W - C, W - C), 7: (Z - T - B, -D + T + B), 8: (Z, -D),
    9: (-D + T, Z - T), 10: (W - B, W + B), 11: (-D + T, -D - T),
    12: (-D, Z), 13: (-D - T - B, -D + T + B), 14: (-D, -D),
}

G3_TABLE = {  # (OTH, TRA)
    13: (W - C, W - C), 14: (Z, -D), 15: (Z, -D),
    16: (-D, Z), 17: (W, W), 18: (-D, -D),
    19: (-D, Z), 20: (-D, -D), 21: (-D, -D),
    22: (W - C, W - C - CH), 23: (Z, -D + W - C), 24: (Z, -D + W - C),
    25: (-D, Z), 26: (-D, Z), 27: (-D, Z),
    28: (-D, Z), 29: (-D, Z), 30: (-D, Z),
    31: (W - C, W - C - CH), 32: (Z, -D), 33: (Z, -D),
    34: (-D, Z), 35: (-D, -D), 36: (-D, -D),
    37: (-D, Z), 38: (-D, -D), 39: (-D, -D),
}

G4_TABLE = {  # (LDR, FLR)
    15: (W - C, W - C), 16: (Z - T - B, -D + T + B), 17: (Z, -D),
    18: (-D + T, Z - T), 19: (W - B, W + B), 20: (-D + T, -D - T),
    21: (-D, Z), 22: (-D - T - B, -D + T + B), 23: (-D, -D),
    24: (W - C, W - C - CH), 25: (Z - T - B, -D + W - C + T + B), 26: (Z, -D + W - C),
    27: (-D + T, Z - T), 28: (-D - B, Z + B), 29: (-D + T, Z - T),
    30: (-D, Z), 31: (-D - T - B, Z + T + B), 32: (-D, Z),
    33: (W - C, W - C - CH), 34: (Z - T - B, -D + T + B), 35: (Z, -D),
    36: (-D + T, Z - T), 37: (-D - B, -D + B), 38: (-D + T, -D - T),
    39: (-D, Z), 40: (-D - T - B, -D + T + B), 41: (-D, -D),
}


def check_invariants(outcome):
    assert sum(outcome.deltas.values()) == 0, "money not conserved across parties"
    assert outcome.deltas["client"] >= -2 * W, "client outlay exceeds 2w"
    assert outcome.deltas["costs"] >= 0
    if any("/pay/8b" in cl for cl in outcome.settlement_clauses):
        assert outcome.deltas["client"] == -2 * W


# ---------------------------------------------------------------------------
# Plain outsourcing (no coalition, no reporting)
# ---------------------------------------------------------------------------


def test_honest_run_exact_flows():
    out = run(strat(), strat())
    assert out.terminal_label == "G1:v4"
    assert out.game_family == "G1"
    assert out.roles == {"cloud1": "C1", "cloud2": "C2"}
    assert out.deltas == {
        "client": -2 * W, "cloud1": W - C, "cloud2": W - C, "ttp": 0, "costs": 2 * C,
    }
    assert "prisoners/pay/8b" in out.settlement_clauses


def test_plain_band_all_cells():
    for i, a1 in enumerate(ACTIONS):
        for j, a2 in enumerate(ACTIONS):
            out = run(strat(action=a1), strat(action=a2))
            n = 4 + 3 * i + j
            assert out.terminal_label == f"G1:v{n}"
            assert (out.deltas["cloud1"], out.deltas["cloud2"]) == G1_TABLE[n]
            check_invariants(out)


def test_withhold_labeled_with_other_wrong_values():
    out = run(strat(), strat(action=CtpAction.WITHHOLD))
    assert out.terminal_label == "G1:v6"
    assert (out.deltas["cloud1"], out.deltas["cloud2"]) == (Z, -D)
    assert out.deltas["costs"] == C  # only cloud1 computed
    out = run(strat(action=CtpAction.WITHHOLD), strat(action=CtpAction.WITHHOLD))
    assert out.terminal_label == "G1:v12"
    assert (out.deltas["cloud1"], out.deltas["cloud2"]) == (-D, -D)
    assert "prisoners/pay/8a" in out.settlement_clauses


# ---------------------------------------------------------------------------
# Coalition without reporting
# ---------------------------------------------------------------------------


def test_coalition_agreed_result_exact_flows():
    out = run(strat(Role.INITIATE, action=CtpAction.R), strat(Role.ACCEPT, action=CtpAction.R))
    assert out.terminal_label == "G2:v10"
    assert out.roles == {"cloud1": "LDR", "cloud2": "FLR"}
    assert out.deltas == {
        "client": -2 * W, "cloud1": W - B, "cloud2": W + B, "ttp": 0, "costs": 0,
    }
    assert "colluders/enforce/5a" in out.settlement_clauses
    assert "prisoners/pay/8b" in out.settlement_clauses


def test_coalition_band_all_cells():
    for i, aL in enumerate(ACTIONS):
        for j, aF in enumerate(ACTIONS):
            out = run(strat(Role.INITIATE, action=aL), strat(Role.ACCEPT, action=aF))
            n = 6 + 3 * i + j
            assert out.terminal_label == f"G2:v{n}"
            assert (out.deltas["cloud1"], out.deltas["cloud2"]) == G2_TABLE[n]
            check_invariants(out)


def test_coalition_roles_follow_the_initiator():
    out = run(strat(Role.ACCEPT, action=CtpAction.R), strat(Role.INITIATE, action=CtpAction.R))
    assert out.terminal_label == "G2:v10"
    assert out.roles == {"cloud2": "LDR", "cloud1": "FLR"}
    assert out.deltas["cloud2"] == W - B and out.deltas["cloud1"] == W + B


def test_coalition_follower_withholds():
    out = run(strat(Role.INITIATE, action=CtpAction.R), strat(Role.ACCEPT, action=CtpAction.WITHHOLD))
    assert out.terminal_label == "G2:v11"
    assert (out.deltas["cloud1"], out.deltas["cloud2"]) == (-D + T, -D - T)


def test_rejected_offer_falls_back_to_plain_band():
    out = run(strat(Role.INITIATE, action=CtpAction.FX), strat(Role.REJECT, action=CtpAction.FX))
    assert out.terminal_label == "G1:v4"
    # offer deposit came back: same flows as the honest run
    assert out.deltas["cloud1"] == W - C and out.deltas["cloud2"] == W - C


# ---------------------------------------------------------------------------
# Reporting without a genuine coalition (decoy contract)
# ---------------------------------------------------------------------------


def test_report_correct_both_honest_exact_flows():
    out = run(strat(), strat(report=ReportChoice.REPORT_CORRECT))
    assert out.terminal_label == "G3:v22"
    assert out.roles == {"cloud1": "OTH", "cloud2": "TRA"}
    assert out.deltas == {
        "client": -2 * W, "cloud1": W - C, "cloud2": W - C - CH, "ttp": CH, "costs": 2 * C,
    }
    assert "prisoners/dispute/10a" in out.settlement_clauses
    assert "traitors/check/8a" in out.settlement_clauses
    # the reporter fabricated a coalition contract and its deposit came back
    tags = [e["tag"] for e in out.transcript]
    assert "colluders/create/escrow" in tags and "colluders/timer/abort" in tags


def test_report_winning_reporter_exact_flows():
    out = run(strat(action=CtpAction.R), strat(report=ReportChoice.REPORT_CORRECT))
    assert out.terminal_label == "G3:v25"
    assert out.deltas == {
        "client": -W, "cloud1": -D, "cloud2": Z, "ttp": CH, "costs": C,
    }
    assert "prisoners/dispute/10c" in out.settlement_clauses
    assert "traitors/check/8d" in out.settlement_clauses


def test_report_bands_all_cells():
    for rep, choice in ((1, ReportChoice.REPORT_CORRECT), (2, ReportChoice.REPORT_WRONG)):
        for i, aO in enumerate(ACTIONS):
            for j, aT in enumerate(ACTIONS):
                out = run(strat(action=aO), strat(report=choice, action=aT))
                n = 13 + 9 * rep + 3 * i + j
                assert out.terminal_label == f"G3:v{n}"
                assert (out.deltas["cloud1"], out.deltas["cloud2"]) == G3_TABLE[n]
                assert out.deltas["ttp"] == CH  # a report always forces arbitration
                check_invariants(out)


def test_traitor_module_without_report_relabels_plain_band():
    for i, a1 in enumerate(ACTIONS):
        for j, a2 in enumerate(ACTIONS):
            out = run(strat(action=a1), strat(action=a2), traitor_enabled=True)
            n = 13 + 3 * i + j
            assert out.terminal_label == f"G3:v{n}"
            assert out.roles == {"cloud1": "OTH", "cloud2": "TRA"}
            assert (out.deltas["cloud1"], out.deltas["cloud2"]) == G3_TABLE[n]


# ---------------------------------------------------------------------------
# Coalition plus reporting
# ---------------------------------------------------------------------------


def test_coalition_report_exact_flows():
    out = run(
        strat(Role.INITIATE, action=CtpAction.R),
        strat(Role.ACCEPT, ReportChoice.REPORT_CORRECT, CtpAction.R),
    )
    assert out.terminal_label == "G4:v28"
    assert out.roles == {"cloud1": "LDR", "cloud2": "FLR"}
    assert out.deltas == {
        "client": -W, "cloud1": -D - B, "cloud2": Z + B, "ttp": CH, "costs": C,
    }
    for clause in ("prisoners/dispute/10b", "traitors/check/8c", "colluders/enforce/5a"):
        assert clause in out.settlement_clauses


def test_coalition_report_bands_all_cells():
    for rep, choice in ((1, ReportChoice.REPORT_CORRECT), (2, ReportChoice.REPORT_WRONG)):
        for i, aL in enumerate(ACTIONS):
            for j, aF in enumerate(ACTIONS):
                out = run(
                    strat(Role.INITIATE, action=aL),
                    strat(Role.ACCEPT, choice, aF),
                )
                n = 15 + 9 * rep + 3 * i + j
                assert out.terminal_label == f"G4:v{n}"
                assert (out.deltas["cloud1"], out.deltas["cloud2"]) == G4_TABLE[n]
                assert out.deltas["ttp"] == CH
                check_invariants(out)


def test_coalition_with_traitor_module_but_no_report():
    for i, aL in enumerate(ACTIONS):
        for j, aF in enumerate(ACTIONS):
            out = run(
                strat(Role.INITIATE, action=aL),
                strat(Role.ACCEPT, action=aF),
                traitor_enabled=True,
            )
            n = 15 + 3 * i + j
            assert out.terminal_label == f"G4:v{n}"
            assert (out.deltas["cloud1"], out.deltas["cloud2"]) == G4_TABLE[n]


def test_both_report_but_the_follower_wins():
    out = run(
        strat(Role.INITIATE, ReportChoice.REPORT_CORRECT, CtpAction.R),
        strat(Role.ACCEPT, ReportChoice.REPORT_CORRECT, CtpAction.R),
    )
    assert out.terminal_label == "G4:v28"
    denied = [e for e in out.transcript if e["tag"] == "protocol/report-denied"]
    assert denied and denied[0]["actor"] == "cloud1"


def test_both_report_without_coalition_cloud1_wins_on_a_decoy():
    honest_reporter = strat(report=ReportChoice.REPORT_CORRECT, action=CtpAction.FX)
    out = run(honest_reporter, honest_reporter)
    assert out.terminal_label == "G3:v22"
    assert out.roles == {"cloud1": "TRA", "cloud2": "OTH"}
    reports = [(e["tag"], e["actor"], e.get("traitor")) for e in out.transcript
               if e["tag"] in ("colluders/create", "traitors/create", "protocol/report-denied")]
    assert reports == [
        ("colluders/create", "cloud1", None),
        ("traitors/create", "client", "cloud1"),
        ("protocol/report-denied", "cloud2", None),
    ]


def test_initiator_reporting_kills_its_own_coalition():
    out = run(
        strat(Role.INITIATE, ReportChoice.REPORT_CORRECT, CtpAction.FX),
        strat(Role.ACCEPT, action=CtpAction.FX),
    )
    # nobody joined the reported offer, so this is reporting-without-coalition
    assert out.terminal_label == "G3:v22"
    assert out.roles == {"cloud1": "TRA", "cloud2": "OTH"}
    assert out.deltas["cloud1"] == W - C - CH
    assert out.deltas["cloud2"] == W - C


# ---------------------------------------------------------------------------
# Cross-cutting invariants
# ---------------------------------------------------------------------------


def test_compute_cost_charged_once_per_cloud():
    out = run(strat(), strat(report=ReportChoice.REPORT_CORRECT))
    # cloud2 computed for both its delivery and its report: charged once
    assert out.deltas["costs"] == 2 * C


def test_task_cost_override_flows_to_sink():
    out = run_scenario(BASE, Task(cost=25), strat(), strat(), TOY, seed=7)
    assert out.deltas["costs"] == 50
    assert out.deltas["cloud1"] == W - 25


def test_runs_are_deterministic():
    a = run(strat(Role.INITIATE, action=CtpAction.R), strat(Role.ACCEPT, ReportChoice.REPORT_WRONG, CtpAction.R))
    b = run(strat(Role.INITIATE, action=CtpAction.R), strat(Role.ACCEPT, ReportChoice.REPORT_WRONG, CtpAction.R))
    assert a == b


def test_group_backend_does_not_change_money():
    toy = run(strat(), strat())
    big = run(strat(), strat(), gp=setup("secp256k1"))
    assert toy.terminal_label == big.terminal_label
    assert toy.deltas == big.deltas


def test_two_initiators_rejected():
    with pytest.raises(ScenarioError) as err:
        run(strat(Role.INITIATE), strat(Role.INITIATE))
    assert err.value.code == "inconsistent-strategies"


def test_reporting_needs_the_traitor_module():
    with pytest.raises(ScenarioError) as err:
        run(strat(), strat(report=ReportChoice.REPORT_CORRECT), traitor_enabled=False)
    assert err.value.code == "inconsistent-strategies"


def test_invalid_params_rejected():
    bad = Params(w=W, c=C, ch=199, d=D, t=T, b=B)
    with pytest.raises(ScenarioError) as err:
        run_scenario(bad, TASK, strat(), strat(), TOY)
    assert err.value.code == "invalid-params"


def test_invalid_schedule_rejected():
    with pytest.raises(ScenarioError) as err:
        run(strat(), strat(), schedule=Schedule(T1=1, T2=4, T3=5, T4=2, T5=6))
    assert err.value.code == "invalid-schedule"


def test_custom_schedule_works():
    out = run(strat(), strat(), schedule=Schedule(T1=6, T2=9, T3=12, T4=7, T5=14))
    assert out.terminal_label == "G1:v4"
    assert out.deltas["cloud1"] == W - C


# ---------------------------------------------------------------------------
# Task evaluation
# ---------------------------------------------------------------------------


def test_iterated_hash_task():
    task = Task(kind="iterated-hash", x="ab01", rounds=3)
    expected = bytes.fromhex("ab01")
    for _ in range(3):
        expected = hashlib.sha256(expected).digest()
    assert task.evaluate() == expected


def test_arithmetic_task():
    assert Task(kind="arithmetic-expression", x="5", expr="x**2 + 1").evaluate() == b"26"
    assert Task(kind="arithmetic-expression", x="-3", expr="2*x - 1").evaluate() == b"-7"


@pytest.mark.parametrize("x, expr", [
    *(pytest.param("5", expr, id=expr)
      for expr in ("__import__('os')", "x / 2", "x | 1", "foo", "x.bit_length()",
                   "True", "x + False")),
    pytest.param("5", "x" + "+x" * 200000, id="sum-of-200001"),
    pytest.param("5", "-" * 100000 + "x", id="negated-100000-times"),
    pytest.param("5", "-" * 999 + "x", id="negated-999-times"),
    # results past the interpreter's int-to-str digit limit
    pytest.param("9" * 4000, "x*x", id="8000-digit-result"),
    pytest.param(str(2**64 - 1), "x**64*x**64*x**64*x**64", id="4932-digit-result"),
])
def test_arithmetic_task_rejects_non_arithmetic(x, expr):
    with pytest.raises(ScenarioError) as err:
        Task(kind="arithmetic-expression", x=x, expr=expr).evaluate()
    assert err.value.code == "invalid-task"


def test_unknown_task_kind_rejected():
    with pytest.raises(ScenarioError):
        Task(kind="mystery").evaluate()


def test_arithmetic_task_can_back_a_full_run():
    task = Task(kind="arithmetic-expression", x="12", expr="x**3 - x")
    out = run_scenario(BASE, task, strat(), strat(), TOY, seed=3)
    assert out.terminal_label == "G1:v4"
    assert out.deltas["cloud1"] == W - C


def test_neq_proof_with_challenge_zero_verifies():
    """About 1 in 509 toy proofs gets the challenge 0, which leaves each
    ``eta_i`` the bare nonce; the proof must verify all the same (perfect
    completeness).  The challenge depends on the commitments and ``t`` only,
    so the search runs over openings and seeds."""
    import random

    from countercollusion.crypto import (
        NEQ_TAG, Opening, _challenge, commit, prove_neq, setup, verify_neq,
    )

    gp = setup("toy", b"\x01")
    for s1 in range(gp.q):
        c1, c2 = commit(gp, 7, s1), commit(gp, 9, 13)
        for seed in range(2000):
            proof = prove_neq(gp, c1, c2, Opening(7, s1), Opening(9, 13), random.Random(seed))
            if _challenge(gp, NEQ_TAG, c1.value, c2.value, proof.t) == 0:
                assert verify_neq(gp, c1, c2, proof)
                return
    pytest.fail("no toy proof with the challenge 0")


# Frozen before the contracts' escrow transitions were folded into one helper;
# any change to a transfer, a clause tag or a record field shows.
SCENARIO_SUBSET_DIGEST = "50586d7b1919e420f3748f2a141acf2fcf962738dbfe0daf8ebd3c50a5f5f6ec"
# All 6480 runs of ``scenario_runs_digest(consistent_pairs())``, which the CI
# workflow checks (about 2.5 s).
SCENARIO_GRID_DIGEST = "0cb65ca9e7fe3f0ae01a739567d55f096068de0c65a43339138556e01c7691c8"


def consistent_pairs():
    """The 2160 pairs of the 48 static strategies without two initiators."""
    return [(s1, s2) for s1, s2 in itertools.product(STRATEGIES, STRATEGIES)
            if not (s1.coalition_role is Role.INITIATE and s2.coalition_role is Role.INITIATE)]


def scenario_runs_digest(pairs):
    """SHA-256 over the runs of ``pairs`` on toy at seed 5, with the traitor
    module left to the strategies, forced on and forced off: each run's
    label, deltas, roles, transcript and clauses (or the error code)."""
    h = hashlib.sha256()
    for s1, s2 in pairs:
        for traitor_enabled in (None, True, False):
            try:
                out = run_scenario(BASE, TASK, s1, s2, TOY, seed=5,
                                   traitor_enabled=traitor_enabled)
                run = [out.terminal_label, out.game_family, out.deltas, out.roles,
                       list(out.transcript), list(out.settlement_clauses)]
            except ScenarioError as exc:
                run = ["error", exc.code]
            h.update(json.dumps(run, sort_keys=True).encode())
    return h.hexdigest()


def test_scenario_runs_are_byte_identical():
    """Every 10th consistent strategy pair hashes as frozen.  The CI
    workflow checks the full grid against ``SCENARIO_GRID_DIGEST``."""
    pairs = consistent_pairs()
    assert len(pairs) == 2160
    assert scenario_runs_digest(pairs[::10]) == SCENARIO_SUBSET_DIGEST


def _per_play_ttp_resolve(ctp, task, received, rng):
    """``ttp_resolve`` as it was when each play drew its own arbiter stream:
    it recomputes the result and opens it afresh at every dispute."""
    gp = ctp.gp
    m_true = digest(gp, task.evaluate())
    s_t = rng.randrange(gp.q)
    com_yt = commit(gp, m_true, s_t)
    opening_t = Opening(m_true, s_t)
    nizks = []
    for worker in ctp.workers:
        com_y = ctp.delivered.get(worker)
        opening = received.get(worker)
        nizk = None
        if com_y is not None and opening is not None:
            prove = prove_eq if opening.m % gp.q == m_true else prove_neq
            try:
                nizk = prove(gp, com_y, com_yt, opening, opening_t, rng)
            except CryptoError as exc:
                if exc.code != "witness-mismatch":
                    raise
        nizks.append(nizk)
    ctp.dispute(ctp.ttp, com_yt, nizks[0], nizks[1])
    return opening_t


class _PerPlayStream:
    """The oracle for ``protocol.Prover``: the play's own stream
    ``Random(seed ^ 0x5EED)``, which ``_per_play_ttp_resolve`` draws at the
    dispute and from which the client's proofs are made on the spot."""

    def __init__(self, gp, task, seed):
        self.gp, self.task, self.rng = gp, task, random.Random(seed ^ 0x5EED)

    def prove(self, c1, c2, o1, o2):
        return prove_eq(self.gp, c1, c2, o1, o2, self.rng)


def _use_per_play_stream(patch):
    patch.setattr(protocol, "Prover", _PerPlayStream)
    patch.setattr(protocol, "ttp_resolve", lambda ctp, stream, openings:
                  _per_play_ttp_resolve(ctp, stream.task, openings, stream.rng))


def _received_proofs(monkeypatch, gp, seed, s1, s2, traitor_enabled, oracle=False):
    """Play one scenario and return what ``pay``, ``dispute`` and ``check``
    received besides the caller (proofs, and the arbiter's ``com_yt``), or
    the error code; with ``oracle``, over the per-play stream instead."""
    received = []
    with monkeypatch.context() as patch:
        for cls, name in ((PrisonersContract, "pay"), (PrisonersContract, "dispute"),
                          (TraitorsContract, "check")):
            call = getattr(cls, name)
            patch.setattr(cls, name, lambda contract, caller, *args, call=call, name=name:
                          received.append((name, args)) or call(contract, caller, *args))
        if oracle:
            _use_per_play_stream(patch)
        code = _outcome_or_code(run_scenario, BASE, TASK, s1, s2, gp, seed, traitor_enabled)
    return received if isinstance(code, protocol.Outcome) else code


def test_a_play_makes_the_proofs_of_its_own_stream(monkeypatch):
    """One play's prover draws the stream as each play drew it on its own:
    ``pay``, ``dispute`` and ``check`` receive the proofs the per-play
    stream makes, byte for byte, on every 40th consistent strategy pair
    with each traitor flag on toy, and on a few pairs on secp256k1.  None
    of these plays asks for one statement twice (see the next test)."""
    pairs = consistent_pairs()
    assert len(pairs) == 2160
    secp = setup("secp256k1")
    runs = [(TOY, seed, *pair, flag) for seed in (5, 59) for pair in pairs[::40]
            for flag in (None, True, False)]
    runs += [(secp, 7, strat(), strat(), None),  # honest, paid with an equality proof
             (secp, 7, strat(), strat(action=CtpAction.OTHER), None),  # arbitrated, clause 10c
             (secp, 7, strat(Role.INITIATE, action=CtpAction.R),
              strat(Role.ACCEPT, ReportChoice.REPORT_CORRECT), None)]  # arbitrated and checked
    disputes = checks = 0
    for run in runs:
        received = _received_proofs(monkeypatch, *run)
        assert received == _received_proofs(monkeypatch, *run, oracle=True)
        if not isinstance(received, str):
            disputes += any(name == "dispute" for name, _ in received)
            checks += any(name == "check" and args != (None,) for name, args in received)
    assert disputes > 100 and checks > 10


def test_a_play_that_asks_for_one_statement_twice_gets_one_proof(monkeypatch):
    """The exception to the per-play stream: at seed 61 on toy the
    reporter's side blinding equals its delivery blinding, so the traitor
    check asks for the statement the dispute proved for that cloud.  The
    prover hands out that proof again, where the per-play stream drew a
    fresh one; the verdicts and the outcome are the same."""
    s1, s2 = strat(), strat(Role.REJECT, ReportChoice.REPORT_CORRECT)
    (_, dispute), (_, check) = _received_proofs(monkeypatch, TOY, 61, s1, s2, None)
    (_, stream_dispute), (_, stream_check) = _received_proofs(monkeypatch, TOY, 61, s1, s2, None,
                                                              oracle=True)
    assert check == dispute[2:] and stream_dispute == dispute and stream_check != check
    outcome = run_scenario(BASE, TASK, s1, s2, TOY, 61)
    with monkeypatch.context() as patch:
        _use_per_play_stream(patch)
        assert run_scenario(BASE, TASK, s1, s2, TOY, 61) == outcome


@pytest.mark.parametrize("group", ["toy", "secp256k1"])
def test_an_honest_play_commits_nothing_for_the_arbiter(monkeypatch, group):
    """An honest play is paid without arbitration, so its prover never opens
    the arbiter's result: it makes as many commitments as the per-play
    stream, which committed ``com_yt`` only at a dispute."""
    gp, commits = setup(group), []
    counted = crypto.commit
    for module in (crypto, protocol):
        monkeypatch.setattr(module, "commit", lambda *args: commits.append(args) or counted(*args))
    honest = _received_proofs(monkeypatch, gp, 7, strat(), strat(), None)
    made = len(commits)
    assert honest == _received_proofs(monkeypatch, gp, 7, strat(), strat(), None, oracle=True)
    assert [name for name, _ in honest] == ["pay"] and made == len(commits) - made


def _outcome_or_code(play, *args):
    try:
        return play(*args)
    except ScenarioError as exc:
        return exc.code


def test_plays_of_one_engagement_equal_fresh_runs():
    """A crosscheck plays every cell from one engagement; each play must be
    the run ``run_scenario`` makes alone, whatever was played before it.  A
    play it rejects is rejected with the same code after another play."""
    plays = [(s1, s2, traitor_enabled)
             for s1, s2 in itertools.product(STRATEGIES[::3], STRATEGIES[::4])
             for traitor_enabled in (None, True, False)]
    fresh = [_outcome_or_code(run_scenario, BASE, TASK, s1, s2, TOY, 5, traitor_enabled)
             for s1, s2, traitor_enabled in plays]
    valid = [play for play, out in zip(plays, fresh) if isinstance(out, protocol.Outcome)]
    outcomes = iter(protocol.play_all(BASE, TASK, valid, TOY, 5))
    for play, out in zip(plays, fresh):
        if isinstance(out, protocol.Outcome):
            assert next(outcomes) == out
        else:
            after = protocol.play_all(BASE, TASK, [valid[0], play], TOY, 5)
            next(after)
            assert _outcome_or_code(next, after) == out
    assert next(outcomes, None) is None


def test_play_all_yields_each_plays_own_run():
    """``play_all`` over plays of every family, with the traitor module left
    to the strategies, forced on and forced off, and under a custom
    schedule: each outcome, transcript included, is that play's
    ``run_scenario``.  Two initiators are rejected as ``run_scenario``
    rejects them."""
    schedule = Schedule(T1=12, T2=25, T3=40, T4=18, T5=45)
    plays = [
        (strat(), strat(), None),
        (strat(action=CtpAction.R), strat(action=CtpAction.WITHHOLD), False),
        (strat(Role.INITIATE, action=CtpAction.R), strat(Role.ACCEPT, action=CtpAction.R), None),
        (strat(), strat(report=ReportChoice.REPORT_CORRECT), None),
        (strat(Role.INITIATE), strat(Role.ACCEPT, ReportChoice.REPORT_CORRECT, CtpAction.R), True),
        (strat(), strat(action=CtpAction.OTHER), True),
        (strat(Role.INITIATE, action=CtpAction.R), strat(Role.ACCEPT, action=CtpAction.FX), None),
        (strat(), strat(), None),
    ]
    outcomes = list(protocol.play_all(BASE, TASK, plays, TOY, 11, schedule))
    assert outcomes == [run(s1, s2, seed=11, traitor_enabled=traitor_enabled, schedule=schedule)
                        for s1, s2, traitor_enabled in plays]
    assert {out.game_family for out in outcomes} == {"G1", "G2", "G3", "G4"}
    two_initiators = [(strat(Role.INITIATE), strat(Role.INITIATE), None)]
    for play in (lambda: run(*two_initiators[0][:2]),
                 lambda: list(protocol.play_all(BASE, TASK, two_initiators, TOY, 7))):
        with pytest.raises(ScenarioError) as err:
            play()
        assert err.value.code == "inconsistent-strategies"


def _escrows(opening):
    """The contracts of ``opening`` in order of creation, a decoy coalition
    contract that only the traitor's contract references included."""
    ctc = opening.ctc or opening.ctt and opening.ctt.ctc
    return [contract for contract in (opening.ctp, ctc, opening.ctt) if contract is not None]


def _ledger_state(opening):
    """Everything a settlement may change on the ledger of ``opening`` and its
    contracts, copied: each contract's containers are copied one level down."""
    ledger = opening.ledger
    return (dict(ledger.balances), list(ledger.log), list(ledger.settlements), ledger.clock,
            len(ledger._timers),
            [{name: value.copy() if isinstance(value, (list, dict)) else value
              for name, value in vars(contract).items()} for contract in _escrows(opening)])


@pytest.mark.parametrize("s1,s2", [
    (strat(Role.INITIATE), strat(Role.ACCEPT, ReportChoice.REPORT_CORRECT)),
    (strat(Role.INITIATE), strat(Role.ACCEPT)),
    (strat(), strat(report=ReportChoice.REPORT_WRONG)),  # a decoy coalition contract
], ids=["coalition-report", "coalition", "decoy-report"])
def test_forks_of_one_opening_share_nothing_a_settlement_changes(s1, s2):
    """Every delivery pair settles its own fork of one opening; settling them
    all again in reverse order gives the same outcomes, which are the fresh
    plays, and leaves the opening as it was."""
    engagement = protocol._engage(BASE, TASK, TOY, 5, None)
    opening = protocol._open_play(engagement, s1, s2, None)
    before = _ledger_state(opening)
    pairs = [(s1._replace(ctp_action=a1), s2._replace(ctp_action=a2))
             for a1 in CtpAction for a2 in CtpAction]
    forks = [opening.fork() for _ in pairs]
    provers = [protocol.Prover(TOY, TASK, 5) for _ in range(2)]
    outcomes = [protocol._settle_play(engagement, provers[0], fork, *pair)
                for fork, pair in zip(forks, pairs)]
    again = [protocol._settle_play(engagement, provers[1], opening.fork(), *pair)
             for pair in reversed(pairs)]
    assert again[::-1] == outcomes
    assert outcomes == [run_scenario(BASE, TASK, *pair, TOY, 5) for pair in pairs]
    assert _ledger_state(opening) == before

    originals = _escrows(opening)
    for fork in forks:
        clones = _escrows(fork)
        assert [type(c) for c in clones] == [type(c) for c in originals]
        assert all(c.ledger is fork.ledger and c not in originals for c in clones)
        for clone in clones:
            for name in ("ctp", "ctc"):
                assert getattr(clone, name, None) is None or getattr(clone, name) in clones
        assert fork.ctp.reporter == opening.ctp.reporter == opening.reporter
        assert fork.ctp is clones[0] and (fork.ctt is None) == (opening.ctt is None)
    for name in ("workers", "delivered"):
        owned = [getattr(opening.ctp, name)] + [getattr(fork.ctp, name) for fork in forks]
        assert len({id(obj) for obj in owned}) == len(owned)


def _final(contract):
    return contract.state.value in ("DONE", "ABORTED")


def test_a_ledger_holds_the_timers_of_its_live_contracts_only(monkeypatch):
    """At t=4, where a play is forked, the ledger holds the timer of each
    contract that is not final, in order of creation; once the play is
    settled every contract is final and the ledger holds none."""
    settle, settled = protocol._settle_play, []

    def checked(eng, prover, opening, *strats):
        live = [c.on_timer for c in _escrows(opening) if not _final(c)]
        assert opening.ledger.clock == 4 and opening.ledger._timers == live
        outcome = settle(eng, prover, opening, *strats)
        assert opening.ledger._timers == [] and all(map(_final, _escrows(opening)))
        settled.append(outcome)
        return outcome

    monkeypatch.setattr(protocol, "_settle_play", checked)
    for gid, cells in (("g1", 9), ("g2", 11), ("g3", 27), ("g4", 29)):
        assert payoff_crosscheck(build_game(gid, BASE), TOY) == (cells, [])
    pairs = consistent_pairs()[::97]
    for s1, s2 in pairs:
        run_scenario(BASE, TASK, s1, s2, TOY, seed=5)
    assert len(settled) == 76 + len(pairs)


def test_a_settled_play_leaves_no_cyclic_garbage():
    """A settled play's ledger and contracts reference each other through no
    cycle, so reference counting frees them: with the cyclic collector off,
    the crosschecks of g1-g4 and a sample of scenario runs leave it
    nothing to collect."""
    gc.collect()
    gc.disable()
    try:
        for gid in ("g1", "g2", "g3", "g4"):
            assert payoff_crosscheck(build_game(gid, BASE._replace(t=314)), TOY)[1] == []
        for s1, s2 in consistent_pairs()[::29]:
            for traitor_enabled in (None, True):
                run_scenario(BASE, TASK, s1, s2, TOY, seed=5, traitor_enabled=traitor_enabled)
        assert gc.collect() == 0
    finally:
        gc.enable()
