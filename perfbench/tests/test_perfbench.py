"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, output
checks and count repeatability.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
from pathlib import Path

import pytest

import run
import spans
import speed
import workloads


def test_self_time_on_synthetic_nested_trace():
    rec = spans.Recorder()
    root = rec.add_span("cli", 0.0, 10.0)
    child = rec.add_span("protocol.run_scenario", 1.0, 7.0, parent=root)
    rec.add_span("crypto.group_mul", 2.0, 3.0, parent=child)
    rec.add_span("crypto.group_mul", 4.0, 6.5, parent=child)
    rec.add_span("ledger.transfer", 8.0, 9.0, parent=root)
    by_name, _ = spans.summarize(rec)
    assert by_name["cli"].total_s == 10.0
    assert by_name["cli"].self_s == pytest.approx(10.0 - 6.0 - 1.0)
    assert by_name["protocol.run_scenario"].self_s == pytest.approx(6.0 - 1.0 - 2.5)
    assert by_name["crypto.group_mul"].count == 2
    assert by_name["crypto.group_mul"].self_s == pytest.approx(3.5)
    assert by_name["ledger.transfer"].self_s == pytest.approx(1.0)
    assert sum(s.self_s for s in by_name.values()) == pytest.approx(10.0)


def test_scaling_follows_a_step_in_machine_speed():
    ref = speed.REFERENCE_S
    kernel = [ref] * 20 + [2 * ref] * 20
    factors = speed.scale_factors(kernel)
    assert factors[:20 - speed.HALF_WINDOW] == [1.0] * (20 - speed.HALF_WINDOW)
    assert factors[20 + speed.HALF_WINDOW:] == [0.5] * (20 - speed.HALF_WINDOW)
    # one slow kernel timing among steady ones leaves the scale alone
    assert speed.scale_factors([ref] * 5 + [10 * ref] + [ref] * 5) == [1.0] * 11


def test_latencies_are_cpu_times_at_the_reference_speed(tmp_path):
    loop = run.Loop(workloads.ToyAnalyze(3, tmp_path))
    loop.cpu = [0.010, 0.030, 0.020]
    loop.kernel = [2 * speed.REFERENCE_S] * 3
    loop.setups = [(0.080, 2 * speed.REFERENCE_S)]
    assert loop.latencies == pytest.approx([0.005, 0.015, 0.010])
    assert loop.ops_per_s == pytest.approx(100.0)
    assert loop.setup_s == pytest.approx([0.040])


def _originals(targets):
    return {(id(t.owner), t.attr): vars(t.owner)[t.attr] for t in targets}


def test_wrappers_restored_after_traced_run(tmp_path):
    targets = spans.default_targets()
    before = _originals(targets)
    wl = workloads.ToyAnalyze(3, tmp_path)
    op = wl.make(0)
    rec = spans.Recorder()
    with spans.tracing(rec, targets):
        assert all(vars(t.owner)[t.attr] is not before[(id(t.owner), t.attr)] for t in targets)
        result = wl.run(op)
    assert wl.check(op, result) == []
    assert len(rec.name) > 0 and rec.counters["ledger.log_entries"] > 0
    assert _originals(targets) == before
    with pytest.raises(RuntimeError):
        with spans.tracing(rec, targets):
            raise RuntimeError("op failed mid-trace")
    assert _originals(targets) == before


def test_every_public_function_of_crypto_is_wrapped_where_imported():
    wrapped = {(t.owner.__name__, t.attr) for t in spans.default_targets()
               if hasattr(t.owner, "__file__")}
    for name in ("verify_eq", "verify_neq"):
        assert ("countercollusion.contracts", name) in wrapped
    for name in ("commit", "prove_eq", "prove_neq", "setup", "digest"):
        assert ("countercollusion.protocol", name) in wrapped
    for name in ("run_scenario", "analyze_reference", "payoff_crosscheck", "main"):
        assert ("countercollusion.cli", name) in wrapped


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    wl = workloads.SecpScenarios(4, tmp_path_factory.mktemp("scen"))
    op = wl.make(0)
    toy_op = workloads.Op(0, op.args[:-1] + ["toy"], op.key, op.expect)
    return wl, op, wl.run(toy_op)


def test_scenario_check_accepts_the_reference_outcome(scenario):
    wl, op, result = scenario
    assert wl.check(op, result) == []


def test_scenario_check_flags_a_wrong_delta(scenario):
    wl, op, result = scenario
    bad = copy.deepcopy(result)
    bad.report["deltas"]["cloud1"] += 1
    problems = wl.check(op, bad)
    assert any("sum" in p for p in problems) and any("deltas differs" in p for p in problems)


def test_scenario_check_flags_a_wrong_exit_code(scenario):
    wl, op, result = scenario
    assert wl.check(op, workloads.Result(exit_code=3)) != []
    assert wl.check(op, workloads.Result(exit_code=4, report=result.report)) != []


def test_analyze_check_flags_a_wrong_exit_code(tmp_path):
    wl = workloads.ToyAnalyze(5, tmp_path)
    op = next(op for op in map(wl.make, range(10)) if op.expect["exit_code"] == 4)
    result = wl.run(op)
    assert result.exit_code == 4 and wl.check(op, result) == []
    result.exit_code = 0
    assert wl.check(op, result) == ["exit code 0, expected 4"]


def test_audit_check_flags_an_accepted_tampered_proof(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.SecpAudit, "ops", 4)
    wl = workloads.SecpAudit(6, tmp_path)
    ops = [wl.make(slot) for slot in range(wl.ops)]
    assert {op.args[0] for op in ops if not op.expect["valid"]} == {"eq", "neq"}
    for op in ops:
        assert wl.check(op, wl.run(op)) == []
        if not op.expect["valid"]:
            assert wl.check(op, workloads.Result(accepted=True)) == ["tampered record accepted"]


def test_audit_mix_follows_the_scenario_verifications(tmp_path):
    wl = workloads.SecpAudit(6, tmp_path)
    kinds = [kind for kind, valid in wl.slots if valid]
    per_scenario = wl.VERIFIES_PER_SCENARIO
    share = per_scenario["eq"] / (per_scenario["eq"] + per_scenario["neq"])
    assert abs(kinds.count("eq") / len(kinds) - share) < 0.01
    assert sorted(kind for kind, valid in wl.slots if not valid) == ["eq", "neq"]


def test_operations_are_fresh_and_keep_their_slot_stratum(tmp_path):
    wl = workloads.ToyAnalyze(9, tmp_path)
    rounds = [[wl.op(slot) for slot in range(wl.ops)] for _ in range(2)]
    assert len({op.key for ops in rounds for op in ops}) == 2 * wl.ops
    for first, second in zip(*rounds):
        assert first.args[2] == second.args[2]  # the game
        assert first.expect == second.expect


def test_a_repeated_input_is_drawn_again(tmp_path, monkeypatch):
    wl = workloads.ToyAnalyze(9, tmp_path)
    first = wl.op(0)
    drawn = iter([first, first, wl.make(0)])
    monkeypatch.setattr(wl, "make", lambda slot: next(drawn))
    assert wl.op(0).key != first.key


def test_params_lie_on_both_sides_of_the_g4_bound(tmp_path):
    wl = workloads.ToyAnalyze(7, tmp_path)
    codes = [wl.make(i).expect["exit_code"] for i in range(10)]
    assert sorted(codes) == [0] * 8 + [4] * 2


@pytest.mark.parametrize("cls", [workloads.SecpScenarios, workloads.ToyAnalyze, workloads.SecpAudit])
def test_counts_repeat_across_two_seeded_runs(cls, tmp_path, monkeypatch):
    monkeypatch.setattr(cls, "trace_ops", 4)
    counts = []
    for k in range(2):
        wl = cls(8, tmp_path)
        _, traced, metrics = run.traced_run(wl, 0, tmp_path / f"trace{k}.tsv.gz")
        assert traced.failed == 0
        counts.append({name: value for name, value in metrics.items()
                       if name.endswith(".count") or name in
                       ("ledger.log_entries", "protocol.neq_proof_yield", "cli.report_bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["crypto.group_mul.count"] > 0


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.layer_metric_specs()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
