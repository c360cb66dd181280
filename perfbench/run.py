"""Benchmark for countercollusion: one workload, one seed, one run.

    python3 perfbench/run.py --workload toy-analyze --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it runs the seed's first slots in passes, alternately plain
and with every layer wrapped (``spans.py``), and prints the per-layer
metrics and the tracing overhead.  Timings are CPU time, scaled to the
reference machine speed that ``speed.py`` defines.  The last line of
standard output is one JSON object; the lines before it state each metric
with its unit and sample count.  Exit code 0 when every operation passed its check,
1 when any failed, 2 on a usage or set-up error.  Scratch files go to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 15
RECORDED_PASSES = 3

# Times one cold import of the package plus its first ``crypto.setup``, then
# the speed kernel in the same interpreter.
SETUP_CODE = """\
import sys, time
t0 = time.process_time()
sys.path.insert(0, sys.argv[1])
import countercollusion.cli
from countercollusion import crypto
crypto.setup(sys.argv[2])
elapsed = time.process_time() - t0
sys.path.insert(0, sys.argv[3])
import statistics, speed
print(elapsed, statistics.median(speed.kernel() for _ in range(7)))
"""

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

#: Span groups reported per operation as ``.count``, ``.ms`` (summed span
#: durations) and ``.self_ms`` (durations minus direct children).  A group
#: holds the span of that name and every span named ``<group>.<method>``.
SPAN_GROUPS = (
    "crypto.group_mul", "crypto.group_add", "crypto.decode", "crypto.setup",
    "crypto.commit", "crypto.prove_eq", "crypto.prove_neq", "crypto.verify_eq",
    "crypto.verify_neq", "ledger.transfer", "ledger.advance_time",
    "contracts.prisoners", "contracts.colluders", "contracts.traitors",
    "protocol.run_scenario", "protocol.ttp_resolve", "gametheory.build_game",
    "gametheory.check_sequential_rationality", "gametheory.check_consistency",
    "gametheory.payoff_crosscheck", "gametheory.analyze_reference", "cli",
)
LABELLED = {"protocol.run_scenario": ("G1", "G2", "G3", "G4"),
            "gametheory.analyze_reference": ("g1", "g2", "g3", "g4")}


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in print order."""
    specs = []
    for group in SPAN_GROUPS:
        specs += [(f"{group}.count", "count/op", "lower"), (f"{group}.ms", "ms/op", "lower"),
                  (f"{group}.self_ms", "ms/op", "lower")]
    for span, labels in LABELLED.items():
        specs += [(f"{span}.ms.{label}", "ms/op", "lower") for label in labels]
    specs += [
        ("contracts.calls.count", "count/op", "lower"),
        ("ledger.log_entries", "count/op", "lower"),
        ("protocol.neq_proof_yield", "ratio", "higher"),
        ("cli.report_bytes", "B/op", "lower"),
        ("trace.ops", "count", "higher"),
        ("trace.untraced_ops_per_s", "1/s", "higher"),
        ("trace.traced_ops_per_s", "1/s", "higher"),
        ("trace.slowdown", "ratio", "lower"),
    ]
    return specs


def setup_once(group: str) -> tuple[float, float]:
    """One cold import plus first setup, timed inside a fresh interpreter:
    its CPU time and the median time of the speed kernel right after it in
    the same interpreter.  Bytecode caching stays on whatever the
    caller's environment says, so every timing after the first imports
    compiled modules, as an installed package does."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), group, str(HERE)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    cpu, kernel = map(float, proc.stdout.split())
    return cpu, kernel


class Loop:
    """CPU times, speed-kernel times and check outcomes of operations, in
    the order they ran."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.cpu: list[float] = []
        self.kernel: list[float] = []
        self.slots: set[int] = set()
        self.failed = 0
        self.report_bytes = 0
        self.setups: list[tuple[float, float]] = []

    def one(self, op) -> None:
        wl = self.workload
        self.slots.add(op.slot)
        self.kernel.append(speed.kernel())
        t0 = speed.CLOCK()
        try:
            result = wl.run(op)
        except Exception:  # an op that raises is a failed op; the run goes on
            self.cpu.append(speed.CLOCK() - t0)
            self.failed += 1
            print(f"op in slot {op.slot} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return
        self.cpu.append(speed.CLOCK() - t0)
        self.report_bytes += result.report_bytes
        problems = wl.check(op, result)
        if problems:
            self.failed += 1
            print(f"op in slot {op.slot} failed its check: {'; '.join(problems)}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return len(self.cpu)

    @property
    def latencies(self) -> list[float]:
        """Seconds each operation took, at the reference speed."""
        return [cpu * f for cpu, f in zip(self.cpu, speed.scale_factors(self.kernel))]

    @property
    def ops_per_s(self) -> float:
        """Operations completed per second spent in the program's calls, at
        the reference speed.  The benchmark's own input making, checks and
        speed kernel between calls are left out."""
        return self.attempted / sum(self.latencies)

    @property
    def setup_s(self) -> list[float]:
        """The set-up timings, at the reference speed."""
        return [cpu * speed.REFERENCE_S / kernel for cpu, kernel in self.setups]


def closed_loop(workload, seconds: float) -> Loop:
    """Run the workload's slots round after round, one fresh operation at a
    time, until a round ends after ``seconds`` have passed; so every slot
    runs equally often and each run measures the same mix.  The
    SETUP_REPS set-up timings are spread evenly over the same interval, so
    their median sees the same mix of machine states as the operations."""
    loop = Loop(workload)
    start = time.perf_counter()
    for k in itertools.count():
        elapsed = time.perf_counter() - start
        if k % workload.ops == 0 and k and elapsed >= seconds:
            break
        if len(loop.setups) < SETUP_REPS and elapsed >= len(loop.setups) * seconds / SETUP_REPS:
            loop.setups.append(setup_once(workload.group))
        loop.one(workload.op(k % workload.ops))
    return loop


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(loop: Loop) -> dict[str, float]:
    lat_ms = [x * 1000 for x in loop.latencies]
    cpu_ms = [x * 1000 for x in loop.cpu]
    n, lat_p90 = len(lat_ms), p90(lat_ms)
    print(f"samples: {n} ops, {n // len(loop.slots)} rounds of {len(loop.slots)} slots, "
          f"{sum(x > lat_p90 for x in lat_ms)} beyond p90; "
          f"setup_s is the median of {len(loop.setups)} fresh interpreters")
    print(f"failed_ratio: {loop.failed}/{loop.attempted} = {loop.failed / loop.attempted:.4f}")
    print(f"machine speed: speed kernel median {statistics.median(loop.kernel) * 1000:.4g} ms, "
          f"{speed.REFERENCE_S * 1000:.4g} ms at the reference speed")
    print(f"unscaled CPU time: setup_s {statistics.median(c for c, _ in loop.setups):.4g} s, "
          f"ops_per_s {n / sum(loop.cpu):.4g} 1/s, op_ms_p50 {statistics.median(cpu_ms):.4g} ms, "
          f"op_ms_p90 {p90(cpu_ms):.4g} ms")
    return {
        "setup_s": statistics.median(loop.setup_s),
        "ops_per_s": loop.ops_per_s,
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": lat_p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(workload, seconds: float, trace_path: Path) -> list:
    """Alternate untraced and traced passes over the seed's first
    ``trace_ops`` slots, each pass with fresh operations, for at least
    RECORDED_PASSES pairs of passes and until ``seconds`` have passed.  The
    recorded passes' operations depend on the seed alone, so counts per
    operation repeat exactly for a seed; the two kinds of pass give the
    tracing overhead."""
    import spans

    recorder = spans.Recorder()
    targets = spans.default_targets()
    untraced, traced = Loop(workload), Loop(workload)
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < RECORDED_PASSES or time.perf_counter() < deadline:
        for slot in range(workload.trace_ops):
            untraced.one(workload.op(slot))
        # inputs are made untraced, before the pass
        ops = [workload.op(slot) for slot in range(workload.trace_ops)]
        # later passes still pay for the wrappers, for the overhead figure,
        # but drop their spans so memory stays bounded
        sink = recorder if passes < RECORDED_PASSES else spans.Recorder()
        with spans.tracing(sink, targets):
            for k, op in enumerate(ops):
                sink.op_id = passes * len(ops) + k
                traced.one(op)
        passes += 1
    recorded_ops = RECORDED_PASSES * workload.trace_ops
    recorder.write(trace_path)
    print(f"spans: {len(recorder.name)} over {recorded_ops} traced ops, written to {trace_path}")
    return [untraced, traced, layer_metrics(recorder, recorded_ops, traced, untraced)]


def layer_metrics(recorder, n: int, traced: Loop, untraced: Loop) -> dict[str, float]:
    """Per-operation figures from the ``n`` operations ``recorder`` holds."""
    import spans

    by_name, by_label = spans.summarize(recorder)
    metrics = {}
    for group in SPAN_GROUPS:
        members = [s for name, s in by_name.items() if name == group or name.startswith(group + ".")]
        metrics[f"{group}.count"] = sum(s.count for s in members) / n
        metrics[f"{group}.ms"] = sum(s.total_s for s in members) * 1000 / n
        metrics[f"{group}.self_ms"] = sum(s.self_s for s in members) * 1000 / n
    for span, labels in LABELLED.items():
        for label in labels:
            stats = by_label.get((span, label))
            metrics[f"{span}.ms.{label}"] = stats.total_s * 1000 / n if stats else 0.0
    metrics["contracts.calls.count"] = sum(
        s.count for name, s in by_name.items() if name.startswith("contracts.")) / n
    metrics["ledger.log_entries"] = recorder.counters["ledger.log_entries"] / n
    neq_used = sum(label * s.count for (name, label), s in by_label.items()
                   if name == "contracts.prisoners.dispute")
    neq_made = by_name["crypto.prove_neq"].count if "crypto.prove_neq" in by_name else 0
    # no inequality proof attempted means no proving work was wasted
    metrics["protocol.neq_proof_yield"] = neq_used / neq_made if neq_made else 1.0
    metrics["cli.report_bytes"] = traced.report_bytes / traced.attempted
    metrics["trace.ops"] = n
    metrics["trace.untraced_ops_per_s"] = untraced.ops_per_s
    metrics["trace.traced_ops_per_s"] = traced.ops_per_s
    metrics["trace.slowdown"] = untraced.ops_per_s / traced.ops_per_s
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "countercollusion" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    try:
        setup_once(cls.group)  # untimed: writes the bytecode cache
    except (subprocess.SubprocessError, ValueError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    workdir = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = cls(args.seed, workdir)
        if args.trace:
            trace_path = scratch / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
            loops = traced_run(workload, args.seconds, trace_path)
            values = loops.pop()
            units = {name: unit for name, unit, _ in layer_metric_specs()}
        else:
            loops = (closed_loop(workload, args.seconds),)
            values = end_to_end(loops[0])
            units = END_TO_END
        failed = sum(loop.failed for loop in loops)
        attempted = sum(loop.attempted for loop in loops)
    except subprocess.SubprocessError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
