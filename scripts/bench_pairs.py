"""Run perfbench in alternating parent/change pairs and write a BENCH_*.json.

    python scripts/bench_pairs.py --parent ../parent --change . \\
        --runs runs/ --out BENCH_name.json \\
        --pair secp-audit:1:10 --pair toy-analyze:1:10 --pair secp-scenarios:1:1

``--parent`` and ``--change`` are source checkouts of the two versions.
Each ``--pair WORKLOAD:SEED:N`` runs ``N`` pairs of
``perfbench/run.py --workload WORKLOAD --seed SEED --seconds S --trace 0``,
one run in each checkout per pair, the parent first in odd pairs and the
change first in even ones.  Every run's last output line (its JSON result)
is kept as ``RUNS/WORKLOAD-SEED/{parent,change}-I.json``; a run whose file
exists is not run again, so an interrupted measurement resumes.

Both sides must run the same benchmark: the git tree hash of each
checkout's ``perfbench/`` and the blob hash of its ``BENCHMARK.json`` are
compared first, and the script exits non-zero, running nothing, when they
differ.

The output holds both commits (and the tree hashes of each ``src/`` and
``perfbench/`` and the blob hash of each ``BENCHMARK.json``, which name an
uncommitted change too), the Python version and, per workload and
seed, every value of every end-to-end metric, the medians of both sides,
the parent's quartiles, the change's relative difference of medians, the
pairs in which the change was better, and the operation and failure counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

#: End-to-end metrics of ``perfbench/run.py`` and whether higher is better.
METRICS = {"setup_s": False, "ops_per_s": True, "op_ms_p50": False,
           "op_ms_p90": False, "peak_rss_mb": False}
SIDES = ("parent", "change")
#: What must be identical on both sides: the benchmark's code and declaration.
BENCHMARK_KEYS = ("perfbench_tree", "benchmark_blob")


def git(checkout: Path, *args: str, **env: str) -> str:
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                          check=True, env={**os.environ, **env}).stdout.strip()


def revision(checkout: Path, scratch: Path) -> dict:
    """The checkout's commit, the git tree hashes of its ``src/`` and
    ``perfbench/`` and the blob hash of its ``BENCHMARK.json``, as they are
    on disk, committed or not: once committed, ``git rev-parse
    COMMIT:PATH`` gives the same hash."""
    index = scratch / f"index-{checkout.name}"
    index.unlink(missing_ok=True)
    env = {"GIT_INDEX_FILE": str(index)}
    git(checkout, "add", "-A", "src", "perfbench", "BENCHMARK.json", **env)
    out = {"commit": git(checkout, "rev-parse", "HEAD")}
    for name in ("src", "perfbench"):
        out[f"{name}_tree"] = git(checkout, "write-tree", f"--prefix={name}/", **env)
    out["benchmark_blob"] = git(checkout, "rev-parse", ":BENCHMARK.json", **env)
    index.unlink()
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: float, dest: Path) -> dict:
    if not dest.exists():
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=checkout, capture_output=True, text=True)
        if proc.returncode not in (0, 1):
            sys.exit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(proc.stdout.strip().splitlines()[-1] + "\n")
    return json.loads(dest.read_text())


def summarize(results: dict[str, list[dict]]) -> dict:
    """Medians, the parent's quartiles and pair wins of every metric."""
    out = {"pairs": len(results["parent"])}
    for side in SIDES:
        out[f"{side}_ops"] = [r["attempted"] for r in results[side]]
        out[f"{side}_failed"] = [r["failed"] for r in results[side]]
    for name, higher in METRICS.items():
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        med = {side: statistics.median(values[side]) for side in SIDES}
        entry = {"unit": results["parent"][0]["metrics"][name]["unit"],
                 "better": "higher" if higher else "lower",
                 "parent_median": med["parent"], "change_median": med["change"],
                 "change_vs_parent": med["change"] / med["parent"] - 1}
        if len(values["parent"]) >= 2:
            q1, _, q3 = statistics.quantiles(values["parent"], n=4)
            entry["parent_q1"], entry["parent_q3"] = q1, q3
        entry["change_better_pairs"] = sum(
            (c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"]))
        entry["parent_values"], entry["change_values"] = values["parent"], values["change"]
        out[name] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--runs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--pair", action="append", required=True, metavar="WORKLOAD:SEED:N")
    ap.add_argument("--seconds", type=float, default=55)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    args.runs.mkdir(parents=True, exist_ok=True)
    revisions = {side: revision(checkouts[side], args.runs.resolve()) for side in SIDES}
    for key in BENCHMARK_KEYS:
        if revisions["parent"][key] != revisions["change"][key]:
            sys.exit(f"the checkouts run different benchmarks: {key} "
                     f"{revisions['parent'][key]} (parent) != {revisions['change'][key]} (change)")
    report = {"about": __doc__.split("\n\n")[0], **revisions,
              "python": platform.python_version(), "run_seconds": args.seconds, "workloads": {}}
    for spec in args.pair:
        workload, seed, n = spec.split(":")
        results = {side: [] for side in SIDES}
        for i in range(1, int(n) + 1):
            for side in (SIDES if i % 2 else SIDES[::-1]):
                dest = args.runs / f"{workload}-{seed}" / f"{side}-{i}.json"
                results[side].append(run_once(checkouts[side], workload, int(seed), args.seconds, dest))
        report["workloads"][f"{workload}:{seed}"] = summarize(results)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
