"""Tests for ``scripts/bench_pairs.py`` on two throwaway git checkouts.

Each checkout holds a stand-in ``perfbench/run.py`` that prints one fixed
result line and counts its own runs, so a test sees both what the script
records and whether it ran anything.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

FAKE_RUN = """\
import json, pathlib
marker = pathlib.Path(__file__).with_name("runs.txt")
marker.write_text(marker.read_text() + "x" if marker.exists() else "x")
metrics = {name: {"value": 1.0, "unit": "s"}
           for name in ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb")}
print(json.dumps({"attempted": 3, "failed": 0, "metrics": metrics}))
"""


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(root: Path, name: str, src: str, run: str = FAKE_RUN,
             benchmark: str = '{"workloads": []}\n') -> Path:
    """A committed git repository with ``src/``, ``perfbench/run.py`` and
    ``BENCHMARK.json``."""
    repo = root / name
    (repo / "src").mkdir(parents=True)
    (repo / "perfbench").mkdir()
    (repo / "src" / "mod.py").write_text(src)
    (repo / "perfbench" / "run.py").write_text(run)
    (repo / "perfbench" / ".gitignore").write_text("runs.txt\n")
    (repo / "BENCHMARK.json").write_text(benchmark)
    for args in (["init", "-q"], ["add", "-A"],
                 ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "c"]):
        subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True)
    return repo


def bench(tmp_path: Path, parent: Path, change: Path) -> list[str]:
    return ["--parent", str(parent), "--change", str(change), "--runs", str(tmp_path / "runs"),
            "--out", str(tmp_path / "out.json"), "--pair", "toy-analyze:1:2", "--seconds", "1"]


def runs_made(*repos: Path) -> int:
    markers = [repo / "perfbench" / "runs.txt" for repo in repos]
    return sum(len(m.read_text()) for m in markers if m.exists())


def test_records_the_benchmark_hashes_of_both_sides(tmp_path):
    parent = checkout(tmp_path, "parent", "A = 1\n")
    change = checkout(tmp_path, "change", "A = 2\n")
    assert load_bench_pairs().main(bench(tmp_path, parent, change)) == 0
    report = json.loads((tmp_path / "out.json").read_text())
    for side, repo in (("parent", parent), ("change", change)):
        def rev(spec, repo=repo):
            return subprocess.run(["git", "rev-parse", spec], cwd=repo, check=True,
                                  capture_output=True, text=True).stdout.strip()
        assert report[side]["src_tree"] == rev("HEAD:src")
        assert report[side]["perfbench_tree"] == rev("HEAD:perfbench")
        assert report[side]["benchmark_blob"] == rev("HEAD:BENCHMARK.json")
    assert report["parent"]["src_tree"] != report["change"]["src_tree"]
    assert report["workloads"]["toy-analyze:1"]["pairs"] == 2
    assert runs_made(parent, change) == 4


@pytest.mark.parametrize("differ", ["perfbench", "BENCHMARK.json", "uncommitted perfbench"])
def test_different_benchmarks_run_nothing(tmp_path, differ):
    parent = checkout(tmp_path, "parent", "A = 1\n")
    if differ == "perfbench":
        change = checkout(tmp_path, "change", "A = 2\n", run=FAKE_RUN + "# edited\n")
    elif differ == "BENCHMARK.json":
        change = checkout(tmp_path, "change", "A = 2\n", benchmark='{"workloads": [1]}\n')
    else:
        change = checkout(tmp_path, "change", "A = 2\n")
        (change / "perfbench" / "run.py").write_text(FAKE_RUN + "# edited\n")
    with pytest.raises(SystemExit) as exc:
        load_bench_pairs().main(bench(tmp_path, parent, change))
    assert exc.value.code not in (0, None)
    assert "different benchmarks" in str(exc.value.code)
    assert runs_made(parent, change) == 0
    assert not (tmp_path / "out.json").exists()
