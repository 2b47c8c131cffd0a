"""The pair summariser of ``tools/bench_pairs.py`` on synthetic run records."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "pipeline_s", "better": "lower", "bound": 0.24},
    {"name": "prep_docs_per_s", "better": "higher", "bound": 0.24},
]


def _run(workload, seed, pipeline_s, docs_per_s, correct=True):
    metrics = {"pipeline_s": {"value": pipeline_s, "unit": "s"},
               "prep_docs_per_s": {"value": docs_per_s, "unit": "docs/s"}}
    return {"result": {"correct": correct, "attempted": 10, "failed": 0, "metrics": metrics},
            "detail": {"workload": workload, "seed": seed}}


def test_summary_medians_iqr_pairs_and_sign():
    # pipeline_s (lower is better): the change is slower in every pair but the last.
    parent_s = [10.0, 11.0, 12.0, 13.0, 14.0]
    change_s = [11.0, 12.0, 13.0, 14.0, 13.5]
    parent_rate = [100.0, 110.0, 120.0, 130.0, 140.0]
    change_rate = [120.0, 130.0, 140.0, 150.0, 100.0]
    parent = [_run("w", 1 + i, s, r) for i, (s, r) in enumerate(zip(parent_s, parent_rate))]
    change = [_run("w", 1 + i, s, r) for i, (s, r) in enumerate(zip(change_s, change_rate))]
    change[2]["result"]["correct"] = False

    summary = bench_pairs.summarise(parent, change, METRICS)["w"]
    slow = summary["metrics"]["pipeline_s"]
    assert slow["parent_median"] == 12.0
    assert slow["change_median"] == 13.0
    assert slow["change_worse_by"] == pytest.approx(1 / 12, abs=1e-4)
    assert slow["parent_quartiles"] == [11.0, 13.0]
    assert slow["parent_iqr"] == 2.0
    assert slow["change_quartiles"] == [12.0, 13.5]
    assert slow["pairs_won_by_change"] == 1
    assert (slow["runs"], slow["bound"]) == (5, 0.24)

    fast = summary["metrics"]["prep_docs_per_s"]
    assert (fast["parent_median"], fast["change_median"]) == (120.0, 130.0)
    assert fast["change_worse_by"] == pytest.approx(-10 / 120, abs=1e-4)
    assert fast["pairs_won_by_change"] == 4
    assert summary["correct_failed_attempted"]["change"][2] == [False, 0, 10]


def test_pairs_are_matched_by_seed_and_workload():
    parent = [_run("a", 2, 1.0, 5.0), _run("a", 1, 2.0, 5.0), _run("b", 1, 9.0, 1.0)]
    change = [_run("a", 1, 1.5, 6.0), _run("a", 2, 0.5, 4.0),
              {"result": None, "detail": {"workload": "b", "seed": 1}}]
    summary = bench_pairs.summarise(parent, change, METRICS)
    assert summary["a"]["metrics"]["pipeline_s"]["pairs_won_by_change"] == 2
    assert summary["a"]["metrics"]["prep_docs_per_s"]["pairs_won_by_change"] == 1
    assert summary["b"]["metrics"] == {}
    assert summary["b"]["correct_failed_attempted"]["change"] == [[False, None, None]]


def test_seed_ranges():
    assert bench_pairs.parse_seeds("151-160") == list(range(151, 161))
    assert bench_pairs.parse_seeds("7") == [7]


def test_source_state_tells_an_uncommitted_change_from_its_commit(tmp_path):
    """A checkout made as a commit plus an uncommitted diff shares that
    commit's HEAD; its status lines and ``src/`` digest tell them apart."""
    def git(*args):
        subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    module = tmp_path / "src" / "pkg" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text("x = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    parent = bench_pairs.source_state(tmp_path)
    assert parent["status"] == [] and len(parent["commit"]) == 40

    # compiled files do not count
    (module.parent / "__pycache__").mkdir()
    (module.parent / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"\0")
    assert bench_pairs.src_digest(tmp_path) == parent["src_sha256"]

    module.write_text("x = 2\n")
    change = bench_pairs.source_state(tmp_path)
    assert change["commit"] == parent["commit"]
    assert " M src/pkg/mod.py" in change["status"]
    assert change["src_sha256"] != parent["src_sha256"]
    # a renamed file changes the digest too
    module.write_text("x = 1\n")
    module.rename(module.with_name("other.py"))
    assert bench_pairs.src_digest(tmp_path) != parent["src_sha256"]
