"""Benchmark a parent commit against a change in alternating pairs.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workloads prep-20k bundled-cli v8k-long --seeds 151-160 --out BENCH_15.json

Each DIR is a source checkout of one commit (``git clone`` then ``git
checkout``).  For every workload and seed, ``python3 bench/run.py --workload W
--seed S --seconds 20 --trace 0`` (the ``run_seconds`` of ``BENCHMARK.json``)
runs once in each checkout, one process at a time: the parent first for odd
seeds, the change first for even ones.  The output file holds every run's
result and detail lines and, per workload and metric, both sides' medians and
quartiles, the parent's interquartile range, how much worse the change's
median is (a fraction of the parent's, negative when better) and in how many
seed pairs the change did better.  With ``--trace 1`` the per-layer metrics of
``BENCHMARK.json`` are summarised in place of the end-to-end ones, which carry
their bounds.  Each side is recorded by what it ran: the checkout's HEAD, its
``git status --porcelain`` lines and a sha256 over its ``src/`` files, so a
change checkout made as the parent plus an uncommitted diff is told apart
from the parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    """``"A-B"`` as the seeds A to B inclusive, or one seed ``"A"``."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` process in ``checkout``: its result and detail lines."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"result": None, "detail": {"workload": workload, "seed": seed, "trace": trace,
                                           "exit_code": proc.returncode, "stderr": proc.stderr[-2000:]}}
    return {"result": json.loads(lines[-1]), "detail": json.loads(lines[-2])["detail"]}


def _value(run: dict, name: str) -> float | None:
    metric = (run["result"] or {}).get("metrics", {}).get(name)
    return None if metric is None else metric["value"]


def _quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def _correct_failed_attempted(run: dict) -> list:
    result = run["result"]
    if result is None:
        return [False, None, None]
    return [result["correct"], result["failed"], result["attempted"]]


def summarise(parent_runs: list[dict], change_runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload, each metric of ``metrics`` (``name``, ``better`` and an
    optional ``bound``) over the seeds both sides ran, paired by seed."""
    summary = {}
    for workload in dict.fromkeys(r["detail"]["workload"] for r in parent_runs):
        sides = [{r["detail"]["seed"]: r for r in runs if r["detail"]["workload"] == workload}
                 for runs in (parent_runs, change_runs)]
        seeds = [s for s in sides[0] if s in sides[1]]
        entry = {"metrics": {}, "correct_failed_attempted": {
            side: [_correct_failed_attempted(runs[s]) for s in seeds]
            for side, runs in zip(("parent", "change"), sides)}}
        for metric in metrics:
            name = metric["name"]
            pairs = [(_value(sides[0][s], name), _value(sides[1][s], name)) for s in seeds]
            pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
            if not pairs:
                continue
            sign = 1 if metric["better"] == "lower" else -1  # sign * (change - parent) > 0: worse
            parent = [p for p, _ in pairs]
            change = [c for _, c in pairs]
            parent_median, change_median = statistics.median(parent), statistics.median(change)
            parent_q, change_q = _quartiles(parent), _quartiles(change)
            entry["metrics"][name] = {
                "parent_median": parent_median,
                "change_median": change_median,
                "change_worse_by": round(sign * (change_median - parent_median) / parent_median, 4),
                "parent_iqr": parent_q[1] - parent_q[0],
                "parent_quartiles": parent_q,
                "change_quartiles": change_q,
                "pairs_won_by_change": sum(sign * (c - p) < 0 for p, c in pairs),
                "runs": len(pairs),
                "bound": metric.get("bound"),
            }
        summary[workload] = entry
    return summary


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True).stdout


def src_digest(checkout: Path) -> str:
    """sha256 over the relative path and bytes of every file under ``src/``,
    in path order, leaving out ``__pycache__``."""
    h = hashlib.sha256()
    src = checkout / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(src).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def source_state(checkout: Path) -> dict:
    """What a checkout runs: its HEAD (None outside git), its uncommitted
    changes as ``git status --porcelain`` lines, and ``src_digest``."""
    return {"commit": _git(checkout, "rev-parse", "HEAD").strip() or None,
            "status": _git(checkout, "status", "--porcelain").splitlines(),
            "src_sha256": src_digest(checkout)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="parent vs change benchmark pairs")
    p.add_argument("--parent", type=Path, required=True, help="source checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="source checkout of the change")
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, inclusive")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = benchmark["per_layer" if args.trace else "end_to_end"]
    seconds = benchmark["run_seconds"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for workload in args.workloads:
        for seed in args.seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                run = run_once(getattr(args, side), workload, seed, seconds, args.trace)
                runs[side].append(run)
                status = "failed" if run["result"] is None else f"correct={run['result']['correct']}"
                print(f"{workload} seed {seed} {side}: {status}", file=sys.stderr, flush=True)

    host = next((r["detail"]["host"] for r in runs["parent"] + runs["change"] if r["result"]), None)
    doc = {
        "what": "bench/run.py records of the parent commit and of the change, same seeds, run "
                "alternately (odd seeds parent first, even seeds change first), one process at a time",
        "command": f"python3 bench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds} --trace {args.trace}",
        "seeds": [args.seeds[0], args.seeds[-1]],
        "parent_source": source_state(args.parent),
        "change_source": source_state(args.change),
        "medians": summarise(runs["parent"], runs["change"], metrics),
        "runs": runs,
        "host": host,
    }
    args.out.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    failed = sum(r["result"] is None for side in runs.values() for r in side)
    print(f"wrote {args.out} ({failed} runs failed)", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
