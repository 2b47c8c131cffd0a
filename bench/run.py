"""Benchmark entry point.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all ...   # each workload in its own process

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One workload runs in this one process, single-threaded
BLAS.  After set-up (repeated, median reported) it runs whole rounds until their
timed blocks add up to ``--seconds``, checks the outputs, and prints a detail line and
then, as the last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
spans are recorded, a probe covers the layers the rounds did not reach, and
the metrics are the per-layer ones.  Outputs and traces go to ``.bench_out/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
WORKLOADS = ("bundled-cli", "v8k-long", "prep-20k")
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pipeline_s": "s",
    "prep_docs_per_s": "docs/s",
    "train_tokens_per_s": "tokens/s",
    "greedy_tokens_per_s": "tokens/s",
    "beam4_tokens_per_s": "tokens/s",
}


def _parse(argv):
    p = argparse.ArgumentParser(description="codepretrain benchmark")
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            results[name] = {"exit_code": proc.returncode}
            continue
        results[name] = json.loads(lines[-1])
        print(f"{name}: {lines[-1]}")
    print(json.dumps(results))
    return status


def _host() -> dict:
    import numpy

    return {
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "codepretrain" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]

    import probe
    import workloads
    from refs import NOMINAL_MS, Meter
    from spans import Tracer

    traced = args.trace == 1
    bench_out = ROOT / ".bench_out"
    out = bench_out / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tracer = Tracer(traced)
    run = workloads.Run(out, args.seed, tracer, Meter(tracer))
    try:
        wl = workloads.make(args.workload, run)
        setups = [wl.setup() for _ in range(SETUP_REPEATS)]
        tracer.next_op()  # operation ids start at 1; set-up spans carry 0
        figures, measured_s = [], 0.0
        while not figures or measured_s < args.seconds:  # timed blocks only, not checks
            figures.append(wl.round(len(figures)))
            measured_s += figures[-1].values("raw_s")["pipeline_s"]
            if len(figures) == 1:
                # Later rounds overlap the first round's data kept for checks,
                # so their peak would depend on how many rounds a host fits.
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wl.finish()
        if traced:
            probe.probe(run, wl.probe_inputs())
    finally:
        shutil.rmtree(out, ignore_errors=True)

    def summary(attr: str) -> dict[str, float]:
        rounds = [f.values(attr) for f in figures]
        vals = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
        vals.update(workloads.decode_rates(figures, attr))
        vals["setup_s"] = statistics.median(sum(getattr(b, attr) for b in blocks) for blocks in setups)
        return vals

    e2e = {**summary("norm_s"), "peak_rss_mb": rss_mb}
    raw = summary("raw_s")
    per_round = [f.values() for f in figures]

    if traced:
        units = probe.metric_units()
        values = probe.layer_metrics(run)
    else:
        units = END_TO_END_UNITS
        values = e2e
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(figures),
        "measured_s": measured_s,
        "end_to_end_normalised": e2e,
        "end_to_end_raw": raw,
        "reference_ms_measured": run.meter.ref_summary(),
        "reference_ms_nominal": NOMINAL_MS,
        "per_round_normalised": per_round,
        "blocks": [
            {phase: [[b.kind, b.raw_s, *b.ref_ms] for b in getattr(f, phase)]
             for phase in ("prep", "train", "greedy", "beam", "other")}
            for f in figures
        ],
        "errors": run.errors,
        "notes": run.notes,
        "host": _host(),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (bench_out / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if traced:
        tracer.write(bench_out / f"{stem}.spans.jsonl")
    for err in run.errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
