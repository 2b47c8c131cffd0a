"""Golden values of the README training, generation and evaluation stages.

On the artifacts of ``test_golden_prep.prepare`` (the bundled corpus), a
tiny model (d_model 32, 2+2 layers, dropout 0.1) runs through
``cli.dispatch``: ``pretrain``, ``pretrain --phase dual``, a multi-task
``finetune`` with a validation set, ``generate --beam 4`` and ``eval``.  The
golden file ``golden_pipeline.json`` beside this test pins

- the sha256 of the generated ``hyp.txt``;
- every metrics-log value and every ``eval`` report value, within 1e-9
  relative: numerics may move in the last bits;
- each checkpoint parameter's sum and sum of squares, keyed by name in
  order, within 1e-9 relative.

The pinned run trains and decodes in float64 (``training.COMPUTE_DTYPE`` set
to ``np.float64``): float32 matrix products round differently with the BLAS
kernel and thread count, which moves float32-trained losses by about 1e-7
relative between machines, so only float64 arithmetic reproduces to 1e-9.
The default float32 training and decoding run the same pipeline against the
same file within ``FLOAT32_REL_TOL``: its metrics-log losses, generated
hypotheses and ``eval`` report.

A seeded change to initialisation, dropout, sampling, the layers or the
optimizer moves these values.  A change that means to move them regenerates
the golden file with

    PYTHONPATH=src python tests/test_golden_pipeline.py

and says in CHANGES.md which values moved and why.  The command prints, before
it rewrites the file, how many pinned values moved in each stage's metrics
log and checkpoint, and the hypotheses' sha256 old -> new.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from codepretrain import corpus
from codepretrain import training as tr
from codepretrain.cli import dispatch
from test_golden_prep import prepare

GOLDEN = Path(__file__).with_name("golden_pipeline.json")
REL_TOL = 1e-9
FLOAT32_REL_TOL = 1e-6  # float32-trained losses measured within 9e-8 of the float64 ones

MODEL = ["--d-model", "32", "--num-heads", "2", "--encoder-layers", "2", "--decoder-layers", "2",
         "--feedforward-dim", "64", "--max-src-len", "160", "--max-tgt-len", "64", "--dropout", "0.1"]


def _task_files(root: Path) -> tuple[Path, Path, Path]:
    """A summarize dataset, its validation set and a test set with references,
    from disjoint documented records of the bundled corpus; then the mixture."""
    records = [r for r in corpus.ingest(corpus.bundled_corpus_path()) if r.docstring]
    parts = {"train": records[:24], "val": records[24:30], "test": records[30:34]}
    for name, rows in parts.items():
        (root / f"{name}.jsonl").write_text(
            "".join(json.dumps({"source": r.code[:200], "target": r.docstring}) + "\n" for r in rows),
            encoding="utf-8",
        )
    ref = root / "ref.txt"
    ref.write_text("".join(" ".join(r.docstring.split()) + "\n" for r in parts["test"]), encoding="utf-8")
    mixture = root / "mixture.json"
    mixture.write_text(json.dumps({"alpha": 0.7, "tasks": [
        {"name": "summarize", "path": str(root / "train.jsonl"), "control_code": "Summarize:",
         "validation": str(root / "val.jsonl")},
        {"name": "dual", "path": str(root / "dual.jsonl")},
    ]}), encoding="utf-8")
    return mixture, root / "test.jsonl", ref


@contextlib.contextmanager
def _compute_dtype(dtype):
    """Train and decode in ``dtype`` while the block runs."""
    saved, tr.COMPUTE_DTYPE = tr.COMPUTE_DTYPE, dtype
    try:
        yield
    finally:
        tr.COMPUTE_DTYPE = saved


def run_pipeline(root: Path) -> dict:
    """Prepare, train, generate and evaluate in ``root``; the values to pin."""
    prepare(root)
    tok = str(root / "tok")
    mixture, test, ref = _task_files(root)
    stages = {
        "pretrain": ["pretrain", "--instances", str(root / "denoise.jsonl"), "--tokenizer", tok,
                     "--steps", "12", "--batch-size", "4", "--seed", "0", *MODEL],
        "pretrain-dual": ["pretrain", "--instances", str(root / "dual.jsonl"), "--tokenizer", tok,
                          "--phase", "dual", "--init", str(root / "pretrain" / "checkpoint.npz"),
                          "--steps", "6", "--batch-size", "4", "--seed", "1"],
        "finetune": ["finetune", "--mixture", str(mixture), "--tokenizer", tok,
                     "--init", str(root / "pretrain-dual" / "checkpoint.npz"),
                     "--steps", "6", "--batch-size", "4", "--seed", "2"],
    }
    for name, argv in stages.items():
        assert dispatch(argv + ["--out", str(root / name)]) == 0, name
    hyp = root / "hyp.txt"
    assert dispatch(["generate", "--checkpoint", str(root / "finetune" / "checkpoint.npz"), "--tokenizer", tok,
                     "--input", str(test), "--control-code", "Summarize:", "--max-len", "12", "--beam", "4",
                     "--out", str(hyp)]) == 0
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        assert dispatch(["eval", "--task", "summarize", "--hyp", str(hyp), "--ref", str(ref)]) == 0
    metrics = {name: [json.loads(line) for line in (root / name / "metrics.jsonl").read_text().splitlines()]
               for name in stages}
    metrics["eval"] = [json.loads(line) for line in report.getvalue().splitlines()]
    params = {}
    for path in sorted(root.glob("*/checkpoint*.npz")):
        with np.load(path) as data:
            params[str(path.relative_to(root))] = {
                key[len("param::"):]: [float(data[key].sum()), float((data[key] ** 2).sum())]
                for key in data.files if key.startswith("param::")
            }
    return {"metrics": metrics, "params": params, "hyp_sha256": hashlib.sha256(hyp.read_bytes()).hexdigest()}


def _differences(got, want, where: str, rel_tol: float = REL_TOL) -> list[str]:
    """Where ``got`` differs from ``want`` in structure, key order or strings,
    or in a number by more than ``rel_tol`` relative."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return [where]
        return [d for key in want for d in _differences(got[key], want[key], f"{where}/{key}", rel_tol)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [where]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in _differences(g, w, f"{where}[{i}]", rel_tol)]
    if isinstance(want, float):
        same = isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=rel_tol, abs_tol=0.0)
    else:
        same = got == want
    return [] if same else [f"{where}: {got!r} != {want!r}"]


def _assert_close(got, want, where: str, rel_tol: float = REL_TOL) -> None:
    """``got`` equals ``want`` in structure, key order and strings, and every
    number within ``rel_tol`` relative."""
    differences = _differences(got, want, where, rel_tol)
    assert not differences, differences[:5]


def moved_pins(got: dict, want: dict) -> list[str]:
    """One line per pinned stage whose values moved: how many moved, and the
    hypotheses' sha256 old -> new."""
    lines = []
    for part in ("metrics", "params"):
        old, new = want.get(part, {}), got[part]
        for name in dict.fromkeys([*old, *new]):
            moved = _differences(new.get(name), old.get(name), name)
            if moved:
                lines.append(f"{part} {name}: {len(moved)} values moved")
    if got["hyp_sha256"] != want.get("hyp_sha256"):
        lines.append(f"hyp_sha256: {want.get('hyp_sha256')} -> {got['hyp_sha256']}")
    return lines


def test_pipeline_matches_golden(tmp_path):
    with _compute_dtype(np.float64):
        got = run_pipeline(tmp_path)
    _assert_close(got, json.loads(GOLDEN.read_text(encoding="utf-8")), "golden")


def test_float32_training_tracks_golden(tmp_path):
    assert tr.COMPUTE_DTYPE is np.float32
    got, want = run_pipeline(tmp_path), json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert got["hyp_sha256"] == want["hyp_sha256"]
    _assert_close(got["metrics"], want["metrics"], "golden/metrics", FLOAT32_REL_TOL)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, _compute_dtype(np.float64):
        values = run_pipeline(Path(tmp))
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    print("\n".join(moved_pins(values, old)) or "no pinned value moved")
    GOLDEN.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
