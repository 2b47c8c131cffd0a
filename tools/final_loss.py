"""Final-window training loss over seeds, to compare two versions of the package.

    PYTHONPATH=src python3 tools/final_loss.py --run bundled --seeds 1-5 --steps 200
    PYTHONPATH=src python3 tools/final_loss.py --run v8k --seeds 1-5 --steps 120

Run it once per checkout (``PYTHONPATH=<checkout>/src``) and compare the
printed figures.  Each seed is one denoise-phase ``training.pretrain`` from a
fresh model of that seed (dropout 0, batch 8, the schedule seeded alike) on
instances built once with seed 0:

- ``bundled``: the bundled corpus, its tokenizer (``--vocab-size 8000``, which
  the corpus fills to 560) and the README default model at that vocabulary;
- ``v8k``: the ``v8k-long`` workload's corpus (``bench/gen.py``, 240 long
  multi-function documents, generator seed 0) and the README default model
  at vocabulary 8000.

One JSON line per seed: the mean loss of the last ``--window`` steps and the
median step time; then one line with their mean and spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from codepretrain import bpe, corpus, lexer
from codepretrain import model as mdl
from codepretrain import objectives as obj
from codepretrain import training as tr

ROOT = Path(__file__).resolve().parents[1]


def _records(run: str) -> list:
    if run == "bundled":
        return list(corpus.ingest(corpus.bundled_corpus_path()))
    sys.path.insert(0, str(ROOT / "bench"))
    import gen

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        gen.write_jsonl(gen.make_corpus(0, 240, gen.LONG), path)
        return list(corpus.ingest(path))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--run", choices=("bundled", "v8k"), required=True)
    p.add_argument("--seeds", default="1-5", help="A-B inclusive")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--window", type=int, default=40)
    args = p.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    records = _records(args.run)
    tok = bpe.train([r.code for r in records] + [r.docstring for r in records if r.docstring], 8000, 3)
    docs = list(corpus.normalize_corpus(records, lexer.load_lexers()))
    instances = obj.build_denoising_instances(docs, tok, seed=0)
    vocab = tok.vocab_size if args.run == "bundled" else 8000
    finals = []
    for seed in seeds:
        model = mdl.Seq2SeqModel(mdl.ModelConfig(vocab_size=vocab), seed=seed)
        schedule = tr.TrainSchedule(steps=args.steps, batch_size=8, seed=seed)
        start = time.perf_counter()
        log = tr.pretrain(model, instances, schedule)
        elapsed = time.perf_counter() - start
        final = statistics.fmean(r.loss for r in log[-args.window:])
        finals.append(final)
        print(json.dumps({"run": args.run, "seed": seed, "steps": args.steps, "vocab": vocab,
                          "final_window_loss": round(final, 4), "step_ms": round(1000 * elapsed / args.steps, 1)}),
              flush=True)
    print(json.dumps({"run": args.run, "seeds": len(finals), "mean": round(statistics.fmean(finals), 4),
                      "min": round(min(finals), 4), "max": round(max(finals), 4)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
