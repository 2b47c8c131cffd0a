"""Per-layer figures for a traced run.

The rounds already record spans around the benchmark's calls into the
package.  The probe then calls, once, every layer those spans do not cover
on the workload's own data, and ``layer_metrics`` turns all spans into the
per-layer metrics.  Rates use a span's self time, times its whole duration;
both are normalised by the reference measured next to the span's block.
"""

from __future__ import annotations

import json
import shutil
import statistics

import numpy as np

from workloads import (BATCH, CLI_STAGES, PREP_STAGES, TRAIN_STAGES, WORK_SEED, BundledCli, Run,
                       _Decoding, _fresh_dir)

from codepretrain import bpe, corpus, lexer, metrics
from codepretrain import model as mdl
from codepretrain import objectives as obj
from codepretrain import training as tr

DECODE_LENGTHS = (16, 64, 128)
PROBE_DOCS = 1000
BLEU_PAIRS = 2000
REPEATS = 3

RATES = {
    "corpus.normalize_docs_per_s": ("corpus.normalize_corpus", "docs"),
    "lexer.lex_tokens_per_s": ("lexer.lex", "tokens"),
    "bpe.encode_words_per_s": ("bpe.encode", "words"),
    "objectives.denoise_docs_per_s": ("objectives.build_denoising_instances", "docs"),
    "objectives.dual_docs_per_s": ("objectives.build_dual_instances", "docs"),
    "objectives.instance_io_per_s": ("objectives.write_read_instances", "instances"),
    "metrics.bleu_pairs_per_s": ("metrics.smoothed_bleu4", "pairs"),
}
TIMES_MS = {
    "model.make_batch_ms": "model.make_batch",
    "model.encoder_fwd_ms": "model.encoder_forward",
    "model.decoder_fwd_ms": "model.decoder_forward",
    "model.encoder_bwd_ms": "model.encoder_backward",
    "model.decoder_bwd_ms": "model.decoder_backward",
    "model.seq2seq_fwd_bwd_ms": "model.seq2seq_loss_and_grads",
    "model.tagging_fwd_bwd_ms": "model.tagging_loss_and_grads",
    "training.adam_step_ms": "training.Adam.step",
    "training.clip_ms": "training.clip_gradients",
    "training.step_ms": "training.step",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {name: f"{key}/s" for name, (_, key) in RATES.items()}
    units["bpe.train_s"] = "s"
    units.update({name: "ms" for name in TIMES_MS})
    for kind in ("greedy", "beam4"):
        units.update({f"training.{kind}_ms.L{n}": "ms" for n in DECODE_LENGTHS})
    units.update({f"cli.stage_s.{stage}": "s" for stage in CLI_STAGES})
    units["host.ref_py_ms"] = "ms"
    units["host.ref_np_ms"] = "ms"
    return units


def _prep(run: Run, data: dict) -> None:
    span = run.tracer.span
    records = data["records"][:PROBE_DOCS]
    with span("corpus.normalize_corpus", docs=len(records)):
        docs = list(corpus.normalize_corpus(records, lexer.load_lexers()))
    texts = [r.code for r in records] + [r.docstring for r in records if r.docstring]
    with span("bpe.train", texts=len(texts)):
        tok = bpe.train(texts, 8000, 3)
    with span("objectives.build_denoising_instances", docs=len(docs)):
        denoise = obj.build_denoising_instances(docs, tok, seed=WORK_SEED)
    with span("objectives.build_dual_instances", docs=len(docs)):
        dual = obj.build_dual_instances(docs, tok)
    path = run.out / "probe-instances.jsonl"
    with span("objectives.write_read_instances", instances=2 * (len(denoise) + len(dual))):
        obj.write_instances(denoise + dual, path)
        list(obj.read_instances(path))


def _lex(run: Run, data: dict) -> None:
    lexers = lexer.load_lexers()
    records = data["records"][:PROBE_DOCS]
    with run.tracer.span("lexer.lex", tokens=0) as counts:
        for r in records:
            counts["tokens"] += len(lexer.lex(r.code, lexers[r.language]))


def _encode(run: Run, data: dict) -> None:
    tok = data["tok"]
    fresh = bpe.SubwordTokenizer(tok.specials, tok.merges)  # empty word cache
    docs = data.get("docs") or list(corpus.normalize_corpus(data["records"][:PROBE_DOCS], lexer.load_lexers()))
    words = [w for d in docs[:PROBE_DOCS] for w in (*d.nl_tokens, *d.code_tokens)]
    with run.tracer.span("bpe.encode", words=len(words)):
        for w in words:
            fresh.encode(w, use_specials=False)


def _bleu(run: Run, data: dict) -> None:
    nl = [r.docstring.split() for r in data["records"] if r.docstring][: BLEU_PAIRS + 1]
    pairs = list(zip(nl, nl[1:] + nl[:1]))
    with run.tracer.span("metrics.smoothed_bleu4", pairs=len(pairs)):
        for h, r in pairs:
            metrics.smoothed_bleu4(h, r)


def _model(run: Run, data: dict) -> None:
    span = run.tracer.span
    model = data["model"].clone()
    cfg = model.config
    seq = [i for i in data["denoise"] if i.objective != obj.IT][:BATCH]
    tags = [i for i in data["denoise"] if i.objective == obj.IT][:BATCH]
    opt = tr.Adam(model.params, tr.TrainSchedule(steps=REPEATS))
    for _ in range(REPEATS):
        with span("model.make_batch"):
            b = mdl.make_batch(seq, cfg)
        with span("model.encoder_forward"):
            enc, enc_cache = mdl.encoder_forward(model, b.src, b.src_len)
        with span("model.decoder_forward"):
            hidden, dec_cache = mdl.decoder_forward(model, b.tgt_in, b.tgt_len, enc, b.src_len)
        grads = model.zeros_like_params()
        with span("model.decoder_backward"):
            denc = mdl.decoder_backward(model, np.full_like(hidden, 1e-3), dec_cache, grads)
        with span("model.encoder_backward"):
            mdl.encoder_backward(model, denc, enc_cache, grads)
        with span("model.tagging_loss_and_grads"):
            mdl.tagging_loss_and_grads(model, tags)
        with span("training.step"):
            with span("model.seq2seq_loss_and_grads"):
                _, _, grads = mdl.seq2seq_loss_and_grads(model, seq)
            clip_copy = {k: v.copy() for k, v in grads.items()}
            with span("training.Adam.step"):
                opt.step(model.params, grads)
        with span("training.clip_gradients"):
            tr.clip_gradients(clip_copy, 1.0)


def _decode(run: Run, data: dict, missing: list[tuple[int, int]]) -> None:
    decoding = _Decoding(run)
    for beam, length in missing:
        decoding.generate(data["model"], [data["src"]], length, beam)


def _cli(run: Run, data: dict) -> None:
    """The CLI stages, one training step each, on the workload's first 200 records."""
    d = _fresh_dir(run.out / "probe-cli")
    rows = data["records"][:200]
    (d / "corpus.jsonl").write_text(
        "".join(
            json.dumps({"code": r.code, "language": r.language,
                        **({"docstring": r.docstring} if r.docstring else {})}) + "\n"
            for r in rows
        ),
        encoding="utf-8",
    )
    cli = BundledCli(run)
    cli.steps = {"pretrain": 1, "pretrain-dual": 1, "finetune": 1}
    argv = cli._argv(d)
    for stage in PREP_STAGES:
        run.meter.time("py", cli.cli, stage, argv[stage])
    cli._write_mixture(d, list(obj.read_instances(d / "dual.jsonl")))
    for stage in TRAIN_STAGES:
        run.meter.time("np", cli.cli, stage, argv[stage])
    refs = [r.docstring for r in rows if r.docstring]
    for name in ("hyp.txt", "ref.txt"):
        (d / name).write_text("\n".join(refs) + "\n", encoding="utf-8")
    run.meter.time("py", cli.cli, "eval", argv["eval"])
    shutil.rmtree(d)


def probe(run: Run, data: dict) -> None:
    run.tracer.next_op()
    have = {s["name"] for s in run.tracer.spans}
    decoded = {(s["counts"]["beam"], s["counts"]["length"]) for s in run.tracer.named("training.generate")}
    meter = run.meter
    if "corpus.normalize_corpus" not in have:
        meter.time("py", _prep, run, data)
    meter.time("py", _lex, run, data)
    meter.time("py", _encode, run, data)
    meter.time("py", _bleu, run, data)
    meter.time("np", _model, run, data)
    missing = [(b, n) for b in (1, 4) for n in DECODE_LENGTHS if (b, n) not in decoded]
    _decode(run, data, missing)
    if "cli.dispatch" not in have:
        _cli(run, data)


def _norm(span: dict) -> float:
    return (span["end"] - span["start"]) * span["factor"]


def layer_metrics(run: Run) -> dict[str, float]:
    tracer = run.tracer
    own = tracer.self_times()
    out: dict[str, float] = {}
    for metric, (name, key) in RATES.items():
        spans = tracer.named(name)
        out[metric] = sum(s["counts"][key] for s in spans) / sum(own[s["id"]] * s["factor"] for s in spans)
    out["bpe.train_s"] = statistics.median(_norm(s) for s in tracer.named("bpe.train"))
    for metric, name in TIMES_MS.items():
        out[metric] = 1e3 * statistics.median(_norm(s) for s in tracer.named(name))
    gens = tracer.named("training.generate")
    for kind, beam in (("greedy", 1), ("beam4", 4)):
        for n in DECODE_LENGTHS:
            spans = [s for s in gens if s["counts"]["beam"] == beam and s["counts"]["length"] == n]
            out[f"training.{kind}_ms.L{n}"] = 1e3 * statistics.median(_norm(s) for s in spans)
    stages = tracer.named("cli.dispatch")
    for stage in CLI_STAGES:
        out[f"cli.stage_s.{stage}"] = statistics.median(_norm(s) for s in stages if s["counts"]["stage"] == stage)
    refs = run.meter.ref_summary()
    out["host.ref_py_ms"] = refs["py"]
    out["host.ref_np_ms"] = refs["np"]
    return out
