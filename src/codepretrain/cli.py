"""Command-line pipeline: ingest -> stats -> train-tokenizer -> build-instances
-> pretrain -> finetune -> generate -> eval.

Artifact-producing commands write a resolved-config snapshot next to their
output, holding the arguments and a sha256 of every input the stage reads.
When the output already exists with an identical snapshot the stage is
skipped, so re-running a pipeline only redoes stages whose configuration or
inputs changed.  All randomness flows from explicit seeds; rerunning a stage
with the same configuration reproduces its artifacts byte for byte.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import bpe, corpus, metrics as metrics_mod, mixture as mixture_mod
from . import lexer as lx
from . import objectives as obj
from . import training as tr
from .model import ModelConfig, Seq2SeqModel

RUN_DIR_ENV = "CODEPRETRAIN_RUN_DIR"


class CommandError(Exception):
    """Categorized failure reported to stderr with exit status 1."""


def _resolve_out(args_out: str | None, default_name: str) -> Path:
    if args_out:
        return Path(args_out)
    root = os.environ.get(RUN_DIR_ENV)
    if not root:
        raise CommandError(
            f"--out not given and {RUN_DIR_ENV} is not set"
        )
    return Path(root) / default_name


def _snapshot_path(out: Path) -> Path:
    return out / "config.json" if out.suffix == "" else out.with_suffix(out.suffix + ".config.json")


def _stage_up_to_date(out: Path, config: dict) -> bool:
    """Whether ``out`` was made under ``config``.  If not, the old snapshot is
    deleted before the stage writes anything, so a run killed mid-write
    leaves no snapshot vouching for its half-written output."""
    snap = _snapshot_path(out)
    if out.exists() and snap.exists():
        try:
            if json.loads(snap.read_text(encoding="utf-8")) == config:
                return True
        except json.JSONDecodeError:
            pass
    snap.unlink(missing_ok=True)
    return False


def _write_snapshot(out: Path, config: dict) -> None:
    snap = _snapshot_path(out)
    snap.parent.mkdir(parents=True, exist_ok=True)
    snap.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _digest(path: Path) -> str:
    """sha256 of a file, or of every file under a directory with its relative name."""
    h = hashlib.sha256()
    if path.is_dir():
        for f in sorted(p for p in path.rglob("*") if p.is_file()):
            h.update(f.relative_to(path).as_posix().encode("utf-8") + b"\0")
            h.update(hashlib.sha256(f.read_bytes()).digest())
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


def _input_digests(*inputs: tuple[str | None, str]) -> dict[str, str]:
    """Digests of a stage's (path, description) inputs, keyed by path; a path
    of None is an optional input that was not given."""
    return {str(path): _digest(_require_file(path, what)) for path, what in inputs if path is not None}


def _load_lexers(config_dir: str | None) -> dict[str, lx.LanguageLexer]:
    return lx.load_lexers(config_dir)


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise CommandError(f"{what} not found: {path}")
    return p


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def _cmd_ingest(args) -> int:
    src = _require_file(args.input, "corpus file")
    out = _resolve_out(args.out, "documents.jsonl")
    config = {
        "stage": "ingest",
        "input": str(src),
        "lang_config": args.lang_config,
        "keep_comments": args.keep_comments,
        "out": str(out),
        "inputs": _input_digests((args.input, "corpus file"), (args.lang_config, "language config")),
    }
    if _stage_up_to_date(out, config):
        print(f"ingest: up to date ({out})")
        return 0
    lexers = _load_lexers(args.lang_config)
    errors: list[corpus.IngestError] = []
    records = corpus.ingest(src, errors=errors)
    docs = corpus.normalize_corpus(records, lexers, strip_comments=not args.keep_comments)
    out.parent.mkdir(parents=True, exist_ok=True)
    count = corpus.write_documents(docs, out)
    for err in errors:
        print(f"line {err.line_number}: {err.message}", file=sys.stderr)
    print(f"ingest: wrote {count} documents to {out} ({len(errors)} malformed lines)")
    _write_snapshot(out, config)
    return 0


def _read_any_documents(path: Path, lang_config: str | None):
    """Accept either normalized documents or a raw corpus file."""
    with open(path, encoding="utf-8") as f:
        first = ""
        for line in f:
            if line.strip():
                first = line
                break
    if not first:
        return []
    row = json.loads(first)
    if "code_tokens" in row:
        return list(corpus.read_documents(path))
    lexers = _load_lexers(lang_config)
    return list(corpus.normalize_corpus(corpus.ingest(path), lexers))


def _cmd_stats(args) -> int:
    src = _require_file(args.input, "input file")
    docs = _read_any_documents(src, args.lang_config)
    stats = corpus.compute_stats(docs)
    for lang, s in sorted(stats.per_language.items()):
        print(
            f"{lang} with_nl={s.with_nl} without_nl={s.without_nl} "
            f"identifier_rate={s.identifier_rate:.4f}"
        )
    return 0


def _cmd_lex(args) -> int:
    src = _require_file(args.input, "input file")
    lexers = _load_lexers(args.lang_config)
    try:
        lexer = lx.get_lexer(args.lang, lexers)
    except lx.UnsupportedLanguageError:
        raise CommandError(f"unsupported language tag: {args.lang}")
    tokens = lx.lex(src.read_text(encoding="utf-8"), lexer)
    labels = lx.label_identifiers(tokens)
    for token, label in zip(tokens, labels):
        print(f"{token.kind}\t{label}\t{json.dumps(token.text)}")
    return 0


def _iter_corpus_texts(path: Path, fields: tuple[str, ...]):
    errors: list[corpus.IngestError] = []
    for rec in corpus.ingest(path, errors=errors):
        if "code" in fields:
            yield rec.code
        if "docstring" in fields and rec.docstring:
            yield rec.docstring


def _cmd_train_tokenizer(args) -> int:
    src = _require_file(args.input, "corpus file")
    out = _resolve_out(args.out, "tokenizer")
    fields = tuple(args.text_fields.split(","))
    config = {
        "stage": "train-tokenizer",
        "input": str(src),
        "vocab_size": args.vocab_size,
        "min_freq": args.min_freq,
        "text_fields": args.text_fields,
        "out": str(out),
        "inputs": _input_digests((args.input, "corpus file")),
    }
    if _stage_up_to_date(out, config):
        print(f"train-tokenizer: up to date ({out})")
        return 0
    try:
        tok = bpe.train(_iter_corpus_texts(src, fields), args.vocab_size, args.min_freq)
    except bpe.TrainingDataError as exc:
        raise CommandError(str(exc))
    tok.save(out)
    print(f"train-tokenizer: vocab size {tok.vocab_size} ({len(tok.merges)} merges) -> {out}")
    _write_snapshot(out, config)
    return 0


def _cmd_build_instances(args) -> int:
    src = _require_file(args.input, "documents file")
    out = _resolve_out(args.out, f"instances-{args.phase}.jsonl")
    config = {
        "stage": "build-instances",
        "input": str(src),
        "tokenizer": args.tokenizer,
        "phase": args.phase,
        "seed": args.seed,
        "rate": args.rate,
        "max_src_len": args.max_src_len,
        "max_tgt_len": args.max_tgt_len,
        "out": str(out),
        "inputs": _input_digests(
            (args.input, "documents file"),
            (args.tokenizer, "tokenizer directory"),
            (args.lang_config, "language config"),
        ),
    }
    if _stage_up_to_date(out, config):
        print(f"build-instances: up to date ({out})")
        return 0
    tok = bpe.SubwordTokenizer.load(_require_file(args.tokenizer, "tokenizer directory"))
    docs = _read_any_documents(src, args.lang_config)
    if args.phase == "denoise":
        instances = obj.build_denoising_instances(
            docs, tok, rate=args.rate, seed=args.seed,
            max_src_len=args.max_src_len, max_tgt_len=args.max_tgt_len,
        )
    else:
        instances = obj.build_dual_instances(
            docs, tok, max_src_len=args.max_src_len, max_tgt_len=args.max_tgt_len
        )
    out.parent.mkdir(parents=True, exist_ok=True)
    count = obj.write_instances(instances, out)
    print(f"build-instances: wrote {count} {args.phase} instances to {out}")
    _write_snapshot(out, config)
    return 0


def _model_config_from_args(args, vocab_size: int) -> ModelConfig:
    return ModelConfig(
        vocab_size=vocab_size,
        d_model=args.d_model,
        num_heads=args.num_heads,
        encoder_layers=args.encoder_layers,
        decoder_layers=args.decoder_layers,
        feedforward_dim=args.feedforward_dim,
        max_src_len=args.max_src_len,
        max_tgt_len=args.max_tgt_len,
        dropout=args.dropout,
    )


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d-model", type=int, default=128, dest="d_model")
    p.add_argument("--num-heads", type=int, default=4, dest="num_heads")
    p.add_argument("--encoder-layers", type=int, default=2, dest="encoder_layers")
    p.add_argument("--decoder-layers", type=int, default=2, dest="decoder_layers")
    p.add_argument("--feedforward-dim", type=int, default=512, dest="feedforward_dim")
    p.add_argument("--max-src-len", type=int, default=512, dest="max_src_len")
    p.add_argument("--max-tgt-len", type=int, default=256, dest="max_tgt_len")
    p.add_argument("--dropout", type=float, default=0.0)


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=8, dest="batch_size")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--warmup-steps", type=int, default=0, dest="warmup_steps")
    p.add_argument("--seed", type=int, default=0)


def _cmd_pretrain(args) -> int:
    inst_path = _require_file(args.instances, "instances file")
    out = _resolve_out(args.out, f"pretrain-{args.phase}")
    config = {
        "stage": "pretrain",
        "instances": str(inst_path),
        "tokenizer": args.tokenizer,
        "phase": args.phase,
        "init": args.init,
        "steps": args.steps,
        "batch_size": args.batch_size,
        "lr": args.lr,
        "warmup_steps": args.warmup_steps,
        "seed": args.seed,
        "model": {
            "d_model": args.d_model,
            "num_heads": args.num_heads,
            "encoder_layers": args.encoder_layers,
            "decoder_layers": args.decoder_layers,
            "feedforward_dim": args.feedforward_dim,
            "max_src_len": args.max_src_len,
            "max_tgt_len": args.max_tgt_len,
            "dropout": args.dropout,
        },
        "out": str(out),
        "inputs": _input_digests(
            (args.instances, "instances file"),
            (args.tokenizer, "tokenizer directory"),
            (args.init, "checkpoint"),
        ),
    }
    if _stage_up_to_date(out, config):
        print(f"pretrain: up to date ({out})")
        return 0
    tok = bpe.SubwordTokenizer.load(_require_file(args.tokenizer, "tokenizer directory"))
    instances = list(obj.read_instances(inst_path))
    if args.init:
        model = Seq2SeqModel.load(_require_file(args.init, "checkpoint"))
    else:
        model = Seq2SeqModel(_model_config_from_args(args, tok.vocab_size), seed=args.seed)
    schedule = tr.TrainSchedule(
        steps=args.steps,
        batch_size=args.batch_size,
        peak_lr=args.lr,
        warmup_steps=args.warmup_steps,
        seed=args.seed,
    )
    try:
        log = tr.pretrain(model, instances, schedule, phase=args.phase)
    except (ValueError, tr.InstanceObjectiveError) as exc:
        raise CommandError(str(exc))
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "checkpoint.npz")
    tr.write_metrics_log(log, out / "metrics.jsonl")
    if log:
        first = log[0].loss
        last = log[-1].loss
        print(f"pretrain: {args.steps} steps, loss {first:.4f} -> {last:.4f} ({out})")
    else:
        print(f"pretrain: 0 steps, parameters unchanged ({out})")
    _write_snapshot(out, config)
    return 0


def _load_task_instances(path: str, tokenizer: bpe.SubwordTokenizer) -> list[obj.TrainingInstance]:
    """A task dataset is either pre-built instances or {source, target} text pairs."""
    p = _require_file(path, "task dataset")
    out: list[obj.TrainingInstance] = []
    with open(p, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            if "source_ids" in row:
                out.append(obj.TrainingInstance.from_dict(row))
            else:
                source = (
                    tokenizer.cls_id,
                    *tokenizer.encode(row["source"], use_specials=False),
                    tokenizer.sep_id,
                )
                target = (*tokenizer.encode(row["target"], use_specials=False), tokenizer.sep_id)
                out.append(obj.TrainingInstance(source, target, obj.FINETUNE))
    return out


def _mixture_inputs(mixture_path: Path) -> list[tuple[str | None, str]]:
    """The dataset and validation files a mixture config lists."""
    try:
        return [
            (entry.get(key), what)
            for entry in json.loads(mixture_path.read_text(encoding="utf-8"))["tasks"]
            for key, what in (("path", "task dataset"), ("validation", "validation dataset"))
        ]
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
        raise CommandError(f"malformed mixture config {mixture_path}: {exc}")


def _cmd_finetune(args) -> int:
    mixture_path = _require_file(args.mixture, "mixture config")
    out = _resolve_out(args.out, "finetune")
    config = {
        "stage": "finetune",
        "mixture": str(mixture_path),
        "tokenizer": args.tokenizer,
        "init": args.init,
        "alpha": args.alpha,
        "multi_task": args.multi_task,
        "steps": args.steps,
        "batch_size": args.batch_size,
        "lr": args.lr,
        "warmup_steps": args.warmup_steps,
        "seed": args.seed,
        "out": str(out),
        "inputs": _input_digests(
            (args.mixture, "mixture config"),
            *_mixture_inputs(mixture_path),
            (args.tokenizer, "tokenizer directory"),
            (args.init, "checkpoint"),
        ),
    }
    if _stage_up_to_date(out, config):
        print(f"finetune: up to date ({out})")
        return 0
    tok = bpe.SubwordTokenizer.load(_require_file(args.tokenizer, "tokenizer directory"))
    try:
        mix = mixture_mod.TaskMixture.from_config(mixture_path)
        if args.alpha is not None:
            mix = mixture_mod.TaskMixture(tasks=mix.tasks, alpha=args.alpha)
    except ValueError as exc:
        raise CommandError(str(exc))
    model = Seq2SeqModel.load(_require_file(args.init, "checkpoint"))
    datasets = {spec.name: _load_task_instances(spec.path, tok) for spec in mix.tasks}
    with open(mixture_path, encoding="utf-8") as f:
        raw_cfg = json.load(f)
    validation = {}
    for entry in raw_cfg["tasks"]:
        if entry.get("validation"):
            validation[entry["name"]] = _load_task_instances(entry["validation"], tok)
    schedule = tr.TrainSchedule(
        steps=args.steps,
        batch_size=args.batch_size,
        peak_lr=args.lr,
        warmup_steps=args.warmup_steps,
        seed=args.seed,
    )
    try:
        log, best = tr.finetune_multitask(
            model, mix, datasets, tok, schedule, validation=validation or None
        )
    except ValueError as exc:
        raise CommandError(str(exc))
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "checkpoint.npz")
    tr.write_metrics_log(log, out / "metrics.jsonl")
    for task, ckpt in best.items():
        Seq2SeqModel(model.config, ckpt.params).save(out / f"checkpoint.{task}.npz")
        print(f"finetune: best {task} at step {ckpt.step} (val loss {ckpt.metric:.4f})")
    print(f"finetune: {args.steps} steps over {len(mix.tasks)} tasks ({out})")
    _write_snapshot(out, config)
    return 0


def _cmd_generate(args) -> int:
    out = _resolve_out(args.out, "hyp.txt")
    config = {
        "stage": "generate",
        "checkpoint": args.checkpoint,
        "tokenizer": args.tokenizer,
        "input": args.input,
        "control_code": args.control_code,
        "max_len": args.max_len,
        "beam": args.beam,
        "out": str(out),
        "inputs": _input_digests(
            (args.checkpoint, "checkpoint"),
            (args.tokenizer, "tokenizer directory"),
            (args.input, "task dataset"),
        ),
    }
    if _stage_up_to_date(out, config):
        print(f"generate: up to date ({out})")
        return 0
    tok = bpe.SubwordTokenizer.load(args.tokenizer)
    model = Seq2SeqModel.load(args.checkpoint)
    spec = mixture_mod.TaskSpec("generate", 1, args.control_code)
    lines = []
    for n, inst in enumerate(_load_task_instances(args.input, tok), start=1):
        try:
            source = mixture_mod.apply_control_code(inst, spec, tok).source_ids
            ids = tr.generate(model, source, args.max_len, beam=args.beam, eos_id=tok.sep_id)
        except ValueError as exc:
            raise CommandError(f"{args.input} record {n}: {exc}")
        lines.append(" ".join(tok.decode(ids).split()))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"generate: wrote {len(lines)} hypotheses to {out}")
    _write_snapshot(out, config)
    return 0


def _read_lines(path: str) -> list[str]:
    return _require_file(path, "file").read_text(encoding="utf-8").splitlines()


def _cmd_eval(args) -> int:
    hyps = _read_lines(args.hyp)
    refs = _read_lines(args.ref)
    if len(hyps) != len(refs):
        raise CommandError(f"hyp/ref line counts differ: {len(hyps)} vs {len(refs)}")
    reports: list[metrics_mod.EvalReport] = []
    task = args.task
    if task in ("summarize", "generate", "translate", "refine"):
        scores = [
            metrics_mod.smoothed_bleu4(h.split(), r.split()) if r.split() else 0.0
            for h, r in zip(hyps, refs)
        ]
        reports.append(
            metrics_mod.EvalReport("bleu4", sum(scores) / len(scores) if scores else 0.0, scores)
        )
        if task != "summarize":
            em = [1.0 if h.split() == r.split() else 0.0 for h, r in zip(hyps, refs)]
            reports.append(metrics_mod.EvalReport("exact_match", metrics_mod.exact_match(hyps, refs), em))
        if task in ("generate", "translate"):
            print(
                "note: codebleu is not reported (needs language-specific dataflow matching)",
                file=sys.stderr,
            )
    elif task == "defect":
        preds = [int(x) for x in hyps]
        golds = [int(x) for x in refs]
        per = [1.0 if p == g else 0.0 for p, g in zip(preds, golds)]
        reports.append(metrics_mod.EvalReport("accuracy", metrics_mod.accuracy(preds, golds), per))
    elif task == "clone":
        preds = [int(x) for x in hyps]
        golds = [int(x) for x in refs]
        reports.append(metrics_mod.EvalReport("f1", metrics_mod.f1_binary(preds, golds)))
    else:
        raise CommandError(f"unknown eval task: {task}")
    for rep in reports:
        print(json.dumps(rep.to_dict()))
    return 0


# --------------------------------------------------------------------------
# parser / dispatch
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codepretrain",
        description="Identifier-aware denoising pre-training pipeline for source code.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="normalize a raw corpus into labeled documents")
    p.add_argument("--input", required=True)
    p.add_argument("--lang-config", default=None, dest="lang_config")
    p.add_argument("--keep-comments", action="store_true", dest="keep_comments")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("stats", help="per-language document counts and identifier rates")
    p.add_argument("--input", required=True)
    p.add_argument("--lang-config", default=None, dest="lang_config")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("lex", help="dump the token/label stream of one source file")
    p.add_argument("--lang", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--lang-config", default=None, dest="lang_config")
    p.set_defaults(func=_cmd_lex)

    p = sub.add_parser("train-tokenizer", help="learn a byte-level BPE vocabulary")
    p.add_argument("--input", required=True)
    p.add_argument("--vocab-size", type=int, default=8000, dest="vocab_size")
    p.add_argument("--min-freq", type=int, default=3, dest="min_freq")
    p.add_argument("--text-fields", default="code,docstring", dest="text_fields")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_train_tokenizer)

    p = sub.add_parser("build-instances", help="materialize training instances")
    p.add_argument("--input", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--lang-config", default=None, dest="lang_config")
    p.add_argument("--phase", choices=("denoise", "dual"), default="denoise")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rate", type=float, default=0.15)
    p.add_argument("--max-src-len", type=int, default=512, dest="max_src_len")
    p.add_argument("--max-tgt-len", type=int, default=256, dest="max_tgt_len")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_build_instances)

    p = sub.add_parser("pretrain", help="train the sequence-to-sequence model")
    p.add_argument("--instances", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--phase", choices=("denoise", "dual"), default="denoise")
    p.add_argument("--init", default=None, help="checkpoint to continue from")
    _add_schedule_flags(p)
    _add_model_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("finetune", help="multi-task fine-tuning with balanced sampling")
    p.add_argument("--multi-task", action="store_true", dest="multi_task")
    p.add_argument("--mixture", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--alpha", type=float, default=None)
    _add_schedule_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("generate", help="decode one hypothesis line per dataset record")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--input", required=True, help="task dataset: instances or {source, target} pairs")
    p.add_argument("--control-code", default="", dest="control_code")
    p.add_argument("--max-len", type=int, default=128, dest="max_len")
    p.add_argument("--beam", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("eval", help="score hypothesis files against references")
    p.add_argument("--task", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.set_defaults(func=_cmd_eval)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
