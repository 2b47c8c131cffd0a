"""Command-line pipeline: ingest -> stats -> train-tokenizer -> build-instances
-> pretrain -> finetune -> generate -> eval.

Each input has one format.  ``ingest``, ``stats`` and ``train-tokenizer`` read
a raw corpus, skip its malformed lines and print each one once on stderr as
``line N: <cause>``; ``build-instances`` reads the documents ``ingest``
writes, and a line that is not a document ends it with an error.

Each artifact-producing command is a ``Stage`` that declares its input files
once and writes the output its required ``--out`` names, a file or a
directory.  ``dispatch`` runs every stage the same way: it digests the inputs
and writes a snapshot ``<out>.config.json`` beside the output that records
every flag of the stage, a sha256 of every input the stage reads, the
checkpoint and tokenizer format versions, the compute dtype of training and
decoding, and a sha256 of the package's own code and data.  When the output
already exists with an identical snapshot the stage is skipped, so re-running
a pipeline only redoes stages whose flags, inputs, formats, arithmetic or
code changed.  A snapshot that differs in any key,
including one written by an older version, makes its stage run again once.
All randomness flows from explicit seeds; rerunning a stage with the same
configuration reproduces its artifacts byte for byte.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import zipfile
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Callable

from . import artifacts, bpe, corpus, metrics as metrics_mod, mixture as mixture_mod
from . import lexer as lx
from . import model as mdl
from . import objectives as obj
from . import training as tr
from .model import ModelConfig, Seq2SeqModel

class CommandError(Exception):
    """Categorized failure reported to stderr with exit status 1."""


@dataclass(frozen=True)
class Stage:
    """An artifact-producing command.  ``run(args, out)`` does the work;
    ``inputs`` are (flag, description) pairs naming the files the stage
    reads, and ``more_inputs`` lists further (path, description) pairs found
    inside those files."""

    run: Callable[[argparse.Namespace, Path], None]
    inputs: tuple[tuple[str, str], ...]
    more_inputs: Callable[[argparse.Namespace], list[tuple[str | None, str]]] | None = None


def _snapshot_path(out: Path) -> Path:
    """The snapshot of a file or directory output, beside it and outside it."""
    return out.with_name(out.name + ".config.json")


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


@functools.cache
def _code_digest() -> str:
    """sha256 over the package's own code and data: every ``*.py`` file of the
    package and every file under its ``data/``, each with its name, in name
    order.  Computed once per process."""
    root = resources.files("codepretrain")
    found = {f.name: f for f in root.iterdir() if f.is_file() and f.name.endswith(".py")}
    dirs = [("data/", root / "data")]
    while dirs:
        prefix, node = dirs.pop()
        for child in node.iterdir():
            if child.is_dir():
                dirs.append((f"{prefix}{child.name}/", child))
            else:
                found[prefix + child.name] = child
    h = hashlib.sha256()
    for name in sorted(found):
        h.update(name.encode("utf-8") + b"\0")
        h.update(hashlib.sha256(found[name].read_bytes()).digest())
    return h.hexdigest()


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise CommandError(f"{what} not found: {path}")
    return p


def _load(what: str, load: Callable, path: str):
    """``load(path)``; a file it cannot read ends the command with an error
    naming the path and the cause."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise CommandError(f"cannot read {what} {path}: {exc}")


def _run_stage(args: argparse.Namespace) -> int:
    """Skip the stage when its snapshot matches; otherwise run it and write
    the snapshot after it succeeds."""
    stage: Stage = args.func
    out = Path(args.out)
    if out.name in ("", ".."):
        raise CommandError(f"--out {args.out} names no file or directory of its own")
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    files = [(getattr(args, flag), what) for flag, what in stage.inputs]
    if stage.more_inputs is not None:
        files += stage.more_inputs(args)
    inputs = {str(path): _digest(_require_file(path, what)) for path, what in files if path is not None}
    versions = {"checkpoint": mdl.CHECKPOINT_VERSION, "tokenizer": bpe.FORMAT_VERSION,
                "compute_dtype": tr.COMPUTE_DTYPE.__name__, "code": _code_digest()}
    config = {**flags, "stage": args.command, "out": str(out), "inputs": inputs, "versions": versions}
    if _stage_up_to_date(out, config):
        print(f"{args.command}: up to date ({out})")
        return 0
    out.parent.mkdir(parents=True, exist_ok=True)
    stage.run(args, out)
    snapshot = json.dumps(config, indent=2, sort_keys=True) + "\n"
    artifacts.write_atomic(_snapshot_path(out), lambda f: f.write(snapshot))
    return 0


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def _read_corpus(path: str, errors: list[corpus.IngestError]):
    """Stream the records of the raw corpus ``path``.  Its malformed lines are
    collected into ``errors`` and, once the file is read, each is printed on
    stderr as ``line N: <cause>``."""
    yield from corpus.ingest(Path(path), errors=errors)
    for err in errors:
        print(f"line {err.line_number}: {err.message}", file=sys.stderr)


def _cmd_ingest(args, out: Path) -> None:
    lexers = lx.load_lexers()
    errors: list[corpus.IngestError] = []
    records = _read_corpus(args.input, errors)
    docs = corpus.normalize_corpus(records, lexers, strip_comments=not args.keep_comments)
    count = corpus.write_documents(docs, out)
    print(f"ingest: wrote {count} documents to {out} ({len(errors)} malformed lines)")


def _cmd_stats(args) -> int:
    _require_file(args.input, "input file")
    docs = corpus.normalize_corpus(_read_corpus(args.input, []), lx.load_lexers())
    stats = corpus.compute_stats(docs)
    for lang, s in sorted(stats.per_language.items()):
        print(
            f"{lang} with_nl={s.with_nl} without_nl={s.without_nl} "
            f"identifier_rate={s.identifier_rate:.4f}"
        )
    return 0


def _cmd_lex(args) -> int:
    src = _require_file(args.input, "input file")
    lexer = lx.get_lexer(args.lang, lx.load_lexers())
    tokens = lx.lex(src.read_text(encoding="utf-8"), lexer)
    labels = lx.label_identifiers(tokens)
    for token, label in zip(tokens, labels):
        print(f"{token.kind}\t{label}\t{json.dumps(token.text)}")
    return 0


def _cmd_train_tokenizer(args, out: Path) -> None:
    texts = (text for rec in _read_corpus(args.input, []) for text in (rec.code, rec.docstring) if text)
    tok = bpe.train(texts, args.vocab_size, args.min_freq)
    tok.save(out)
    print(f"train-tokenizer: vocab size {tok.vocab_size} ({len(tok.merges)} merges) -> {out}")


def _cmd_build_instances(args, out: Path) -> None:
    tok = _load("tokenizer", bpe.SubwordTokenizer.load, args.tokenizer)
    docs = corpus.read_documents(args.input)
    caps = {"max_src_len": args.max_src_len, "max_tgt_len": args.max_tgt_len}
    if args.phase == "denoise":
        instances = obj.build_denoising_instances(docs, tok, rate=args.rate, seed=args.seed, **caps)
    else:
        instances = obj.build_dual_instances(docs, tok, **caps)
    count = obj.write_instances(instances, out)
    print(f"build-instances: wrote {count} {args.phase} instances to {out}")


# pretrain's model flags, by ModelConfig field, with that field's default
_MODEL_FLAGS = {f.name: f.default for f in fields(ModelConfig) if f.name not in ("vocab_size", "pad_id")}


def _model_config_from_args(args, vocab_size: int) -> ModelConfig:
    return ModelConfig(vocab_size=vocab_size, **{name: getattr(args, name) for name in _MODEL_FLAGS})


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    for name, default in _MODEL_FLAGS.items():
        p.add_argument("--" + name.replace("_", "-"), type=type(default), dest=name,
                       help=f"default {default}; not with --init")


def _check_model_flags(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """``pretrain --init`` continues a checkpoint, whose model is fixed, so a
    model flag beside it is a usage error.  Without ``--init`` a model flag
    left out takes its default, so the snapshot records the value each took."""
    for name, default in _MODEL_FLAGS.items():
        if getattr(args, name) is None:
            if not args.init:
                setattr(args, name, default)
        elif args.init:
            parser.error(f"--{name.replace('_', '-')} cannot be given with --init: the checkpoint fixes the model")


def _positive_int(text: str) -> int:
    """An int flag that must be at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an int of at least 1, got {text!r}")
    return int(text)


def _schedule_from_args(args) -> tr.TrainSchedule:
    return tr.TrainSchedule(steps=args.steps, batch_size=args.batch_size, peak_lr=args.lr,
                            warmup_steps=args.warmup_steps, seed=args.seed)


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=8, dest="batch_size")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--warmup-steps", type=int, default=0, dest="warmup_steps")
    p.add_argument("--seed", type=int, default=0)


def _cmd_pretrain(args, out: Path) -> None:
    tok = _load("tokenizer", bpe.SubwordTokenizer.load, args.tokenizer)
    instances = list(obj.read_instances(Path(args.instances)))
    if args.init:
        model = _load("checkpoint", Seq2SeqModel.load, args.init)
    else:
        model = Seq2SeqModel(_model_config_from_args(args, tok.vocab_size), seed=args.seed)
    log = tr.pretrain(model, instances, _schedule_from_args(args), phase=args.phase)
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "checkpoint.npz")
    tr.write_metrics_log(log, out / "metrics.jsonl")
    if log:
        first, last = {}, {}
        for rec in log:
            first.setdefault(rec.objective, rec.loss)
            last[rec.objective] = rec.loss
        losses = ", ".join(f"{o} {first[o]:.4f} -> {last[o]:.4f}" for o in sorted(first))
        print(f"pretrain: {args.steps} steps, loss {losses} ({out})")
    else:
        print(f"pretrain: 0 steps, parameters unchanged ({out})")


def _load_task_instances(path: str, tokenizer: bpe.SubwordTokenizer) -> list[obj.TrainingInstance]:
    """A task dataset is either pre-built instances or {source, target} text pairs."""

    def parse(row) -> obj.TrainingInstance:
        if "source_ids" in row:
            return obj.TrainingInstance.from_dict(row)
        source, target = row["source"], row["target"]
        return obj.TrainingInstance(
            (tokenizer.cls_id, *tokenizer.encode(source, use_specials=False), tokenizer.sep_id),
            (*tokenizer.encode(target, use_specials=False), tokenizer.sep_id),
            obj.FINETUNE,
        )

    return list(artifacts.read_jsonl(path, parse))


def _read_mixture(args) -> tuple[float, list[tuple[str, str, str, str | None]]]:
    """The mixture config {"alpha": float, "tasks": [{name, path, control_code?,
    validation?}]}, with string fields and unique names: its alpha (``--alpha``
    when given) and each task's name, dataset path, control code and
    validation path.  Bad input raises ``ValueError`` naming its cause."""
    def malformed(cause) -> ValueError:
        return ValueError(f"malformed mixture config {args.mixture}: {cause}")

    with open(_require_file(args.mixture, "mixture config"), encoding="utf-8") as f:
        try:
            cfg = json.load(f)
        except json.JSONDecodeError as exc:
            raise malformed(exc) from exc
    try:
        entries = [(entry, entry["name"], entry["path"]) for entry in cfg["tasks"]]
        alpha = cfg.get("alpha", mixture_mod.DEFAULT_ALPHA)
    except KeyError as exc:
        raise malformed(f"missing key {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise malformed(exc) from exc
    tasks = {}
    for entry, name, path in entries:
        for key, value in entry.items():
            if key not in ("name", "path", "control_code", "validation"):
                raise malformed(f"task {name!r} has unknown key {key!r}")
            if not isinstance(value, str):
                raise malformed(f"task {name!r} field {key!r} must be a string")
        if name in tasks:
            raise malformed(f"task {name!r} appears twice")
        tasks[name] = (name, path, entry.get("control_code", ""), entry.get("validation") or None)
    try:  # with unit sizes this checks only alpha and the task count
        mixture_mod.mixture_probs([1] * len(tasks), alpha)
    except ValueError as exc:
        raise malformed(exc) from exc
    if args.alpha is not None:
        alpha = args.alpha
        mixture_mod.mixture_probs([1], alpha)
    return alpha, list(tasks.values())


def _mixture_files(args) -> list[tuple[str | None, str]]:
    """The dataset and validation files the mixture config lists."""
    return [(path, what) for _, data, _, val in _read_mixture(args)[1]
            for path, what in ((data, "task dataset"), (val, "validation dataset"))]


def _cmd_finetune(args, out: Path) -> None:
    tok = _load("tokenizer", bpe.SubwordTokenizer.load, args.tokenizer)
    alpha, tasks = _read_mixture(args)
    model = _load("checkpoint", Seq2SeqModel.load, args.init)
    datasets = {}
    for name, path, _, _ in tasks:
        datasets[name] = _load_task_instances(path, tok)
        if not datasets[name]:
            raise ValueError(f"task {name!r} dataset {path} is empty: task sizes must be positive")
    validation = {name: _load_task_instances(val, tok) for name, _, _, val in tasks if val}
    mix = mixture_mod.TaskMixture(tuple(mixture_mod.TaskSpec(name, len(datasets[name]), code)
                                        for name, _, code, _ in tasks), alpha)
    log, best = tr.finetune(model, mix, datasets, tok, _schedule_from_args(args), validation=validation or None)
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "checkpoint.npz")
    tr.write_metrics_log(log, out / "metrics.jsonl")
    for task, ckpt in best.items():
        Seq2SeqModel(model.config, ckpt.params).save(out / f"checkpoint.{task}.npz")
        print(f"finetune: best {task} at step {ckpt.step} (val loss {ckpt.metric:.4f})")
    print(f"finetune: {args.steps} steps over {len(mix.tasks)} tasks ({out})")


def _cmd_generate(args, out: Path) -> None:
    tok = _load("tokenizer", bpe.SubwordTokenizer.load, args.tokenizer)
    model = _load("checkpoint", Seq2SeqModel.load, args.checkpoint).astype(tr.COMPUTE_DTYPE)
    spec = mixture_mod.TaskSpec("generate", 1, args.control_code)
    cap = model.config.max_src_len
    lines, overlong = [], 0
    for n, inst in enumerate(_load_task_instances(args.input, tok), start=1):
        try:
            source = mixture_mod.apply_control_code(inst, spec, tok).source_ids
            too_long = len(source) > cap  # an empty hypothesis, which eval scores as a miss
            ids = [] if too_long else tr.generate(model, source, args.max_len, beam=args.beam, eos_id=tok.sep_id)
        except ValueError as exc:
            raise CommandError(f"{args.input} record {n}: {exc}")
        overlong += too_long
        lines.append(" ".join(tok.decode(ids).split()))
    if overlong:
        print(f"note: {overlong} of {len(lines)} sources exceed max_src_len {cap}; their hypotheses are empty",
              file=sys.stderr)
    artifacts.write_atomic(out, lambda f: f.writelines(line + "\n" for line in lines))
    print(f"generate: wrote {len(lines)} hypotheses to {out}")


def _read_lines(path: str) -> list[str]:
    return _require_file(path, "file").read_text(encoding="utf-8").splitlines()


_LABELS = {"0": 0, "1": 1}


def _reference_labels(path: str, lines: list[str]) -> list[int]:
    """One 0/1 label per line; a line that is not one names the file and line."""
    labels = [_LABELS.get(line.strip()) for line in lines]
    if None in labels:
        n = labels.index(None)
        raise CommandError(f"{path} line {n + 1}: label must be 0 or 1, got {lines[n]!r}")
    return labels


EVAL_TASKS = ("summarize", "generate", "translate", "refine", "defect", "clone")


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
    else:
        # a hypothesis that is no label (an early model's, or an empty line
        # when the first token is [SEP]) matches no reference
        golds = _reference_labels(args.ref, refs)
        preds = [_LABELS.get(h.strip()) for h in hyps]
        unlabelled = preds.count(None)
        if unlabelled:
            print(f"note: {unlabelled} of {len(preds)} hypotheses are not 0/1 labels", file=sys.stderr)
        if task == "defect":
            per = [1.0 if p == g else 0.0 for p, g in zip(preds, golds)]
            reports.append(metrics_mod.EvalReport("accuracy", metrics_mod.accuracy(preds, golds), per))
        else:
            reports.append(metrics_mod.EvalReport("f1", metrics_mod.f1_binary(preds, golds)))
    for rep in reports:
        print(json.dumps(rep.to_dict()))
    return 0


# --------------------------------------------------------------------------
# parser / dispatch
# --------------------------------------------------------------------------


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser.  An abbreviated flag is a usage error, not the
    flag it abbreviates.  An unknown flag, and a usage error that ``check``
    finds among the parsed flags, are reported with this command's usage
    rather than the top-level one."""

    check: Callable[[argparse.ArgumentParser, argparse.Namespace], None] | None = None

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        if self.check is not None:
            self.check(self, namespace)
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codepretrain",
        description="Identifier-aware denoising pre-training pipeline for source code.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p = sub.add_parser("ingest", help="normalize a raw corpus into labeled documents")
    p.add_argument("--input", required=True)
    p.add_argument("--keep-comments", action="store_true", dest="keep_comments")
    p.add_argument("--out", required=True)
    p.set_defaults(func=Stage(_cmd_ingest, (("input", "corpus file"),)))

    p = sub.add_parser("stats", help="per-language document counts and identifier rates of a raw corpus")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("lex", help="dump the token/label stream of one source file")
    p.add_argument("--lang", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_lex)

    p = sub.add_parser("train-tokenizer", help="learn a byte-level BPE vocabulary from a raw corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--vocab-size", type=int, default=8000, dest="vocab_size")
    p.add_argument("--min-freq", type=int, default=3, dest="min_freq")
    p.add_argument("--out", required=True)
    p.set_defaults(func=Stage(_cmd_train_tokenizer, (("input", "corpus file"),)))

    p = sub.add_parser("build-instances", help="materialize training instances from ingest's documents")
    p.add_argument("--input", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--phase", choices=("denoise", "dual"), default="denoise")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rate", type=float, default=0.15)
    p.add_argument("--max-src-len", type=int, default=512, dest="max_src_len")
    p.add_argument("--max-tgt-len", type=int, default=256, dest="max_tgt_len")
    p.add_argument("--out", required=True)
    p.set_defaults(func=Stage(_cmd_build_instances, (
        ("input", "documents file"), ("tokenizer", "tokenizer directory"),
    )))

    p = sub.add_parser("pretrain", help="train the sequence-to-sequence model")
    p.add_argument("--instances", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--phase", choices=("denoise", "dual"), default="denoise")
    p.add_argument("--init", default=None, help="checkpoint to continue from")
    _add_schedule_flags(p)
    _add_model_flags(p)
    p.add_argument("--out", required=True)
    p.check = _check_model_flags
    p.set_defaults(func=Stage(_cmd_pretrain, (
        ("instances", "instances file"), ("tokenizer", "tokenizer directory"), ("init", "checkpoint"),
    )))

    p = sub.add_parser("finetune", help="multi-task fine-tuning with balanced sampling")
    p.add_argument(
        "--multi-task", action="store_true", dest="multi_task",
        help="accepted for compatibility; fine-tuning always samples the task mixture",
    )
    p.add_argument("--mixture", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--alpha", type=float, default=None)
    _add_schedule_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=Stage(_cmd_finetune, (
        ("mixture", "mixture config"), ("tokenizer", "tokenizer directory"), ("init", "checkpoint"),
    ), more_inputs=_mixture_files))

    p = sub.add_parser("generate", help="decode one hypothesis line per dataset record")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--input", required=True, help="task dataset: instances or {source, target} pairs")
    p.add_argument("--control-code", default="", dest="control_code")
    p.add_argument("--max-len", type=_positive_int, default=128, dest="max_len")
    p.add_argument("--beam", type=_positive_int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=Stage(_cmd_generate, (
        ("checkpoint", "checkpoint"), ("tokenizer", "tokenizer directory"), ("input", "task dataset"),
    )))

    p = sub.add_parser("eval", help="score hypothesis files against references")
    p.add_argument("--task", required=True, choices=EVAL_TASKS)
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
        if isinstance(args.func, Stage):
            return _run_stage(args)
        return args.func(args)
    except (CommandError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
