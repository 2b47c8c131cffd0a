"""The benchmark's three workloads.

Every workload runs whole rounds of the same operations until the run's
seconds are spent.  A round goes through the same phases everywhere -- data
preparation, training, greedy and beam-4 decoding -- with a make-up that puts
the weight on different layers:

- ``bundled-cli``: the README pipeline on the bundled corpus through
  ``cli.dispatch``, small vocabulary, short decodes;
- ``v8k-long``: long multi-function documents, the README default model at
  vocabulary 8000, 128-token decodes;
- ``prep-20k``: a 20k-record corpus whose preparation dwarfs a short
  training and decoding tail.

Phases are timed as blocks between reference-kernel measurements (see
``refs``); correctness checks run outside the blocks.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen
from refs import Block, Meter
from spans import Tracer

from codepretrain import bpe, cli, corpus, lexer, mixture
from codepretrain import model as mdl
from codepretrain import objectives as obj
from codepretrain import training as tr

BATCH = 8
# Instance building and batch draws use this fixed seed (the README's), so
# the batches' shapes -- and with them the work and the peak memory of a
# round -- are the same for every ``--seed``, which varies the inputs.
WORK_SEED = 0
PREP_STAGES = ("ingest", "train-tokenizer", "build-instances-denoise", "build-instances-dual")
TRAIN_STAGES = ("pretrain", "pretrain-dual", "finetune")
CLI_STAGES = (*PREP_STAGES, *TRAIN_STAGES, "eval")


@dataclass
class Run:
    """What one benchmark process shares between its workload's parts."""

    out: Path
    seed: int
    tracer: Tracer
    meter: Meter
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)

    def op(self, ok: bool = True) -> None:
        """Count an operation that has just ended."""
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.tracer.next_op()

    def check(self, errs: list[str]) -> None:
        self.errors.extend(errs)


@dataclass
class RoundFigures:
    """Timed blocks and work counts of one round.  Each decode call is its
    own block; ``greedy_tokens`` and ``beam_tokens`` hold one count per call."""

    prep: list[Block] = field(default_factory=list)
    train: list[Block] = field(default_factory=list)
    greedy: list[Block] = field(default_factory=list)
    beam: list[Block] = field(default_factory=list)
    other: list[Block] = field(default_factory=list)
    docs: int = 0
    train_tokens: float = 0.0
    greedy_tokens: list[int] = field(default_factory=list)
    beam_tokens: list[int] = field(default_factory=list)

    def values(self, attr: str = "norm_s") -> dict[str, float]:
        def total(blocks):
            return sum(getattr(b, attr) for b in blocks)

        every = self.prep + self.train + self.greedy + self.beam + self.other
        return {
            "pipeline_s": total(every),
            "prep_docs_per_s": self.docs / total(self.prep),
            "train_tokens_per_s": self.train_tokens / total(self.train),
        }


def decode_rates(figures: list[RoundFigures], attr: str = "norm_s") -> dict[str, float]:
    """Tokens per second of the median decode call over all rounds: a call
    slowed by a burst of host load moves it less than it moves a sum."""
    def median_rate(blocks_of, tokens_of):
        return statistics.median(
            n / getattr(b, attr) for f in figures for b, n in zip(blocks_of(f), tokens_of(f))
        )

    return {
        "greedy_tokens_per_s": median_rate(lambda f: f.greedy, lambda f: f.greedy_tokens),
        "beam4_tokens_per_s": median_rate(lambda f: f.beam, lambda f: f.beam_tokens),
    }


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _text_line(tok: bpe.SubwordTokenizer, ids) -> str:
    """Subword pieces joined by single spaces, on one line."""
    return " ".join(" ".join(tok.decode([i]) for i in ids).split())


def _cut_at(ids: list[int], stop: int) -> list[int]:
    return ids[: ids.index(stop)] if stop in ids else ids


def _pools(instances, objectives) -> dict[str, list]:
    return {o: [i for i in instances if i.objective == o] for o in objectives}


def _held_loss(model, instances) -> float:
    loss, count, _ = mdl.seq2seq_loss_and_grads(model, instances, compute_grads=False)
    return loss / count


def _next_probs(model, src):
    """Next-token distributions after each prefix, via teacher forcing."""
    def fn(prefixes):
        insts = [obj.TrainingInstance(tuple(src), (*p, 0), obj.MSP) for p in prefixes]
        return mdl.forward_lm_batch(model, insts)[:, -1, :]
    return fn


class _Decoding:
    """Greedy and beam-4 decoding with their checks, shared by every workload."""

    def __init__(self, run: Run):
        self.run = run

    def _one(self, model, src, length: int, beam: int):
        with self.run.tracer.span("training.generate", beam=beam, length=length):
            return tr.generate(model, src, length, beam=beam)

    def generate(self, model, sources, length: int, beam: int):
        """Decode each source as its own timed block; returns (outputs, blocks)."""
        return self.run.meter.series("np", self._one, [(model, s, length, beam) for s in sources])

    def check_greedy(self, model, sources, outs, what: str) -> None:
        for k, (src, out) in enumerate(zip(sources, outs)):
            probs = mdl.forward_lm(model, src, out)
            self.run.check(checks.check_greedy(probs, out, f"{what} greedy source {k}"))

    def check_beam(self, model, sources, length: int, what: str) -> None:
        for k, src in enumerate(sources):
            got = tr.generate(model, src, length, beam=4)
            _, ref_lp = checks.plain_beam(_next_probs(model, src), 4, length)
            got_lp = checks.sequence_logprob(mdl.forward_lm(model, src, got), got)
            self.run.check(checks.check_beam(got_lp, ref_lp, f"{what} beam source {k}"))


# --------------------------------------------------------------------------
# bundled-cli
# --------------------------------------------------------------------------


class BundledCli:
    """The README pipeline on the bundled corpus, stage by stage through the CLI."""

    name = "bundled-cli"
    steps = {"pretrain": 8, "pretrain-dual": 4, "finetune": 4}
    hyp_sources = 8
    hyp_len = 16
    stale_keep = 10

    def __init__(self, run: Run):
        self.run = run
        self.decoding = _Decoding(run)
        self.src_corpus = corpus.bundled_corpus_path()
        self.logs: list[list[str]] = []

    def cli(self, stage: str, argv: list) -> str:
        buf = io.StringIO()
        with self.run.tracer.span("cli.dispatch", stage=stage), contextlib.redirect_stdout(buf):
            rc = cli.dispatch([str(a) for a in argv])
        if rc != 0:
            raise RuntimeError(f"{stage}: exit code {rc}")
        return buf.getvalue()

    def setup(self) -> list[Block]:
        return [self.run.meter.time("py", self._setup)[1]]

    def _setup(self) -> None:
        d = _fresh_dir(self.run.out / "setup")
        shutil.copyfile(self.src_corpus, d / "corpus.jsonl")
        self.cli("stats", ["stats", "--input", d / "corpus.jsonl"])
        rows = [json.loads(x) for x in (d / "corpus.jsonl").read_text(encoding="utf-8").splitlines() if x.strip()]
        self.n_records = len(rows)
        self.n_bimodal = sum(1 for r in rows if r.get("docstring"))

    def _argv(self, d: Path) -> dict[str, list]:
        s = WORK_SEED
        return {
            "ingest": ["ingest", "--input", d / "corpus.jsonl", "--out", d / "docs.jsonl"],
            "train-tokenizer": ["train-tokenizer", "--input", d / "corpus.jsonl", "--vocab-size", 8000,
                                "--min-freq", 3, "--out", d / "tok"],
            "build-instances-denoise": ["build-instances", "--input", d / "docs.jsonl", "--tokenizer", d / "tok",
                                        "--phase", "denoise", "--seed", s, "--rate", 0.15,
                                        "--out", d / "denoise.jsonl"],
            "build-instances-dual": ["build-instances", "--input", d / "docs.jsonl", "--tokenizer", d / "tok",
                                     "--phase", "dual", "--out", d / "dual.jsonl"],
            "pretrain": ["pretrain", "--instances", d / "denoise.jsonl", "--tokenizer", d / "tok",
                         "--steps", self.steps["pretrain"], "--seed", s, "--out", d / "run"],
            "pretrain-dual": ["pretrain", "--instances", d / "dual.jsonl", "--tokenizer", d / "tok",
                              "--phase", "dual", "--init", d / "run" / "checkpoint.npz",
                              "--steps", self.steps["pretrain-dual"], "--seed", s, "--out", d / "run-dual"],
            "finetune": ["finetune", "--multi-task", "--mixture", d / "mixture.json", "--tokenizer", d / "tok",
                         "--init", d / "run-dual" / "checkpoint.npz", "--alpha", 0.7,
                         "--steps", self.steps["finetune"], "--seed", s, "--out", d / "ft"],
            "eval": ["eval", "--task", "summarize", "--hyp", d / "hyp.txt", "--ref", d / "ref.txt"],
        }

    def _write_mixture(self, d: Path, dual) -> dict[str, list]:
        tasks = {"summarize": (obj.DUAL_PL2NL, "Summarize:"), "generate": (obj.DUAL_NL2PL, "Generate:")}
        cfg = {"alpha": 0.7, "tasks": []}
        data = {}
        for name, (objective, code) in tasks.items():
            data[name] = [i for i in dual if i.objective == objective]
            obj.write_instances(data[name], d / f"{name}.jsonl")
            cfg["tasks"].append({"name": name, "path": str(d / f"{name}.jsonl"), "control_code": code})
        (d / "mixture.json").write_text(json.dumps(cfg), encoding="utf-8")
        return data

    def round(self, k: int) -> RoundFigures:
        run, meter, fig = self.run, self.run.meter, RoundFigures()
        d = _fresh_dir(run.out / f"round{k}")
        shutil.copyfile(self.src_corpus, d / "corpus.jsonl")
        argv = self._argv(d)

        for stage in PREP_STAGES:
            fig.prep.append(meter.time("py", self.cli, stage, argv[stage])[1])
            run.op()
        fig.docs = self.n_records
        n_docs = _count_lines(d / "docs.jsonl")
        tok = bpe.SubwordTokenizer.load(d / "tok")
        denoise = list(obj.read_instances(d / "denoise.jsonl"))
        dual = list(obj.read_instances(d / "dual.jsonl"))
        tasks = self._write_mixture(d, dual)

        for stage in TRAIN_STAGES:
            fig.train.append(meter.time("np", self.cli, stage, argv[stage])[1])
            run.op()
        logs = {s: tr.read_metrics_log(d / out / "metrics.jsonl")
                for s, out in (("pretrain", "run"), ("pretrain-dual", "run-dual"), ("finetune", "ft"))}
        specs = {n: mixture.TaskSpec(n, len(tasks[n]), c) for n, c in (("summarize", "Summarize:"),
                                                                     ("generate", "Generate:"))}
        ft_pools = {n: [mixture.apply_control_code(i, specs[n], tok) for i in tasks[n]] for n in tasks}
        fig.train_tokens = (
            checks.train_tokens([r.objective for r in logs["pretrain"]], _pools(denoise, obj.DENOISING_TASKS), BATCH)
            + checks.train_tokens([r.objective for r in logs["pretrain-dual"]], _pools(dual, tr.DUAL_TASKS), BATCH)
            + checks.train_tokens([r.objective for r in logs["finetune"]], ft_pools, BATCH)
        )

        summ = self._pick_sources(ft_pools["summarize"])
        sources = [i.source_ids for i in summ]

        model, block = meter.time("np", mdl.Seq2SeqModel.load, d / "ft" / "checkpoint.npz")
        fig.other.append(block)
        outs, fig.greedy = self.decoding.generate(model, sources, self.hyp_len, 1)
        fig.greedy_tokens = [len(o) for o in outs]
        run.op()
        beam_src = sources[::2]
        beams, fig.beam = self.decoding.generate(model, beam_src, self.hyp_len, 4)
        fig.beam_tokens = [len(o) for o in beams]
        run.op()

        hyp_lines = [_text_line(tok, _cut_at(o, tok.sep_id)) for o in outs]
        ref_lines = [_text_line(tok, i.target_ids[:-1]) for i in summ]
        (d / "hyp.txt").write_text("\n".join(hyp_lines) + "\n", encoding="utf-8")
        (d / "ref.txt").write_text("\n".join(ref_lines) + "\n", encoding="utf-8")
        printed, block = meter.time("py", self.cli, "eval", argv["eval"])
        fig.other.append(block)
        run.op()

        run.op(self._stale_reingest(d, argv["ingest"]))

        # Checks, outside the timed blocks.
        run.check(checks.check_counts("ingest documents", n_docs, self.n_records))
        run.check(checks.check_counts("denoise instances", len(denoise), self.n_records))
        run.check(checks.check_counts("dual instances", len(dual), 2 * self.n_bimodal))
        run.check(checks.check_eval(json.loads(printed.splitlines()[0])["value"], hyp_lines, ref_lines, "eval"))
        self.decoding.check_greedy(model, sources, outs, "bundled-cli")
        self.logs.append([json.dumps([r.to_dict() for r in log]) for log in logs.values()])
        if k == 0:
            self._first_round_checks(d, tok, denoise, model, beam_src)
            self.data = {"tok": tok, "denoise": denoise, "dual": dual, "model": model, "src": sources[0],
                         "records": list(corpus.ingest(d / "corpus.jsonl"))}
        else:
            shutil.rmtree(d)
        return fig

    def _pick_sources(self, pool: list) -> list:
        """One source per length stratum, drawn with ``--seed``: the sources
        change with the seed while their total length hardly does."""
        order = sorted(range(len(pool)), key=lambda i: (len(pool[i].source_ids), i))
        rng = random.Random(self.run.seed)
        n = self.hyp_sources
        return [pool[rng.choice(order[j * len(order) // n:(j + 1) * len(order) // n])] for j in range(n)]

    def _stale_reingest(self, d: Path, ingest_argv: list) -> bool:
        """Rewrite the corpus in place with fewer records and re-run ingest with
        the same argv: the documents file must follow the new corpus."""
        path = d / "corpus.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[: self.stale_keep]), encoding="utf-8")
        printed = self.cli("ingest-rerun", ingest_argv)
        got = _count_lines(d / "docs.jsonl")
        self.run.notes["stale_reingest"] = (
            f"corpus cut to {self.stale_keep} records, ingest re-run printed {printed.strip()!r}, "
            f"documents file holds {got}"
        )
        shutil.copyfile(self.src_corpus, path)
        return got == self.stale_keep

    def _first_round_checks(self, d, tok, denoise, model, beam_src) -> None:
        run = self.run
        printed = self.cli("eval-identity", ["eval", "--task", "summarize", "--hyp", d / "ref.txt",
                                             "--ref", d / "ref.txt"])
        value = json.loads(printed.splitlines()[0])["value"]
        if value != 100.0:
            run.errors.append(f"eval: references scored against themselves give {value}, not 100")
        seq2seq = [i for i in denoise if i.objective != obj.IT][:BATCH]
        init = mdl.Seq2SeqModel(mdl.ModelConfig(vocab_size=tok.vocab_size), seed=WORK_SEED)
        trained = mdl.Seq2SeqModel.load(d / "run" / "checkpoint.npz")
        run.check(checks.check_loss_falls(_held_loss(init, seq2seq), _held_loss(trained, seq2seq), "pretrain"))
        self.decoding.check_beam(model, beam_src, self.hyp_len, "bundled-cli")
        records = list(corpus.ingest(d / "corpus.jsonl"))
        texts = [r.code for r in records] + [r.docstring for r in records if r.docstring]
        run.check(checks.check_roundtrip(tok.encode, tok.decode, texts))

    def finish(self) -> None:
        self.run.check(checks.check_same_logs(self.logs, "bundled-cli training"))

    def probe_inputs(self) -> dict:
        return self.data


def _count_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(1 for line in f if line.strip())


# --------------------------------------------------------------------------
# v8k-long and prep-20k: the same phases through the package's functions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectSpec:
    name: str
    shape: gen.Shape
    docs: int
    shard: int  # documents per preparation call
    model_vocab: int | None  # None: the trained tokenizer's size, as the CLI does
    denoise_steps: int
    dual_steps: int
    greedy_len: int
    greedy_sources: int
    beam_len: int
    beam_sources: int


V8K_LONG = DirectSpec("v8k-long", gen.LONG, 240, 60, 8000, 3, 1, 128, 2, 128, 1)
PREP_20K = DirectSpec("prep-20k", gen.SHORT, 20000, 2000, None, 12, 4, 16, 32, 16, 12)

BEAM_CHECK_LEN = 10
BEAM_CHECK_SOURCES = 2


class Direct:
    """Prepare a generated corpus, train, and decode through the package's
    module functions."""

    def __init__(self, run: Run, spec: DirectSpec):
        self.run = run
        self.spec = spec
        self.name = spec.name
        self.decoding = _Decoding(run)
        self.logs: list[list] = []
        self.corpus_path = run.out / "corpus.jsonl"

    def setup(self) -> list[Block]:
        """Generate and write the corpus, shard by shard, and load the lexers;
        for a fixed vocabulary, also initialise the model.  Returns the timed
        blocks."""
        meter, n = self.run.meter, self.spec.shard
        parts, blocks = meter.series("py", gen.make_corpus, [
            (self.run.seed, min(n, self.spec.docs - a), self.spec.shape, a) for a in range(0, self.spec.docs, n)
        ])
        self.records = [r for part in parts for r in part]
        blocks.append(meter.time("py", gen.write_jsonl, self.records, self.corpus_path)[1])
        self.lexers, block = meter.time("py", lexer.load_lexers)
        blocks.append(block)
        self.config = None
        if self.spec.model_vocab:
            self.config = mdl.ModelConfig(vocab_size=self.spec.model_vocab)
            model, block = self.run.meter.time("np", mdl.Seq2SeqModel, self.config, seed=self.run.seed)
            self.init_params = model.params
            blocks.append(block)
        return blocks

    # -- phases ------------------------------------------------------------

    def _ingest(self):
        with self.run.tracer.span("corpus.ingest", docs=self.spec.docs):
            return list(corpus.ingest(self.corpus_path))

    def _normalize(self, records):
        with self.run.tracer.span("corpus.normalize_corpus", docs=len(records)):
            return list(corpus.normalize_corpus(records, self.lexers))

    def _bpe(self, records):
        texts = [r.code for r in records] + [r.docstring for r in records if r.docstring]
        with self.run.tracer.span("bpe.train", texts=len(texts)):
            return bpe.train(texts, 8000, 3), texts

    def _denoise(self, docs, tok):
        with self.run.tracer.span("objectives.build_denoising_instances", docs=len(docs)):
            return obj.build_denoising_instances(docs, tok, seed=WORK_SEED)

    def _dual(self, docs, tok):
        with self.run.tracer.span("objectives.build_dual_instances", docs=len(docs)):
            return obj.build_dual_instances(docs, tok)

    def _io(self, instances, path: Path):
        with self.run.tracer.span("objectives.write_read_instances", instances=2 * len(instances)):
            obj.write_instances(instances, path)
            back = list(obj.read_instances(path))
        path.unlink()
        return back

    def _sharded(self, fn, parts: list, *rest):
        """One call per shard, each its own timed block; returns (results per shard, blocks)."""
        outs, blocks = self.run.meter.series("py", fn, [(part, *rest) for part in parts])
        for _ in parts:
            self.run.op()
        return outs, blocks

    def _prep(self, k: int):
        """Ingest and tokenizer training over the whole corpus; normalizing,
        instance building and instance I/O shard by shard, so that each block
        sits close to its reference measurements."""
        run, meter, n = self.run, self.run.meter, self.spec.shard
        records, block = meter.time("py", self._ingest)
        run.op()
        blocks = [block]
        shards, more = self._sharded(self._normalize, [records[a:a + n] for a in range(0, len(records), n)])
        blocks += more
        (tok, texts), block = meter.time("py", self._bpe, records)
        run.op()
        blocks.append(block)
        denoise, more = self._sharded(self._denoise, shards, tok)
        blocks += more
        dual, more = self._sharded(self._dual, shards, tok)
        blocks += more
        written = [d + p for d, p in zip(denoise, dual)]
        back, more = self._sharded(self._io, written, run.out / f"instances{k}.jsonl")
        blocks += more

        def join(parts):
            return [x for part in parts for x in part]

        return records, join(shards), tok, texts, join(denoise), join(dual), back == written, blocks

    def _new_model(self, tok):
        if self.config:
            return mdl.Seq2SeqModel(self.config, {k: v.copy() for k, v in self.init_params.items()})
        return mdl.Seq2SeqModel(mdl.ModelConfig(vocab_size=tok.vocab_size), seed=self.run.seed)

    def _pretrain(self, model, phase: str, pool, steps: int):
        schedule = tr.TrainSchedule(steps=steps, batch_size=BATCH, seed=WORK_SEED)
        with self.run.tracer.span("training.pretrain", phase=phase, steps=steps):
            return tr.pretrain(model, pool, schedule, phase=phase)

    def _train(self, tok, denoise, dual):
        """Model init, then the denoise and the dual block, each timed."""
        model, block = self.run.meter.time("np", self._new_model, tok)
        logs, blocks = [], [block]
        for phase, pool, steps in (("denoise", denoise, self.spec.denoise_steps),
                                   ("dual", dual, self.spec.dual_steps)):
            log, block = self.run.meter.time("np", self._pretrain, model, phase, pool, steps)
            logs.append(log)
            blocks.append(block)
        return model, logs, blocks

    def _decode_sources(self, dual, count: int) -> list:
        """PL2NL sources of records at fixed positions, so their lengths depend
        on the seed only through the spelling of names."""
        pl2nl = [i for i in dual if i.objective == obj.DUAL_PL2NL]
        step = max(len(pl2nl) // count, 1)
        return [pl2nl[(3 + j * step) % len(pl2nl)].source_ids for j in range(count)]

    def round(self, k: int) -> RoundFigures:
        run, spec, fig = self.run, self.spec, RoundFigures()
        records, docs, tok, texts, denoise, dual, io_ok, fig.prep = self._prep(k)
        fig.docs = len(records)

        model, logs, fig.train = self._train(tok, denoise, dual)
        run.op()
        run.op()
        fig.train_tokens = (
            checks.train_tokens([r.objective for r in logs[0]], _pools(denoise, obj.DENOISING_TASKS), BATCH)
            + checks.train_tokens([r.objective for r in logs[1]], _pools(dual, tr.DUAL_TASKS), BATCH)
        )

        sources = self._decode_sources(dual, max(spec.greedy_sources, BEAM_CHECK_SOURCES))
        g_src, b_src = sources[: spec.greedy_sources], sources[: spec.beam_sources]
        outs, fig.greedy = self.decoding.generate(model, g_src, spec.greedy_len, 1)
        fig.greedy_tokens = [len(o) for o in outs]
        run.op()
        beams, fig.beam = self.decoding.generate(model, b_src, spec.beam_len, 4)
        fig.beam_tokens = [len(o) for o in beams]
        run.op()

        # Checks, outside the timed blocks.
        self.logs.append([[r.to_dict() for r in log] for log in logs])
        if not io_ok:
            run.errors.append("instances read back differ from those written")
        if k == 0:
            self._prep_checks(tok, texts, docs, denoise, dual)
            self.decoding.check_greedy(model, g_src, outs, self.name)
            self.decoding.check_beam(model, sources[:BEAM_CHECK_SOURCES], BEAM_CHECK_LEN, self.name)
            held = [i for i in denoise if i.objective != obj.IT][:BATCH] + dual[:BATCH]
            init = self._new_model(tok)
            run.check(checks.check_loss_falls(_held_loss(init, held), _held_loss(model, held), self.name))
            self.data = {"tok": tok, "denoise": denoise, "dual": dual, "model": model,
                         "src": sources[0], "records": records, "docs": docs}
        return fig

    def _prep_checks(self, tok, texts, docs, denoise, dual) -> None:
        run = self.run
        bimodal = sum(1 for r in self.records if r.docstring is not None)
        run.check(checks.check_counts("documents", len(docs), len(self.records)))
        run.check(checks.check_counts("denoise instances", len(denoise), len(self.records)))
        run.check(checks.check_counts("dual instances", len(dual), 2 * bimodal))
        run.check(checks.check_identifier_labels(docs, [r.planted for r in self.records]))
        run.check(checks.check_roundtrip(tok.encode, tok.decode, texts))

    def finish(self) -> None:
        if len(self.logs) < 2:  # one round: run the training block again from the same state
            d = self.data
            _, logs, _ = self._train(d["tok"], d["denoise"], d["dual"])
            self.logs.append([[r.to_dict() for r in log] for log in logs])
        self.run.check(checks.check_same_logs(self.logs, f"{self.name} training"))

    def probe_inputs(self) -> dict:
        return self.data


def make(name: str, run: Run):
    if name == BundledCli.name:
        return BundledCli(run)
    for spec in (V8K_LONG, PREP_20K):
        if spec.name == name:
            return Direct(run, spec)
    raise KeyError(name)

