from __future__ import annotations

import argparse
import hashlib
import json

import numpy as np
import pytest

from codepretrain import bpe, corpus
from codepretrain.cli import Stage, build_parser, dispatch
from codepretrain.model import ModelConfig, Seq2SeqModel

GOLDEN_STATS_LINES = [
    # Frozen from the first audited run over the bundled corpus; the rates were
    # cross-checked with a standalone counting script.
    "go with_nl=35 without_nl=15 identifier_rate=0.3138",
    "java with_nl=34 without_nl=16 identifier_rate=0.2736",
    "mini with_nl=31 without_nl=19 identifier_rate=0.2859",
    "python with_nl=34 without_nl=16 identifier_rate=0.4173",
]


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_no_arguments_is_usage_error(capsys):
    assert dispatch([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_is_usage_error():
    assert dispatch(["frobnicate"]) == 2


def test_unknown_flag_is_usage_error():
    assert dispatch(["stats", "--nonsense"]) == 2


def test_stats_golden_output(capsys):
    assert dispatch(["stats", "--input", str(corpus.bundled_corpus_path())]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == GOLDEN_STATS_LINES


def test_stats_missing_file(tmp_path, capsys):
    assert dispatch(["stats", "--input", str(tmp_path / "nope.jsonl")]) == 1
    assert "not found" in capsys.readouterr().err


def test_lex_dump(tmp_path, capsys):
    src = tmp_path / "snippet.mini"
    src.write_text("int a = 1;", encoding="utf-8")
    assert dispatch(["lex", "--lang", "mini", "--input", str(src)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("keyword\t0\t")
    assert lines[1].startswith("identifier\t1\t")


def test_lex_unsupported_language(tmp_path, capsys):
    src = tmp_path / "f.txt"
    src.write_text("x", encoding="utf-8")
    assert dispatch(["lex", "--lang", "cobol", "--input", str(src)]) == 1
    assert "unsupported language" in capsys.readouterr().err


def test_ingest_reports_malformed_lines(tmp_path, capsys):
    raw = tmp_path / "corpus.jsonl"
    raw.write_text(
        json.dumps({"code": "int a;", "language": "mini"}) + "\n" + '{"bad json\n',
        encoding="utf-8",
    )
    out = tmp_path / "docs.jsonl"
    assert dispatch(["ingest", "--input", str(raw), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "line 2" in captured.err
    assert len(list(corpus.read_documents(out))) == 1


def test_train_tokenizer_and_reload(tmp_path):
    out = tmp_path / "tok"
    rc = dispatch(
        [
            "train-tokenizer",
            "--input", str(corpus.bundled_corpus_path()),
            "--vocab-size", "500",
            "--min-freq", "2",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert (out / "vocab.txt").exists() and (out / "merges.txt").exists()
    from codepretrain.bpe import SubwordTokenizer

    tok = SubwordTokenizer.load(out)
    assert tok.decode(tok.encode("int a = 1;")) == "int a = 1;"


def test_train_tokenizer_bad_vocab_size(tmp_path, capsys):
    rc = dispatch(
        [
            "train-tokenizer",
            "--input", str(corpus.bundled_corpus_path()),
            "--vocab-size", "100",
            "--out", str(tmp_path / "tok"),
        ]
    )
    assert rc == 1
    assert "vocab_size" in capsys.readouterr().err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """ingest + tokenizer + instances, shared by the heavier CLI tests."""
    root = tmp_path_factory.mktemp("cli-pipeline")
    docs = root / "docs.jsonl"
    tok = root / "tok"
    inst = root / "inst.jsonl"
    src = str(corpus.bundled_corpus_path())
    assert dispatch(["ingest", "--input", src, "--out", str(docs)]) == 0
    assert dispatch(
        ["train-tokenizer", "--input", src, "--vocab-size", "600", "--min-freq", "2", "--out", str(tok)]
    ) == 0
    assert dispatch(
        ["build-instances", "--input", str(docs), "--tokenizer", str(tok), "--seed", "3", "--out", str(inst)]
    ) == 0
    return {"root": root, "docs": docs, "tok": tok, "inst": inst, "src": src}


def test_build_instances_reproducible(pipeline, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for out in (a, b):
        rc = dispatch(
            [
                "build-instances",
                "--input", str(pipeline["docs"]),
                "--tokenizer", str(pipeline["tok"]),
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert rc == 0
    assert _sha(a) == _sha(b)
    assert _sha(a) == _sha(pipeline["inst"])


@pytest.mark.parametrize("command", ["stats", "build-instances"])
@pytest.mark.parametrize(
    "bad_line_number, bad_line, message",
    [
        (1, '{"bad json', "not JSON"),
        (3, '{"bad json', "not JSON"),
        (3, json.dumps({"code_tokens": ["x"], "language": "mini", "identifier_labels": [0]}),
         "missing key 'nl_tokens'"),
    ],
    ids=["line1-not-json", "line3-not-json", "line3-not-a-document"],
)
def test_malformed_documents_file_is_clean_error(
    pipeline, tmp_path, capsys, command, bad_line_number, bad_line, message
):
    lines = pipeline["docs"].read_text(encoding="utf-8").splitlines()[:4]
    lines[bad_line_number - 1] = bad_line
    docs = tmp_path / "docs.jsonl"
    docs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [command, "--input", str(docs)]
    if command == "build-instances":
        argv += ["--tokenizer", str(pipeline["tok"]), "--out", str(tmp_path / "inst.jsonl")]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {docs} line {bad_line_number}: {message}")


def test_dual_instances_at_tight_target_cap(pipeline, tmp_path, capsys):
    out = tmp_path / "dual.jsonl"
    argv = ["build-instances", "--input", str(pipeline["docs"]), "--tokenizer", str(pipeline["tok"]),
            "--phase", "dual", "--max-tgt-len", "1", "--out", str(out)]
    assert dispatch(argv) == 0
    assert "wrote 0 dual instances" in capsys.readouterr().out
    assert out.read_text(encoding="utf-8") == ""


def test_stage_skipped_when_up_to_date(pipeline, capsys):
    rc = dispatch(
        [
            "build-instances",
            "--input", str(pipeline["docs"]),
            "--tokenizer", str(pipeline["tok"]),
            "--seed", "3",
            "--out", str(pipeline["inst"]),
        ]
    )
    assert rc == 0
    assert "up to date" in capsys.readouterr().out


def test_stage_reruns_when_input_content_changes(tmp_path, capsys):
    corpus_file = tmp_path / "corpus.jsonl"
    lines = corpus.bundled_corpus_path().read_text(encoding="utf-8").splitlines(keepends=True)
    corpus_file.write_text("".join(lines[:50]), encoding="utf-8")
    out = tmp_path / "docs.jsonl"
    argv = ["ingest", "--input", str(corpus_file), "--out", str(out)]
    assert dispatch(argv) == 0
    assert len(list(corpus.read_documents(out))) == 50
    corpus_file.write_text("".join(lines[:10]), encoding="utf-8")
    capsys.readouterr()
    assert dispatch(argv) == 0
    assert "up to date" not in capsys.readouterr().out
    assert len(list(corpus.read_documents(out))) == 10
    assert dispatch(argv) == 0
    assert "up to date" in capsys.readouterr().out


def test_stage_reruns_after_run_killed_mid_write(tmp_path, capsys, monkeypatch):
    corpus_file = tmp_path / "corpus.jsonl"
    lines = corpus.bundled_corpus_path().read_text(encoding="utf-8").splitlines(keepends=True)
    corpus_file.write_text("".join(lines[:50]), encoding="utf-8")
    out = tmp_path / "docs.jsonl"
    argv = ["ingest", "--input", str(corpus_file), "--out", str(out)]
    assert dispatch(argv) == 0

    def killed(docs, path):
        open(path, "w", encoding="utf-8").close()
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(corpus, "write_documents", killed)
        with pytest.raises(KeyboardInterrupt):
            dispatch(argv + ["--keep-comments"])
    capsys.readouterr()
    assert dispatch(argv) == 0
    assert "up to date" not in capsys.readouterr().out
    assert len(list(corpus.read_documents(out))) == 50


def test_pretrain_generate_eval_end_to_end(pipeline, tmp_path, capsys):
    run = tmp_path / "run"
    assert dispatch(
        [
            "pretrain", "--instances", str(pipeline["inst"]), "--tokenizer", str(pipeline["tok"]),
            "--steps", "2", "--batch-size", "4", "--d-model", "32", "--num-heads", "2",
            "--encoder-layers", "1", "--decoder-layers", "1", "--feedforward-dim", "64",
            "--max-src-len", "160", "--max-tgt-len", "64", "--out", str(run),
        ]
    ) == 0
    records = [r for r in corpus.ingest(pipeline["src"]) if r.docstring][:5]
    data = tmp_path / "summarize.jsonl"
    data.write_text(
        "".join(json.dumps({"source": r.code[:200], "target": r.docstring}) + "\n" for r in records),
        encoding="utf-8",
    )
    ref = tmp_path / "ref.txt"
    ref.write_text("".join(" ".join(r.docstring.split()) + "\n" for r in records), encoding="utf-8")
    hyp = tmp_path / "hyp.txt"
    argv = [
        "generate", "--checkpoint", str(run / "checkpoint.npz"), "--tokenizer", str(pipeline["tok"]),
        "--input", str(data), "--control-code", "Summarize:", "--max-len", "6", "--beam", "3",
        "--out", str(hyp),
    ]
    assert dispatch(argv) == 0
    assert len(hyp.read_text(encoding="utf-8").splitlines()) == len(records)
    assert dispatch(argv) == 0
    assert "generate: up to date" in capsys.readouterr().out
    assert dispatch(["eval", "--task", "summarize", "--hyp", str(hyp), "--ref", str(ref)]) == 0
    assert json.loads(capsys.readouterr().out)["metric"] == "bleu4"


def test_pretrain_writes_artifacts(pipeline):
    run = pipeline["root"] / "run"
    rc = dispatch(
        [
            "pretrain",
            "--instances", str(pipeline["inst"]),
            "--tokenizer", str(pipeline["tok"]),
            "--steps", "3",
            "--batch-size", "4",
            "--d-model", "32",
            "--num-heads", "2",
            "--encoder-layers", "1",
            "--decoder-layers", "1",
            "--feedforward-dim", "64",
            "--max-src-len", "160",
            "--max-tgt-len", "64",
            "--out", str(run),
        ]
    )
    assert rc == 0
    assert (run / "checkpoint.npz").exists()
    assert (run / "metrics.jsonl").exists()
    assert (run / "config.json").exists()
    records = [json.loads(l) for l in (run / "metrics.jsonl").read_text().splitlines()]
    assert len(records) == 3
    assert all({"step", "objective", "loss"} <= set(r) for r in records)


def test_finetune_multitask_cli(pipeline, tmp_path):
    task_data = tmp_path / "taskdata.jsonl"
    with open(task_data, "w", encoding="utf-8") as f:
        for i in range(6):
            f.write(json.dumps({"source": f"int x{i} ;", "target": "declare"}) + "\n")
    mixture = tmp_path / "mixture.json"
    mixture.write_text(
        json.dumps(
            {
                "alpha": 0.7,
                "tasks": [
                    {"name": "summarize", "path": str(task_data), "control_code": "Summarize mini:",
                     "validation": str(task_data)},
                ],
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "ft"
    rc = dispatch(
        [
            "finetune",
            "--multi-task",
            "--mixture", str(mixture),
            "--tokenizer", str(pipeline["tok"]),
            "--init", str(_tiny_checkpoint(pipeline["tok"], tmp_path / "init.npz", max_len=64)),
            "--alpha", "0.7",
            "--steps", "4",
            "--batch-size", "2",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert (out / "checkpoint.npz").exists()
    assert (out / "checkpoint.summarize.npz").exists()


def _tiny_checkpoint(tok_dir, path, max_len=16):
    vocab = bpe.SubwordTokenizer.load(tok_dir).vocab_size
    cfg = ModelConfig(vocab_size=vocab, d_model=16, num_heads=2, encoder_layers=1, decoder_layers=1,
                      feedforward_dim=32, max_src_len=max_len, max_tgt_len=max_len)
    Seq2SeqModel(cfg).save(path)
    return path


def _finetune_argv(pipeline, tmp_path, mixture):
    return [
        "finetune", "--mixture", str(mixture), "--tokenizer", str(pipeline["tok"]),
        "--init", str(_tiny_checkpoint(pipeline["tok"], tmp_path / "init.npz")), "--steps", "2",
        "--out", str(tmp_path / "ft"),
    ]


@pytest.mark.parametrize(
    "rows, message",
    [
        ([{"source": "int x = 1 ; " * 20, "target": "declare"}], "fit the model's length caps"),
        ([], "task sizes must be positive"),
    ],
)
def test_finetune_bad_task_is_clean_error(pipeline, tmp_path, capsys, rows, message):
    task_data = tmp_path / "task.jsonl"
    task_data.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    mixture = tmp_path / "mixture.json"
    mixture.write_text(json.dumps({"tasks": [{"name": "t", "path": str(task_data)}]}), encoding="utf-8")
    rc = dispatch(_finetune_argv(pipeline, tmp_path, mixture))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "ft").exists()


@pytest.mark.parametrize("command", ["finetune", "generate"])
@pytest.mark.parametrize(
    "bad_line, message",
    [('{"bad json', "not JSON"), (json.dumps({"target": "declare"}), "missing key 'source'")],
)
def test_malformed_task_dataset_is_clean_error(pipeline, tmp_path, capsys, command, bad_line, message):
    task_data = tmp_path / "task.jsonl"
    task_data.write_text(json.dumps({"source": "int x ;", "target": "declare"}) + "\n" + bad_line + "\n",
                         encoding="utf-8")
    if command == "finetune":
        mixture = tmp_path / "mixture.json"
        mixture.write_text(json.dumps({"tasks": [{"name": "t", "path": str(task_data)}]}), encoding="utf-8")
        argv = _finetune_argv(pipeline, tmp_path, mixture)
    else:
        argv = [
            "generate", "--checkpoint", str(_tiny_checkpoint(pipeline["tok"], tmp_path / "init.npz")),
            "--tokenizer", str(pipeline["tok"]), "--input", str(task_data), "--out", str(tmp_path / "hyp.txt"),
        ]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {task_data} line 2: ") and message in err


def test_mixture_task_without_name_is_clean_error(pipeline, tmp_path, capsys):
    task_data = tmp_path / "task.jsonl"
    task_data.write_text(json.dumps({"source": "int x ;", "target": "declare"}) + "\n", encoding="utf-8")
    mixture = tmp_path / "mixture.json"
    mixture.write_text(json.dumps({"tasks": [{"path": str(task_data)}]}), encoding="utf-8")
    assert dispatch(_finetune_argv(pipeline, tmp_path, mixture)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed mixture config {mixture}: ") and "'name'" in err


def test_snapshot_records_every_flag(pipeline, tmp_path):
    """Every flag of an artifact stage reaches its snapshot, so changing any
    flag re-runs the stage."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    stages = {name: p for name, p in sub.choices.items() if isinstance(p.get_default("func"), Stage)}
    assert set(stages) == {"ingest", "train-tokenizer", "build-instances", "pretrain", "finetune", "generate"}

    task_data = tmp_path / "task.jsonl"
    task_data.write_text(json.dumps({"source": "int x ;", "target": "declare"}) + "\n", encoding="utf-8")
    mixture = tmp_path / "mixture.json"
    mixture.write_text(json.dumps({"tasks": [{"name": "t", "path": str(task_data)}]}), encoding="utf-8")
    run = tmp_path / "run"
    assert dispatch(
        [
            "pretrain", "--instances", str(pipeline["inst"]), "--tokenizer", str(pipeline["tok"]),
            "--steps", "1", "--batch-size", "2", "--d-model", "16", "--num-heads", "2",
            "--encoder-layers", "1", "--decoder-layers", "1", "--feedforward-dim", "32",
            "--max-src-len", "160", "--max-tgt-len", "64", "--out", str(run),
        ]
    ) == 0
    assert dispatch(
        [
            "finetune", "--mixture", str(mixture), "--tokenizer", str(pipeline["tok"]),
            "--init", str(run / "checkpoint.npz"), "--steps", "1", "--out", str(tmp_path / "ft"),
        ]
    ) == 0
    assert dispatch(
        [
            "generate", "--checkpoint", str(run / "checkpoint.npz"), "--tokenizer", str(pipeline["tok"]),
            "--input", str(task_data), "--max-len", "2", "--out", str(tmp_path / "hyp.txt"),
        ]
    ) == 0
    snapshots = {
        "ingest": pipeline["docs"].with_name(pipeline["docs"].name + ".config.json"),
        "train-tokenizer": pipeline["tok"] / "config.json",
        "build-instances": pipeline["inst"].with_name(pipeline["inst"].name + ".config.json"),
        "pretrain": run / "config.json",
        "finetune": tmp_path / "ft" / "config.json",
        "generate": tmp_path / "hyp.txt.config.json",
    }
    for name, parser in stages.items():
        snap = json.loads(snapshots[name].read_text(encoding="utf-8"))
        dests = {a.dest for a in parser._actions if a.dest != "help"}
        assert dests - set(snap) == set(), name
        assert snap["stage"] == name


def test_full_pipeline_smoke_within_budget(tmp_path):
    """ingest -> tokenizer -> instances -> short pretrain -> eval, end to end."""
    import time

    start = time.time()
    src = str(corpus.bundled_corpus_path())
    docs = tmp_path / "docs.jsonl"
    tok = tmp_path / "tok"
    inst = tmp_path / "inst.jsonl"
    run = tmp_path / "run"
    assert dispatch(["ingest", "--input", src, "--out", str(docs)]) == 0
    assert dispatch(
        ["train-tokenizer", "--input", src, "--vocab-size", "500", "--min-freq", "2", "--out", str(tok)]
    ) == 0
    assert dispatch(
        ["build-instances", "--input", str(docs), "--tokenizer", str(tok), "--seed", "1", "--out", str(inst)]
    ) == 0
    assert dispatch(
        [
            "pretrain", "--instances", str(inst), "--tokenizer", str(tok),
            "--steps", "5", "--batch-size", "4", "--d-model", "32", "--num-heads", "2",
            "--encoder-layers", "1", "--decoder-layers", "1", "--feedforward-dim", "64",
            "--max-src-len", "160", "--max-tgt-len", "64", "--out", str(run),
        ]
    ) == 0
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("int a ;\n", encoding="utf-8")
    assert dispatch(["eval", "--task", "summarize", "--hyp", str(hyp), "--ref", str(hyp)]) == 0
    # budget frozen after the first audited run (measured well under a minute)
    assert time.time() - start < 120


def test_eval_bleu_identity(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("the cat sat\n", encoding="utf-8")
    ref.write_text("the cat sat\n", encoding="utf-8")
    assert dispatch(["eval", "--task", "summarize", "--hyp", str(hyp), "--ref", str(ref)]) == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["metric"] == "bleu4"
    assert report["value"] == pytest.approx(100.0)


def test_eval_translate_notes_missing_codebleu(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("a b\n", encoding="utf-8")
    ref.write_text("a b\n", encoding="utf-8")
    assert dispatch(["eval", "--task", "translate", "--hyp", str(hyp), "--ref", str(ref)]) == 0
    captured = capsys.readouterr()
    assert "codebleu" in captured.err
    metrics = [json.loads(l)["metric"] for l in captured.out.strip().splitlines()]
    assert metrics == ["bleu4", "exact_match"]


def test_eval_defect_and_clone(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("1\n1\n0\n1\n", encoding="utf-8")
    ref.write_text("1\n1\n0\n0\n", encoding="utf-8")
    assert dispatch(["eval", "--task", "defect", "--hyp", str(hyp), "--ref", str(ref)]) == 0
    acc = json.loads(capsys.readouterr().out.strip())
    assert acc["value"] == pytest.approx(0.75)
    assert dispatch(["eval", "--task", "clone", "--hyp", str(hyp), "--ref", str(ref)]) == 0
    f1 = json.loads(capsys.readouterr().out.strip())
    assert f1["metric"] == "f1"
    assert f1["value"] == pytest.approx(2 * (2 / 3) * 1.0 / (2 / 3 + 1.0))


def test_eval_unknown_task(tmp_path):
    hyp = tmp_path / "h.txt"
    hyp.write_text("x\n", encoding="utf-8")
    assert dispatch(["eval", "--task", "mystery", "--hyp", str(hyp), "--ref", str(hyp)]) == 1



def _write_bad_checkpoint(pipeline, path, kind):
    if kind == "truncated":
        good = _tiny_checkpoint(pipeline["tok"], path.with_name("good.npz")).read_bytes()
        path.write_bytes(good[: len(good) // 2])
    elif kind == "not-a-checkpoint":
        np.savez(path, weights=np.zeros(3))
    else:
        path.write_text("not a checkpoint\n", encoding="utf-8")


@pytest.mark.parametrize("command", ["generate", "pretrain"])
@pytest.mark.parametrize(
    "bad, cause",
    [
        ("truncated", "File is not a zip file"),
        ("not-a-checkpoint", "__meta__"),
        ("text", "pickled"),
        ("vocab", "not a tokenizer vocab file"),
    ],
)
def test_unreadable_checkpoint_or_tokenizer_is_clean_error(pipeline, tmp_path, capsys, command, bad, cause):
    ckpt, tok = tmp_path / "init.npz", pipeline["tok"]
    if bad == "vocab":
        _tiny_checkpoint(pipeline["tok"], ckpt)
        tok = tmp_path / "tok"
        tok.mkdir()
        (tok / "vocab.txt").write_text("[PAD]\n[CLS]\n", encoding="utf-8")
        (tok / "merges.txt").write_text("", encoding="utf-8")
        where = f"cannot read tokenizer {tok}: "
    else:
        _write_bad_checkpoint(pipeline, ckpt, bad)
        where = f"cannot read checkpoint {ckpt}: "
    data = tmp_path / "task.jsonl"
    data.write_text(json.dumps({"source": "int x ;", "target": "declare"}) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "generate": ["generate", "--checkpoint", str(ckpt), "--input", str(data)],
        "pretrain": ["pretrain", "--init", str(ckpt), "--instances", str(pipeline["inst"]), "--steps", "1"],
    }[command]
    assert dispatch(argv + ["--tokenizer", str(tok), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}") and cause in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, where", [("pretrain", "step 1 (objective "), ("finetune", "step 1 (task t, objective FINETUNE): ")]
)
def test_non_finite_loss_is_clean_error(pipeline, tmp_path, capsys, command, where):
    """A NaN loss stops the run at step 1, before any update or output, with
    the error line alone: no numpy warning comes first."""
    ckpt = _tiny_checkpoint(pipeline["tok"], tmp_path / "init.npz", max_len=160)
    model = Seq2SeqModel.load(ckpt)
    model.params["lm.b"][3] = np.inf
    model.save(ckpt)
    out = tmp_path / "run"
    if command == "pretrain":
        argv = ["pretrain", "--instances", str(pipeline["inst"]), "--batch-size", "2"]
    else:
        task_data = tmp_path / "task.jsonl"
        task_data.write_text(json.dumps({"source": "int x ;", "target": "declare"}) + "\n", encoding="utf-8")
        mixture = tmp_path / "mixture.json"
        mixture.write_text(json.dumps({"tasks": [{"name": "t", "path": str(task_data)}]}), encoding="utf-8")
        argv = ["finetune", "--mixture", str(mixture)]
    argv += ["--tokenizer", str(pipeline["tok"]), "--init", str(ckpt), "--steps", "3", "--out", str(out)]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}") and "loss is nan" in err
    assert not (out / "metrics.jsonl").exists()
