from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from codepretrain import bpe, cli, corpus, synth
from codepretrain import lexer as lx
from codepretrain import objectives as obj
from codepretrain import model as mdl
from codepretrain.cli import Stage, build_parser, dispatch
from codepretrain.model import ModelConfig, Seq2SeqModel

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"

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


def test_ingest_unsupported_language_is_clean_error(tmp_path, capsys):
    """The language is named, and no documents file or temporary file is left."""
    raw = tmp_path / "corpus.jsonl"
    rows = [{"code": "int a;", "language": "mini"}] * 5 + [{"code": "MOVE A TO B.", "language": "cobol"}]
    raw.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    assert dispatch(["ingest", "--input", str(raw), "--out", str(tmp_path / "docs.jsonl")]) == 1
    tags = ", ".join(lx.builtin_language_tags())
    assert capsys.readouterr().err == f"error: unsupported language tag: cobol; supported tags are {tags}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]


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


@pytest.mark.parametrize(
    "bad_line_number, bad_line, message",
    [
        (1, '{"bad json', "not JSON"),
        (3, '{"bad json', "not JSON"),
        (3, json.dumps({"code_tokens": ["x"], "language": "mini", "identifier_labels": [0]}),
         "missing key 'nl_tokens'"),
        (1, json.dumps({"nl_tokens": [], "language": "mini", "identifier_labels": [0]}),
         "missing key 'code_tokens'"),
    ],
    ids=["line1-not-json-build-instances", "line3-not-json-build-instances",
         "line3-not-a-document-build-instances", "line1-not-a-document-build-instances"],
)
def test_malformed_documents_file_is_clean_error(pipeline, tmp_path, capsys, bad_line_number, bad_line, message):
    lines = pipeline["docs"].read_text(encoding="utf-8").splitlines()[:4]
    lines[bad_line_number - 1] = bad_line
    docs = tmp_path / "docs.jsonl"
    docs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "inst.jsonl"
    argv = ["build-instances", "--input", str(docs), "--tokenizer", str(pipeline["tok"]), "--out", str(out)]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {docs} line {bad_line_number}: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


def test_build_instances_on_raw_corpus_is_clean_error(pipeline, tmp_path, capsys):
    """build-instances reads only ingest's documents; a raw corpus fails at its first line."""
    raw = tmp_path / "corpus.jsonl"
    rows = corpus.bundled_corpus_path().read_text(encoding="utf-8").splitlines(keepends=True)
    raw.write_text("".join(rows[:4]), encoding="utf-8")
    out = tmp_path / "inst.jsonl"
    argv = ["build-instances", "--input", str(raw), "--tokenizer", str(pipeline["tok"]), "--out", str(out)]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == f"error: {raw} line 1: missing key 'nl_tokens'\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "stats", "train-tokenizer"])
def test_raw_corpus_malformed_line_printed_once(tmp_path, command):
    """Run as a program, so no test log handler hides a second report of the line."""
    raw = tmp_path / "corpus.jsonl"
    rows = corpus.bundled_corpus_path().read_text(encoding="utf-8").splitlines(keepends=True)
    raw.write_text('{"bad json\n' + "".join(rows), encoding="utf-8")
    argv = {
        "ingest": ["ingest", "--input", str(raw), "--out", str(tmp_path / "docs.jsonl")],
        "stats": ["stats", "--input", str(raw)],
        "train-tokenizer": ["train-tokenizer", "--input", str(raw), "--vocab-size", "400", "--min-freq", "2",
                            "--out", str(tmp_path / "tok")],
    }[command]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "codepretrain.cli", *argv],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr.startswith("line 1: ") and result.stderr.count("\n") == 1


def test_dual_instances_at_tight_target_cap(pipeline, tmp_path, capsys):
    """At the tightest target cap a model can take, every target is one id and [SEP]."""
    out = tmp_path / "dual.jsonl"
    argv = ["build-instances", "--input", str(pipeline["docs"]), "--tokenizer", str(pipeline["tok"]),
            "--phase", "dual", "--max-tgt-len", "2", "--out", str(out)]
    assert dispatch(argv) == 0
    instances = list(obj.read_instances(out))
    assert f"wrote {len(instances)} dual instances" in capsys.readouterr().out
    assert all(len(inst.target_ids) == 2 for inst in instances)


def test_dual_instances_for_a_language_without_an_id_is_clean_error(pipeline, tmp_path, capsys):
    """The tokenizer has language ids for the built-in tables and ``en`` only,
    and a documents file may name any language; dual instances for one
    without an id end with an error naming it and leave no output or snapshot."""
    doc = corpus.CodeDocument(nl_tokens=("negate", "an", "int"), code_tokens=("fun", "neg", "(", "a", ")"),
                              language="kotlin", identifier_labels=(0, 1, 0, 1, 0))
    docs = tmp_path / "docs.jsonl"
    docs.write_text(json.dumps(doc.to_dict()) + "\n", encoding="utf-8")
    out = tmp_path / "dual.jsonl"
    argv = ["build-instances", "--input", str(docs), "--tokenizer", str(pipeline["tok"]), "--phase", "dual",
            "--out", str(out)]
    assert dispatch(argv) == 1
    ids = ", ".join(f"<{t}>" for t in sorted(lx.builtin_language_tags() + ["en"]))
    assert capsys.readouterr().err == f"error: tokenizer has no language id <kotlin>; its language ids are {ids}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["docs.jsonl"]


def test_build_instances_cap_a_model_cannot_take_is_clean_error(pipeline, tmp_path, capsys):
    """A source cap with no room for a payload writes no instances file."""
    out = tmp_path / "inst.jsonl"
    argv = ["build-instances", "--input", str(pipeline["docs"]), "--tokenizer", str(pipeline["tok"]),
            "--max-src-len", "2", "--out", str(out)]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == "error: max_src_len must be in 4..512, got 2\n"
    assert list(tmp_path.iterdir()) == []


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


def test_file_output_without_suffix_is_up_to_date_on_rerun(tmp_path, capsys):
    out = tmp_path / "docs"
    argv = ["ingest", "--input", str(corpus.bundled_corpus_path()), "--out", str(out)]
    assert dispatch(argv) == 0
    assert len(list(corpus.read_documents(out))) == 200
    assert (tmp_path / "docs.config.json").exists()
    capsys.readouterr()
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == f"ingest: up to date ({out})\n"


def test_tokenizer_retrained_from_identical_corpus_keeps_instances_up_to_date(pipeline, tmp_path, capsys):
    """The tokenizer's snapshot sits beside its directory, so the digest
    build-instances takes of the directory covers only vocab and merges."""
    copy = tmp_path / "corpus.jsonl"
    shutil.copyfile(pipeline["src"], copy)
    tok, inst = tmp_path / "tok", tmp_path / "inst.jsonl"
    tok_argv = ["train-tokenizer", "--input", pipeline["src"], "--vocab-size", "600", "--min-freq", "2",
                "--out", str(tok)]
    inst_argv = ["build-instances", "--input", str(pipeline["docs"]), "--tokenizer", str(tok), "--out", str(inst)]
    assert dispatch(tok_argv) == 0 and dispatch(inst_argv) == 0
    assert sorted(p.name for p in tok.iterdir()) == ["merges.txt", "vocab.txt"]
    capsys.readouterr()
    assert dispatch([*tok_argv[:2], str(copy), *tok_argv[3:]]) == 0
    assert capsys.readouterr().out.startswith("train-tokenizer: vocab size")
    assert dispatch(inst_argv) == 0
    assert capsys.readouterr().out == f"build-instances: up to date ({inst})\n"


@pytest.mark.parametrize("argv", [
    ["ingest", "--input", "corpus.jsonl"],
    ["train-tokenizer", "--input", "corpus.jsonl"],
    ["build-instances", "--input", "docs.jsonl", "--tokenizer", "tok"],
    ["pretrain", "--instances", "inst.jsonl", "--tokenizer", "tok"],
    ["finetune", "--mixture", "mixture.json", "--tokenizer", "tok", "--init", "init.npz"],
    ["generate", "--checkpoint", "init.npz", "--tokenizer", "tok", "--input", "task.jsonl"],
], ids=lambda argv: argv[0])
def test_stage_without_out_is_usage_error(capsys, argv):
    assert dispatch(argv) == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err


@pytest.mark.parametrize("out", [".", ".."])
def test_out_without_a_name_of_its_own_is_clean_error(pipeline, tmp_path, capsys, monkeypatch, out):
    """An output that names no file or directory of its own has no place
    beside it for the snapshot; the stage fails before any work."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    argv = ["pretrain", "--instances", str(pipeline["inst"]), "--tokenizer", str(pipeline["tok"]),
            "--steps", "0", "--out", out]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == f"error: --out {out} names no file or directory of its own\n"
    assert [p.name for p in tmp_path.iterdir()] == ["work"] and list(work.iterdir()) == []


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


@pytest.mark.parametrize("module, version", [(mdl, "CHECKPOINT_VERSION"), (bpe, "FORMAT_VERSION")])
def test_stage_reruns_when_a_format_version_changes(pipeline, tmp_path, capsys, monkeypatch, module, version):
    """A checkpoint or tokenizer format change makes a matching snapshot stale.
    The stage run is one that writes the format and reads none of it, since a
    tokenizer of another format version cannot be read at all."""
    argv = [
        "pretrain", "--instances", str(pipeline["inst"]), "--tokenizer", str(pipeline["tok"]),
        "--steps", "1", "--batch-size", "2", "--d-model", "16", "--num-heads", "2", "--encoder-layers", "1",
        "--decoder-layers", "1", "--feedforward-dim", "32", "--max-src-len", "160", "--max-tgt-len", "64",
        "--out", str(tmp_path / "run"),
    ] if module is mdl else [
        "train-tokenizer", "--input", pipeline["src"], "--vocab-size", "400", "--min-freq", "2",
        "--out", str(tmp_path / "tok"),
    ]
    assert dispatch(argv) == 0
    assert dispatch(argv) == 0
    assert "up to date" in capsys.readouterr().out
    monkeypatch.setattr(module, version, getattr(module, version) + 1)
    assert dispatch(argv) == 0
    assert "up to date" not in capsys.readouterr().out
    assert dispatch(argv) == 0
    assert "up to date" in capsys.readouterr().out


def test_stage_reruns_when_the_code_changes(tmp_path, capsys, monkeypatch):
    """The snapshot records a digest of the package's code and data, so a
    stage made by other code runs again once."""
    out = tmp_path / "docs.jsonl"
    argv = ["ingest", "--input", str(corpus.bundled_corpus_path()), "--out", str(out)]
    assert dispatch(argv) == 0
    snapshot = json.loads((tmp_path / "docs.jsonl.config.json").read_text(encoding="utf-8"))
    assert snapshot["versions"]["code"] == cli._code_digest()
    assert dispatch(argv) == 0
    assert "up to date" in capsys.readouterr().out
    monkeypatch.setattr(cli, "_code_digest", lambda: "0" * 64)
    assert dispatch(argv) == 0
    assert "up to date" not in capsys.readouterr().out
    assert dispatch(argv) == 0
    assert "up to date" in capsys.readouterr().out


def test_code_digest_covers_the_package_modules_and_data():
    """One sha256 over every ``*.py`` file of the package and every file
    under ``data/``, each with its path, in path order."""
    root = Path(cli.__file__).parent
    files = sorted([*root.glob("*.py"), *(p for p in (root / "data").rglob("*") if p.is_file())],
                   key=lambda p: p.relative_to(root).as_posix())
    assert {"cli.py", "data/mini_corpus.jsonl", "data/languages/java.json"} <= {
        p.relative_to(root).as_posix() for p in files}
    h = hashlib.sha256()
    for f in files:
        h.update(f.relative_to(root).as_posix().encode("utf-8") + b"\0" + hashlib.sha256(f.read_bytes()).digest())
    assert cli._code_digest() == h.hexdigest()


def _assert_reruns_once_after(argv, snapshot_path, edit, capsys):
    """Run ``argv``, rewrite its snapshot with ``edit``; the stage then runs
    again, and once more is up to date."""
    assert dispatch(argv) == 0
    snapshot = json.loads(snapshot_path.read_text(encoding="utf-8"))
    assert snapshot["versions"]["compute_dtype"] == "float32"
    edit(snapshot["versions"])
    snapshot_path.write_text(json.dumps(snapshot), encoding="utf-8")
    capsys.readouterr()
    assert dispatch(argv) == 0
    assert "up to date" not in capsys.readouterr().out
    assert dispatch(argv) == 0
    assert "up to date" in capsys.readouterr().out


def test_pretrain_made_before_the_training_dtype_was_recorded_reruns(pipeline, tmp_path, capsys):
    """A snapshot without the compute dtype vouches for float64-trained
    output, so that output is redone."""
    argv = [
        "pretrain", "--instances", str(pipeline["inst"]), "--tokenizer", str(pipeline["tok"]),
        "--steps", "1", "--batch-size", "2", "--d-model", "16", "--num-heads", "2", "--encoder-layers", "1",
        "--decoder-layers", "1", "--feedforward-dim", "32", "--max-src-len", "160", "--max-tgt-len", "64",
        "--out", str(tmp_path / "run"),
    ]
    _assert_reruns_once_after(argv, tmp_path / "run.config.json", lambda v: v.pop("compute_dtype"), capsys)


def test_generate_made_while_decoding_was_float64_reruns(pipeline, tmp_path, capsys):
    """A snapshot that records ``training_dtype`` was written when training
    ran in float32 but decoding in float64, so its hypotheses are redone."""
    data = tmp_path / "test.jsonl"
    data.write_text(json.dumps({"source": "int x ;", "target": "declare"}) + "\n", encoding="utf-8")
    argv = ["generate", "--checkpoint", str(_tiny_checkpoint(pipeline["tok"], tmp_path / "init.npz")),
            "--tokenizer", str(pipeline["tok"]), "--input", str(data), "--max-len", "3",
            "--out", str(tmp_path / "hyp.txt")]

    def as_written_then(versions):
        versions["training_dtype"] = versions.pop("compute_dtype")

    _assert_reruns_once_after(argv, tmp_path / "hyp.txt.config.json", as_written_then, capsys)


def test_generate_casts_the_checkpoint_once(pipeline, tmp_path, astype_copies):
    """``generate`` over five records makes one float32 copy of the float64
    checkpoint; each record decodes on that copy."""
    rows = [{"source": f"int x{i} = {i} ;", "target": "declare"} for i in range(5)]
    data = tmp_path / "test.jsonl"
    data.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    assert dispatch(["generate", "--checkpoint", str(_tiny_checkpoint(pipeline["tok"], tmp_path / "init.npz")),
                     "--tokenizer", str(pipeline["tok"]), "--input", str(data), "--max-len", "3",
                     "--beam", "2", "--out", str(tmp_path / "hyp.txt")]) == 0
    assert len(astype_copies) == 1
    assert {v.dtype for v in astype_copies[0].params.values()} == {np.dtype(np.float32)}


@pytest.mark.parametrize("flag, value", [("--d-model", "64"), ("--dropout", "0.1"), ("--max-src-len", "512")])
def test_pretrain_model_flag_with_init_is_usage_error(pipeline, tmp_path, capsys, flag, value):
    """The checkpoint fixes the model, so a model flag beside ``--init`` would be silently ignored."""
    out = tmp_path / "run"
    argv = ["pretrain", "--instances", str(pipeline["inst"]), "--tokenizer", str(pipeline["tok"]),
            "--init", str(_tiny_checkpoint(pipeline["tok"], tmp_path / "init.npz")), flag, value,
            "--out", str(out)]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: codepretrain pretrain ")
    assert err.splitlines()[-1] == (f"codepretrain pretrain: error: {flag} cannot be given with --init: "
                                    "the checkpoint fixes the model")
    assert not out.exists()


def test_pretrain_snapshot_records_the_model_flag_values(pipeline, tmp_path):
    """Without ``--init`` each model flag's value is recorded, given or
    default; with it, none is, since the checkpoint's model is used."""
    common = ["pretrain", "--instances", str(pipeline["inst"]), "--tokenizer", str(pipeline["tok"]),
              "--steps", "1", "--batch-size", "2"]
    model = ["--d-model", "16", "--num-heads", "2", "--encoder-layers", "1", "--decoder-layers", "1",
             "--feedforward-dim", "32", "--max-src-len", "160"]
    assert dispatch(common + model + ["--out", str(tmp_path / "run")]) == 0
    snapshot = json.loads((tmp_path / "run.config.json").read_text(encoding="utf-8"))
    assert {k: snapshot[k] for k in ("d_model", "max_src_len", "max_tgt_len", "dropout")} == {
        "d_model": 16, "max_src_len": 160, "max_tgt_len": 256, "dropout": 0.0}
    init = ["--init", str(tmp_path / "run" / "checkpoint.npz")]
    assert dispatch(common + init + ["--out", str(tmp_path / "more")]) == 0
    snapshot = json.loads((tmp_path / "more.config.json").read_text(encoding="utf-8"))
    assert [snapshot[k] for k in ("d_model", "num_heads", "max_tgt_len", "dropout")] == [None] * 4


@pytest.mark.parametrize("flag, value", [("--beam", "0"), ("--beam", "-3"), ("--max-len", "-5"),
                                         ("--max-len", "x")])
def test_generate_decode_setting_below_one_is_usage_error(tmp_path, capsys, flag, value):
    argv = ["generate", "--checkpoint", "init.npz", "--tokenizer", "tok", "--input", "task.jsonl",
            flag, value, "--out", str(tmp_path / "hyp.txt")]
    assert dispatch(argv) == 2
    assert f"error: argument {flag}: must be an int of at least 1, got '{value}'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
    assert (pipeline["root"] / "run.config.json").exists()
    records = [json.loads(l) for l in (run / "metrics.jsonl").read_text().splitlines()]
    assert len(records) == 3
    assert all({"step", "objective", "loss"} <= set(r) for r in records)


def test_pretrain_summary_gives_each_objectives_first_and_last_loss(pipeline, tmp_path, capsys):
    """Consecutive steps train different objectives, so the summary pairs the
    first and last logged loss of each objective, never of two objectives."""
    run = tmp_path / "run"
    argv = ["pretrain", "--instances", str(pipeline["inst"]), "--tokenizer", str(pipeline["tok"]),
            "--steps", "8", "--batch-size", "2", "--d-model", "16", "--num-heads", "2", "--encoder-layers", "1",
            "--decoder-layers", "1", "--feedforward-dim", "32", "--max-src-len", "160", "--max-tgt-len", "64",
            "--out", str(run)]
    assert dispatch(argv) == 0
    first, last = {}, {}
    for rec in map(json.loads, (run / "metrics.jsonl").read_text(encoding="utf-8").splitlines()):
        first.setdefault(rec["objective"], rec["loss"])
        last[rec["objective"]] = rec["loss"]
    assert len(first) > 1
    losses = ", ".join(f"{o} {first[o]:.4f} -> {last[o]:.4f}" for o in sorted(first))
    assert capsys.readouterr().out == f"pretrain: 8 steps, loss {losses} ({run})\n"


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
            "--multi-task",  # a no-op kept because the bench's bundled-cli argv still passes it
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


def test_finetune_task_mixing_tagging_with_sequence_instances_is_clean_error(pipeline, tmp_path, capsys):
    """The denoise instances hold IT (tagging loss) beside MSP and MIP
    (sequence loss); such a task ends finetune before its first step, even
    where the instances fit the model and a run would start."""
    mixture = tmp_path / "mixture.json"
    mixture.write_text(json.dumps({"tasks": [{"name": "denoise", "path": str(pipeline["inst"])}]}), encoding="utf-8")
    argv = _finetune_argv(pipeline, tmp_path, mixture)
    argv[argv.index("--init") + 1] = str(_tiny_checkpoint(pipeline["tok"], tmp_path / "init.npz", max_len=160))
    assert dispatch(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: task 'denoise' mixes the tagging and sequence losses: "
                   "its instances have objectives IT, MIP, MSP"]
    assert not (tmp_path / "ft").exists() and not (tmp_path / "ft.config.json").exists()


def test_finetune_non_finite_alpha_is_clean_error(pipeline, tmp_path, capsys):
    task_data = tmp_path / "task.jsonl"
    task_data.write_text(json.dumps({"source": "int x ;", "target": "declare"}) + "\n", encoding="utf-8")
    mixture = tmp_path / "mixture.json"
    mixture.write_text(json.dumps({"tasks": [{"name": "t", "path": str(task_data)}]}), encoding="utf-8")
    assert dispatch(_finetune_argv(pipeline, tmp_path, mixture) + ["--alpha", "nan"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: alpha must be a finite non-negative number, got nan"]
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


COMMAND_FLAGS = {
    "ingest": {"input", "keep_comments", "out"},
    "stats": {"input"},
    "lex": {"lang", "input"},
    "train-tokenizer": {"input", "vocab_size", "min_freq", "out"},
    "build-instances": {"input", "tokenizer", "phase", "seed", "rate", "max_src_len", "max_tgt_len", "out"},
    "pretrain": {"instances", "tokenizer", "phase", "init", "steps", "batch_size", "lr", "warmup_steps", "seed",
                 "d_model", "num_heads", "encoder_layers", "decoder_layers", "feedforward_dim", "max_src_len",
                 "max_tgt_len", "dropout", "out"},
    "finetune": {"multi_task", "mixture", "tokenizer", "init", "alpha", "steps", "batch_size", "lr",
                 "warmup_steps", "seed", "out"},
    "generate": {"checkpoint", "tokenizer", "input", "control_code", "max_len", "beam", "out"},
    "eval": {"task", "hyp", "ref"},
}


def _subparsers(parser=None):
    sub = next(a for a in (parser or build_parser())._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_every_command_has_exactly_its_pinned_flags():
    """Adding or dropping a flag of any command is a deliberate edit of this table."""
    got = {name: {a.dest for a in p._actions if a.dest != "help"} for name, p in _subparsers().items()}
    assert got == COMMAND_FLAGS


def test_readme_cli_block_parses():
    """Every command of the README's CLI block parses, so a flag change that
    leaves the README behind fails here."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    block = block.replace("\\\n", " ").replace("$CORPUS", re.search(r"^CORPUS=(\S+)$", block, re.M).group(1))
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("codepretrain ")]
    parser = build_parser()
    assert {argv[0] for argv in commands} == set(_subparsers(parser))
    for argv in commands:
        parser.parse_args(argv)


def test_abbreviated_flag_is_usage_error(pipeline, tmp_path, capsys):
    """A prefix of a flag is not that flag, so a renamed flag cannot keep
    parsing as an abbreviation of its new name."""
    out = tmp_path / "tok"
    argv = ["train-tokenizer", "--input", pipeline["src"], "--vocab", "600", "--out", str(out)]
    assert dispatch(argv) == 2
    assert "unrecognized arguments: --vocab 600" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "tok.config.json").exists()


def test_unknown_flag_prints_the_subcommand_usage(capsys):
    """An unknown flag is reported with the usage of the subcommand it was
    given to, and leaves nothing behind in the parsed arguments."""
    assert dispatch(["train-tokenizer", "--input", "c", "--vocab", "600", "--out", "t"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: codepretrain train-tokenizer ") and "--vocab-size VOCAB_SIZE" in err
    assert err.splitlines()[-1] == "codepretrain train-tokenizer: error: unrecognized arguments: --vocab 600"
    args = build_parser().parse_args(["train-tokenizer", "--input", "c", "--out", "t"])
    assert set(vars(args)) == COMMAND_FLAGS["train-tokenizer"] | {"command", "func"}


def test_snapshot_records_every_flag(pipeline, tmp_path):
    """Every flag of an artifact stage reaches its snapshot, so changing any
    flag re-runs the stage."""
    stages = {name: p for name, p in _subparsers().items() if isinstance(p.get_default("func"), Stage)}
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
        "train-tokenizer": pipeline["tok"].with_name(pipeline["tok"].name + ".config.json"),
        "build-instances": pipeline["inst"].with_name(pipeline["inst"].name + ".config.json"),
        "pretrain": tmp_path / "run.config.json",
        "finetune": tmp_path / "ft.config.json",
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


@pytest.mark.parametrize("task", ["defect", "clone"])
@pytest.mark.parametrize("bad, line", [("hyp", "foo"), ("hyp", ""), ("ref", "foo"), ("ref", "7")],
                         ids=["hyp", "hyp-empty", "ref", "ref-outside-0-1"])
def test_eval_non_integer_label_names_file_and_line(tmp_path, capsys, task, bad, line):
    """A hypothesis that is not 0 or 1 matches no reference: wrong for
    accuracy, a false negative for F1 where the reference is 1, and counted
    on stderr.  A reference that is not 0 or 1 names its file and line."""
    files = {name: tmp_path / f"{name}.txt" for name in ("hyp", "ref")}
    for name, path in files.items():
        path.write_text(f"1\n{line}\n0\n" if name == bad else "1\n1\n0\n", encoding="utf-8")
    argv = ["eval", "--task", task, "--hyp", str(files["hyp"]), "--ref", str(files["ref"])]
    if bad == "hyp":
        assert dispatch(argv) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["note: 1 of 3 hypotheses are not 0/1 labels"]
        report = json.loads(captured.out)
        assert report["metric"] == {"defect": "accuracy", "clone": "f1"}[task]
        assert report["value"] == pytest.approx(2 / 3)
    else:
        assert dispatch(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {files['ref']} line 2: label must be 0 or 1, got {line!r}"]


def test_eval_unknown_task(tmp_path, capsys):
    """An unknown task is a usage error that lists the tasks, before any file is read."""
    missing = str(tmp_path / "missing.txt")
    assert dispatch(["eval", "--task", "mystery", "--hyp", missing, "--ref", missing]) == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'mystery'" in err and "'defect', 'clone'" in err


def _defect_pairs(rng, n):
    """Balanced defect pairs: a mini-language snippet, labelled 1 with its
    local's declaration (line 2, ``int c = N;``) deleted."""
    pairs = []
    for i in range(n):
        lines = synth.random_record(rng, "mini").code.splitlines()
        assert re.fullmatch(r"    int \w+ = \d;", lines[1])
        if i % 2:
            del lines[1]
        pairs.append({"source": "\n".join(lines), "target": str(i % 2)})
    return pairs


def _clone_pairs(rng, lexers, n):
    """Balanced clone pairs: two functions' code, the second a renamed copy of
    the first (label 1) or an unrelated function (label 0)."""
    pairs = []
    for i in range(n):
        doc = synth.random_document(rng, lexers, "mini")
        other = synth.rename_identifiers(doc, rng) if i % 2 else synth.random_document(rng, lexers, "mini")
        pairs.append({"source": " ".join(doc.code_tokens + other.code_tokens), "target": str(i % 2)})
    return pairs


def _finetune_generate_eval(pipeline, root, capsys, task, pairs, held_out, steps, max_src_len):
    """finetune a fresh small checkpoint on all but the last ``held_out``
    pairs, generate one token per held-out source, and eval the hypotheses.
    Returns the eval report and eval's stderr."""
    train, test = pairs[:-held_out], pairs[-held_out:]
    for name, rows in (("train", train), ("test", test)):
        (root / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    (root / "ref.txt").write_text("".join(r["target"] + "\n" for r in test), encoding="utf-8")
    mixture = root / "mixture.json"
    mixture.write_text(json.dumps({"tasks": [{"name": task, "path": str(root / "train.jsonl")}]}), encoding="utf-8")
    cfg = ModelConfig(vocab_size=bpe.SubwordTokenizer.load(pipeline["tok"]).vocab_size, d_model=32, num_heads=2,
                      encoder_layers=1, decoder_layers=1, feedforward_dim=64, max_src_len=max_src_len, max_tgt_len=8)
    Seq2SeqModel(cfg, seed=0).save(root / "init.npz")
    tok = str(pipeline["tok"])
    assert dispatch(["finetune", "--mixture", str(mixture), "--tokenizer", tok, "--init", str(root / "init.npz"),
                     "--steps", str(steps), "--lr", "2e-3", "--seed", "0", "--out", str(root / "ft")]) == 0
    assert dispatch(["generate", "--checkpoint", str(root / "ft" / "checkpoint.npz"), "--tokenizer", tok,
                     "--input", str(root / "test.jsonl"), "--max-len", "1", "--out", str(root / "hyp.txt")]) == 0
    assert len((root / "hyp.txt").read_text(encoding="utf-8").splitlines()) == held_out
    capsys.readouterr()
    assert dispatch(["eval", "--task", task, "--hyp", str(root / "hyp.txt"), "--ref", str(root / "ref.txt")]) == 0
    captured = capsys.readouterr()
    return json.loads(captured.out), captured.err


def test_defect_detection_through_finetune_generate_eval(pipeline, tmp_path, capsys):
    """The label is generated as a one-token target.  On 60 held-out pairs
    the majority class scores 0.50; over seeds 0-9 of data, model and
    schedule this run read 0.63-0.90 accuracy (seed 0: 0.77)."""
    pairs = _defect_pairs(np.random.default_rng(0), 260)
    report, _ = _finetune_generate_eval(pipeline, tmp_path, capsys, "defect", pairs, 60, 300, 160)
    assert report["metric"] == "accuracy"
    assert report["value"] >= 0.6


def test_clone_detection_through_finetune_generate_eval(pipeline, lexers, tmp_path, capsys):
    """Clone pairs take the same path.  No score gate: the small model stays
    near chance on them (held-out accuracy 0.43-0.60 at 300 steps and
    0.52-0.68 at 1000 over seeds 0-4), and a short run may emit the same
    label, or an empty line, for every source."""
    pairs = _clone_pairs(np.random.default_rng(0), lexers, 160)
    report, err = _finetune_generate_eval(pipeline, tmp_path, capsys, "clone", pairs, 40, 100, 320)
    assert report["metric"] == "f1" and 0.0 <= report["value"] <= 1.0
    assert err == "" or re.fullmatch(r"note: \d+ of 40 hypotheses are not 0/1 labels\n", err)


def test_generate_writes_an_empty_hypothesis_for_an_overlong_source(pipeline, tmp_path, capsys):
    """A source longer than the checkpoint's max_src_len gets an empty line,
    which eval scores as a miss; the other records decode as usual."""
    ckpt = _tiny_checkpoint(pipeline["tok"], tmp_path / "init.npz", max_len=16)
    rows = [{"source": "int x ;", "target": "declare"}, {"source": "int x = 1 ; " * 20, "target": "declare"},
            {"source": "return y ;", "target": "return"}]
    data = tmp_path / "test.jsonl"
    data.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    hyp = tmp_path / "hyp.txt"
    argv = ["generate", "--checkpoint", str(ckpt), "--tokenizer", str(pipeline["tok"]), "--input", str(data),
            "--max-len", "3", "--out", str(hyp)]
    assert dispatch(argv) == 0
    lines = hyp.read_text(encoding="utf-8").split("\n")
    assert len(lines) == 4 and lines[3] == "" and lines[1] == ""
    assert lines[0] == " ".join(lines[0].split())
    err = capsys.readouterr().err
    assert "note: 1 of 3 sources exceed max_src_len 16; their hypotheses are empty" in err


def _write_bad_checkpoint(pipeline, path, kind):
    if kind == "truncated":
        good = _tiny_checkpoint(pipeline["tok"], path.with_name("good.npz")).read_bytes()
        path.write_bytes(good[: len(good) // 2])
    elif kind == "not-a-checkpoint":
        np.savez(path, weights=np.zeros(3))
    elif kind == "text":
        path.write_text("not a checkpoint\n", encoding="utf-8")
    else:
        model = Seq2SeqModel.load(_tiny_checkpoint(pipeline["tok"], path))
        if kind == "missing-param":
            del model.params["dec0.ffn.w1"]
        else:
            model.params["lm.b"] = np.zeros(7)
        model.save(path)


@pytest.mark.parametrize("command", ["generate", "pretrain"])
@pytest.mark.parametrize(
    "bad, cause",
    [
        ("truncated", "File is not a zip file"),
        ("not-a-checkpoint", "__meta__"),
        ("text", "pickled"),
        ("missing-param", "parameter dec0.ffn.w1: shape None in checkpoint"),
        ("bad-shape", "parameter lm.b: shape (7,) in checkpoint"),
        ("vocab", "not a tokenizer vocab file"),
        ("version", f"vocab file has format version 9, expected {bpe.FORMAT_VERSION}"),
    ],
)
def test_unreadable_checkpoint_or_tokenizer_is_clean_error(pipeline, tmp_path, capsys, command, bad, cause):
    ckpt, tok = tmp_path / "init.npz", pipeline["tok"]
    if bad in ("vocab", "version"):
        _tiny_checkpoint(pipeline["tok"], ckpt)
        tok = tmp_path / "tok"
        shutil.copytree(pipeline["tok"], tok)
        if bad == "vocab":
            (tok / "vocab.txt").write_text("[PAD]\n[CLS]\n", encoding="utf-8")
            (tok / "merges.txt").write_text("", encoding="utf-8")
        else:
            for name in ("vocab.txt", "merges.txt"):
                text = (tok / name).read_text(encoding="utf-8")
                (tok / name).write_text(text.replace(f" v{bpe.FORMAT_VERSION}\n", " v9\n", 1), encoding="utf-8")
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


def test_generate_on_version_1_checkpoint_is_clean_error(pipeline, tmp_path, capsys, monkeypatch):
    """A checkpoint saved before the LM head was tied to the token embedding
    (a (vocab, d_model) ``embed.tok`` and a separate ``lm.w``) is refused with
    one error line that says why."""
    ckpt = _tiny_checkpoint(pipeline["tok"], tmp_path / "v1.npz")
    model = Seq2SeqModel.load(ckpt)
    model.params["lm.w"] = model.params["embed.tok"].copy()
    model.params["embed.tok"] = model.params["embed.tok"].T.copy()
    with monkeypatch.context() as m:
        m.setattr(mdl, "CHECKPOINT_VERSION", 1)
        model.save(ckpt)
    data = tmp_path / "task.jsonl"
    data.write_text(json.dumps({"source": "int x ;", "target": "declare"}) + "\n", encoding="utf-8")
    out = tmp_path / "hyp.txt"
    argv = ["generate", "--checkpoint", str(ckpt), "--tokenizer", str(pipeline["tok"]), "--input", str(data),
            "--out", str(out)]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: cannot read checkpoint {ckpt}: unsupported checkpoint version 1 ")
    assert "tied to the token embedding" in err[0] and "retrain" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("bad, cause", [
    ("nan", "parameter dec0.ffn.w1: 1 non-finite values in checkpoint"),
    ("float32", "parameter dec0.ffn.w1: dtype float32 in checkpoint, expected float64"),
])
def test_generate_on_a_nan_or_float32_checkpoint_is_clean_error(pipeline, tmp_path, capsys, bad, cause):
    """A checkpoint with one NaN parameter value used to decode every record
    to ``[PAD]`` runs and exit 0; it, and a checkpoint of a dtype the package
    does not write, end in one error line naming the parameter."""
    ckpt = _tiny_checkpoint(pipeline["tok"], tmp_path / "bad.npz")
    model = Seq2SeqModel.load(ckpt)
    if bad == "nan":
        model.params["dec0.ffn.w1"][0, 0] = np.nan
    else:
        model.params["dec0.ffn.w1"] = model.params["dec0.ffn.w1"].astype(np.float32)
    model.save(ckpt)
    data = tmp_path / "task.jsonl"
    data.write_text(json.dumps({"source": "int x ;", "target": "declare"}) + "\n", encoding="utf-8")
    out = tmp_path / "hyp.txt"
    argv = ["generate", "--checkpoint", str(ckpt), "--tokenizer", str(pipeline["tok"]), "--input", str(data),
            "--out", str(out)]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: cannot read checkpoint {ckpt}: {cause}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, field",
    [("--num-heads", "0", "num_heads"), ("--batch-size", "0", "batch_size"),
     ("--encoder-layers", "-1", "encoder_layers"), ("--steps", "-1", "steps"),
     ("--warmup-steps", "-1", "warmup_steps"), ("--lr", "nan", "peak_lr"), ("--lr", "-1", "peak_lr")],
)
def test_invalid_model_or_schedule_value_is_clean_error(pipeline, tmp_path, capsys, flag, value, field):
    out = tmp_path / "run"
    argv = [
        "pretrain", "--instances", str(pipeline["inst"]), "--tokenizer", str(pipeline["tok"]),
        "--steps", "1", "--batch-size", "2", "--d-model", "16", "--num-heads", "2", "--encoder-layers", "1",
        "--decoder-layers", "1", "--feedforward-dim", "32", "--max-src-len", "160", "--max-tgt-len", "64",
        flag, value, "--out", str(out),
    ]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and field in err[0]
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, where", [("pretrain", "step 1 (objective "), ("finetune", "step 1 (task t, objective FINETUNE): ")]
)
def test_non_finite_loss_is_clean_error(pipeline, tmp_path, capsys, monkeypatch, command, where):
    """A NaN loss stops the run at step 1, before any update or output, with
    the error line alone: no numpy warning comes first.  Every step reads the
    poisoned ``lm.b``: pretrain runs the dual phase, whose objectives are
    both generation (an IT step would not read the LM head).  The model is
    poisoned once loaded, as ``Seq2SeqModel.load`` refuses a checkpoint with
    a non-finite value."""
    ckpt = _tiny_checkpoint(pipeline["tok"], tmp_path / "init.npz", max_len=160)
    load = Seq2SeqModel.load

    def poisoned(path):
        model = load(path)
        model.params["lm.b"][3] = np.inf
        return model

    monkeypatch.setattr(Seq2SeqModel, "load", poisoned)
    out = tmp_path / "run"
    if command == "pretrain":
        dual = tmp_path / "dual.jsonl"
        assert dispatch(["build-instances", "--input", str(pipeline["docs"]), "--tokenizer", str(pipeline["tok"]),
                         "--phase", "dual", "--max-src-len", "160", "--max-tgt-len", "160", "--out", str(dual)]) == 0
        argv = ["pretrain", "--instances", str(dual), "--phase", "dual", "--batch-size", "2"]
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
