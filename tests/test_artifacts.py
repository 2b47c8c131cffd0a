"""Artifact I/O: one module writes every stage output atomically and parses
every JSONL artifact with the file and line of a bad row."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import codepretrain
from codepretrain import artifacts
from codepretrain import objectives as obj
from codepretrain import training as tr
from codepretrain.model import Seq2SeqModel

PACKAGE = Path(codepretrain.__file__).parent
WRITE_CALLS = {"write_text", "write_bytes", "savez", "savez_compressed"}


def _called(node: ast.Call) -> str | None:
    return node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)


def _file_writes(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, call) for each call that writes a file: ``write_text``,
    ``write_bytes``, ``np.savez`` or an ``open`` whose mode is not read-only.
    Calls inside the arguments of ``write_atomic`` write to the file it opened."""
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    atomic = {id(n) for call in calls if _called(call) == "write_atomic" for arg in call.args for n in ast.walk(arg)}
    found = []
    for node in calls:
        name, func = _called(node), node.func
        if id(node) in atomic:
            continue
        if name == "open":
            # builtin open(path, mode) versus Path.open(mode)
            positional = node.args[1:] if isinstance(func, ast.Name) else node.args
            mode = next((k.value for k in node.keywords if k.arg == "mode"), positional[0] if positional else None)
            reads = mode is None or (isinstance(mode, ast.Constant) and not set("wax+") & set(mode.value))
            if not reads:
                found.append((node.lineno, "open"))
        elif name in WRITE_CALLS:
            found.append((node.lineno, name))
    return found


def test_only_the_artifacts_module_writes_files():
    offenders = [
        f"{path.name}:{line} {call}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "artifacts.py"
        for line, call in _file_writes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def test_guard_sees_each_kind_of_write():
    source = "\n".join([
        'open(p, "w")', 'open(p, mode="ab")', "open(p, m)", 'p.open("r+")', "p.write_text(s)",
        "p.write_bytes(b)", "np.savez(p, a=a)", 'open(p)', 'open(p, "rb")', 'p.open()',
        "artifacts.write_atomic(p, lambda f: np.savez(f, a=a), binary=True)",
    ])
    assert [line for line, _ in _file_writes(ast.parse(source))] == [1, 2, 3, 4, 5, 6, 7]


class _Interrupted(Exception):
    pass


class _DiesAfterFirstWrite:
    """Forwards to a real file; every write after the first raises."""

    def __init__(self, f):
        self._f, self._writes = f, 0

    def __getattr__(self, name):
        return getattr(self._f, name)

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise _Interrupted
        return self._f.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def _instances(first_id):
    return [obj.TrainingInstance((first_id + i, 2), (3,), obj.FINETUNE) for i in range(3)]


@pytest.mark.parametrize("kind", ["jsonl", "checkpoint", "tokenizer"])
def test_failed_write_keeps_previous_artifact(kind, tmp_path, monkeypatch, tiny_config, tokenizer, code_tokenizer):
    """A write that raises partway leaves the previous artifact byte for byte
    and no temporary file."""
    out = tmp_path / "artifact"
    save = {
        "jsonl": lambda version: obj.write_instances(_instances(10 * version), out),
        "checkpoint": lambda version: Seq2SeqModel(tiny_config, seed=version).save(out),
        "tokenizer": lambda version: (code_tokenizer, tokenizer)[version].save(out),
    }[kind]
    save(0)
    before = {p.name: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert before

    real = artifacts.write_atomic
    monkeypatch.setattr(
        artifacts, "write_atomic",
        lambda path, write, binary=False: real(path, lambda f: write(_DiesAfterFirstWrite(f)), binary),
    )
    with pytest.raises(_Interrupted):
        save(1)
    assert {p.name: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize(
    "read, good, bad, message",
    [
        (obj.read_instances, '{"source_ids": [1], "target_ids": [2], "objective": "MSP"}',
         '{"source_ids": [1], "target_ids"', "not JSON: "),
        (obj.read_instances, '{"source_ids": [1], "target_ids": [2], "objective": "MSP"}',
         '{"source_ids": [1], "objective": "MSP"}', "missing key 'target_ids'"),
        (obj.read_instances, '{"source_ids": [1], "target_ids": [2], "objective": "MSP"}',
         '{"source_ids": [1], "target_ids": [2], "objective": "NOPE"}', "unknown objective 'NOPE'"),
        (tr.read_metrics_log, '{"step": 1, "objective": "MSP", "loss": 2.5}', '{"step": 2, "obj', "not JSON: "),
        (tr.read_metrics_log, '{"step": 1, "objective": "MSP", "loss": 2.5}',
         '{"step": 2, "objective": "MSP"}', "missing key 'loss'"),
    ],
    ids=["instances-truncated", "instances-missing-key", "instances-bad-objective",
         "metrics-truncated", "metrics-missing-key"],
)
def test_bad_line_names_file_and_line(tmp_path, read, good, bad, message):
    path = tmp_path / "rows.jsonl"
    path.write_text(f"{good}\n\n{bad}\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        list(read(path))
    assert str(info.value).startswith(f"{path} line 3: {message}")
