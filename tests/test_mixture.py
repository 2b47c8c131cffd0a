from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codepretrain import mixture as mx
from codepretrain import training as tr
from codepretrain.cli import dispatch
from codepretrain.model import ModelConfig, Seq2SeqModel
from codepretrain.objectives import FINETUNE, TrainingInstance

# Frozen from a 50-digit arbitrary-precision evaluation of the tempered
# multinomial for sizes [900, 100] at alpha 0.7.
ORACLE_900_100 = (0.82318212236958793665, 0.17681787763041206335)


def test_tempered_probs_match_oracle():
    probs = mx.mixture_probs([900, 100], 0.7)
    assert probs[0] == pytest.approx(ORACLE_900_100[0], abs=1e-9)
    assert probs[1] == pytest.approx(ORACLE_900_100[1], abs=1e-9)
    assert probs[0] == pytest.approx(0.8232, abs=5e-5)
    assert probs[1] == pytest.approx(0.1768, abs=5e-5)


def test_alpha_one_is_proportional():
    probs = mx.mixture_probs([300, 100, 600], 1.0)
    assert probs == pytest.approx([0.3, 0.1, 0.6], abs=1e-15)


def test_alpha_zero_is_uniform():
    probs = mx.mixture_probs([7, 900, 12, 1], 0.0)
    assert probs == pytest.approx([0.25] * 4, abs=1e-15)


def test_zero_size_rejected():
    with pytest.raises(ValueError, match=r"all task sizes must be positive, got \[10, 0\]"):
        mx.mixture_probs([10, 0], 0.7)


def test_negative_alpha_rejected():
    with pytest.raises(ValueError):
        mx.mixture_probs([10, 10], -0.1)


@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=12),
       st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_normalization_property(sizes, alpha):
    probs = mx.mixture_probs(sizes, alpha)
    assert abs(sum(probs) - 1.0) < 1e-12
    assert all(q > 0 for q in probs)


def test_permutation_equivariance():
    sizes = [5, 250, 40, 9000]
    probs = mx.mixture_probs(sizes, 0.7)
    perm = [2, 0, 3, 1]
    permuted = mx.mixture_probs([sizes[i] for i in perm], 0.7)
    assert permuted == pytest.approx([probs[i] for i in perm], abs=1e-15)


def test_low_resource_tasks_upweighted():
    sizes = [100, 900]
    for alpha in (0.2, 0.5, 0.7, 0.9):
        q = mx.mixture_probs(sizes, alpha)
        assert q[0] / q[1] > sizes[0] / sizes[1]


def test_sample_task_frequencies():
    mixture = mx.TaskMixture(
        tasks=(mx.TaskSpec("big", 900), mx.TaskSpec("small", 100)), alpha=0.7
    )
    rng = np.random.default_rng(0)
    n = 100_000
    draws = sum(1 for _ in range(n) if mx.sample_task(mixture, rng) == "big")
    assert abs(draws / n - ORACLE_900_100[0]) < 0.01


def test_sample_task_single():
    mixture = mx.TaskMixture(tasks=(mx.TaskSpec("only", 42),), alpha=0.7)
    rng = np.random.default_rng(1)
    assert all(mx.sample_task(mixture, rng) == "only" for _ in range(20))


def test_sample_task_seeded_reproducible():
    mixture = mx.TaskMixture(
        tasks=(mx.TaskSpec("a", 10), mx.TaskSpec("b", 30), mx.TaskSpec("c", 5)), alpha=0.7
    )
    a = [mx.sample_task(mixture, np.random.default_rng(3)) for _ in range(1)]
    runs = [
        [mx.sample_task(mixture, rng) for _ in range(25)]
        for rng in (np.random.default_rng(3), np.random.default_rng(3))
    ]
    assert runs[0] == runs[1]


def _instance(tokenizer, payload="int a ;"):
    ids = tokenizer.encode(payload, use_specials=False)
    return TrainingInstance(
        (tokenizer.cls_id, *ids, tokenizer.sep_id),
        (*ids, tokenizer.sep_id),
        FINETUNE,
    )


def test_apply_control_code(tokenizer):
    inst = _instance(tokenizer)
    task = mx.TaskSpec("translate", 10, control_code="Translate Java to CSharp:")
    out = mx.apply_control_code(inst, task, tokenizer)
    prompt = tokenizer.encode("Translate Java to CSharp:", use_specials=False)
    assert out.source_ids[0] == tokenizer.cls_id
    assert list(out.source_ids[1 : 1 + len(prompt)]) == prompt
    assert out.source_ids[1 + len(prompt):] == inst.source_ids[1:]
    assert out.target_ids == inst.target_ids
    assert out.control_code == task.control_code


def test_apply_empty_control_code_is_identity(tokenizer):
    inst = _instance(tokenizer)
    out = mx.apply_control_code(inst, mx.TaskSpec("plain", 5, control_code=""), tokenizer)
    assert out == inst


def test_apply_control_code_twice_rejected(tokenizer):
    inst = _instance(tokenizer)
    task = mx.TaskSpec("summarize", 10, control_code="Summarize:")
    once = mx.apply_control_code(inst, task, tokenizer)
    with pytest.raises(ValueError, match="instance already carries control code 'Summarize:'"):
        mx.apply_control_code(once, task, tokenizer)


def test_probs_track_alpha_and_size_changes():
    import dataclasses

    base = mx.TaskMixture(tasks=(mx.TaskSpec("a", 900), mx.TaskSpec("b", 100)), alpha=0.7)
    uniform = dataclasses.replace(base, alpha=0.0)
    assert uniform.probs == pytest.approx([0.5, 0.5], abs=1e-15)
    resized = dataclasses.replace(base, tasks=(mx.TaskSpec("a", 100), mx.TaskSpec("b", 100)))
    assert resized.probs == pytest.approx([0.5, 0.5], abs=1e-15)
    assert base.probs[0] == pytest.approx(ORACLE_900_100[0], abs=1e-9)


# The mixture config is read by the ``finetune`` command, so these tests run it
# through ``cli.dispatch``: bad input exits 1 with one ``error:`` line.


def _finetune_argv(tmp_path, tokenizer, cfg) -> list[str]:
    """``finetune`` over the mixture config ``cfg`` (a dict, or raw text), with
    ``tokenizer`` saved beside it and a tiny fresh checkpoint."""
    mixture = tmp_path / "mixture.json"
    mixture.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg), encoding="utf-8")
    tokenizer.save(tmp_path / "tok")
    model = ModelConfig(vocab_size=tokenizer.vocab_size, d_model=16, num_heads=2, encoder_layers=1,
                        decoder_layers=1, feedforward_dim=32, max_src_len=32, max_tgt_len=32)
    Seq2SeqModel(model).save(tmp_path / "init.npz")
    return ["finetune", "--mixture", str(mixture), "--tokenizer", str(tmp_path / "tok"),
            "--init", str(tmp_path / "init.npz"), "--steps", "8", "--batch-size", "2", "--lr", "0.001",
            "--warmup-steps", "0", "--seed", "3", "--out", str(tmp_path / "ft")]


def _write_dataset(path, instances, blank_lines=0) -> str:
    """Write ``instances`` one a line, each followed by ``blank_lines`` blank lines."""
    path.write_text("".join(json.dumps(i.to_dict()) + "\n" * (1 + blank_lines) for i in instances),
                    encoding="utf-8")
    return str(path)


def test_mixture_from_config(tmp_path, tokenizer, capsys):
    """``finetune`` sizes each task by the records it reads, blank lines
    skipped, prepends each task's control code to its training and validation
    records, and trains as ``training.finetune`` does on that mixture: the
    same metrics log, best step, validation loss and best checkpoint.  Sizing
    ``b`` by its 33 lines would change the log from step 4 on."""
    data = {"a": [_instance(tokenizer, f"int a{i} ;") for i in range(7)],
            "b": [_instance(tokenizer, f"int b{i} ;") for i in range(3)]}
    validation = {"a": [_instance(tokenizer, f"int v{i} ;") for i in range(3)]}
    cfg = {"alpha": 0.5, "tasks": [
        {"name": "a", "path": _write_dataset(tmp_path / "a.jsonl", data["a"]), "control_code": "Summarize:",
         "validation": _write_dataset(tmp_path / "a-val.jsonl", validation["a"])},
        {"name": "b", "path": _write_dataset(tmp_path / "b.jsonl", data["b"], blank_lines=10)},
    ]}
    assert dispatch(_finetune_argv(tmp_path, tokenizer, cfg)) == 0
    mixture = mx.TaskMixture((mx.TaskSpec("a", 7, "Summarize:"), mx.TaskSpec("b", 3)), alpha=0.5)
    specs = {spec.name: spec for spec in mixture.tasks}
    data, validation = ({name: [mx.apply_control_code(i, specs[name], tokenizer) for i in insts]
                         for name, insts in sets.items()} for sets in (data, validation))
    schedule = tr.TrainSchedule(steps=8, batch_size=2, peak_lr=0.001, warmup_steps=0, seed=3)
    log, best = tr.finetune(Seq2SeqModel.load(tmp_path / "init.npz"), mixture, data, schedule, validation)
    tr.write_metrics_log(log, tmp_path / "expected.jsonl")
    assert (tmp_path / "ft" / "metrics.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()
    assert set(best) == {"a"}
    assert f"finetune: best a at step {best['a'].step} (val loss {best['a'].metric:.4f})" in capsys.readouterr().out
    written = Seq2SeqModel.load(tmp_path / "ft" / "checkpoint.a.npz").params
    assert set(written) == set(best["a"].params)
    for k, v in best["a"].params.items():
        assert written[k].tobytes() == v.tobytes(), k


@pytest.mark.parametrize(
    "text, cause",
    [
        ('{"tasks": [', "Expecting value"),
        ('{"alpha": 0.5}', "missing key 'tasks'"),
        ('{"tasks": [{"name": "a"}]}', "missing key 'path'"),
        ('{"tasks": [{"path": "a.jsonl", "size": 3}]}', "missing key 'name'"),
        ('{"tasks": [{"name": "a", "path": "a.jsonl", "size": 7}]}', "task 'a' has unknown key 'size'"),
        ('{"alpha": "0.5", "tasks": []}', "alpha must be a finite non-negative number, got '0.5'"),
        ('{"alpha": true, "tasks": []}', "alpha must be a finite non-negative number, got True"),
        ('{"alpha": -1, "tasks": []}', "alpha must be a finite non-negative number, got -1"),
        ('{"alpha": NaN, "tasks": []}', "alpha must be a finite non-negative number, got nan"),
        ('{"tasks": []}', "a mixture needs at least one task"),
    ],
)
def test_mixture_from_config_rejects_malformed_config(tmp_path, tokenizer, capsys, text, cause):
    assert dispatch(_finetune_argv(tmp_path, tokenizer, text)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.match(f"error: malformed mixture config {re.escape(str(tmp_path / 'mixture.json'))}: .*{cause}", err[0])


def test_mixture_from_config_empty_dataset_names_task_and_file(tmp_path, tokenizer, capsys):
    data = tmp_path / "empty.jsonl"
    data.write_text("\n", encoding="utf-8")
    assert dispatch(_finetune_argv(tmp_path, tokenizer, {"tasks": [{"name": "a", "path": str(data)}]})) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: task 'a' dataset {data} is empty: task sizes must be positive"
    ]


@pytest.mark.parametrize("key, value", [("path", 5), ("validation", 7), ("control_code", 5), ("name", ["t"])])
def test_mixture_config_field_that_is_no_string_is_clean_error(tmp_path, tokenizer, capsys, key, value):
    task = {"name": "t", "path": _write_dataset(tmp_path / "t.jsonl", [_instance(tokenizer)]), key: value}
    assert dispatch(_finetune_argv(tmp_path, tokenizer, {"tasks": [task]})) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: malformed mixture config {tmp_path / 'mixture.json'}: "
        f"task {task['name']!r} field {key!r} must be a string"
    ]


def test_missing_mixture_config_is_clean_error(tmp_path, tokenizer, capsys):
    argv = _finetune_argv(tmp_path, tokenizer, {"tasks": []})
    (tmp_path / "mixture.json").unlink()
    assert dispatch(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: mixture config not found: {tmp_path / 'mixture.json'}"]


def test_mixture_config_task_named_twice_is_clean_error(tmp_path, tokenizer, capsys):
    """Two tasks named ``t`` are refused, not trained as the second alone."""
    tasks = [{"name": "t", "path": _write_dataset(tmp_path / f"{f}.jsonl", [_instance(tokenizer)] * n)}
             for f, n in (("a", 5), ("b", 3))]
    assert dispatch(_finetune_argv(tmp_path, tokenizer, {"tasks": tasks})) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: malformed mixture config {tmp_path / 'mixture.json'}: task 't' appears twice"
    ]
    assert not (tmp_path / "ft").exists()


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), "0.7", True])
def test_every_mixture_rejects_a_bad_alpha(alpha):
    with pytest.raises(ValueError, match=f"alpha must be a finite non-negative number, got {alpha!r}"):
        mx.TaskMixture(tasks=(mx.TaskSpec("a", 3), mx.TaskSpec("b", 5)), alpha=alpha)
