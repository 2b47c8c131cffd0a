from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from codepretrain import objectives as obj
from codepretrain import training as tr
from codepretrain.model import (
    InstanceObjectiveError,
    ModelConfig,
    Seq2SeqModel,
    forward_lm,
    is_decoder_param,
    is_encoder_param,
    loss_it,
    loss_mip,
    loss_msp,
    make_batch,
    seq2seq_loss_and_grads,
    tag_probabilities,
    tagging_loss_and_grads,
)


@pytest.fixture(scope="module")
def model(tiny_config):
    return Seq2SeqModel(tiny_config, seed=7)


@pytest.fixture(scope="module")
def msp_instance(tokenizer, bundled_docs):
    doc = obj.clip_document(bundled_docs[0], 16, 24)
    words = len(doc.nl_tokens) + len(doc.code_tokens)
    plan = obj.sample_spans(words, 0.15, np.random.default_rng(0), min_budget=1)
    return obj.build_msp(doc, tokenizer, plan)


@pytest.fixture(scope="module")
def it_instance(tokenizer, bundled_docs):
    return obj.build_it(obj.clip_document(bundled_docs[1], 16, 24), tokenizer)


@pytest.fixture(scope="module")
def mip_instance(tokenizer, bundled_docs):
    for doc in bundled_docs:
        if any(doc.identifier_labels):
            return obj.build_mip(obj.clip_document(doc, 16, 24), tokenizer)
    raise AssertionError("no identifier-bearing document")


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, d_model=30, num_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, max_src_len=1024)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, dropout=1.0)


def test_forward_rows_normalize(model, msp_instance):
    probs = forward_lm(model, msp_instance.source_ids, msp_instance.target_ids)
    assert probs.shape == (len(msp_instance.target_ids), model.config.vocab_size)
    assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6)


def test_causality_probe(model, msp_instance):
    src = msp_instance.source_ids
    tgt = list(msp_instance.target_ids)
    base = forward_lm(model, src, tgt)
    t = len(tgt) // 2
    perturbed = list(tgt)
    perturbed[t] = (perturbed[t] + 1) % model.config.vocab_size
    changed = forward_lm(model, src, perturbed)
    # positions at or before t see identical decoder inputs
    assert np.allclose(base[: t + 1], changed[: t + 1], atol=1e-12)
    assert not np.allclose(base[t + 1 :], changed[t + 1 :], atol=1e-12)


def test_padding_independence(model, tokenizer, bundled_docs):
    instances = []
    for doc in bundled_docs[:4]:
        doc = obj.clip_document(doc, 12, 18)
        words = len(doc.nl_tokens) + len(doc.code_tokens)
        plan = obj.sample_spans(words, 0.15, np.random.default_rng(1), min_budget=1)
        instances.append(obj.build_msp(doc, tokenizer, plan))
    from codepretrain.model import forward_lm_batch

    batched = forward_lm_batch(model, instances)
    solo = forward_lm(model, instances[0].source_ids, instances[0].target_ids)
    t = len(instances[0].target_ids)
    assert np.allclose(batched[0, :t], solo, atol=1e-9)
    # losses add up across the batch
    total, _, _ = seq2seq_loss_and_grads(model, instances, compute_grads=False)
    parts = [
        seq2seq_loss_and_grads(model, [i], compute_grads=False)[0] for i in instances
    ]
    assert total == pytest.approx(sum(parts), rel=1e-12)


def test_loss_msp_uniform_model(tiny_config, msp_instance):
    uniform = Seq2SeqModel(tiny_config, seed=0)
    uniform.params["lm.w"][:] = 0.0
    uniform.params["lm.b"][:] = 0.0
    k = len(msp_instance.target_ids)
    expected = k * math.log(tiny_config.vocab_size)
    assert loss_msp(uniform, msp_instance) == pytest.approx(expected, rel=1e-12)
    assert loss_msp(uniform, msp_instance, reduction="mean") == pytest.approx(
        math.log(tiny_config.vocab_size), rel=1e-12
    )


def test_loss_is_zero_when_model_is_certain(msp_instance):
    # a single-token vocabulary makes every prediction certain
    cfg = ModelConfig(vocab_size=1, d_model=8, num_heads=2, encoder_layers=1,
                      decoder_layers=1, feedforward_dim=16, max_src_len=64, max_tgt_len=32)
    certain = Seq2SeqModel(cfg, seed=0)
    inst = obj.TrainingInstance((0, 0, 0), (0, 0), obj.MSP)
    assert loss_msp(certain, inst) == pytest.approx(0.0, abs=1e-12)


def test_loss_msp_matches_independent_recomputation(model, msp_instance):
    # independent oracle: walk the forward_lm distributions position by position
    probs = forward_lm(model, msp_instance.source_ids, msp_instance.target_ids)
    expected = 0.0
    for t, gold in enumerate(msp_instance.target_ids):
        expected += -math.log(probs[t, gold])
    assert loss_msp(model, msp_instance) == pytest.approx(expected, abs=1e-6)


def test_loss_mip_matches_independent_recomputation(model, mip_instance):
    probs = forward_lm(model, mip_instance.source_ids, mip_instance.target_ids)
    expected = -sum(
        math.log(probs[t, gold]) for t, gold in enumerate(mip_instance.target_ids)
    )
    assert loss_mip(model, mip_instance) == pytest.approx(expected, abs=1e-6)


def test_loss_it_uniform_head(tiny_config, it_instance):
    m = Seq2SeqModel(tiny_config, seed=0)
    m.params["tag.w"][:] = 0.0
    m.params["tag.b"] = np.zeros(())
    n = len(it_instance.tag_labels)
    assert loss_it(m, it_instance) == pytest.approx(n * math.log(2), rel=1e-12)


def test_loss_it_saturated_head_is_clamped_zero(tiny_config, tokenizer):
    m = Seq2SeqModel(tiny_config, seed=0)
    m.params["tag.w"][:] = 0.0
    inst_ones = obj.TrainingInstance(
        (tokenizer.cls_id, tokenizer.sep_id, 5, 6, tokenizer.sep_id), (), obj.IT, tag_labels=(1, 1)
    )
    m.params["tag.b"] = np.asarray(40.0)
    assert loss_it(m, inst_ones) == pytest.approx(0.0, abs=1e-12)
    inst_zero = obj.TrainingInstance(
        (tokenizer.cls_id, tokenizer.sep_id, 5, 6, tokenizer.sep_id), (), obj.IT, tag_labels=(0, 0)
    )
    m.params["tag.b"] = np.asarray(-40.0)
    assert loss_it(m, inst_zero) == pytest.approx(0.0, abs=1e-12)


def test_loss_objective_mismatch(model, msp_instance, it_instance):
    with pytest.raises(InstanceObjectiveError):
        loss_mip(model, msp_instance)
    with pytest.raises(InstanceObjectiveError):
        loss_msp(model, it_instance)


def test_empty_target_rejected(model, tokenizer):
    inst = obj.TrainingInstance((tokenizer.cls_id, tokenizer.sep_id), (), obj.MSP)
    with pytest.raises(ValueError):
        loss_msp(model, inst)


def test_missing_tag_labels_rejected(model, tokenizer):
    inst = obj.TrainingInstance((tokenizer.cls_id, tokenizer.sep_id), (), obj.IT)
    with pytest.raises(ValueError):
        loss_it(model, inst)


def test_grad_check_quick(model, msp_instance, it_instance):
    err = tr.grad_check(model, loss_msp, msp_instance, coords_per_param=1, seed=1)
    assert err < 1e-4
    err = tr.grad_check(model, loss_it, it_instance, coords_per_param=1, seed=1)
    assert err < 1e-4


def test_it_decoder_gradients_vanish(model, it_instance):
    _, _, grads = tagging_loss_and_grads(model, [it_instance])
    for name, g in grads.items():
        if is_decoder_param(name):
            assert np.abs(g).max() == 0.0
    assert tr.decoder_grad_norm(model, it_instance) == 0.0


def test_param_partition_covers_everything(model):
    for name in model.params:
        if name.startswith("tag."):
            continue
        assert is_encoder_param(name) or is_decoder_param(name), name
    assert not any(is_encoder_param(n) and is_decoder_param(n) for n in model.params)


def test_make_batch_rejects_bad_ids(tiny_config):
    inst = obj.TrainingInstance((0, tiny_config.vocab_size + 5), (1,), obj.MSP)
    with pytest.raises(ValueError):
        make_batch([inst], tiny_config)


@pytest.mark.parametrize("bad", [-1, 50])
def test_make_batch_rejects_out_of_vocabulary_target(bad):
    cfg = ModelConfig(vocab_size=50, d_model=16, num_heads=2, encoder_layers=1, decoder_layers=1,
                      feedforward_dim=32, max_src_len=16, max_tgt_len=16)
    inst = obj.TrainingInstance((1, 5, 2), (7, bad, 2), obj.MSP)
    with pytest.raises(ValueError, match=f"target id outside vocabulary: {bad} at position 1"):
        make_batch([inst], cfg)
    with pytest.raises(ValueError, match="target id outside vocabulary"):
        seq2seq_loss_and_grads(Seq2SeqModel(cfg), [inst])


def test_make_batch_rejects_overlong(tiny_config):
    inst = obj.TrainingInstance(tuple([1] * (tiny_config.max_src_len + 1)), (1,), obj.MSP)
    with pytest.raises(ValueError):
        make_batch([inst], tiny_config)


def test_tag_probabilities_shape(model, it_instance):
    p = tag_probabilities(model, it_instance)
    assert p.shape == (len(it_instance.tag_labels),)
    assert np.all((p > 0) & (p < 1))


def test_checkpoint_roundtrip(model, msp_instance, tmp_path):
    path = tmp_path / "ckpt.npz"
    model.save(path)
    back = Seq2SeqModel.load(path)
    assert back.config == model.config
    assert set(back.params) == set(model.params)
    for k in model.params:
        assert np.array_equal(back.params[k], model.params[k])
    assert loss_msp(back, msp_instance) == loss_msp(model, msp_instance)


def test_seq2seq_step_never_holds_padded_logits():
    """The LM head runs on real target rows, a chunk at a time, so the peak
    memory of a training step's loss and gradients stays below one padded
    (batch, T, vocab) float64 array."""
    cfg = ModelConfig(vocab_size=8000, d_model=32, num_heads=2, encoder_layers=1, decoder_layers=1,
                      feedforward_dim=64, max_src_len=32, max_tgt_len=256)
    model = Seq2SeqModel(cfg, seed=0)
    rng = np.random.default_rng(0)
    instances = [
        obj.TrainingInstance(tuple(rng.integers(1, 8000, 16).tolist()), tuple(rng.integers(1, 8000, n).tolist()), obj.MSP)
        for n in np.linspace(8, 256, 8).astype(int)
    ]
    tracemalloc.start()
    try:
        seq2seq_loss_and_grads(model, instances)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 256 * 8000 * 8
