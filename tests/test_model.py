from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest

from codepretrain import model as mdl
from codepretrain import objectives as obj
from codepretrain import training as tr
from codepretrain.model import (
    ModelConfig,
    Seq2SeqModel,
    forward_lm,
    is_decoder_param,
    loss_and_grads,
    make_batch,
    seq2seq_loss_and_grads,
    tag_probabilities,
    tagging_loss_and_grads,
)


def _loss(model, instance):
    """The summed loss of the instance's own objective, as training computes it."""
    return loss_and_grads(model, [instance], instance.objective, compute_grads=False)[0]


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
    uniform.params["embed.tok"][:] = 0.0
    uniform.params["lm.b"][:] = 0.0
    k = len(msp_instance.target_ids)
    expected = k * math.log(tiny_config.vocab_size)
    loss, count, _ = loss_and_grads(uniform, [msp_instance], obj.MSP, compute_grads=False)
    assert loss == pytest.approx(expected, rel=1e-12)
    assert loss / count == pytest.approx(math.log(tiny_config.vocab_size), rel=1e-12)


def test_loss_is_zero_when_model_is_certain(msp_instance):
    # a single-token vocabulary makes every prediction certain
    cfg = ModelConfig(vocab_size=1, d_model=8, num_heads=2, encoder_layers=1,
                      decoder_layers=1, feedforward_dim=16, max_src_len=64, max_tgt_len=32)
    certain = Seq2SeqModel(cfg, seed=0)
    inst = obj.TrainingInstance((0, 0, 0), (0, 0), obj.MSP)
    assert _loss(certain, inst) == pytest.approx(0.0, abs=1e-12)


def test_loss_msp_matches_independent_recomputation(model, msp_instance):
    # independent oracle: walk the forward_lm distributions position by position
    probs = forward_lm(model, msp_instance.source_ids, msp_instance.target_ids)
    expected = 0.0
    for t, gold in enumerate(msp_instance.target_ids):
        expected += -math.log(probs[t, gold])
    assert _loss(model, msp_instance) == pytest.approx(expected, abs=1e-6)


def test_loss_mip_matches_independent_recomputation(model, mip_instance):
    probs = forward_lm(model, mip_instance.source_ids, mip_instance.target_ids)
    expected = -sum(
        math.log(probs[t, gold]) for t, gold in enumerate(mip_instance.target_ids)
    )
    assert _loss(model, mip_instance) == pytest.approx(expected, abs=1e-6)


def test_loss_it_uniform_head(tiny_config, it_instance):
    m = Seq2SeqModel(tiny_config, seed=0)
    m.params["tag.w"][:] = 0.0
    m.params["tag.b"] = np.zeros(())
    n = len(it_instance.tag_labels)
    assert _loss(m, it_instance) == pytest.approx(n * math.log(2), rel=1e-12)


def test_loss_it_saturated_head_is_clamped_zero(tiny_config, tokenizer):
    m = Seq2SeqModel(tiny_config, seed=0)
    m.params["tag.w"][:] = 0.0
    inst_ones = obj.TrainingInstance(
        (tokenizer.cls_id, tokenizer.sep_id, 5, 6, tokenizer.sep_id), (), obj.IT, tag_labels=(1, 1)
    )
    m.params["tag.b"] = np.asarray(40.0)
    assert _loss(m, inst_ones) == pytest.approx(0.0, abs=1e-12)
    inst_zero = obj.TrainingInstance(
        (tokenizer.cls_id, tokenizer.sep_id, 5, 6, tokenizer.sep_id), (), obj.IT, tag_labels=(0, 0)
    )
    m.params["tag.b"] = np.asarray(-40.0)
    assert _loss(m, inst_zero) == pytest.approx(0.0, abs=1e-12)


def test_loss_objective_mismatch(model, msp_instance, it_instance):
    with pytest.raises(ValueError, match="tagging loss needs instances with tag labels"):
        loss_and_grads(model, [msp_instance], obj.IT)
    with pytest.raises(ValueError, match="sequence loss needs non-empty targets"):
        loss_and_grads(model, [it_instance], obj.MSP)


def test_empty_target_rejected(model, tokenizer):
    inst = obj.TrainingInstance((tokenizer.cls_id, tokenizer.sep_id), (), obj.MSP)
    with pytest.raises(ValueError):
        _loss(model, inst)


def test_missing_tag_labels_rejected(model, tokenizer):
    inst = obj.TrainingInstance((tokenizer.cls_id, tokenizer.sep_id), (), obj.IT)
    with pytest.raises(ValueError):
        _loss(model, inst)


def test_tag_labels_are_a_bool_array(tiny_config, it_instance, msp_instance):
    """The batch holds labels as bools, so a float32 tagging step casts only
    its labelled rows."""
    batch = make_batch([it_instance, msp_instance], tiny_config)
    assert batch.tag_labels.dtype == np.bool_
    assert batch.tag_labels[0][batch.tag_mask[0]].tolist() == [bool(y) for y in it_instance.tag_labels]
    assert not batch.tag_labels[1].any()


@pytest.mark.parametrize("bad", [2, 0.5, -1])
def test_tag_label_other_than_zero_or_one_rejected(model, tokenizer, bad):
    inst = obj.TrainingInstance(
        (tokenizer.cls_id, tokenizer.sep_id, 5, 6, tokenizer.sep_id), (), obj.IT, tag_labels=(1, bad)
    )
    with pytest.raises(ValueError, match=f"^tag label {bad} is not 0 or 1$"):
        _loss(model, inst)


def test_tag_probabilities_need_tag_labels(model, msp_instance):
    with pytest.raises(ValueError, match="tagging loss needs instances with tag labels"):
        tag_probabilities(model, msp_instance)


def test_grad_check_quick(model, msp_instance, it_instance):
    err = tr.grad_check(model, msp_instance, coords_per_param=1, seed=1)
    assert err < 1e-4
    err = tr.grad_check(model, it_instance, coords_per_param=1, seed=1)
    assert err < 1e-4


def test_it_decoder_gradients_vanish(model, it_instance):
    _, _, grads = tagging_loss_and_grads(model, [it_instance])
    for name, g in grads.items():
        if is_decoder_param(name):
            assert np.abs(g).max() == 0.0


def test_param_partition_covers_everything(model, it_instance):
    """The decoder-side parameters are exactly those the IT loss leaves without gradient."""
    _, _, grads = tagging_loss_and_grads(model, [it_instance])
    for name, g in grads.items():
        assert is_decoder_param(name) == (np.abs(g).max() == 0.0), name


def test_lm_head_is_tied_to_the_token_embedding():
    """One C-contiguous (d_model, vocab) matrix is the token embedding and the
    LM head, drawn as the (vocab, d_model) table it is the transpose of."""
    model = Seq2SeqModel(ModelConfig(vocab_size=8000), seed=0)
    assert "lm.w" not in model.params
    tok = model.params["embed.tok"]
    assert tok.shape == (128, 8000) and tok.flags.c_contiguous
    assert np.array_equal(tok.T, np.random.default_rng(0).normal(0.0, 0.02, (8000, 128)))
    assert sum(p.size for p in model.params.values()) == 2_053_569


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
    assert _loss(back, msp_instance) == _loss(model, msp_instance)


@pytest.mark.parametrize("bad, cause", [
    ("nan", "parameter dec0.ffn.w1: 1 non-finite values in model"),
    ("float32", "parameter dec0.ffn.w1: dtype float32 in model, expected float64"),
])
def test_save_refuses_what_load_refuses(model, tmp_path, bad, cause):
    """A model ``load`` would refuse once saved is refused by ``save``, naming
    the parameter, and no file is left behind."""
    broken = model.clone()
    if bad == "nan":
        broken.params["dec0.ffn.w1"][0, 0] = np.nan
    else:
        broken.params["dec0.ffn.w1"] = broken.params["dec0.ffn.w1"].astype(np.float32)
    path = tmp_path / "ckpt.npz"
    with pytest.raises(ValueError, match=f"^{re.escape(cause)}$"):
        broken.save(path)
    assert list(tmp_path.iterdir()) == []


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


def _traced_peak(fn):
    """``fn()`` and the most bytes it held at once, as tracemalloc sees them:
    numpy reports its buffers to it, and only what ``fn`` allocates counts."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_pass_without_gradients_keeps_no_activations():
    """A forward pass that no backward follows keeps no sublayer caches, no
    attention weights and no sublayer's activations past its end, so scoring a
    batch peaks at under a fifth of the memory of its gradient pass (about
    8 MB against 62), for the same loss to the bit."""
    cfg = ModelConfig(vocab_size=560)
    model = Seq2SeqModel(cfg, seed=0).astype(tr.COMPUTE_DTYPE)
    rng = np.random.default_rng(0)
    instances = [obj.TrainingInstance(tuple(rng.integers(5, 560, 200).tolist()),
                                      tuple(rng.integers(5, 560, 60).tolist()), obj.MSP) for _ in range(8)]
    (want, want_count, grads), grad_peak = _traced_peak(lambda: loss_and_grads(model, instances, obj.MSP))
    del grads
    (got, count, none), peak = _traced_peak(lambda: loss_and_grads(model, instances, obj.MSP, compute_grads=False))
    assert (got, count, none) == (want, want_count, None)
    assert peak < grad_peak / 5, (peak, grad_peak)


def test_a_forward_without_cache_has_no_backward(model, msp_instance):
    batch = make_batch([msp_instance], model.config)
    out, cache = mdl.encoder_forward(model, batch.src, batch.src_len, keep_cache=False)
    want, _ = mdl.encoder_forward(model, batch.src, batch.src_len)
    assert np.array_equal(out, want)
    assert cache[2] is None and cache[1].real.sum() == len(out)
    with pytest.raises(ValueError, match="kept no cache"):
        mdl.encoder_backward(model, np.ones_like(out), cache, model.zeros_like_params())


PACKED = ModelConfig(vocab_size=300, d_model=16, num_heads=2, encoder_layers=2, decoder_layers=2,
                     feedforward_dim=24, max_src_len=200, max_tgt_len=100)


def _mixed_batches(rng):
    """A sequence batch and a tagging batch of mixed source and target lengths."""
    def ids(lo, hi):
        return tuple(rng.integers(1, PACKED.vocab_size, size=int(rng.integers(lo, hi))).tolist())

    seq = [obj.TrainingInstance(ids(3, 200), ids(1, 100), obj.MSP) for _ in range(6)]
    tagged = []
    for _ in range(6):
        src = ids(6, 200)
        labels = tuple(rng.integers(0, 2, size=int(rng.integers(1, len(src) - 2))).tolist())
        tagged.append(obj.TrainingInstance(src, (), obj.IT, labels))
    return seq, tagged


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_loss_and_grads_are_sums_over_instances(seed):
    """Packing a batch into real rows changes nothing a sequence sees: the
    loss, count and gradients of a mixed-length batch are the sums of those of
    its one-instance batches."""
    model = Seq2SeqModel(PACKED, seed=seed)
    for loss_fn, instances in zip((seq2seq_loss_and_grads, tagging_loss_and_grads),
                                  _mixed_batches(np.random.default_rng(seed))):
        loss, count, grads = loss_fn(model, instances)
        parts = [loss_fn(model, [inst]) for inst in instances]
        assert count == sum(c for _, c, _ in parts)
        assert abs(loss - sum(p for p, _, _ in parts)) <= 1e-12 * abs(loss)
        for name, g in grads.items():
            want = sum(part[name] for _, _, part in parts)
            np.testing.assert_allclose(g, want, rtol=0, atol=1e-12 * np.abs(want).max(), err_msg=name)


def test_training_step_runs_on_real_rows_only(monkeypatch):
    """Every projection and feed-forward block of a training step runs on the
    batch's real source rows, its real target rows or one LM-head chunk of
    them, never on the padded (batch, max_len) grid."""
    model = Seq2SeqModel(PACKED, seed=0)
    seq, tagged = _mixed_batches(np.random.default_rng(3))
    seen = {"linear": [], "ffn": []}
    linear, ffn_fwd = mdl._linear, mdl._ffn_fwd

    def spy_linear(x, w):
        seen["linear"].append((len(x), w.shape[1]))
        return linear(x, w)

    def spy_ffn(params, prefix, x):
        seen["ffn"].append(len(x))
        return ffn_fwd(params, prefix, x)

    monkeypatch.setattr(mdl, "_linear", spy_linear)
    monkeypatch.setattr(mdl, "_ffn_fwd", spy_ffn)
    for objective, instances in ((obj.MSP, seq), (obj.IT, tagged)):
        seen["linear"].clear()
        seen["ffn"].clear()
        mdl.loss_and_grads(model, instances, objective)
        batch = make_batch(instances, PACKED)
        real = {int(batch.src_len.sum())} | ({int(batch.tgt_len.sum())} if objective != obj.IT else set())
        padded = {batch.src.size, batch.tgt.size}
        assert not real & padded
        head = [rows for rows, out in seen["linear"] if out == PACKED.vocab_size]
        body = [rows for rows, out in seen["linear"] if out != PACKED.vocab_size]
        assert set(body) == real and set(seen["ffn"]) == real
        if objective == obj.IT:
            assert head == []
        else:
            assert len(head) > 1 and max(head) <= mdl.LM_HEAD_ROWS and sum(head) == batch.tgt_len.sum()
