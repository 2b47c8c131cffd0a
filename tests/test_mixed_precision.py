"""Float32 training and decoding arithmetic for float64 models.

A model whose parameters are float32 must compute in float32 throughout:
every projection input, every backward activation gradient, every parameter
gradient and every decoding cache.  Its loss and gradients are checked
against the same model in float64, the oracle, at dropout 0.  With dropout
the two can differ by more than rounding: a ReLU unit near zero can switch
sides between them.  The training loop trains float32 masters with float32
moments and hands the caller's float64 model their cast.  ``generate``
decodes a float64 model on one float32 copy per call, and its tokens are
checked against the float64 decode (``training.COMPUTE_DTYPE`` set to
``np.float64``) on a trained model.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from codepretrain import model as mdl
from codepretrain import objectives as obj
from codepretrain import training as tr
from codepretrain.model import Seq2SeqModel

# float32 vs float64 at d64, 2+2 layers, batches of 6, four model seeds: the
# loss agreed to within 1.5e-7 relative and every gradient array to within
# 9.3e-7 of its largest float64 entry
LOSS_REL_TOL = 1e-6
GRAD_TOL = 1e-4


@pytest.fixture(scope="module")
def batches(bundled_docs, tokenizer):
    """Six instances of each objective; "dual" is code-to-text generation."""
    docs = [obj.clip_document(d, 16, 32) for d in bundled_docs[:60]]
    denoise = obj.build_denoising_instances(docs, tokenizer, seed=2)
    dual = obj.build_dual_instances([d for d in docs if d.is_bimodal], tokenizer)
    pools = {o: [i for i in denoise if i.objective == o] for o in obj.DENOISING_TASKS}
    pools["dual"] = [i for i in dual if i.objective == obj.DUAL_PL2NL]
    return {name: pool[:6] for name, pool in pools.items()}


def _cast(model: Seq2SeqModel, dtype) -> Seq2SeqModel:
    return Seq2SeqModel(model.config, {k: v.astype(dtype) for k, v in model.params.items()})


@pytest.mark.parametrize("objective", [obj.MSP, obj.IT, obj.MIP, "dual"])
def test_float32_step_computes_in_float32(small_config, batches, objective, monkeypatch):
    """With dropout, every projection input, every gradient flowing back
    through a layer norm and every parameter gradient stays float32."""
    cfg = dataclasses.replace(small_config, dropout=0.1)
    model = _cast(Seq2SeqModel(cfg, seed=3), np.float32)
    seen = []
    linear, ln_bwd = mdl._linear, mdl._ln_bwd

    def spy_linear(x, w):
        seen.append(("linear", x.dtype))
        return linear(x, w)

    def spy_ln_bwd(dy, cache, grads):
        dx = ln_bwd(dy, cache, grads)
        seen.extend((("ln_bwd dy", dy.dtype), ("ln_bwd dx", dx.dtype)))
        return dx

    monkeypatch.setattr(mdl, "_linear", spy_linear)
    monkeypatch.setattr(mdl, "_ln_bwd", spy_ln_bwd)
    batch = batches[objective]
    loss, _, grads = mdl.loss_and_grads(model, batch, batch[0].objective, np.random.default_rng(0))
    assert np.isfinite(loss)
    assert seen and {dtype for _, dtype in seen} == {np.dtype(np.float32)}, sorted(set(seen))
    assert {k: g.dtype for k, g in grads.items() if g.dtype != np.float32} == {}


@pytest.mark.parametrize("beam", [1, 4])
def test_float32_decoding_keeps_float32_caches(small_config, batches, beam, monkeypatch):
    """A float64 model decodes with float32 caches and logits."""
    model = Seq2SeqModel(small_config, seed=3)
    steps = []
    step = tr.decoder_step

    def spy_step(m, state, tokens):
        logits = step(m, state, tokens)
        caches = [x for layer in state.cross_kv for x in layer] + state.self_k + state.self_v
        steps.append({x.dtype for x in caches} | {logits.dtype})
        return logits

    monkeypatch.setattr(tr, "decoder_step", spy_step)
    out = tr.generate(model, batches[obj.MSP][0].source_ids, 8, beam=beam)
    assert len(out) == 8 and len(steps) == 8
    assert all(dtypes == {np.dtype(np.float32)} for dtypes in steps)


@pytest.mark.parametrize("objective", [obj.MSP, obj.IT, obj.MIP, "dual"])
def test_float32_loss_and_grads_match_float64_oracle(small_config, batches, objective):
    model = Seq2SeqModel(small_config, seed=3)
    batch = batches[objective]
    want_loss, want_count, want = mdl.loss_and_grads(model, batch, batch[0].objective)
    loss, count, got = mdl.loss_and_grads(_cast(model, np.float32), batch, batch[0].objective)
    assert count == want_count
    assert abs(loss - want_loss) <= LOSS_REL_TOL * abs(want_loss)
    for name, g in want.items():
        scale = np.abs(g).max()
        assert np.abs(got[name] - g).max() <= GRAD_TOL * scale, name


def test_training_keeps_float32_masters_and_returns_a_float64_model(tiny_config, batches, monkeypatch):
    """Adam updates float32 masters with float32 moments from float32
    gradients; the caller's model stays float64 and leaves training as the
    cast of the masters."""
    cfg = dataclasses.replace(tiny_config, dropout=0.1)
    model = Seq2SeqModel(cfg, seed=1)
    states = []
    start = tr.TrainState.start

    def spy_start(model, schedule):
        states.append(start(model, schedule))
        return states[-1]

    monkeypatch.setattr(tr.TrainState, "start", spy_start)
    pool = batches[obj.MSP] + batches[obj.IT] + batches[obj.MIP]
    log = tr.pretrain(model, pool, tr.TrainSchedule(steps=4, batch_size=3, seed=0))
    (state,) = states
    assert len(log) == 4 and state.opt.t == 4
    for arrays in (state.model.params, state.opt.m, state.opt.v):
        assert {a.dtype for a in arrays.values()} == {np.dtype(np.float32)}
    for k, p in state.model.params.items():
        assert model.params[k].dtype == np.float64 and np.array_equal(model.params[k], p), k


def test_generate_on_a_compute_dtype_model_makes_no_copy(tiny_config, astype_copies, monkeypatch):
    model = Seq2SeqModel(tiny_config, seed=3).astype(tr.COMPUTE_DTYPE)
    astype_copies.clear()
    decoded_on = []
    step = tr.decoder_step

    def spy_step(m, state, tokens):
        decoded_on.append(m)
        return step(m, state, tokens)

    monkeypatch.setattr(tr, "decoder_step", spy_step)
    for beam in (1, 4):
        tr.generate(model, [1, 5, 9, 2], 6, beam=beam)
    assert astype_copies == [] and decoded_on and all(m is model for m in decoded_on)


def test_generate_casts_a_float64_model_once_per_call(tiny_config, astype_copies):
    model = Seq2SeqModel(tiny_config, seed=3)
    for beam in (1, 4):
        tr.generate(model, [1, 5, 9, 2], 6, beam=beam)
    assert len(astype_copies) == 2
    assert {v.dtype for v in model.params.values()} == {np.dtype(np.float64)}


def test_mask_scoring_casts_once(tiny_config, tokenizer, batches, astype_copies):
    instances = batches[obj.MSP] + batches[obj.MIP]
    tr.evaluate_mask_instances(Seq2SeqModel(tiny_config, seed=3), instances, tokenizer, margin=0)
    assert len(astype_copies) == 1


# steps of the oracle model's training: at 40 steps every source decoded to
# the same run of sentinels; at 100 the decodes depend on the source and the
# top token holds about 0.6 of the probability
ORACLE_STEPS = 100
ORACLE_LEN = 30


@pytest.fixture(scope="module")
def trained(small_config, bundled_docs, tokenizer):
    """A model trained on the span and identifier masks of eight bundled
    documents, and four of its sources of different lengths."""
    docs = [obj.clip_document(d, 16, 32) for d in bundled_docs[:8]]
    pool = [i for i in obj.build_denoising_instances(docs, tokenizer, seed=5) if i.objective != obj.IT]
    model = Seq2SeqModel(small_config, seed=4)
    tr.pretrain(model, pool, tr.TrainSchedule(steps=ORACLE_STEPS, batch_size=8, peak_lr=3e-3, seed=0))
    by_length = sorted((i.source_ids for i in pool), key=len)
    return model, [by_length[int(q * (len(by_length) - 1))] for q in (0.0, 0.3, 0.7, 1.0)]


@pytest.mark.parametrize("beam", [1, 4])
def test_float32_decode_matches_float64_oracle_on_a_trained_model(trained, tokenizer, beam, monkeypatch):
    """Identical tokens without an end id, and with ``[SEP]`` as the end id,
    which the model emits before the length cap."""
    model, sources = trained
    assert len({len(src) for src in sources}) == len(sources)
    for src in sources:
        with monkeypatch.context() as patch:
            patch.setattr(tr, "COMPUTE_DTYPE", np.float64)
            want = {e: tr.generate(model, src, ORACLE_LEN, beam=beam, eos_id=e) for e in (None, tokenizer.sep_id)}
        assert len(want[tokenizer.sep_id]) < ORACLE_LEN
        for e, tokens in want.items():
            assert tr.generate(model, src, ORACLE_LEN, beam=beam, eos_id=e) == tokens, (len(src), e)
