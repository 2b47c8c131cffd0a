"""Float32 training arithmetic on float64 master parameters.

A model whose parameters are float32 must compute in float32 throughout:
every projection input, every backward activation gradient, every parameter
gradient and every decoding cache.  Its loss and gradients are checked
against the same model in float64, the oracle, at dropout 0.  With dropout
the two can differ by more than rounding: a ReLU unit near zero can switch
sides between them.  The training loop keeps the master parameters and
Adam's moments float64.
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
    model = _cast(Seq2SeqModel(small_config, seed=3), np.float32)
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


def test_training_keeps_float64_master_parameters(tiny_config, batches, monkeypatch):
    """Adam updates float64 parameters with float64 moments from float32
    gradients, and the model leaves training float64."""
    cfg = dataclasses.replace(tiny_config, dropout=0.1)
    model = Seq2SeqModel(cfg, seed=1)
    optimizers = []
    adam = tr.Adam

    def spy_adam(params, schedule):
        optimizers.append(adam(params, schedule))
        return optimizers[-1]

    monkeypatch.setattr(tr, "Adam", spy_adam)
    pool = batches[obj.MSP] + batches[obj.IT] + batches[obj.MIP]
    log = tr.pretrain(model, pool, tr.TrainSchedule(steps=4, batch_size=3, seed=0))
    assert len(log) == 4 and optimizers[0].t == 4
    for arrays in (model.params, optimizers[0].m, optimizers[0].v):
        assert {a.dtype for a in arrays.values()} == {np.dtype(np.float64)}

