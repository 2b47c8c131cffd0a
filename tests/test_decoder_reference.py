"""The model's training and decoding paths against a frozen padded reference.

The reference is the model as it was before attention became per-sequence:
every row attended over the whole padded batch behind additive key and
causal masks, the LM head, log-softmax and cross entropy ran over every
padded target slot, the teacher-forced decoder and the KV-cached decode step
carried their own copies of the decoder layer, every linear map ran as a
stacked (batch, T, d) @ (d, n) product, and layer norm called
``x.mean``/``x.var``.  Everything the model has changed since is copied
below, so the reference calls none of it.

Each sequence now attends at its own lengths and the LM head runs on the
real target rows in chunks.  Those change only the order of floating-point
sums, so the sequence and tagging losses must match within 1e-12 relative
and every gradient within 1e-12 of that array's largest entry, with and
without dropout.  A decode step runs as one batched call, as before, and
must reproduce every reference logit bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest

from codepretrain import model as mdl
from codepretrain import objectives as obj
from codepretrain.model import ModelConfig, Seq2SeqModel

# --------------------------------------------------------------------------
# the reference: the padded model as it was before per-sequence attention
# --------------------------------------------------------------------------


def _ref_attend(q, k, v, mask):
    scores = q @ k.transpose(0, 1, 3, 2) * (1.0 / np.sqrt(q.shape[-1])) + mask
    scores -= scores.max(axis=-1, keepdims=True)
    exps = np.exp(scores)
    attn = exps / exps.sum(axis=-1, keepdims=True)
    return attn @ v, attn


def _ref_key_mask(lengths, max_len):
    valid = mdl._length_mask(lengths, max_len)
    return np.where(valid, 0.0, mdl.NEG_INF)[:, None, None, :]


def _ref_causal_mask(t):
    return np.where(np.tril(np.ones((t, t), dtype=bool)), 0.0, mdl.NEG_INF)[None, None, :, :]


def _ref_log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _ref_ln_fwd(params, prefix, x):
    g, b = params[f"{prefix}.g"], params[f"{prefix}.b"]
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + mdl.LN_EPS)
    xhat = (x - mu) * inv
    return g * xhat + b, (prefix, xhat, inv, g)


def _ref_attn_fwd(params, prefix, q_in, kv_in, mask, num_heads):
    wq, wk, wv, wo = (params[f"{prefix}.{p}"] for p in ("wq", "wk", "wv", "wo"))
    q = mdl._split_heads(q_in @ wq, num_heads)
    k = mdl._split_heads(kv_in @ wk, num_heads)
    v = mdl._split_heads(kv_in @ wv, num_heads)
    ctx, attn = _ref_attend(q, k, v, mask)
    merged = mdl._merge_heads(ctx)
    out = merged @ wo
    return out, (prefix, q_in, kv_in, q, k, v, attn, merged, num_heads)


def _ref_attn_bwd(dy, cache, params, grads):
    prefix, q_in, kv_in, q, k, v, attn, merged, num_heads = cache
    wq, wk, wv, wo = (params[f"{prefix}.{p}"] for p in ("wq", "wk", "wv", "wo"))
    b, tq, d = q_in.shape
    scale = 1.0 / np.sqrt(q.shape[-1])
    grads[f"{prefix}.wo"] += merged.reshape(-1, d).T @ dy.reshape(-1, d)
    dmerged = dy @ wo.T
    dctx = mdl._split_heads(dmerged, num_heads)
    dattn = dctx @ v.transpose(0, 1, 3, 2)
    dv = attn.transpose(0, 1, 3, 2) @ dctx
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dq = dscores @ k * scale
    dk = dscores.transpose(0, 1, 3, 2) @ q * scale
    dq_flat = mdl._merge_heads(dq)
    dk_flat = mdl._merge_heads(dk)
    dv_flat = mdl._merge_heads(dv)
    grads[f"{prefix}.wq"] += q_in.reshape(-1, d).T @ dq_flat.reshape(-1, d)
    grads[f"{prefix}.wk"] += kv_in.reshape(-1, d).T @ dk_flat.reshape(-1, d)
    grads[f"{prefix}.wv"] += kv_in.reshape(-1, d).T @ dv_flat.reshape(-1, d)
    return dq_flat @ wq.T, dk_flat @ wk.T + dv_flat @ wv.T


def _ref_ffn_fwd(params, prefix, x):
    w1, b1, w2, b2 = (params[f"{prefix}.{p}"] for p in ("w1", "b1", "w2", "b2"))
    pre = x @ w1 + b1
    act = np.maximum(pre, 0.0)
    return act @ w2 + b2, (prefix, x, pre, act)


def _ref_encoder_forward(model, src, src_len, drop_rng=None):
    cfg, params = model.config, model.params
    b, s = src.shape
    x = params["embed.tok"][src] + params["embed.src_pos"][:s]
    mask = _ref_key_mask(src_len, s)
    caches = []
    for i in range(cfg.encoder_layers):
        h, c_ln1 = _ref_ln_fwd(params, f"enc{i}.ln1", x)
        a, c_attn = _ref_attn_fwd(params, f"enc{i}.attn", h, h, mask, cfg.num_heads)
        a, k1 = mdl._dropout_fwd(a, cfg.dropout, drop_rng)
        x = x + a
        h2, c_ln2 = _ref_ln_fwd(params, f"enc{i}.ln2", x)
        f, c_ffn = _ref_ffn_fwd(params, f"enc{i}.ffn", h2)
        f, k2 = mdl._dropout_fwd(f, cfg.dropout, drop_rng)
        x = x + f
        caches.append((c_ln1, c_attn, k1, c_ln2, c_ffn, k2))
    out, c_lnf = _ref_ln_fwd(params, "enc.ln_f", x)
    return out, (src, caches, c_lnf)


def _ref_encoder_backward(model, dout, cache, grads):
    cfg, params = model.config, model.params
    src, caches, c_lnf = cache
    dx = mdl._ln_bwd(dout, c_lnf, grads)
    for i in reversed(range(cfg.encoder_layers)):
        c_ln1, c_attn, k1, c_ln2, c_ffn, k2 = caches[i]
        df = mdl._dropout_bwd(dx, k2)
        dh2 = mdl._ffn_bwd(df, c_ffn, params, grads)
        dx = dx + mdl._ln_bwd(dh2, c_ln2, grads)
        da = mdl._dropout_bwd(dx, k1)
        dq, dkv = _ref_attn_bwd(da, c_attn, params, grads)
        dx = dx + mdl._ln_bwd(dq + dkv, c_ln1, grads)
    np.add.at(grads["embed.tok"], src, dx)
    grads["embed.src_pos"][: src.shape[1]] += dx.sum(axis=0)


def _ref_decoder_forward(model, tgt_in, tgt_len, enc_out, src_len, drop_rng=None):
    cfg, params = model.config, model.params
    b, t = tgt_in.shape
    x = params["embed.tok"][tgt_in] + params["embed.tgt_pos"][:t]
    self_mask = _ref_causal_mask(t) + _ref_key_mask(tgt_len, t)
    cross_mask = _ref_key_mask(src_len, enc_out.shape[1])
    caches = []
    for i in range(cfg.decoder_layers):
        h, c_ln1 = _ref_ln_fwd(params, f"dec{i}.ln1", x)
        a, c_self = _ref_attn_fwd(params, f"dec{i}.self", h, h, self_mask, cfg.num_heads)
        a, k1 = mdl._dropout_fwd(a, cfg.dropout, drop_rng)
        x = x + a
        h2, c_ln2 = _ref_ln_fwd(params, f"dec{i}.ln2", x)
        c_out, c_cross = _ref_attn_fwd(params, f"dec{i}.cross", h2, enc_out, cross_mask, cfg.num_heads)
        c_out, k2 = mdl._dropout_fwd(c_out, cfg.dropout, drop_rng)
        x = x + c_out
        h3, c_ln3 = _ref_ln_fwd(params, f"dec{i}.ln3", x)
        f, c_ffn = _ref_ffn_fwd(params, f"dec{i}.ffn", h3)
        f, k3 = mdl._dropout_fwd(f, cfg.dropout, drop_rng)
        x = x + f
        caches.append((c_ln1, c_self, k1, c_ln2, c_cross, k2, c_ln3, c_ffn, k3))
    hidden, c_lnf = _ref_ln_fwd(params, "dec.ln_f", x)
    return hidden, (tgt_in, caches, c_lnf)


def _ref_decoder_backward(model, dhidden, cache, grads):
    cfg, params = model.config, model.params
    tgt_in, caches, c_lnf = cache
    dx = mdl._ln_bwd(dhidden, c_lnf, grads)
    denc = None
    for i in reversed(range(cfg.decoder_layers)):
        c_ln1, c_self, k1, c_ln2, c_cross, k2, c_ln3, c_ffn, k3 = caches[i]
        df = mdl._dropout_bwd(dx, k3)
        dh3 = mdl._ffn_bwd(df, c_ffn, params, grads)
        dx = dx + mdl._ln_bwd(dh3, c_ln3, grads)
        dc = mdl._dropout_bwd(dx, k2)
        dq, dkv = _ref_attn_bwd(dc, c_cross, params, grads)
        denc = dkv if denc is None else denc + dkv
        dx = dx + mdl._ln_bwd(dq, c_ln2, grads)
        da = mdl._dropout_bwd(dx, k1)
        dq2, dkv2 = _ref_attn_bwd(da, c_self, params, grads)
        dx = dx + mdl._ln_bwd(dq2 + dkv2, c_ln1, grads)
    np.add.at(grads["embed.tok"], tgt_in, dx)
    grads["embed.tgt_pos"][: tgt_in.shape[1]] += dx.sum(axis=0)
    return denc


def _ref_seq2seq_loss_and_grads(model, instances, drop_rng=None):
    batch = mdl.make_batch(instances, model.config)
    params = model.params
    enc_out, enc_cache = _ref_encoder_forward(model, batch.src, batch.src_len, drop_rng)
    hidden, dec_cache = _ref_decoder_forward(
        model, batch.tgt_in, batch.tgt_len, enc_out, batch.src_len, drop_rng
    )
    logits = hidden @ params["lm.w"] + params["lm.b"]
    logp = _ref_log_softmax(logits)
    mask = mdl._length_mask(batch.tgt_len, batch.tgt.shape[1])
    b_idx, t_idx = np.nonzero(mask)
    loss = -logp[b_idx, t_idx, batch.tgt[b_idx, t_idx]].sum()
    dlogits = np.exp(logp) * mask[..., None]
    dlogits[b_idx, t_idx, batch.tgt[b_idx, t_idx]] -= 1.0
    grads = model.zeros_like_params()
    d = model.config.d_model
    grads["lm.w"] += hidden.reshape(-1, d).T @ dlogits.reshape(-1, model.config.vocab_size)
    grads["lm.b"] += dlogits.sum(axis=(0, 1))
    denc = _ref_decoder_backward(model, dlogits @ params["lm.w"].T, dec_cache, grads)
    _ref_encoder_backward(model, denc, enc_cache, grads)
    return float(loss), int(mask.sum()), grads


def _ref_tagging_loss_and_grads(model, instances, drop_rng=None):
    batch = mdl.make_batch(instances, model.config)
    params = model.params
    enc_out, enc_cache = _ref_encoder_forward(model, batch.src, batch.src_len, drop_rng)
    z = enc_out @ params["tag.w"] + params["tag.b"]
    y, m = batch.tag_labels, batch.tag_mask
    loss = -(y * -np.logaddexp(0.0, -z) + (1.0 - y) * -np.logaddexp(0.0, z))[m].sum()
    dz = np.where(m, 1.0 / (1.0 + np.exp(-z)) - y, 0.0)
    grads = model.zeros_like_params()
    grads["tag.w"] += (enc_out * dz[..., None]).sum(axis=(0, 1))
    grads["tag.b"] += dz.sum()
    _ref_encoder_backward(model, dz[..., None] * params["tag.w"], enc_cache, grads)
    return float(loss), int(m.sum()), grads


@dataclass
class _RefDecodeState:
    cross_kv: list
    self_k: list
    self_v: list
    length: int = 0

    @classmethod
    def for_source(cls, model, source_ids, max_len):
        cfg, params = model.config, model.params
        src = np.asarray(source_ids, dtype=np.int64)
        enc_out, _ = _ref_encoder_forward(model, src[None, :], np.asarray([src.size]))
        heads = cfg.num_heads
        cross_kv = [
            tuple(mdl._split_heads(enc_out @ params[f"dec{i}.cross.{w}"], heads) for w in ("wk", "wv"))
            for i in range(cfg.decoder_layers)
        ]
        shape = (1, heads, max_len, cfg.d_model // heads)
        self_k = [np.empty(shape) for _ in range(cfg.decoder_layers)]
        self_v = [np.empty(shape) for _ in range(cfg.decoder_layers)]
        return cls(cross_kv, self_k, self_v)

    def reorder(self, parents):
        idx = np.asarray(parents, dtype=np.intp)
        t = self.length
        for bufs in (self.self_k, self.self_v):
            for i, buf in enumerate(bufs):
                new = np.empty((idx.size, *buf.shape[1:]))
                new[:, :, :t] = buf[idx, :, :t]
                bufs[i] = new


def _ref_decoder_step(model, state, tokens):
    cfg, params = model.config, model.params
    rows, heads, max_len, _ = state.self_k[0].shape
    t = state.length
    x = params["embed.tok"][np.asarray(tokens, dtype=np.int64)] + params["embed.tgt_pos"][t]

    def heads_of(y):
        return mdl._split_heads(y[:, None, :], heads)

    for i, (k_buf, v_buf, (cross_k, cross_v)) in enumerate(zip(state.self_k, state.self_v, state.cross_kv)):
        p = f"dec{i}.self"
        h, _ = _ref_ln_fwd(params, f"dec{i}.ln1", x)
        k_buf[:, :, t : t + 1] = heads_of(h @ params[f"{p}.wk"])
        v_buf[:, :, t : t + 1] = heads_of(h @ params[f"{p}.wv"])
        ctx, _ = _ref_attend(heads_of(h @ params[f"{p}.wq"]), k_buf[:, :, : t + 1], v_buf[:, :, : t + 1], 0.0)
        x = x + mdl._merge_heads(ctx)[:, 0] @ params[f"{p}.wo"]
        p = f"dec{i}.cross"
        h2, _ = _ref_ln_fwd(params, f"dec{i}.ln2", x)
        ctx, _ = _ref_attend(heads_of(h2 @ params[f"{p}.wq"]), cross_k, cross_v, 0.0)
        x = x + mdl._merge_heads(ctx)[:, 0] @ params[f"{p}.wo"]
        h3, _ = _ref_ln_fwd(params, f"dec{i}.ln3", x)
        f, _ = _ref_ffn_fwd(params, f"dec{i}.ffn", h3)
        x = x + f
    hidden, _ = _ref_ln_fwd(params, "dec.ln_f", x)
    state.length = t + 1
    return hidden @ params["lm.w"] + params["lm.b"]


# --------------------------------------------------------------------------
# the model against the reference
# --------------------------------------------------------------------------

LARGE = ModelConfig(vocab_size=2500, d_model=128, num_heads=4, max_src_len=200, max_tgt_len=64)


def _configs(tiny_config):
    return {"tiny": tiny_config, "v2500-d128": LARGE}


def _random_instances(cfg, rng, count=6):
    """Sources and targets of mixed lengths (targets of at least two ids)."""
    out = []
    for _ in range(count):
        src = rng.integers(1, cfg.vocab_size, size=int(rng.integers(3, min(cfg.max_src_len, 150))))
        tgt = rng.integers(1, cfg.vocab_size, size=int(rng.integers(2, min(cfg.max_tgt_len, 40))))
        out.append(obj.TrainingInstance(tuple(int(i) for i in src), tuple(int(i) for i in tgt), obj.MSP))
    return out


def _tagging_instances(cfg, rng, count=6):
    """Sources of mixed lengths whose code segments carry random tag labels."""
    out = []
    for _ in range(count):
        src = rng.integers(1, cfg.vocab_size, size=int(rng.integers(6, min(cfg.max_src_len, 150))))
        labels = rng.integers(0, 2, size=int(rng.integers(1, len(src) - 2)))
        out.append(obj.TrainingInstance(tuple(int(i) for i in src), (), obj.IT, tuple(int(i) for i in labels)))
    return out


def _assert_close(got, want):
    """Loss within 1e-12 relative, each gradient within 1e-12 of its largest entry."""
    loss, count, grads = got
    want_loss, want_count, want_grads = want
    assert count == want_count
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert grads.keys() == want_grads.keys()
    for k in grads:
        np.testing.assert_allclose(grads[k], want_grads[k], rtol=0, atol=1e-12 * np.abs(want_grads[k]).max(),
                                   err_msg=k)


@pytest.mark.parametrize("name", ["tiny", "v2500-d128"])
@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_loss_and_grads_match_reference(tiny_config, name, dropout):
    cfg = replace(_configs(tiny_config)[name], dropout=dropout)
    model = Seq2SeqModel(cfg, seed=5)
    instances = _random_instances(cfg, np.random.default_rng(11))
    _assert_close(mdl.seq2seq_loss_and_grads(model, instances, np.random.default_rng(3)),
                  _ref_seq2seq_loss_and_grads(model, instances, np.random.default_rng(3)))
    tagged = _tagging_instances(cfg, np.random.default_rng(12))
    _assert_close(mdl.tagging_loss_and_grads(model, tagged, np.random.default_rng(4)),
                  _ref_tagging_loss_and_grads(model, tagged, np.random.default_rng(4)))


@pytest.mark.parametrize("name", ["tiny", "v2500-d128"])
def test_decoder_step_logits_match_reference(tiny_config, name):
    """Every step of a greedy decode, then steps over reordered beam rows."""
    cfg = _configs(tiny_config)[name]
    model = Seq2SeqModel(cfg, seed=6)
    rng = np.random.default_rng(2)
    source = [int(i) for i in rng.integers(1, cfg.vocab_size, size=40)]
    steps = 24
    state = mdl.DecodeState.for_source(model, source, steps)
    ref = _RefDecodeState.for_source(model, source, steps)
    token = cfg.pad_id
    for _ in range(12):
        got = mdl.decoder_step(model, state, [token])
        want = _ref_decoder_step(model, ref, [token])
        assert np.array_equal(got, want)
        token = int(np.argmax(got[0]))
    for parents in ([0, 0, 0, 0], [3, 1, 1, 0], [2, 0], [1, 1, 0]):
        state.reorder(parents)
        ref.reorder(parents)
        tokens = [int(i) for i in rng.integers(1, cfg.vocab_size, size=len(parents))]
        got = mdl.decoder_step(model, state, tokens)
        want = _ref_decoder_step(model, ref, tokens)
        assert got.shape == (len(parents), cfg.vocab_size)
        assert np.array_equal(got, want)


def test_teacher_forcing_and_decode_steps_agree(tiny_config):
    """The step-by-step decode reproduces the teacher-forced distributions."""
    model = Seq2SeqModel(tiny_config, seed=8)
    source, target = [1, 9, 8, 7, 2], [5, 17, 3, 40, 2]
    state = mdl.DecodeState.for_source(model, source, len(target))
    steps = [mdl.decoder_step(model, state, [tok])[0] for tok in [tiny_config.pad_id, *target[:-1]]]
    probs = np.exp(mdl._log_softmax(np.stack(steps)))
    np.testing.assert_allclose(probs, mdl.forward_lm(model, source, target), rtol=0, atol=1e-12)
