"""Desk-scale encoder-decoder transformer in numpy with hand-written backprop.

Float64 throughout, pre-norm residual blocks, learned absolute positions,
multi-head attention without biases, ReLU feed-forward blocks.  Two loss
heads sit on top:

- a vocabulary projection over decoder states for span/identifier denoising
  and plain sequence-to-sequence training (teacher forced, causal mask);
- a scalar sigmoid projection over encoder states for identifier tagging,
  which by construction touches only encoder-side parameters.

Forward passes cache activations so the explicit backward passes can be
checked against central finite differences.  One decoder stack serves both
teacher-forced training (all positions at once) and KV-cached decoding (one
position per step).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import artifacts
from .objectives import IT, MIP, MSP, TrainingInstance

NEG_INF = -1e30
LN_EPS = 1e-6

CHECKPOINT_VERSION = 1


class InstanceObjectiveError(ValueError):
    """A loss was called on an instance built for a different objective."""


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 128
    num_heads: int = 4
    encoder_layers: int = 2
    decoder_layers: int = 2
    feedforward_dim: int = 512
    max_src_len: int = 512
    max_tgt_len: int = 256
    dropout: float = 0.0
    pad_id: int = 0

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "num_heads", "encoder_layers", "decoder_layers",
                     "feedforward_dim", "max_src_len", "max_tgt_len"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive int, got {value!r}")
        if self.d_model % self.num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        if self.max_src_len > 512 or self.max_tgt_len > 256:
            raise ValueError("length caps are 512 (source) and 256 (target)")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


def _init_params(config: ModelConfig, normal: Callable[..., np.ndarray]) -> dict[str, np.ndarray]:
    """Every parameter, in a fixed order; each weight matrix is ``normal(0.0, 0.02, shape)``."""
    d, ff, v = config.d_model, config.feedforward_dim, config.vocab_size
    params: dict[str, np.ndarray] = {}

    def w(name, shape):
        params[name] = normal(0.0, 0.02, shape)

    def ln(prefix):
        params[f"{prefix}.g"] = np.ones(d)
        params[f"{prefix}.b"] = np.zeros(d)

    def attn(prefix):
        for part in ("wq", "wk", "wv", "wo"):
            w(f"{prefix}.{part}", (d, d))

    def ffn(prefix):
        w(f"{prefix}.w1", (d, ff))
        params[f"{prefix}.b1"] = np.zeros(ff)
        w(f"{prefix}.w2", (ff, d))
        params[f"{prefix}.b2"] = np.zeros(d)

    w("embed.tok", (v, d))
    w("embed.src_pos", (config.max_src_len, d))
    w("embed.tgt_pos", (config.max_tgt_len, d))
    for i in range(config.encoder_layers):
        ln(f"enc{i}.ln1")
        attn(f"enc{i}.attn")
        ln(f"enc{i}.ln2")
        ffn(f"enc{i}.ffn")
    ln("enc.ln_f")
    for i in range(config.decoder_layers):
        ln(f"dec{i}.ln1")
        attn(f"dec{i}.self")
        ln(f"dec{i}.ln2")
        attn(f"dec{i}.cross")
        ln(f"dec{i}.ln3")
        ffn(f"dec{i}.ffn")
    ln("dec.ln_f")
    w("lm.w", (d, v))
    params["lm.b"] = np.zeros(v)
    w("tag.w", (d,))
    params["tag.b"] = np.zeros(())
    return params


def is_encoder_param(name: str) -> bool:
    """Parameters reachable from the encoder-side losses (token and source
    position embeddings included)."""
    return name.startswith(("enc", "embed.tok", "embed.src_pos"))


def is_decoder_param(name: str) -> bool:
    return name.startswith(("dec", "embed.tgt_pos", "lm."))


class Seq2SeqModel:
    """Parameter container; all math lives in the module-level functions."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray] | None = None, seed: int = 0):
        self.config = config
        self.params = params if params is not None else _init_params(config, np.random.default_rng(seed).normal)

    def clone(self) -> "Seq2SeqModel":
        return Seq2SeqModel(self.config, {k: v.copy() for k, v in self.params.items()})

    def zeros_like_params(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params.items()}

    def save(self, path: str | Path) -> None:
        meta = {"checkpoint_version": CHECKPOINT_VERSION, "config": asdict(self.config)}
        arrays = {f"param::{k}": v for k, v in self.params.items()}
        meta_bytes = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        # np.savez given a path would append ".npz" to the temporary name
        artifacts.write_atomic(path, lambda f: np.savez(f, __meta__=meta_bytes, **arrays), binary=True)

    @classmethod
    def load(cls, path: str | Path) -> "Seq2SeqModel":
        with np.load(path) as data:
            meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
            if meta.get("checkpoint_version") != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version: {meta.get('checkpoint_version')}")
            config = ModelConfig(**meta["config"])
            params = {k[len("param::"):]: data[k] for k in data.files if k.startswith("param::")}
        expected = _init_params(config, lambda loc, scale, size: np.broadcast_to(0.0, size))
        for name in sorted(expected.keys() | params.keys()):
            found, want = (arrays[name].shape if name in arrays else None for arrays in (params, expected))
            if found != want:
                raise ValueError(f"parameter {name}: shape {found} in checkpoint, {want} in model")
        return cls(config, params)


# --------------------------------------------------------------------------
# layer primitives (forward returns a cache consumed by the matching backward)
# --------------------------------------------------------------------------


def _ln_fwd(params, prefix, x):
    g, b = params[f"{prefix}.g"], params[f"{prefix}.b"]
    # the arithmetic of x.mean and x.var, without their Python-level wrappers
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / d + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (prefix, xhat, inv, g)


def _ln_bwd(dy, cache, grads):
    prefix, xhat, inv, g = cache
    axes = tuple(range(dy.ndim - 1))
    grads[f"{prefix}.g"] += (dy * xhat).sum(axis=axes)
    grads[f"{prefix}.b"] += dy.sum(axis=axes)
    dxhat = dy * g
    m = dxhat.mean(axis=-1, keepdims=True)
    mx = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m - xhat * mx)


def _split_heads(x, num_heads):
    b, t, d = x.shape
    return x.reshape(b, t, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _attend(q, k, v, mask):
    """Softmax attention over split heads; mask is additive, broadcastable to
    (batch, heads, q_len, k_len).  Returns (context, attention weights)."""
    scores = q @ k.transpose(0, 1, 3, 2) * (1.0 / np.sqrt(q.shape[-1])) + mask
    scores -= scores.max(axis=-1, keepdims=True)
    exps = np.exp(scores)
    attn = exps / exps.sum(axis=-1, keepdims=True)
    return attn @ v, attn


def _causal_mask(q_len: int, k_len: int) -> np.ndarray:
    """Additive (q_len, k_len) mask that lets query i see keys up to
    ``i + k_len - q_len``, so the last query sees every key: the queries may
    be a whole teacher-forced sequence or the newest positions after a cache."""
    return np.where(np.tri(q_len, k_len, k_len - q_len, dtype=bool), 0.0, NEG_INF)


_ALL_ROWS = slice(None)  # the rows of a group that holds every row


def _row_groups(q_len: np.ndarray, k_len: np.ndarray) -> list:
    """The rows that share (query length, key length), as (rows, q_len, k_len),
    leaving out rows without queries.  Each length array holds one entry per
    row, or one entry for every row; ``rows`` is ``_ALL_ROWS`` when every
    row shares both lengths."""
    if q_len.size == k_len.size == 1:  # one pair for every row, as in a decode step
        return [(_ALL_ROWS, int(q_len[0]), int(k_len[0]))] if q_len[0] else []
    by_len: dict[tuple[int, int], list[int]] = {}
    for r, lens in enumerate(zip(*(x.tolist() for x in np.broadcast_arrays(q_len, k_len)))):
        by_len.setdefault(lens, []).append(r)
    if len(by_len) == 1:
        by_len = {lens: _ALL_ROWS for lens in by_len}
    return [(rows, ql, kl) for (ql, kl), rows in by_len.items() if ql]


def _attend_rows(q, k, v, groups, causal):
    """Attention of each row over its own queries and keys: one ``_attend``
    call per group of rows from ``_row_groups``, so no work falls on padding.
    A row's queries past its length get a zero context.  Returns the context
    and each group with its attention weights."""
    ctx, weights = None, []
    for rows, ql, kl in groups:
        mask = _causal_mask(ql, kl) if causal and ql > 1 else 0.0  # one query sees every key
        if rows is _ALL_ROWS and ql == q.shape[2] and kl == k.shape[2]:  # no padding, as in a decode step
            ctx, attn = _attend(q, k, v, mask)
        else:
            c, attn = _attend(q[rows, :, :ql], k[rows, :, :kl], v[rows, :, :kl], mask)
            if ctx is None:
                ctx = np.zeros(q.shape)
            ctx[rows, :, :ql] = c
        weights.append((rows, ql, kl, attn))
    return np.zeros(q.shape) if ctx is None else ctx, weights


def _linear(x, w):
    """``x @ w`` over the last axis as one 2-D product: BLAS is several times
    faster on (rows, d) @ (d, n) than on a stack of (1, d) rows."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + w.shape[-1:])


def _project_kv(params, prefix, kv_in, num_heads):
    """The keys and values of ``kv_in`` for attention ``prefix``, split into heads."""
    return tuple(_split_heads(_linear(kv_in, params[f"{prefix}.{w}"]), num_heads) for w in ("wk", "wv"))


def _attn_fwd(params, prefix, q_in, kv_in, groups, num_heads, causal=False, kv=None):
    """Attention over the row ``groups`` of ``_row_groups``, causal if asked;
    ``kv`` is the already projected (keys, values) pair of ``kv_in``, if
    there is one."""
    k, v = _project_kv(params, prefix, kv_in, num_heads) if kv is None else kv
    q = _split_heads(_linear(q_in, params[f"{prefix}.wq"]), num_heads)
    ctx, weights = _attend_rows(q, k, v, groups, causal)
    merged = _merge_heads(ctx)
    return _linear(merged, params[f"{prefix}.wo"]), (prefix, q_in, kv_in, q, k, v, weights, merged, num_heads)


def _attn_bwd(dy, cache, params, grads):
    prefix, q_in, kv_in, q, k, v, weights, merged, num_heads = cache
    wq, wk, wv, wo = (params[f"{prefix}.{p}"] for p in ("wq", "wk", "wv", "wo"))
    b, tq, d = q_in.shape
    scale = 1.0 / np.sqrt(q.shape[-1])
    grads[f"{prefix}.wo"] += merged.reshape(-1, d).T @ dy.reshape(-1, d)
    dmerged = dy @ wo.T
    dctx = _split_heads(dmerged, num_heads)
    dq, dk, dv = np.zeros(q.shape), np.zeros(k.shape), np.zeros(v.shape)
    for rows, ql, kl, attn in weights:
        dc = dctx[rows, :, :ql]
        dv[rows, :, :kl] = attn.transpose(0, 1, 3, 2) @ dc
        dscores = dc @ v[rows, :, :kl].transpose(0, 1, 3, 2)  # d attn, then d scores in place
        dscores -= (dscores * attn).sum(axis=-1, keepdims=True)
        dscores *= attn
        dq[rows, :, :ql] = dscores @ k[rows, :, :kl] * scale
        dk[rows, :, :kl] = dscores.transpose(0, 1, 3, 2) @ q[rows, :, :ql] * scale
    dq_flat = _merge_heads(dq)
    dk_flat = _merge_heads(dk)
    dv_flat = _merge_heads(dv)
    grads[f"{prefix}.wq"] += q_in.reshape(-1, d).T @ dq_flat.reshape(-1, d)
    grads[f"{prefix}.wk"] += kv_in.reshape(-1, d).T @ dk_flat.reshape(-1, d)
    grads[f"{prefix}.wv"] += kv_in.reshape(-1, d).T @ dv_flat.reshape(-1, d)
    dq_in = dq_flat @ wq.T
    dkv_in = dk_flat @ wk.T + dv_flat @ wv.T
    return dq_in, dkv_in


def _ffn_fwd(params, prefix, x):
    w1, b1, w2, b2 = (params[f"{prefix}.{p}"] for p in ("w1", "b1", "w2", "b2"))
    pre = _linear(x, w1) + b1
    act = np.maximum(pre, 0.0)
    return _linear(act, w2) + b2, (prefix, x, pre, act)


def _ffn_bwd(dy, cache, params, grads):
    prefix, x, pre, act = cache
    w1, w2 = params[f"{prefix}.w1"], params[f"{prefix}.w2"]
    d_in = x.shape[-1]
    ff = act.shape[-1]
    grads[f"{prefix}.w2"] += act.reshape(-1, ff).T @ dy.reshape(-1, dy.shape[-1])
    grads[f"{prefix}.b2"] += dy.sum(axis=tuple(range(dy.ndim - 1)))
    dact = dy @ w2.T
    dpre = dact * (pre > 0)
    grads[f"{prefix}.w1"] += x.reshape(-1, d_in).T @ dpre.reshape(-1, ff)
    grads[f"{prefix}.b1"] += dpre.sum(axis=tuple(range(dpre.ndim - 1)))
    return dpre @ w1.T


def _dropout_fwd(x, p, rng):
    if p <= 0.0 or rng is None:
        return x, None
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * keep, keep


def _dropout_bwd(dy, keep):
    return dy if keep is None else dy * keep


def _length_mask(lengths: np.ndarray, max_len: int) -> np.ndarray:
    return np.arange(max_len)[None, :] < lengths[:, None]


# --------------------------------------------------------------------------
# encoder / decoder stacks
# --------------------------------------------------------------------------


def encoder_forward(model: Seq2SeqModel, src: np.ndarray, src_len: np.ndarray, drop_rng=None):
    cfg, params = model.config, model.params
    b, s = src.shape
    x = params["embed.tok"][src] + params["embed.src_pos"][:s]
    groups = _row_groups(src_len, src_len)
    caches = []
    for i in range(cfg.encoder_layers):
        h, c_ln1 = _ln_fwd(params, f"enc{i}.ln1", x)
        a, c_attn = _attn_fwd(params, f"enc{i}.attn", h, h, groups, cfg.num_heads)
        a, k1 = _dropout_fwd(a, cfg.dropout, drop_rng)
        x = x + a
        h2, c_ln2 = _ln_fwd(params, f"enc{i}.ln2", x)
        f, c_ffn = _ffn_fwd(params, f"enc{i}.ffn", h2)
        f, k2 = _dropout_fwd(f, cfg.dropout, drop_rng)
        x = x + f
        caches.append((c_ln1, c_attn, k1, c_ln2, c_ffn, k2))
    out, c_lnf = _ln_fwd(params, "enc.ln_f", x)
    return out, (src, caches, c_lnf)


def encoder_backward(model: Seq2SeqModel, dout: np.ndarray, cache, grads) -> None:
    cfg, params = model.config, model.params
    src, caches, c_lnf = cache
    dx = _ln_bwd(dout, c_lnf, grads)
    for i in reversed(range(cfg.encoder_layers)):
        c_ln1, c_attn, k1, c_ln2, c_ffn, k2 = caches[i]
        df = _dropout_bwd(dx, k2)
        dh2 = _ffn_bwd(df, c_ffn, params, grads)
        dx = dx + _ln_bwd(dh2, c_ln2, grads)
        da = _dropout_bwd(dx, k1)
        dq, dkv = _attn_bwd(da, c_attn, params, grads)
        dx = dx + _ln_bwd(dq + dkv, c_ln1, grads)
    np.add.at(grads["embed.tok"], src, dx)
    grads["embed.src_pos"][: src.shape[1]] += dx.sum(axis=0)


@dataclass
class DecodeState:
    """Decoder caches over a batch of encoder outputs, which ``_decoder_layers``
    fills.  Self-attention row r is the r-th target sequence or live hypothesis;
    one source's cross-attention row is broadcast over its hypotheses."""

    enc_out: np.ndarray                            # (batch, S, d_model)
    src_len: np.ndarray                            # (batch,) real source positions
    cross_kv: list[tuple[np.ndarray, np.ndarray]]  # per layer, each (batch, heads, S, d_head)
    self_k: list[np.ndarray]                       # per layer, (rows, heads, max_len, d_head)
    self_v: list[np.ndarray]
    length: int = 0                                # positions filled so far

    @classmethod
    def from_encoder(cls, model: Seq2SeqModel, enc_out: np.ndarray, src_len: np.ndarray,
                     max_len: int) -> "DecodeState":
        """Project the cross-attention keys and values of ``enc_out`` and
        allocate ``max_len`` self-attention positions for each of its rows."""
        cfg, params = model.config, model.params
        heads = cfg.num_heads
        cross_kv = [_project_kv(params, f"dec{i}.cross", enc_out, heads) for i in range(cfg.decoder_layers)]
        shape = (enc_out.shape[0], heads, max_len, cfg.d_model // heads)
        return cls(enc_out, src_len, cross_kv,
                   [np.empty(shape) for _ in cross_kv], [np.empty(shape) for _ in cross_kv])

    @classmethod
    def for_source(cls, model: Seq2SeqModel, source_ids, max_len: int) -> "DecodeState":
        """Run the encoder once and allocate caches for ``max_len`` steps of one row."""
        cfg = model.config
        src = np.asarray(source_ids, dtype=np.int64)
        if not 0 < src.size <= cfg.max_src_len:
            raise ValueError(f"source length {src.size} outside 1..{cfg.max_src_len}")
        if not 0 < max_len <= cfg.max_tgt_len:
            raise ValueError(f"decode length {max_len} outside 1..{cfg.max_tgt_len}")
        _check_ids(src, cfg.vocab_size, "source")
        src_len = np.asarray([src.size])
        enc_out, _ = encoder_forward(model, src[None, :], src_len)
        return cls.from_encoder(model, enc_out, src_len, max_len)

    def reorder(self, parents) -> None:
        """Make new row r continue old row ``parents[r]``; the row count may change."""
        idx = np.asarray(parents, dtype=np.intp)
        t = self.length
        for bufs in (self.self_k, self.self_v):
            for i, buf in enumerate(bufs):
                new = np.empty((idx.size, *buf.shape[1:]))
                new[:, :, :t] = buf[idx, :, :t]
                bufs[i] = new


def _decoder_layers(model: Seq2SeqModel, state: DecodeState, ids: np.ndarray, ids_len: np.ndarray | None = None,
                    drop_rng=None, caches: list | None = None):
    """The decoder stack over ``ids`` (rows, n): the tokens at the ``n``
    positions that follow the ``state.length`` already in ``state``, of which
    row r has ``ids_len[r]`` real ones (all ``n`` when ``ids_len`` is None).
    Appends their self-attention keys and values to ``state`` and, when
    ``caches`` is a list, each layer's backward cache to it.  Returns the
    final-norm hidden states (rows, n, d_model) and that norm's cache."""
    cfg, params = model.config, model.params
    t, n = state.length, ids.shape[1]
    q_len = np.asarray([n]) if ids_len is None else ids_len
    self_groups, cross_groups = _row_groups(q_len, t + q_len), _row_groups(q_len, state.src_len)
    x = params["embed.tok"][ids] + params["embed.tgt_pos"][t : t + n]
    for i, (k_buf, v_buf, cross_kv) in enumerate(zip(state.self_k, state.self_v, state.cross_kv)):
        h, c_ln1 = _ln_fwd(params, f"dec{i}.ln1", x)
        k_buf[:, :, t : t + n], v_buf[:, :, t : t + n] = _project_kv(params, f"dec{i}.self", h, cfg.num_heads)
        self_kv = (k_buf[:, :, : t + n], v_buf[:, :, : t + n])
        a, c_self = _attn_fwd(params, f"dec{i}.self", h, h, self_groups, cfg.num_heads, True, self_kv)
        a, k1 = _dropout_fwd(a, cfg.dropout, drop_rng)
        x = x + a
        h2, c_ln2 = _ln_fwd(params, f"dec{i}.ln2", x)
        c_out, c_cross = _attn_fwd(params, f"dec{i}.cross", h2, state.enc_out, cross_groups, cfg.num_heads,
                                   kv=cross_kv)
        c_out, k2 = _dropout_fwd(c_out, cfg.dropout, drop_rng)
        x = x + c_out
        h3, c_ln3 = _ln_fwd(params, f"dec{i}.ln3", x)
        f, c_ffn = _ffn_fwd(params, f"dec{i}.ffn", h3)
        f, k3 = _dropout_fwd(f, cfg.dropout, drop_rng)
        x = x + f
        if caches is not None:
            caches.append((c_ln1, c_self, k1, c_ln2, c_cross, k2, c_ln3, c_ffn, k3))
    state.length = t + n
    return _ln_fwd(params, "dec.ln_f", x)


def decoder_forward(model: Seq2SeqModel, tgt_in: np.ndarray, tgt_len: np.ndarray, enc_out: np.ndarray,
                    src_len: np.ndarray, drop_rng=None):
    """Teacher-forced decoder over all T positions of ``tgt_in``; returns the
    final hidden states and the cache ``decoder_backward`` consumes."""
    state = DecodeState.from_encoder(model, enc_out, src_len, tgt_in.shape[1])
    caches: list = []
    hidden, c_lnf = _decoder_layers(model, state, tgt_in, tgt_len, drop_rng, caches)
    return hidden, (tgt_in, caches, c_lnf)


def decoder_backward(model: Seq2SeqModel, dhidden: np.ndarray, cache, grads) -> np.ndarray:
    """Returns the gradient with respect to the encoder output."""
    cfg, params = model.config, model.params
    tgt_in, caches, c_lnf = cache
    dx = _ln_bwd(dhidden, c_lnf, grads)
    denc = None
    for i in reversed(range(cfg.decoder_layers)):
        c_ln1, c_self, k1, c_ln2, c_cross, k2, c_ln3, c_ffn, k3 = caches[i]
        df = _dropout_bwd(dx, k3)
        dh3 = _ffn_bwd(df, c_ffn, params, grads)
        dx = dx + _ln_bwd(dh3, c_ln3, grads)
        dc = _dropout_bwd(dx, k2)
        dq, dkv = _attn_bwd(dc, c_cross, params, grads)
        denc = dkv if denc is None else denc + dkv
        dx = dx + _ln_bwd(dq, c_ln2, grads)
        da = _dropout_bwd(dx, k1)
        dq2, dkv2 = _attn_bwd(da, c_self, params, grads)
        dx = dx + _ln_bwd(dq2 + dkv2, c_ln1, grads)
    np.add.at(grads["embed.tok"], tgt_in, dx)
    grads["embed.tgt_pos"][: tgt_in.shape[1]] += dx.sum(axis=0)
    return denc


def decoder_step(model: Seq2SeqModel, state: DecodeState, tokens) -> np.ndarray:
    """Feed one token per live row at the next position; returns (rows, vocab)
    next-token logits and appends that position's keys and values to ``state``."""
    rows, _, max_len, _ = state.self_k[0].shape
    if len(tokens) != rows:
        raise ValueError(f"{len(tokens)} tokens for {rows} decode rows")
    if state.length == max_len:
        raise ValueError(f"decode state is full after {max_len} steps")
    hidden, _ = _decoder_layers(model, state, np.asarray(tokens, dtype=np.int64)[:, None])
    return hidden[:, 0] @ model.params["lm.w"] + model.params["lm.b"]


# --------------------------------------------------------------------------
# batching
# --------------------------------------------------------------------------


@dataclass
class Batch:
    src: np.ndarray       # (B, S) int64
    src_len: np.ndarray   # (B,)
    tgt: np.ndarray       # (B, T) int64, padded targets
    tgt_len: np.ndarray   # (B,)
    tgt_in: np.ndarray    # (B, T) shift-right decoder input
    tag_labels: np.ndarray | None = None  # (B, S) float64 where defined
    tag_mask: np.ndarray | None = None    # (B, S) bool


def _check_ids(ids: np.ndarray, vocab_size: int, what: str) -> None:
    bad = np.flatnonzero((ids < 0) | (ids >= vocab_size))
    if bad.size:
        pos = int(bad[0])
        raise ValueError(
            f"{what} id outside vocabulary: {int(ids[pos])} at position {pos} (vocabulary size {vocab_size})"
        )


def make_batch(instances: list[TrainingInstance], config: ModelConfig) -> Batch:
    pad = config.pad_id
    b = len(instances)
    s = max(len(i.source_ids) for i in instances)
    t = max((len(i.target_ids) for i in instances), default=0)
    t = max(t, 1)
    if s > config.max_src_len or t > config.max_tgt_len:
        raise ValueError(f"batch exceeds length caps: src {s}, tgt {t}")
    src = np.full((b, s), pad, dtype=np.int64)
    tgt = np.full((b, t), pad, dtype=np.int64)
    src_len = np.zeros(b, dtype=np.int64)
    tgt_len = np.zeros(b, dtype=np.int64)
    has_tags = any(i.tag_labels is not None for i in instances)
    tags = np.zeros((b, s)) if has_tags else None
    tag_mask = np.zeros((b, s), dtype=bool) if has_tags else None
    for j, inst in enumerate(instances):
        _check_ids(np.asarray(inst.source_ids, dtype=np.int64), config.vocab_size, "source")
        _check_ids(np.asarray(inst.target_ids, dtype=np.int64), config.vocab_size, "target")
        src[j, : len(inst.source_ids)] = inst.source_ids
        src_len[j] = len(inst.source_ids)
        tgt[j, : len(inst.target_ids)] = inst.target_ids
        tgt_len[j] = len(inst.target_ids)
        if inst.tag_labels is not None:
            n = len(inst.tag_labels)
            start = len(inst.source_ids) - 1 - n  # code segment sits before final [SEP]
            if start < 1:
                raise ValueError("tag labels longer than the code segment")
            tags[j, start : start + n] = inst.tag_labels
            tag_mask[j, start : start + n] = True
    tgt_in = np.full((b, t), pad, dtype=np.int64)
    tgt_in[:, 1:] = tgt[:, :-1]
    return Batch(src, src_len, tgt, tgt_len, tgt_in, tags, tag_mask)


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


LM_HEAD_ROWS = 256  # target rows per LM-head chunk; bounds the (rows, vocab) working set


def _lm_head_chunk(params, h: np.ndarray, targets: np.ndarray, grads: dict | None):
    """Summed token cross entropy of the LM head over the hidden rows ``h``.
    With ``grads``, adds the head's gradients to it and also returns the
    gradient of ``h``."""
    w = params["lm.w"]
    logits = h @ w
    logits += params["lm.b"]
    logp = _log_softmax(logits)
    picked = np.arange(len(h)), targets
    loss = -logp[picked].sum()
    if grads is None:
        return loss, None
    dlogits = np.exp(logp, out=logp)
    dlogits[picked] -= 1.0
    grads["lm.w"] += h.T @ dlogits
    grads["lm.b"] += dlogits.sum(axis=0)
    return loss, dlogits @ w.T


def seq2seq_loss_and_grads(
    model: Seq2SeqModel,
    instances: list[TrainingInstance],
    drop_rng=None,
    compute_grads: bool = True,
):
    """Teacher-forced token cross entropy, summed over real target tokens.

    Returns (loss_sum, token_count, grads or None).
    """
    if any(len(i.target_ids) == 0 for i in instances):
        raise ValueError("sequence loss needs non-empty targets")
    batch = make_batch(instances, model.config)
    enc_out, enc_cache = encoder_forward(model, batch.src, batch.src_len, drop_rng)
    hidden, dec_cache = decoder_forward(
        model, batch.tgt_in, batch.tgt_len, enc_out, batch.src_len, drop_rng
    )
    # the LM head runs on real target rows only, LM_HEAD_ROWS at a time
    mask = _length_mask(batch.tgt_len, batch.tgt.shape[1])
    rows, targets = hidden[mask], batch.tgt[mask]
    grads = model.zeros_like_params() if compute_grads else None
    chunks = [_lm_head_chunk(model.params, rows[i : i + LM_HEAD_ROWS], targets[i : i + LM_HEAD_ROWS], grads)
              for i in range(0, len(rows), LM_HEAD_ROWS)]
    loss = float(sum(chunk_loss for chunk_loss, _ in chunks))
    if not compute_grads:
        return loss, len(rows), None
    dhidden = np.zeros_like(hidden)
    dhidden[mask] = np.concatenate([drows for _, drows in chunks])
    denc = decoder_backward(model, dhidden, dec_cache, grads)
    encoder_backward(model, denc, enc_cache, grads)
    return loss, len(rows), grads


def tagging_loss_and_grads(
    model: Seq2SeqModel,
    instances: list[TrainingInstance],
    drop_rng=None,
    compute_grads: bool = True,
):
    """Binary cross entropy of the tagging head over code-segment positions.

    Runs the encoder only, so decoder parameters receive no gradient.
    Returns (loss_sum, position_count, grads or None).
    """
    if any(i.tag_labels is None for i in instances):
        raise ValueError("tagging loss needs instances with tag labels")
    batch = make_batch(instances, model.config)
    params = model.params
    enc_out, enc_cache = encoder_forward(model, batch.src, batch.src_len, drop_rng)
    z = enc_out @ params["tag.w"] + params["tag.b"]
    y = batch.tag_labels
    m = batch.tag_mask
    # log sigmoid pieces, numerically stable
    log_p = -np.logaddexp(0.0, -z)
    log_1mp = -np.logaddexp(0.0, z)
    loss = -(y * log_p + (1.0 - y) * log_1mp)[m].sum()
    count = int(m.sum())
    if not compute_grads:
        return float(loss), count, None
    p = 1.0 / (1.0 + np.exp(-z))
    dz = np.where(m, p - y, 0.0)
    grads = model.zeros_like_params()
    grads["tag.w"] += (enc_out * dz[..., None]).sum(axis=(0, 1))
    grads["tag.b"] += dz.sum()
    denc = dz[..., None] * params["tag.w"]
    encoder_backward(model, denc, enc_cache, grads)
    return float(loss), count, grads


def loss_and_grads(model: Seq2SeqModel, instances: list[TrainingInstance], objective: str,
                   drop_rng=None, compute_grads: bool = True):
    """The loss of ``objective``: the tagging head for IT, teacher-forced token
    cross entropy for every other objective.  Returns (loss_sum, count, grads or None)."""
    loss_fn = tagging_loss_and_grads if objective == IT else seq2seq_loss_and_grads
    return loss_fn(model, instances, drop_rng=drop_rng, compute_grads=compute_grads)


def _single_loss(model, instance, objective, reduction):
    if instance.objective != objective:
        raise InstanceObjectiveError(
            f"expected a {objective} instance, got {instance.objective}"
        )
    loss, count, _ = loss_and_grads(model, [instance], objective, compute_grads=False)
    if reduction == "mean":
        return loss / max(count, 1)
    return loss


def loss_msp(model: Seq2SeqModel, instance: TrainingInstance, reduction: str = "sum") -> float:
    """Span-denoising loss: summed token cross entropy of the target."""
    return _single_loss(model, instance, MSP, reduction)


def loss_mip(model: Seq2SeqModel, instance: TrainingInstance, reduction: str = "sum") -> float:
    """Identifier-denoising loss: summed token cross entropy of the target."""
    return _single_loss(model, instance, MIP, reduction)


def loss_it(model: Seq2SeqModel, instance: TrainingInstance, reduction: str = "sum") -> float:
    """Identifier-tagging loss: summed binary cross entropy over the code segment."""
    return _single_loss(model, instance, IT, reduction)


def forward_lm(model: Seq2SeqModel, source_ids, target_ids) -> np.ndarray:
    """Next-token distributions at each target position, teacher forced.

    Accepts a single pair of id sequences and returns (T, vocab) probabilities.
    """
    return forward_lm_batch(model, [TrainingInstance(tuple(source_ids), tuple(target_ids), MSP)])[0]


def forward_lm_batch(model: Seq2SeqModel, instances: list[TrainingInstance]) -> np.ndarray:
    batch = make_batch(instances, model.config)
    enc_out, _ = encoder_forward(model, batch.src, batch.src_len)
    hidden, _ = decoder_forward(model, batch.tgt_in, batch.tgt_len, enc_out, batch.src_len)
    logits = hidden @ model.params["lm.w"] + model.params["lm.b"]
    return np.exp(_log_softmax(logits))


def tag_probabilities(model: Seq2SeqModel, instance: TrainingInstance) -> np.ndarray:
    """Per-position identifier probabilities for the instance's code segment."""
    batch = make_batch([instance], model.config)
    enc_out, _ = encoder_forward(model, batch.src, batch.src_len)
    z = enc_out @ model.params["tag.w"] + model.params["tag.b"]
    return 1.0 / (1.0 + np.exp(-z[0][batch.tag_mask[0]]))
