"""Desk-scale encoder-decoder transformer in numpy with hand-written backprop.

Every array a pass makes takes the dtype of the parameters it reads.
A model as ``Seq2SeqModel`` makes or loads it, checkpoints and gradient
checks are float64; training trains float32 masters and decoding runs on a
float32 copy (``Seq2SeqModel.astype``, see ``training``).
Pre-norm residual blocks, learned absolute positions, multi-head attention
without biases, ReLU feed-forward blocks.  Two loss heads sit on top:

- a vocabulary projection over decoder states for span/identifier denoising
  and plain sequence-to-sequence training (teacher forced, causal mask),
  tied to the token embedding: one C-contiguous (d_model, vocab) matrix
  ``embed.tok`` gives the logits ``hidden @ embed.tok + lm.b`` and, through
  its transpose, the token embeddings;
- a scalar sigmoid projection over encoder states for identifier tagging,
  which by construction touches only encoder-side parameters.

Forward passes that a backward follows cache activations for it (the
explicit backward passes are checked against central finite differences); a
pass without one (``keep_cache=False``: scoring, validation, decoding) keeps
no sublayer's activations past the sublayer after it.  Training uses a
packed layout: a batch's real tokens are (rows, d_model) arrays with
per-sequence offsets (``Packing``), so every per-token op skips padding,
attention runs per sequence on views of those rows, and dropout masks are
drawn at the padded shape with their real rows kept.

One table, ``_SUBLAYERS``, defines the layer layout: each layer of a stack
runs its residual sublayers in order, each as layer norm, sublayer, dropout
and add, and a final layer norm closes the stack.  Parameter init, the one
stack forward (teacher forced, and KV-cached decoding with one row per
hypothesis and step) and the one stack backward all read it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import cycle
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import artifacts
from .objectives import IT, MAX_SRC_LEN, MAX_TGT_LEN, MSP, TrainingInstance

NEG_INF = -1e30
LN_EPS = 1e-6

CHECKPOINT_VERSION = 2


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
        if self.max_src_len > MAX_SRC_LEN or self.max_tgt_len > MAX_TGT_LEN:
            raise ValueError(f"length caps are {MAX_SRC_LEN} (source) and {MAX_TGT_LEN} (target)")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


# (layer norm, sublayer) of each layer, in order: "attn" is self-attention,
# "self" causal self-attention, "cross" attention over the encoder output
_SUBLAYERS = {
    "enc": (("ln1", "attn"), ("ln2", "ffn")),
    "dec": (("ln1", "self"), ("ln2", "cross"), ("ln3", "ffn")),
}


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

    # drawn as the (vocab, d_model) table it is the transpose of, so every later draw is unchanged
    params["embed.tok"] = np.ascontiguousarray(normal(0.0, 0.02, (v, d)).T)
    w("embed.src_pos", (config.max_src_len, d))
    w("embed.tgt_pos", (config.max_tgt_len, d))
    for stack, depth in (("enc", config.encoder_layers), ("dec", config.decoder_layers)):
        for i in range(depth):
            for norm, sub in _SUBLAYERS[stack]:
                ln(f"{stack}{i}.{norm}")
                (ffn if sub == "ffn" else attn)(f"{stack}{i}.{sub}")
        ln(f"{stack}.ln_f")
    params["lm.b"] = np.zeros(v)
    w("tag.w", (d,))
    params["tag.b"] = np.zeros(())
    return params


def is_decoder_param(name: str) -> bool:
    return name.startswith(("dec", "embed.tgt_pos", "lm."))


class Seq2SeqModel:
    """Parameter container; all math lives in the module-level functions."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray] | None = None, seed: int = 0):
        self.config = config
        self.params = params if params is not None else _init_params(config, np.random.default_rng(seed).normal)

    def clone(self) -> "Seq2SeqModel":
        return Seq2SeqModel(self.config, {k: v.copy() for k, v in self.params.items()})

    def astype(self, dtype) -> "Seq2SeqModel":
        """This model when every parameter already has ``dtype``, else a copy
        with every parameter cast to it."""
        if all(v.dtype == dtype for v in self.params.values()):
            return self
        return Seq2SeqModel(self.config, {k: v.astype(dtype) for k, v in self.params.items()})

    def zeros_like_params(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params.items()}

    def save(self, path: str | Path) -> None:
        """Write a checkpoint; a parameter ``load`` would refuse is refused and nothing is written."""
        _check_params(self.params, "model")
        meta = {"checkpoint_version": CHECKPOINT_VERSION, "config": asdict(self.config)}
        arrays = {f"param::{k}": v for k, v in self.params.items()}
        meta_bytes = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        # np.savez given a path would append ".npz" to the temporary name
        artifacts.write_atomic(path, lambda f: np.savez(f, __meta__=meta_bytes, **arrays), binary=True)

    @classmethod
    def load(cls, path: str | Path) -> "Seq2SeqModel":
        """A checkpoint ``save`` wrote.  Another format version is refused, and
        so is a missing, extra or misshapen parameter, one that is not float64
        or one with a NaN or infinite value, each naming the parameter."""
        with np.load(path) as data:
            meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
            version = meta.get("checkpoint_version")
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION}): "
                                 "the LM head is now tied to the token embedding, so retrain the run")
            config = ModelConfig(**meta["config"])
            params = {k[len("param::"):]: data[k] for k in data.files if k.startswith("param::")}
        expected = _init_params(config, lambda loc, scale, size: np.broadcast_to(0.0, size))
        for name in sorted(expected.keys() | params.keys()):
            found, want = (arrays[name].shape if name in arrays else None for arrays in (params, expected))
            if found != want:
                raise ValueError(f"parameter {name}: shape {found} in checkpoint, {want} in model")
        _check_params(params, "checkpoint")
        return cls(config, params)


def _check_params(params: dict[str, np.ndarray], where: str) -> None:
    """Refuse the first parameter, by name, that is not float64 or that holds
    a NaN or infinite value; ``where`` (a model or a checkpoint) holds them."""
    for name, p in sorted(params.items()):
        if p.dtype != np.float64:
            raise ValueError(f"parameter {name}: dtype {p.dtype} in {where}, expected float64")
        bad = p.size - np.count_nonzero(np.isfinite(p))
        if bad:
            raise ValueError(f"parameter {name}: {bad} non-finite values in {where}")


# --------------------------------------------------------------------------
# packed rows and the layer primitives over them (forward returns a cache
# consumed by the matching backward)
# --------------------------------------------------------------------------


def _spans(lens: np.ndarray) -> list[slice]:
    """Each sequence's slice of the packed rows: the ``cu_seqlens`` offsets."""
    ends = np.cumsum(lens).tolist()
    return [slice(end - n, end) for end, n in zip(ends, lens.tolist())]


class Packing(NamedTuple):
    """The real tokens of a padded (batch, width) array as packed rows, one
    sequence after another: ``padded[real]`` are those rows, and sequence b
    owns ``spans[b]`` of them."""

    real: np.ndarray  # (batch, width) bool
    spans: list[slice]

    @classmethod
    def of(cls, lens: np.ndarray, width: int) -> "Packing":
        return cls(np.arange(width) < lens[:, None], _spans(lens))


def _embed(params, pos_table, ids, rows: Packing):
    """Token plus position embeddings of the real ids of padded ``ids``, as
    packed rows; returns them and those ids."""
    tok = ids[rows.real]
    return params["embed.tok"].T[tok] + params[pos_table][np.nonzero(rows.real)[1]], tok


def _embed_bwd(grads, pos_table, tok, rows: Packing, dx):
    np.add.at(grads["embed.tok"].T, tok, dx)
    np.add.at(grads[pos_table], np.nonzero(rows.real)[1], dx)


def _ln_fwd(params, prefix, x):
    g, b = params[f"{prefix}.g"], params[f"{prefix}.b"]
    # the arithmetic of x.mean and x.var, without their Python-level wrappers
    d = x.shape[-1]
    xhat = x - np.add.reduce(x, axis=-1, keepdims=True) / d  # centred, then scaled in place
    inv = 1.0 / np.sqrt(np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d + LN_EPS)
    xhat *= inv
    return g * xhat + b, (prefix, xhat, inv, g)


def _ln_bwd(dy, cache, grads):
    prefix, xhat, inv, g = cache
    grads[f"{prefix}.g"] += (dy * xhat).sum(axis=0)
    grads[f"{prefix}.b"] += dy.sum(axis=0)
    dx = dy * g  # d xhat, then dx in place
    mx = (dx * xhat).mean(axis=-1, keepdims=True)
    dx -= dx.mean(axis=-1, keepdims=True)
    dx -= xhat * mx
    dx *= inv
    return dx


def _attend(q, k, v, mask):
    """Softmax attention of (..., q_len, d_head) queries over (..., k_len, d_head)
    keys, with an optional additive mask; returns (context, attention weights).
    Score-sized steps run in place: a fresh array of that size costs more than its arithmetic."""
    scores = q @ k.swapaxes(-1, -2)
    scores *= 1.0 / math.sqrt(q.shape[-1])
    if mask is not None:
        scores += mask
    scores -= scores.max(axis=-1, keepdims=True)
    attn = np.exp(scores, out=scores)
    attn /= attn.sum(axis=-1, keepdims=True)
    return attn @ v, attn


def _linear(x, w):
    """``x @ w`` for (rows, d) ``x``: every forward projection goes through here."""
    return x @ w


def _project_kv(params, prefix, kv_in, num_heads):
    """The keys and values of the rows ``kv_in`` for attention ``prefix``, each (rows, heads, d_head)."""
    return tuple(_linear(kv_in, params[f"{prefix}.{w}"]).reshape(len(kv_in), num_heads, -1) for w in ("wk", "wv"))


def _attn_fwd(params, prefix, q_in, kv_in, spans, num_heads, causal, kv, keep_cache):
    """Attention of the query rows ``q_in`` over the key rows ``kv_in`` (or over
    ``kv``, their projected keys and values).  ``spans`` pairs each sequence's
    query rows with its key rows; each pair attends on its own, causal if asked,
    on (heads, len, d_head) views.  With ``spans`` None (a decode step) ``kv``
    holds (rows, heads, k_len, d_head) caches and all rows attend in one call.
    The cache holds each pair's attention weights only with ``keep_cache``."""
    k, v = _project_kv(params, prefix, kv_in, num_heads) if kv is None else kv
    q = _linear(q_in, params[f"{prefix}.wq"]).reshape(len(q_in), num_heads, -1)
    weights = []
    if spans is None:
        ctx = _attend(q[:, :, None], k, v, None)[0]
    else:
        ctx = np.empty_like(q)
        for qs, ks in spans:
            if qs.stop > qs.start:
                mask = None
                if causal:  # query i sees keys up to i
                    mask = np.where(np.tri(qs.stop - qs.start, dtype=bool), 0.0, NEG_INF).astype(q.dtype, copy=False)
                c, attn = _attend(q[qs].transpose(1, 0, 2), k[ks].transpose(1, 0, 2), v[ks].transpose(1, 0, 2), mask)
                ctx[qs] = c.transpose(1, 0, 2)
                if keep_cache:
                    weights.append((qs, ks, attn))
    merged = ctx.reshape(len(q_in), -1)
    return _linear(merged, params[f"{prefix}.wo"]), (prefix, q_in, kv_in, q, k, v, weights, merged)


def _attn_bwd(dy, cache, params, grads):
    prefix, q_in, kv_in, q, k, v, weights, merged = cache
    wq, wk, wv, wo = (params[f"{prefix}.{p}"] for p in ("wq", "wk", "wv", "wo"))
    scale = 1.0 / math.sqrt(q.shape[-1])
    grads[f"{prefix}.wo"] += merged.T @ dy
    dctx = (dy @ wo.T).reshape(q.shape)
    dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    ctx = merged.reshape(q.shape)
    for qs, ks, attn in weights:
        dc, c, qh, kh, vh = (x[s].transpose(1, 0, 2) for x, s in ((dctx, qs), (ctx, qs), (q, qs), (k, ks), (v, ks)))
        dv[ks] = (attn.swapaxes(-1, -2) @ dc).transpose(1, 0, 2)
        # d attn, then d scores in place; sum_j attn_ij * dattn_ij is dc_i . c_i
        dscores = dc @ vh.swapaxes(-1, -2)
        dscores -= (dc * c).sum(axis=-1, keepdims=True)
        dscores *= attn
        dq[qs] = (dscores @ kh * scale).transpose(1, 0, 2)
        dk[ks] = (dscores.swapaxes(-1, -2) @ qh * scale).transpose(1, 0, 2)
    dq, dk, dv = (x.reshape(len(x), -1) for x in (dq, dk, dv))
    grads[f"{prefix}.wq"] += q_in.T @ dq
    grads[f"{prefix}.wk"] += kv_in.T @ dk
    grads[f"{prefix}.wv"] += kv_in.T @ dv
    return dq @ wq.T, dk @ wk.T + dv @ wv.T


def _ffn_fwd(params, prefix, x):
    w1, b1, w2, b2 = (params[f"{prefix}.{p}"] for p in ("w1", "b1", "w2", "b2"))
    act = _linear(x, w1)
    act += b1
    np.maximum(act, 0.0, out=act)
    y = _linear(act, w2)
    y += b2
    return y, (prefix, x, act)


def _ffn_bwd(dy, cache, params, grads):
    prefix, x, act = cache
    w1, w2 = params[f"{prefix}.w1"], params[f"{prefix}.w2"]
    grads[f"{prefix}.w2"] += act.T @ dy
    grads[f"{prefix}.b2"] += dy.sum(axis=0)
    dpre = dy @ w2.T
    dpre *= act > 0
    grads[f"{prefix}.w1"] += x.T @ dpre
    grads[f"{prefix}.b1"] += dpre.sum(axis=0)
    return dpre @ w1.T


def _dropout_fwd(x, p, rng, rows: Packing | None):
    """Inverted dropout on the packed rows ``x``.  The mask is drawn at the
    padded (batch, width, d) shape of ``rows`` and its real rows kept, so each
    draw is the one the padded layout made; the float64 draws give a mask of
    ``x``'s dtype."""
    if p <= 0.0 or rng is None:
        return x, None
    keep = ((rng.random((*rows.real.shape, x.shape[-1])) >= p)[rows.real] / (1.0 - p)).astype(x.dtype, copy=False)
    return x * keep, keep


# --------------------------------------------------------------------------
# encoder / decoder stacks
# --------------------------------------------------------------------------


@dataclass
class DecodeState:
    """Decoder caches for decoding from one encoded source.  Self-attention
    row r is the r-th live hypothesis; the source's cross-attention keys and
    values serve every row."""

    cross_kv: list[tuple[np.ndarray, np.ndarray]]  # per layer, each (1, heads, S, d_head)
    self_k: list[np.ndarray]                       # per layer, (rows, heads, max_len, d_head)
    self_v: list[np.ndarray]
    length: int = 0                                # positions filled so far

    @classmethod
    def for_source(cls, model: Seq2SeqModel, source_ids, max_len: int) -> "DecodeState":
        """Run the encoder once, project the cross-attention keys and values
        and allocate caches of the parameters' dtype for ``max_len`` steps of one row."""
        cfg, params = model.config, model.params
        src = source_array(source_ids, cfg)
        if not 0 < max_len <= cfg.max_tgt_len:
            raise ValueError(f"decode length {max_len} outside 1..{cfg.max_tgt_len}")
        enc_out, _ = encoder_forward(model, src[None, :], np.asarray([src.size]), keep_cache=False)
        heads = cfg.num_heads
        cross_kv = [tuple(x.transpose(1, 0, 2)[None] for x in _project_kv(params, f"dec{i}.cross", enc_out, heads))
                    for i in range(cfg.decoder_layers)]
        shape = (1, heads, max_len, cfg.d_model // heads)
        dtype = enc_out.dtype
        return cls(cross_kv, [np.empty(shape, dtype) for _ in cross_kv], [np.empty(shape, dtype) for _ in cross_kv])

    def reorder(self, parents) -> None:
        """Make new row r continue old row ``parents[r]``; the row count may change."""
        idx = np.asarray(parents, dtype=np.intp)
        t = self.length
        for bufs in (self.self_k, self.self_v):
            for i, buf in enumerate(bufs):
                new = np.empty((idx.size, *buf.shape[1:]), buf.dtype)
                new[:, :, :t] = buf[idx, :, :t]
                bufs[i] = new


def _stack_fwd(model: Seq2SeqModel, stack: str, x: np.ndarray, spans, enc: np.ndarray | None = None,
               state: DecodeState | None = None, rows: Packing | None = None, drop_rng=None,
               keep_cache: bool = True):
    """The ``stack`` ("enc" or "dec") over the embedded rows ``x`` as ``_SUBLAYERS``
    lays it out.  Without ``state``, ``x`` holds the packed sequences of ``rows``
    and ``spans`` pairs each one's rows with itself and with its rows of the
    packed encoder output ``enc``.  In a decode step ``spans`` is (None, None):
    row r is the next position of ``state`` row r, whose caches it extends and
    attends over.  Returns the final-norm rows, that norm's cache and each
    sublayer's, or None in place of the sublayer caches without ``keep_cache``."""
    cfg, params = model.config, model.params
    caches = [] if keep_cache else None
    for i in range(cfg.encoder_layers if stack == "enc" else cfg.decoder_layers):
        for norm, sub in _SUBLAYERS[stack]:
            prefix = f"{stack}{i}.{sub}"
            h, c_ln = _ln_fwd(params, f"{stack}{i}.{norm}", x)
            if sub == "ffn":
                y, c = _ffn_fwd(params, prefix, h)
            elif sub == "cross":
                y, c = _attn_fwd(params, prefix, h, enc, spans[1], cfg.num_heads, causal=False,
                                 kv=state and state.cross_kv[i], keep_cache=keep_cache)
            else:
                kv = None
                if state is not None:  # the newest position's keys and values join the cache
                    k_buf, v_buf, t = state.self_k[i], state.self_v[i], state.length
                    k_buf[:, :, t], v_buf[:, :, t] = _project_kv(params, prefix, h, cfg.num_heads)
                    kv = k_buf[:, :, : t + 1], v_buf[:, :, : t + 1]
                y, c = _attn_fwd(params, prefix, h, h, spans[0], cfg.num_heads, sub == "self", kv, keep_cache)
            y, keep = _dropout_fwd(y, cfg.dropout, drop_rng, rows)
            x = x + y
            if keep_cache:
                caches.append((c_ln, c, keep))
            del h, c_ln, c, y, keep  # without caches, no sublayer's arrays outlive it
    return (*_ln_fwd(params, f"{stack}.ln_f", x), caches)


def _stack_bwd(model: Seq2SeqModel, stack: str, dout: np.ndarray, cache, grads):
    """The backward of ``_stack_fwd`` given a ``(tok, rows, caches, c_lnf)`` cache: returns
    the gradients of its input rows and of the encoder rows it read (None in the encoder)."""
    _, _, caches, c_lnf = cache
    if caches is None:
        raise ValueError("the forward pass kept no cache (keep_cache=False), so it has no backward")
    dx, denc = _ln_bwd(dout, c_lnf, grads), None
    for (_, sub), (c_ln, c, keep) in zip(cycle(reversed(_SUBLAYERS[stack])), reversed(caches)):
        dy = dx if keep is None else dx * keep
        if sub == "ffn":
            dh = _ffn_bwd(dy, c, model.params, grads)
        else:
            dh, dkv = _attn_bwd(dy, c, model.params, grads)
            if sub == "cross":
                denc = dkv if denc is None else denc + dkv
            else:
                dh = dh + dkv
        dx = dx + _ln_bwd(dh, c_ln, grads)
    return dx, denc


def encoder_forward(model: Seq2SeqModel, src: np.ndarray, src_len: np.ndarray, drop_rng=None,
                    keep_cache: bool = True):
    """The encoder over padded ``src`` (batch, S), row b holding ``src_len[b]``
    real ids.  Returns the final-norm states of the real tokens as packed
    rows (sum(src_len), d_model) and the cache ``encoder_backward`` consumes;
    without ``keep_cache`` that cache holds no sublayer activations, only the
    ids and ``Packing`` of the rows (``cache[1]``)."""
    rows = Packing.of(src_len, src.shape[1])
    x, tok = _embed(model.params, "embed.src_pos", src, rows)
    spans = [(s, s) for s in rows.spans], None
    out, c_lnf, caches = _stack_fwd(model, "enc", x, spans, rows=rows, drop_rng=drop_rng, keep_cache=keep_cache)
    return out, (tok, rows, caches, c_lnf)


def encoder_backward(model: Seq2SeqModel, dout: np.ndarray, cache, grads) -> None:
    dx, _ = _stack_bwd(model, "enc", dout, cache, grads)
    _embed_bwd(grads, "embed.src_pos", cache[0], cache[1], dx)


def decoder_forward(model: Seq2SeqModel, tgt_in: np.ndarray, tgt_len: np.ndarray, enc_out: np.ndarray,
                    src_len: np.ndarray, drop_rng=None, keep_cache: bool = True):
    """Teacher-forced decoder over the real positions of padded ``tgt_in``
    (batch, T), attending over the packed encoder rows ``enc_out`` of sources
    with ``src_len`` real ids.  Returns the final hidden states as packed rows
    (sum(tgt_len), d_model) and the cache ``decoder_backward`` consumes, as
    ``encoder_forward`` does."""
    rows = Packing.of(tgt_len, tgt_in.shape[1])
    x, tok = _embed(model.params, "embed.tgt_pos", tgt_in, rows)
    spans = [(s, s) for s in rows.spans], list(zip(rows.spans, _spans(src_len)))
    hidden, c_lnf, caches = _stack_fwd(model, "dec", x, spans, enc_out, rows=rows, drop_rng=drop_rng,
                                       keep_cache=keep_cache)
    return hidden, (tok, rows, caches, c_lnf)


def decoder_backward(model: Seq2SeqModel, dhidden: np.ndarray, cache, grads) -> np.ndarray:
    """Returns the gradient with respect to the (packed) encoder output."""
    dx, denc = _stack_bwd(model, "dec", dhidden, cache, grads)
    _embed_bwd(grads, "embed.tgt_pos", cache[0], cache[1], dx)
    return denc


def decoder_step(model: Seq2SeqModel, state: DecodeState, tokens) -> np.ndarray:
    """Feed one token per live row at the next position; returns (rows, vocab)
    next-token logits and appends that position's keys and values to ``state``."""
    rows, _, max_len, _ = state.self_k[0].shape
    if len(tokens) != rows:
        raise ValueError(f"{len(tokens)} tokens for {rows} decode rows")
    if state.length == max_len:
        raise ValueError(f"decode state is full after {max_len} steps")
    params = model.params
    x = params["embed.tok"].T[np.asarray(tokens, dtype=np.int64)] + params["embed.tgt_pos"][state.length]
    hidden = _stack_fwd(model, "dec", x, (None, None), state=state, keep_cache=False)[0]
    state.length += 1
    return _logits(params, hidden)


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
    tag_labels: np.ndarray | None = None  # (B, S) bool where defined
    tag_mask: np.ndarray | None = None    # (B, S) bool


def _check_ids(ids: np.ndarray, vocab_size: int, what: str) -> None:
    bad = np.flatnonzero((ids < 0) | (ids >= vocab_size))
    if bad.size:
        pos = int(bad[0])
        raise ValueError(
            f"{what} id outside vocabulary: {int(ids[pos])} at position {pos} (vocabulary size {vocab_size})"
        )


def source_array(source_ids, config: ModelConfig) -> np.ndarray:
    """One source as an int64 array, checked to hold 1..max_src_len ids of the vocabulary."""
    src = np.asarray(source_ids, dtype=np.int64)
    if not 0 < src.size <= config.max_src_len:
        raise ValueError(f"source length {src.size} outside 1..{config.max_src_len}")
    _check_ids(src, config.vocab_size, "source")
    return src


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
    tags = np.zeros((b, s), dtype=bool) if has_tags else None
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
            labels = np.asarray(inst.tag_labels)
            bad = labels[(labels != 0) & (labels != 1)]
            if bad.size:
                raise ValueError(f"tag label {bad[0]} is not 0 or 1")
            tags[j, start : start + n] = labels == 1
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


def _logits(params, h: np.ndarray) -> np.ndarray:
    """The LM head over the hidden rows ``h``: ``h @ embed.tok + lm.b``."""
    logits = _linear(h, params["embed.tok"])
    logits += params["lm.b"]
    return logits


def _lm_head_chunk(params, h: np.ndarray, targets: np.ndarray, grads: dict | None):
    """Summed token cross entropy of the LM head over the hidden rows ``h``.
    With ``grads``, adds the head's gradients to it and also returns the
    gradient of ``h``."""
    logits = _logits(params, h)
    logits -= logits.max(axis=-1, keepdims=True)
    picked = np.arange(len(h)), targets
    target_logits = logits[picked]
    dlogits = np.exp(logits, out=logits)  # one exp pass, in place, serves the loss and the gradient
    sums = dlogits.sum(axis=-1)
    loss = (np.log(sums) - target_logits).sum()
    if grads is None:
        return loss, None
    dlogits /= sums[:, None]
    dlogits[picked] -= 1.0
    grads["embed.tok"] += h.T @ dlogits
    grads["lm.b"] += dlogits.sum(axis=0)
    return loss, dlogits @ params["embed.tok"].T


def seq2seq_loss_and_grads(model: Seq2SeqModel, instances: list[TrainingInstance], drop_rng=None,
                           compute_grads: bool = True):
    """Teacher-forced token cross entropy, summed over real target tokens.

    Returns (loss_sum, token_count, grads or None).
    """
    if any(len(i.target_ids) == 0 for i in instances):
        raise ValueError("sequence loss needs non-empty targets")
    batch = make_batch(instances, model.config)
    enc_out, enc_cache = encoder_forward(model, batch.src, batch.src_len, drop_rng, compute_grads)
    hidden, dec_cache = decoder_forward(model, batch.tgt_in, batch.tgt_len, enc_out, batch.src_len, drop_rng,
                                        compute_grads)
    # hidden holds the real target rows (the cache's Packing); the LM head runs on LM_HEAD_ROWS at a time
    targets = batch.tgt[dec_cache[1].real]
    grads = model.zeros_like_params() if compute_grads else None
    chunks = [_lm_head_chunk(model.params, hidden[i : i + LM_HEAD_ROWS], targets[i : i + LM_HEAD_ROWS], grads)
              for i in range(0, len(hidden), LM_HEAD_ROWS)]
    loss = float(sum(chunk_loss for chunk_loss, _ in chunks))
    if not compute_grads:
        return loss, len(hidden), None
    denc = decoder_backward(model, np.concatenate([drows for _, drows in chunks]), dec_cache, grads)
    encoder_backward(model, denc, enc_cache, grads)
    return loss, len(hidden), grads


def _require_tag_labels(instances: list[TrainingInstance]) -> None:
    if any(i.tag_labels is None for i in instances):
        raise ValueError("tagging loss needs instances with tag labels")


def tagging_loss_and_grads(model: Seq2SeqModel, instances: list[TrainingInstance], drop_rng=None,
                           compute_grads: bool = True):
    """Binary cross entropy of the tagging head over code-segment positions.

    Runs the encoder only, so decoder parameters receive no gradient.
    Returns (loss_sum, position_count, grads or None).
    """
    _require_tag_labels(instances)
    batch = make_batch(instances, model.config)
    params = model.params
    enc_out, enc_cache = encoder_forward(model, batch.src, batch.src_len, drop_rng, compute_grads)
    # the head runs on the labelled rows only
    real = enc_cache[1].real
    labelled = np.flatnonzero(batch.tag_mask[real])
    h, y = enc_out[labelled], batch.tag_labels[real][labelled].astype(enc_out.dtype, copy=False)
    z = h @ params["tag.w"] + params["tag.b"]
    # log sigmoid pieces, numerically stable
    loss = float(-(y * -np.logaddexp(0.0, -z) + (1.0 - y) * -np.logaddexp(0.0, z)).sum())
    if not compute_grads:
        return loss, len(labelled), None
    dz = 1.0 / (1.0 + np.exp(-z)) - y
    grads = model.zeros_like_params()
    grads["tag.w"] += dz @ h
    grads["tag.b"] += dz.sum()
    denc = np.zeros_like(enc_out)
    denc[labelled] = np.outer(dz, params["tag.w"])
    encoder_backward(model, denc, enc_cache, grads)
    return loss, len(labelled), grads


def loss_and_grads(model: Seq2SeqModel, instances: list[TrainingInstance], objective: str,
                   drop_rng=None, compute_grads: bool = True):
    """The loss of ``objective``: the tagging head for IT, teacher-forced token
    cross entropy for every other objective.  Returns (loss_sum, count, grads or None)."""
    loss_fn = tagging_loss_and_grads if objective == IT else seq2seq_loss_and_grads
    return loss_fn(model, instances, drop_rng=drop_rng, compute_grads=compute_grads)


def forward_lm(model: Seq2SeqModel, source_ids, target_ids) -> np.ndarray:
    """Next-token distributions at each target position, teacher forced.

    Accepts a single pair of id sequences and returns (T, vocab) probabilities.
    """
    return forward_lm_batch(model, [TrainingInstance(tuple(source_ids), tuple(target_ids), MSP)])[0]


def forward_lm_batch(model: Seq2SeqModel, instances: list[TrainingInstance]) -> np.ndarray:
    """(batch, T, vocab) next-token distributions, teacher forced; the
    positions past an instance's target are zero."""
    batch = make_batch(instances, model.config)
    enc_out, _ = encoder_forward(model, batch.src, batch.src_len, keep_cache=False)
    hidden, dec_cache = decoder_forward(model, batch.tgt_in, batch.tgt_len, enc_out, batch.src_len, keep_cache=False)
    probs = np.zeros((*batch.tgt.shape, model.config.vocab_size), hidden.dtype)
    probs[dec_cache[1].real] = np.exp(_log_softmax(_logits(model.params, hidden)))
    return probs


def tag_probabilities(model: Seq2SeqModel, instance: TrainingInstance) -> np.ndarray:
    """Per-position identifier probabilities for the instance's code segment."""
    _require_tag_labels([instance])
    batch = make_batch([instance], model.config)
    enc_out, _ = encoder_forward(model, batch.src, batch.src_len, keep_cache=False)
    z = enc_out[batch.tag_mask[0]] @ model.params["tag.w"] + model.params["tag.b"]
    return 1.0 / (1.0 + np.exp(-z))
