"""The training loop, decoding, task heads, and the gradient-check harness.

Every phase runs one loop and differs only in how a step draws its batch.
Pre-training runs in two phases: a denoising phase that draws one of the
three denoising objectives per step with equal probability, and a dual phase
over the paired NL<->code generation instances.  All randomness flows from
the schedule seed; with a fixed seed the metrics log is bit-identical across
runs.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

log = logging.getLogger(__name__)

from . import metrics as metrics_mod
from .bpe import SubwordTokenizer
from .mixture import TaskMixture, apply_control_code, sample_task
from .model import (
    DecodeState,
    InstanceObjectiveError,
    Seq2SeqModel,
    decoder_forward,
    decoder_step,
    encoder_forward,
    is_decoder_param,
    loss_and_grads,
    _log_softmax,
)
from .objectives import (
    DENOISING_TASKS,
    DUAL_NL2PL,
    DUAL_PL2NL,
    TrainingInstance,
    parse_sentinel_segments,
    pick_denoising_task,
)

DUAL_TASKS = (DUAL_NL2PL, DUAL_PL2NL)


@dataclass(frozen=True)
class TrainSchedule:
    steps: int
    batch_size: int = 8
    peak_lr: float = 1e-3
    warmup_steps: int = 0
    clip_norm: float = 1.0
    seed: int = 0
    linear_decay: bool = True


class NonFiniteError(ValueError):
    """A training step produced a loss or gradient norm that is NaN or infinite."""


@dataclass
class StepRecord:
    step: int
    objective: str
    loss: float

    def to_dict(self) -> dict:
        return {"step": self.step, "objective": self.objective, "loss": self.loss}


class Adam:
    """Adaptive-moment optimizer with optional warmup and linear decay to zero."""

    def __init__(self, params: dict[str, np.ndarray], schedule: TrainSchedule,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.schedule = schedule
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def learning_rate(self, step: int) -> float:
        s = self.schedule
        if s.warmup_steps and step <= s.warmup_steps:
            return s.peak_lr * step / s.warmup_steps
        if not s.linear_decay:
            return s.peak_lr
        span = max(s.steps - s.warmup_steps, 1)
        remaining = max(s.steps - step, 0)
        return s.peak_lr * remaining / span if s.steps > 1 else s.peak_lr

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> float:
        """Clip ``grads`` and update ``params``; returns the pre-clip gradient
        norm, and raises on a non-finite one before changing any state."""
        norm = clip_gradients(grads, self.schedule.clip_norm)
        if not math.isfinite(norm):
            raise NonFiniteError(f"gradient norm is {norm}")
        self.t += 1
        lr = self.learning_rate(self.t)
        for k, g in grads.items():
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            mhat = self.m[k] / (1 - self.beta1**self.t)
            vhat = self.v[k] / (1 - self.beta2**self.t)
            params[k] -= lr * mhat / (np.sqrt(vhat) + self.eps)
        return norm


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their global norm is at most ``max_norm``.  A
    non-finite norm leaves them untouched; it is returned for the caller to
    reject."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if max_norm and math.isfinite(total) and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def _draw_batch(pool: list[TrainingInstance], size: int, rng: np.random.Generator):
    idx = rng.integers(0, len(pool), size=min(size, len(pool)))
    return [pool[int(i)] for i in idx]


def _fits_model(inst: TrainingInstance, model: Seq2SeqModel) -> bool:
    return (
        len(inst.source_ids) <= model.config.max_src_len
        and len(inst.target_ids) <= model.config.max_tgt_len
    )


def _filter_to_caps(
    instances: Sequence[TrainingInstance], model: Seq2SeqModel
) -> list[TrainingInstance]:
    """Drop instances longer than the model's length caps, with a warning."""
    kept = [i for i in instances if _fits_model(i, model)]
    dropped = len(instances) - len(kept)
    if dropped:
        log.warning(
            "dropping %d of %d instances exceeding model caps (src %d, tgt %d)",
            dropped, len(instances), model.config.max_src_len, model.config.max_tgt_len,
        )
    return kept


def _train(
    model: Seq2SeqModel,
    schedule: TrainSchedule,
    draw: Callable[[np.random.Generator], tuple[str, list[TrainingInstance]]],
    after_step: Callable[[int], None] | None = None,
) -> list[StepRecord]:
    """The training loop of every phase.  ``draw(rng)`` gives each step's log
    label and batch; the loss follows the batch's objective.  Dropout, when
    the model config asks for it, draws from its own generator.  A non-finite
    loss or gradient norm stops the run before that step's update; numpy's
    floating-point warnings are silenced, since that check reports them."""
    rng = np.random.default_rng(schedule.seed)
    drop_rng = np.random.default_rng(schedule.seed + 1) if model.config.dropout > 0 else None
    opt = Adam(model.params, schedule)
    records: list[StepRecord] = []
    for step in range(1, schedule.steps + 1):
        label, batch = draw(rng)
        objective = batch[0].objective
        try:
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                loss, count, grads = loss_and_grads(model, batch, objective, drop_rng)
                if not math.isfinite(loss):
                    raise NonFiniteError(f"loss is {loss}")
                opt.step(model.params, grads)
        except NonFiniteError as exc:
            task = "" if label == objective else f"task {label}, "
            raise NonFiniteError(f"step {step} ({task}objective {objective}): {exc}") from None
        records.append(StepRecord(step, label, loss / max(count, 1)))
        if after_step is not None:
            after_step(step)
    return records


def pretrain(
    model: Seq2SeqModel,
    instances: Sequence[TrainingInstance],
    schedule: TrainSchedule,
    phase: str = "denoise",
) -> list[StepRecord]:
    """Train in place; returns the per-step metrics log.

    The denoise phase expects span/tagging/identifier instances and draws the
    objective per step with equal probability; the dual phase expects the
    paired generation instances and alternates directions at random.
    """
    if phase == "denoise":
        allowed, pick = DENOISING_TASKS, pick_denoising_task
    elif phase == "dual":
        allowed, pick = DUAL_TASKS, lambda rng: DUAL_TASKS[rng.integers(2)]
    else:
        raise ValueError(f"unknown phase {phase!r}")
    pools: dict[str, list[TrainingInstance]] = {obj: [] for obj in allowed}
    for inst in instances:
        if inst.objective not in pools:
            raise InstanceObjectiveError(
                f"{inst.objective} instance passed to the {phase} phase"
            )
        pools[inst.objective].append(inst)
    for obj_name in allowed:
        pools[obj_name] = _filter_to_caps(pools[obj_name], model)
    available = [obj for obj in allowed if pools[obj]]
    if not available and schedule.steps > 0:
        raise ValueError("no training instances")

    def draw(rng):
        objective = pick(rng)
        if not pools[objective]:
            objective = available[int(rng.integers(len(available)))]
        return objective, _draw_batch(pools[objective], schedule.batch_size, rng)

    return _train(model, schedule, draw)


def finetune_seq2seq(
    model: Seq2SeqModel,
    instances: Sequence[TrainingInstance],
    schedule: TrainSchedule,
) -> list[StepRecord]:
    """Fine-tune on one pool of instances.  The loss follows their objective:
    teacher-forced generation, or the encoder and tagging head for IT."""
    pool = _filter_to_caps(list(instances), model)
    if not pool and schedule.steps > 0:
        raise ValueError("no training instances fit the model's length caps")

    def draw(rng):
        batch = _draw_batch(pool, schedule.batch_size, rng)
        return batch[0].objective, batch

    return _train(model, schedule, draw)


# IT instances select the tagging loss, so tagging fine-tuning is the same loop.
finetune_tagging = finetune_seq2seq


@dataclass
class TaskCheckpoint:
    task: str
    step: int
    metric: float
    params: dict[str, np.ndarray]


def _mean_loss(model: Seq2SeqModel, instances: list[TrainingInstance], chunk: int) -> float:
    """Mean loss per scored position, ``chunk`` instances per forward pass."""
    loss, count = 0.0, 0
    for i in range(0, len(instances), chunk):
        part = instances[i : i + chunk]
        part_loss, part_count, _ = loss_and_grads(model, part, part[0].objective, compute_grads=False)
        loss += part_loss
        count += part_count
    return loss / max(count, 1)


def finetune_multitask(
    model: Seq2SeqModel,
    mixture: TaskMixture,
    datasets: dict[str, list[TrainingInstance]],
    tokenizer: SubwordTokenizer,
    schedule: TrainSchedule,
    validation: dict[str, list[TrainingInstance]] | None = None,
    eval_every: int = 50,
) -> tuple[list[StepRecord], dict[str, TaskCheckpoint]]:
    """Balanced multi-task fine-tuning with one best checkpoint per task.

    Control codes are prepended and the length caps applied once per dataset
    and validation set up front.  When validation sets are given, per-task
    validation loss is tracked in batches of the schedule's size and the best
    parameter snapshot per task is returned.
    """
    def prepare(spec, instances):
        return _filter_to_caps([apply_control_code(i, spec, tokenizer) for i in instances], model)

    prepared: dict[str, list[TrainingInstance]] = {}
    held_out: dict[str, list[TrainingInstance]] = {}
    for spec in mixture.tasks:
        prepared[spec.name] = prepare(spec, datasets[spec.name])
        if not prepared[spec.name] and schedule.steps > 0:
            raise ValueError(f"no instances of task {spec.name!r} fit the model's length caps")
        val = prepare(spec, (validation or {}).get(spec.name) or [])
        if val:
            held_out[spec.name] = val
    best: dict[str, TaskCheckpoint] = {}

    def draw(rng):
        task = sample_task(mixture, rng)
        return task, _draw_batch(prepared[task], schedule.batch_size, rng)

    def validate(step: int):
        if step % eval_every and step != schedule.steps:
            return
        for task, val in held_out.items():
            mean = _mean_loss(model, val, schedule.batch_size)
            if task not in best or mean < best[task].metric:
                best[task] = TaskCheckpoint(task, step, mean, {k: v.copy() for k, v in model.params.items()})

    return _train(model, schedule, draw, validate if held_out else None), best


# --------------------------------------------------------------------------
# decoding and task heads
# --------------------------------------------------------------------------


def _top_k(logp: np.ndarray, k: int) -> np.ndarray:
    """Per row, the ids of the ``k`` highest ``logp`` (at most all), ordered by
    (-logp, id); ``argpartition`` picks among ids tied at the k-th place."""
    k = min(k, logp.shape[-1])
    top = np.argpartition(logp, -k, axis=-1)[:, -k:]
    order = np.lexsort((top, -np.take_along_axis(logp, top, axis=-1)), axis=-1)
    return np.take_along_axis(top, order, axis=-1)


def generate(
    model: Seq2SeqModel,
    source_ids: Sequence[int],
    max_len: int,
    beam: int = 1,
    eos_id: int | None = None,
) -> list[int]:
    """Greedy (beam=1) or beam-search decoding, stopping at ``eos_id``.

    The returned sequence excludes the end-of-sequence id.  Beam search
    expands each live hypothesis by its ``beam`` most likely tokens, carries
    finished hypotheses along, and keeps the ``beam`` best by a stable sort
    on summed log-probability; all live hypotheses advance as one batch.
    """
    if max_len <= 0:
        return []
    max_len = min(max_len, model.config.max_tgt_len - 1)
    state = DecodeState.for_source(model, source_ids, max_len)
    start = model.config.pad_id
    if beam <= 1:
        out: list[int] = []
        while len(out) < max_len:
            logits = decoder_step(model, state, [out[-1] if out else start])
            nxt = int(np.argmax(logits[0]))
            if eos_id is not None and nxt == eos_id:
                break
            out.append(nxt)
        return out
    # (sequence, logprob, finished, state row of its parent); before each
    # step the live hypotheses are moved into the state's rows in order
    hyps: list[tuple[list[int], float, bool, int]] = [([], 0.0, False, 0)]
    for _ in range(max_len):
        live = [(seq, parent) for seq, _, finished, parent in hyps if not finished]
        state.reorder([parent for _, parent in live])
        logp = _log_softmax(decoder_step(model, state, [seq[-1] if seq else start for seq, _ in live]))
        top = _top_k(logp, beam)
        expanded: list[tuple[list[int], float, bool, int]] = []
        row = 0
        for seq, score, finished, _ in hyps:
            if finished:
                expanded.append((seq, score, True, -1))
                continue
            for token_id in top[row]:
                token_id = int(token_id)
                new_score = score + float(logp[row, token_id])
                if eos_id is not None and token_id == eos_id:
                    expanded.append((seq, new_score, True, -1))
                else:
                    expanded.append((seq + [token_id], new_score, False, row))
            row += 1
        expanded.sort(key=lambda h: -h[1])
        hyps = expanded[:beam]
        if all(finished for _, _, finished, _ in hyps):
            break
    return hyps[0][0]


def first_step_distribution(model: Seq2SeqModel, source_ids: Sequence[int]) -> np.ndarray:
    state = DecodeState.for_source(model, source_ids, 1)
    logits = decoder_step(model, state, [model.config.pad_id])
    return np.exp(_log_softmax(logits[0]))


def classify_unigram(
    model: Seq2SeqModel, source_ids: Sequence[int], label_ids: Sequence[int]
) -> int:
    """Pick the label whose token is most likely as the first generated token."""
    if not label_ids:
        raise ValueError("label vocabulary is empty")
    dist = first_step_distribution(model, source_ids)
    return int(label_ids[int(np.argmax(dist[list(label_ids)]))])


def embed_last_state(model: Seq2SeqModel, source_ids: Sequence[int]) -> np.ndarray:
    """Sequence embedding: the decoder's final hidden state after teacher
    forcing the source sequence through it."""
    src = np.asarray([source_ids], dtype=np.int64)
    src_len = np.asarray([len(source_ids)], dtype=np.int64)
    enc_out, _ = encoder_forward(model, src, src_len)
    dec_in = [model.config.pad_id, *source_ids[: model.config.max_tgt_len - 1]]
    tgt = np.asarray([dec_in], dtype=np.int64)
    tgt_len = np.asarray([len(dec_in)], dtype=np.int64)
    hidden, _ = decoder_forward(model, tgt, tgt_len, enc_out, src_len)
    return hidden[0, -1]


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))


# --------------------------------------------------------------------------
# verification harnesses
# --------------------------------------------------------------------------


def grad_check(
    model: Seq2SeqModel,
    loss_op: Callable[[Seq2SeqModel, TrainingInstance], float],
    instance: TrainingInstance,
    coords_per_param: int = 4,
    h_base: float = 1e-4,
    floor: float = 1e-6,
    seed: int = 0,
) -> float:
    """Max relative error between analytic gradients and central differences
    over a random coordinate subset of every parameter array."""
    _, _, grads = loss_and_grads(model, [instance], instance.objective)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, p in model.params.items():
        for _ in range(coords_per_param):
            idx = tuple(rng.integers(0, s) for s in p.shape) if p.ndim else ()
            orig = p[idx]
            h = h_base * (1.0 + abs(orig))
            p[idx] = orig + h
            up = loss_op(model, instance)
            p[idx] = orig - h
            down = loss_op(model, instance)
            p[idx] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise FloatingPointError("non-finite loss during finite differences")
            fd = (up - down) / (2 * h)
            an = grads[name][idx]
            rel = abs(fd - an) / max(abs(fd), abs(an), floor)
            worst = max(worst, rel)
    return worst


def decoder_grad_norm(model: Seq2SeqModel, instance: TrainingInstance) -> float:
    """Largest absolute analytic gradient on any decoder-side parameter."""
    _, _, grads = loss_and_grads(model, [instance], instance.objective)
    vals = [np.abs(g).max() for k, g in grads.items() if is_decoder_param(k)]
    return float(max(vals)) if vals else 0.0


def evaluate_mask_instances(
    model: Seq2SeqModel,
    instances: Sequence[TrainingInstance],
    tokenizer: SubwordTokenizer,
    margin: int = 8,
) -> dict[str, float]:
    """Decode each instance and score the two mask-protocol metrics:
    per-sentinel exact segment accuracy, and the fraction of outputs whose
    sentinel segment count matches the target's."""
    outputs = []
    slot_hits = 0
    slot_total = 0
    for inst in instances:
        out = generate(
            model,
            inst.source_ids,
            max_len=len(inst.target_ids) + margin,
            eos_id=tokenizer.sep_id,
        )
        outputs.append(out)
        gold = dict(parse_sentinel_segments(inst.target_ids, tokenizer))
        pred = dict(parse_sentinel_segments(out, tokenizer))
        for index, segment in gold.items():
            slot_hits += int(pred.get(index) == segment)
            slot_total += 1
    return {
        "accuracy": slot_hits / slot_total if slot_total else 0.0,
        "pred_count_match": metrics_mod.pred_count_match(outputs, instances, tokenizer),
    }


def write_metrics_log(log: Iterable[StepRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in log:
            f.write(json.dumps(rec.to_dict()) + "\n")


def read_metrics_log(path: str | Path) -> list[StepRecord]:
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                d = json.loads(line)
                out.append(StepRecord(d["step"], d["objective"], d["loss"]))
    return out
