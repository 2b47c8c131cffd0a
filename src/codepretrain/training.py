"""The training loop, decoding, the gradient-check harness, and the mask-task scorer.

``finetune`` is the one training loop.  It advances one ``TrainState`` over a
task mixture, each step drawing a task by the mixture's probabilities, then a
batch of that task's pool, and validates between ``advance`` calls; a single
pool is a one-task mixture, and a task of IT instances trains the tagging head.
``pretrain`` hands it a phase: a fixed uniform mixture (alpha 0) of the three
denoising objectives, or of the two directions of the paired NL<->code
generation instances.  All randomness flows from the schedule seed; a seeded
metrics log is bit-identical across runs.

Training and decoding compute in ``COMPUTE_DTYPE``.  A run trains masters of
that dtype (``Seq2SeqModel.astype`` of the caller's model), with Adam's
moments in it too; each step computes on the masters and updates them in
place, and validation reads them.  A caller's float64 model receives their
exact cast once, when a run that took a step returns, and each best
checkpoint holds them cast to the caller's dtype, so models and checkpoints
stay float64.  A caller's model already of ``COMPUTE_DTYPE`` is itself the
masters.  Every decoder step runs on a ``COMPUTE_DTYPE`` copy of the model.
Beam scores add up in Python floats.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

log = logging.getLogger(__name__)

from . import artifacts, metrics as metrics_mod
from .bpe import SubwordTokenizer
from .mixture import TaskMixture, TaskSpec, sample_task
from .model import (
    DecodeState,
    Seq2SeqModel,
    decoder_step,
    loss_and_grads,
    _log_softmax,
)
from .objectives import (
    DENOISING_TASKS,
    DUAL_NL2PL,
    DUAL_PL2NL,
    IT,
    TrainingInstance,
    parse_sentinel_segments,
)

DUAL_TASKS = (DUAL_NL2PL, DUAL_PL2NL)


BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
CLIP_NORM = 1.0  # the global gradient norm every step is clipped to

ADAM_CHUNK = 1 << 14  # elements per block of Adam's in-place update; its scratch stays in cache

COMPUTE_DTYPE = np.float32  # the arithmetic dtype of every training step and every decoder step


@dataclass(frozen=True)
class TrainSchedule:
    steps: int
    batch_size: int = 8
    peak_lr: float = 1e-3
    warmup_steps: int = 0
    seed: int = 0

    def __post_init__(self):
        for name, low in (("steps", 0), ("batch_size", 1), ("peak_lr", 0), ("warmup_steps", 0)):
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)!r}")


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

    def __init__(self, params: dict[str, np.ndarray], schedule: TrainSchedule):
        self.schedule = schedule
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def learning_rate(self, step: int) -> float:
        s = self.schedule
        if s.warmup_steps and step <= s.warmup_steps:
            return s.peak_lr * step / s.warmup_steps
        span = max(s.steps - s.warmup_steps, 1)
        remaining = max(s.steps - step, 0)
        return s.peak_lr * remaining / span if s.steps > 1 else s.peak_lr

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> float:
        """Clip ``grads`` and update ``params``; returns the pre-clip gradient
        norm, and raises on a non-finite one before changing any state.

        The update runs in place over each parameter's flat view,
        ``ADAM_CHUNK`` elements at a time, through scratch allocated per call,
        so it makes no parameter-sized temporary.  Its operations and their
        order are those of ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
        p -= lr * (m/c1) / (sqrt(v/c2) + eps)``, with the ``(1-b)*g`` products
        in the gradient's dtype, so every bit of the result is theirs."""
        for k in grads:
            if not params[k].flags.c_contiguous:
                raise ValueError(f"parameter {k} is not C-contiguous, so Adam cannot update it in place")
        norm = clip_gradients(grads, CLIP_NORM)
        if not math.isfinite(norm):
            raise NonFiniteError(f"gradient norm is {norm}")
        self.t += 1
        lr = self.learning_rate(self.t)
        c1, c2 = 1 - BETA1**self.t, 1 - BETA2**self.t
        for k, g in grads.items():
            p, m, v, g = (x.reshape(-1) for x in (params[k], self.m[k], self.v[k], g))
            size = min(p.size, ADAM_CHUNK)
            a, b, s = np.empty(size, m.dtype), np.empty(size, m.dtype), np.empty(size, g.dtype)
            for i in range(0, p.size, ADAM_CHUNK):
                j = min(i + ADAM_CHUNK, p.size)
                pc, mc, vc, gc = p[i:j], m[i:j], v[i:j], g[i:j]
                ac, bc, sc = a[: j - i], b[: j - i], s[: j - i]
                mc *= BETA1
                mc += np.multiply(gc, 1 - BETA1, out=sc)
                vc *= BETA2
                np.multiply(gc, 1 - BETA2, out=sc)
                sc *= gc
                vc += sc
                np.divide(mc, c1, out=ac)
                np.divide(vc, c2, out=bc)
                np.sqrt(bc, out=bc)
                bc += ADAM_EPS
                ac *= lr
                ac /= bc
                pc -= ac
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


def _filter_to_caps(
    instances: Sequence[TrainingInstance], model: Seq2SeqModel, name: str
) -> list[TrainingInstance]:
    """Drop instances longer than the model's length caps, with a warning
    naming what ``name`` (an objective, a task or a validation set) loses."""
    cfg = model.config
    kept = [i for i in instances if len(i.source_ids) <= cfg.max_src_len and len(i.target_ids) <= cfg.max_tgt_len]
    dropped = len(instances) - len(kept)
    if dropped:
        log.warning(
            "%s: dropping %d of %d instances exceeding model caps (src %d, tgt %d)",
            name, dropped, len(instances), cfg.max_src_len, cfg.max_tgt_len,
        )
    return kept


@dataclass
class TrainState:
    """A run between steps: the ``COMPUTE_DTYPE`` masters ``model`` that each
    step computes on and updates in place, the optimizer with its moments (of
    the masters' dtype) and step count, the batch and dropout generators
    (``drop_rng`` None without dropout), the records so far, the run's best
    checkpoint per validated task and the last step's ``grads``.  Holding those
    until the next step replaces them keeps the allocator from returning their
    pages after every step: at vocabulary 560, faulting them back in cost
    about 7% of a step."""

    model: Seq2SeqModel
    opt: Adam
    rng: np.random.Generator
    drop_rng: np.random.Generator | None
    records: list[StepRecord]
    best: dict[str, TaskCheckpoint]
    grads: dict[str, np.ndarray]

    @classmethod
    def start(cls, model: Seq2SeqModel, schedule: TrainSchedule) -> TrainState:
        """A run of ``model`` from step 0; its masters are ``model`` itself when
        it is already of ``COMPUTE_DTYPE``, else a cast of it."""
        masters = model.astype(COMPUTE_DTYPE)
        drop_rng = np.random.default_rng(schedule.seed + 1) if model.config.dropout > 0 else None
        return cls(masters, Adam(masters.params, schedule),
                   np.random.default_rng(schedule.seed), drop_rng, [], {}, {})

    def advance(self, mixture: TaskMixture, pools: dict[str, list[TrainingInstance]]) -> StepRecord:
        """One step: a task of ``mixture`` (the step's label), a batch of its pool,
        the batch objective's loss and gradients on the masters and their update
        in place.  A non-finite loss or gradient norm stops the run before the
        update (numpy's warnings are silenced for it)."""
        step = len(self.records) + 1
        label = sample_task(mixture, self.rng)
        batch = _draw_batch(pools[label], self.opt.schedule.batch_size, self.rng)
        objective = batch[0].objective
        try:
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                loss, count, self.grads = loss_and_grads(self.model, batch, objective, self.drop_rng)
                if not math.isfinite(loss):
                    raise NonFiniteError(f"loss is {loss}")
                self.opt.step(self.model.params, self.grads)
        except NonFiniteError as exc:
            task = "" if label == objective else f"task {label}, "
            raise NonFiniteError(f"step {step} ({task}objective {objective}): {exc}") from None
        self.records.append(StepRecord(step, label, loss / max(count, 1)))
        return self.records[-1]

    def write_back(self, model: Seq2SeqModel) -> None:
        """Give ``model``, the model the run started from, the masters' values
        (their exact cast) once the run has taken a step; a model that is the
        masters already holds them."""
        if self.records and self.model is not model:
            for k, p in self.model.params.items():
                model.params[k][...] = p


def pretrain(
    model: Seq2SeqModel,
    instances: Sequence[TrainingInstance],
    schedule: TrainSchedule,
    phase: str = "denoise",
) -> list[StepRecord]:
    """Train ``model`` on one phase; returns the per-step metrics log.

    The denoise phase expects span/tagging/identifier instances, the dual
    phase the paired generation instances.  Each objective of the phase with
    instances left after the length caps is one task, logged under the
    objective's name, of a uniform mixture that ``finetune`` trains.
    """
    phases = {"denoise": DENOISING_TASKS, "dual": DUAL_TASKS}
    if phase not in phases:
        raise ValueError(f"unknown phase {phase!r}")
    pools: dict[str, list[TrainingInstance]] = {obj: [] for obj in phases[phase]}
    for inst in instances:
        if inst.objective not in pools:
            raise ValueError(f"{inst.objective} instance passed to the {phase} phase")
        pools[inst.objective].append(inst)
    for obj_name, pool in pools.items():
        pools[obj_name] = _filter_to_caps(pool, model, obj_name)
        if pool and not pools[obj_name]:
            log.warning("dropping objective %s from the %s phase: none of its instances fits the model caps",
                        obj_name, phase)
    tasks = tuple(TaskSpec(obj_name, len(pool)) for obj_name, pool in pools.items() if pool)
    if not tasks:
        if schedule.steps > 0:
            raise ValueError("no training instances")
        return []
    return finetune(model, TaskMixture(tasks, alpha=0.0), pools, schedule)[0]


@dataclass
class TaskCheckpoint:
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


def finetune(
    model: Seq2SeqModel,
    mixture: TaskMixture,
    datasets: dict[str, list[TrainingInstance]],
    schedule: TrainSchedule,
    validation: dict[str, list[TrainingInstance]] | None = None,
    eval_every: int = 50,
) -> tuple[list[StepRecord], dict[str, TaskCheckpoint]]:
    """Train ``model`` on a task mixture, with one best checkpoint per
    validated task; a single pool is a one-task mixture.

    Each step draws a task by the mixture's probabilities, then a batch from
    its dataset.  The loss follows the batch's objective: the tagging head for
    IT, teacher-forced generation for every other objective.  So a task whose
    instances (training or validation) mix IT with other objectives is
    rejected before step 1.  Control codes come prepended
    (``mixture.apply_control_code``); the length caps are applied once per
    dataset and validation set up front.  Every ``eval_every`` steps and after
    the last, each task's validation loss on the ``COMPUTE_DTYPE`` masters is
    measured in batches of the schedule's size; the best snapshot per task,
    cast to ``model``'s dtype, is returned.  ``model`` ends with the masters'
    values (see ``TrainState.write_back``), also when a step stops the run.
    """
    if not eval_every >= 1:
        raise ValueError(f"eval_every must be >= 1, got {eval_every!r}")
    prepared: dict[str, list[TrainingInstance]] = {}
    held_out: dict[str, list[TrainingInstance]] = {}
    for spec in mixture.tasks:
        val = (validation or {}).get(spec.name) or []
        objectives = {i.objective for i in (*datasets[spec.name], *val)}
        if IT in objectives and len(objectives) > 1:
            raise ValueError(f"task {spec.name!r} mixes the tagging and sequence losses: its instances "
                             f"have objectives {', '.join(sorted(objectives))}")
        prepared[spec.name] = _filter_to_caps(datasets[spec.name], model, spec.name)
        if not prepared[spec.name] and schedule.steps > 0:
            raise ValueError(f"no instances of task {spec.name!r} fit the model's length caps")
        val = _filter_to_caps(val, model, f"{spec.name} validation")
        if val:
            held_out[spec.name] = val
    state = TrainState.start(model, schedule)
    try:
        for step in range(1, schedule.steps + 1):
            state.advance(mixture, prepared)
            if step % eval_every and step != schedule.steps:
                continue
            for task, val in held_out.items():
                mean = _mean_loss(state.model, val, schedule.batch_size)
                if task not in state.best or mean < state.best[task].metric:
                    params = {k: v.astype(model.params[k].dtype) for k, v in state.model.params.items()}
                    state.best[task] = TaskCheckpoint(step, mean, params)
    finally:
        state.write_back(model)
    return state.records, state.best


# --------------------------------------------------------------------------
# decoding
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
    Every step runs on ``model.astype(COMPUTE_DTYPE)``, a copy made per call
    unless the caller passes a model already of that dtype.
    """
    if max_len <= 0:
        return []
    model = model.astype(COMPUTE_DTYPE)
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


# --------------------------------------------------------------------------
# verification harnesses
# --------------------------------------------------------------------------


def grad_check(
    model: Seq2SeqModel,
    instance: TrainingInstance,
    coords_per_param: int = 4,
    h_base: float = 1e-4,
    floor: float = 1e-6,
    seed: int = 0,
) -> float:
    """Max relative error between analytic gradients and central differences of
    the instance's own objective loss over a random coordinate subset of every parameter."""
    _, _, grads = loss_and_grads(model, [instance], instance.objective)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, p in model.params.items():
        for _ in range(coords_per_param):
            idx = tuple(rng.integers(0, s) for s in p.shape) if p.ndim else ()
            orig = p[idx]
            h = h_base * (1.0 + abs(orig))
            p[idx] = orig + h
            up = loss_and_grads(model, [instance], instance.objective, compute_grads=False)[0]
            p[idx] = orig - h
            down = loss_and_grads(model, [instance], instance.objective, compute_grads=False)[0]
            p[idx] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise FloatingPointError("non-finite loss during finite differences")
            fd = (up - down) / (2 * h)
            an = grads[name][idx]
            rel = abs(fd - an) / max(abs(fd), abs(an), floor)
            worst = max(worst, rel)
    return worst


def evaluate_mask_instances(
    model: Seq2SeqModel,
    instances: Sequence[TrainingInstance],
    tokenizer: SubwordTokenizer,
    margin: int = 8,
) -> dict[str, float]:
    """Decode each instance and score the two mask-protocol metrics:
    per-sentinel exact segment accuracy, and the fraction of outputs whose
    sentinel segment count matches the target's."""
    model = model.astype(COMPUTE_DTYPE)  # so that each generate call below makes no copy
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
    artifacts.write_jsonl(log, path)


def read_metrics_log(path: str | Path) -> list[StepRecord]:
    return list(artifacts.read_jsonl(path, lambda d: StepRecord(d["step"], d["objective"], d["loss"])))
