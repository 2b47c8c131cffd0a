from __future__ import annotations

import copy
import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from codepretrain import mixture as mx
from codepretrain import model as mdl
from codepretrain import objectives as obj
from codepretrain import training as tr
from codepretrain.model import ModelConfig, Seq2SeqModel, decoder_forward, encoder_forward


@pytest.fixture(scope="module")
def denoise_pool(bundled_docs, tokenizer):
    docs = [obj.clip_document(d, 16, 32) for d in bundled_docs[:60]]
    return obj.build_denoising_instances(docs, tokenizer, seed=2)


def _one_task(name, instances, control_code=""):
    """A single pool as ``finetune`` takes it: a one-task mixture and its datasets."""
    return mx.TaskMixture((mx.TaskSpec(name, len(instances), control_code),)), {name: list(instances)}


def _with_control_codes(mixture, sets, tokenizer):
    """``sets`` (datasets or validation sets, by task) with each task's control
    code prepended, as the ``finetune`` command reads them."""
    specs = {spec.name: spec for spec in mixture.tasks}
    return {name: [mx.apply_control_code(i, specs[name], tokenizer) for i in insts] for name, insts in sets.items()}


def test_zero_steps_leaves_parameters_unchanged(tiny_config, denoise_pool):
    model = Seq2SeqModel(tiny_config, seed=4)
    before = {k: v.copy() for k, v in model.params.items()}
    log = tr.pretrain(model, denoise_pool, tr.TrainSchedule(steps=0, seed=0))
    assert log == []
    for k, v in model.params.items():
        assert np.array_equal(v, before[k])


def test_pretrain_seeded_reruns_identical(tiny_config, denoise_pool):
    sched = tr.TrainSchedule(steps=12, batch_size=4, peak_lr=1e-3, seed=5)
    m1 = Seq2SeqModel(tiny_config, seed=4)
    log1 = tr.pretrain(m1, denoise_pool, sched)
    m2 = Seq2SeqModel(tiny_config, seed=4)
    log2 = tr.pretrain(m2, denoise_pool, sched)
    assert [r.to_dict() for r in log1] == [r.to_dict() for r in log2]
    for k in m1.params:
        assert np.array_equal(m1.params[k], m2.params[k])


def test_pretrain_filters_overlong_instances(tiny_config, denoise_pool, tokenizer, caplog):
    import logging

    giant = obj.TrainingInstance(
        tuple([tokenizer.cls_id] * (tiny_config.max_src_len + 40)), (5, 2), obj.MSP
    )
    model = Seq2SeqModel(tiny_config, seed=0)
    caps = f"exceeding model caps (src {tiny_config.max_src_len}, tgt {tiny_config.max_tgt_len})"
    msp = sum(i.objective == obj.MSP for i in denoise_pool) + 1
    with caplog.at_level(logging.WARNING):
        log = tr.pretrain(model, list(denoise_pool) + [giant], tr.TrainSchedule(steps=2, batch_size=4, seed=0))
    assert len(log) == 2
    assert f"MSP: dropping 1 of {msp} instances {caps}" in [r.message for r in caplog.records]
    # nothing left to train on -> clear error instead of a crash mid-run
    caplog.clear()
    with caplog.at_level(logging.WARNING), pytest.raises(ValueError, match="no instances of task 'giant' fit"):
        tr.finetune(model, *_one_task("giant", [giant]), tr.TrainSchedule(steps=1, seed=0))
    assert [r.message for r in caplog.records] == [f"giant: dropping 1 of 1 instances {caps}"]


def test_pretrain_rejects_phase_mismatch(tiny_config, tokenizer, bundled_docs):
    duals = obj.build_dual_instances([d for d in bundled_docs if d.is_bimodal][:4], tokenizer)
    model = Seq2SeqModel(tiny_config, seed=0)
    with pytest.raises(ValueError, match="DUAL_NL2PL instance passed to the denoise phase"):
        tr.pretrain(model, duals, tr.TrainSchedule(steps=1), phase="denoise")
    with pytest.raises(ValueError):
        tr.pretrain(model, duals, tr.TrainSchedule(steps=1), phase="warmup")


def test_dual_phase_trains(tiny_config, tokenizer, bundled_docs):
    docs = [obj.clip_document(d, 12, 20) for d in bundled_docs if d.is_bimodal][:20]
    duals = obj.build_dual_instances(docs, tokenizer)
    model = Seq2SeqModel(tiny_config, seed=0)
    log = tr.pretrain(model, duals, tr.TrainSchedule(steps=10, batch_size=4, seed=1), phase="dual")
    assert {r.objective for r in log} <= {obj.DUAL_NL2PL, obj.DUAL_PL2NL}


def test_metrics_log_roundtrip(tiny_config, denoise_pool, tmp_path):
    model = Seq2SeqModel(tiny_config, seed=4)
    log = tr.pretrain(model, denoise_pool, tr.TrainSchedule(steps=5, batch_size=4, seed=0))
    path = tmp_path / "metrics.jsonl"
    tr.write_metrics_log(log, path)
    back = tr.read_metrics_log(path)
    assert [r.to_dict() for r in back] == [r.to_dict() for r in log]


def test_learning_rate_schedule():
    sched = tr.TrainSchedule(steps=100, peak_lr=1.0, warmup_steps=10)
    optim = tr.Adam({}, sched)
    assert optim.learning_rate(5) == pytest.approx(0.5)
    assert optim.learning_rate(10) == pytest.approx(1.0)
    assert optim.learning_rate(55) == pytest.approx(0.5)
    assert optim.learning_rate(100) == pytest.approx(0.0)


def test_clip_gradients_caps_norm():
    grads = {"a": np.full(4, 3.0), "b": np.full(9, 4.0)}
    norm = tr.clip_gradients(grads, 1.0)
    assert norm == pytest.approx(np.sqrt(4 * 9 + 9 * 16))
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    assert total == pytest.approx(1.0)


@pytest.mark.filterwarnings("error")
def test_clip_gradients_leaves_non_finite_gradients_untouched():
    grads = {"a": np.full(4, 3.0), "b": np.full(9, 4.0)}
    grads["b"][2] = np.inf
    before = {k: v.copy() for k, v in grads.items()}
    assert tr.clip_gradients(grads, 1.0) == np.inf
    for k in grads:
        assert np.array_equal(grads[k], before[k])


def test_adam_step_returns_pre_clip_norm_and_rejects_non_finite():
    params = {"a": np.ones(4), "b": np.ones(9)}
    opt = tr.Adam(params, tr.TrainSchedule(steps=3, peak_lr=0.1))
    grads = {"a": np.full(4, 3.0), "b": np.full(9, 4.0)}
    assert opt.step(params, grads) == pytest.approx(np.sqrt(4 * 9 + 9 * 16))
    before = {k: v.copy() for k, v in params.items()}
    moments = {k: (opt.m[k].copy(), opt.v[k].copy()) for k in params}
    for bad in (np.nan, np.inf):
        grads = {"a": np.full(4, 1.0), "b": np.full(9, 1.0)}
        grads["b"][2] = bad
        with pytest.raises(tr.NonFiniteError, match="gradient norm is (nan|inf)"):
            opt.step(params, grads)
    assert opt.t == 1
    for k in params:
        assert np.array_equal(params[k], before[k])
        assert np.array_equal(opt.m[k], moments[k][0]) and np.array_equal(opt.v[k], moments[k][1])


def _reference_adam_step(opt, params, grads):
    """The allocating Adam update that the in-place, chunked one replaced, kept
    as its oracle: fresh full-size arrays at every operation."""
    norm = tr.clip_gradients(grads, tr.CLIP_NORM)
    opt.t += 1
    lr = opt.learning_rate(opt.t)
    for k, g in grads.items():
        opt.m[k] = tr.BETA1 * opt.m[k] + (1 - tr.BETA1) * g
        opt.v[k] = tr.BETA2 * opt.v[k] + (1 - tr.BETA2) * g * g
        mhat = opt.m[k] / (1 - tr.BETA1**opt.t)
        vhat = opt.v[k] / (1 - tr.BETA2**opt.t)
        params[k] -= lr * mhat / (np.sqrt(vhat) + tr.ADAM_EPS)
    return norm


@pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
def test_adam_step_matches_the_allocating_update(grad_dtype):
    """Bit for bit, over warmup and decay steps, for a 0-d parameter, one
    smaller than a chunk, one exactly a chunk long and one of several chunks
    that is no multiple of the chunk."""
    chunk = tr.ADAM_CHUNK
    shapes = {"tag.b": (), "small": (3, 5), "one": (chunk,), "several": (3, chunk // 2 + 7)}
    rng = np.random.default_rng(0)
    start = {k: rng.normal(size=shape) for k, shape in shapes.items()}
    sched = tr.TrainSchedule(steps=5, peak_lr=0.01, warmup_steps=2)
    got_params, want_params = ({k: v.copy() for k, v in start.items()} for _ in range(2))
    got_opt, want_opt = tr.Adam(got_params, sched), tr.Adam(want_params, sched)
    for step in range(4):
        # the first step's norm is under CLIP_NORM; the later ones are clipped
        scale = 1e-4 if step == 0 else 1.0
        grads = {k: (scale * rng.normal(size=shape)).astype(grad_dtype) for k, shape in shapes.items()}
        want_norm = _reference_adam_step(want_opt, want_params, {k: g.copy() for k, g in grads.items()})
        assert got_opt.step(got_params, grads) == want_norm
        assert got_opt.t == want_opt.t
        for k in shapes:
            for got, want in ((got_params, want_params), (got_opt.m, want_opt.m), (got_opt.v, want_opt.v)):
                assert got[k].dtype == want[k].dtype and got[k].shape == want[k].shape, k
                assert np.array_equal(got[k], want[k]), (step, k)


def test_adam_step_rejects_a_non_contiguous_parameter():
    """A flat view of a non-contiguous array would be a copy, so the update
    would be lost: the step raises before changing any state."""
    for name, param in (("strided", np.ones((4, 6))[:, ::2]), ("transposed", np.ones((4, 6)).T)):
        params = {"ok": np.ones(3), name: param}
        opt = tr.Adam(params, tr.TrainSchedule(steps=2))
        before = param.copy()
        with pytest.raises(ValueError, match=f"^parameter {name} is not C-contiguous"):
            opt.step(params, {k: np.ones_like(v) for k, v in params.items()})
        assert opt.t == 0 and np.array_equal(params["ok"], np.ones(3)) and np.array_equal(param, before)


def test_adam_step_makes_no_parameter_sized_temporary():
    """At vocabulary 8000 one step, clipping included, peaks below one float64
    array the size of ``embed.tok`` above the memory it started with."""
    model = Seq2SeqModel(ModelConfig(vocab_size=8000), seed=0)
    rng = np.random.default_rng(0)
    grads = {k: rng.normal(size=v.shape).astype(tr.COMPUTE_DTYPE) for k, v in model.params.items()}
    opt = tr.Adam(model.params, tr.TrainSchedule(steps=2))
    tracemalloc.start()
    try:
        opt.step(model.params, grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < model.params["embed.tok"].nbytes, peak


def test_non_finite_loss_stops_training_before_update(tiny_config, denoise_pool, tokenizer):
    model = Seq2SeqModel(tiny_config, seed=4)
    model.params["lm.b"][3] = np.inf
    before = {k: v.copy() for k, v in model.params.items()}
    msp = [i for i in denoise_pool if i.objective == obj.MSP]
    with pytest.raises(tr.NonFiniteError, match=r"^step 1 \(task spans, objective MSP\): loss is nan$"):
        tr.finetune(model, *_one_task("spans", msp), tr.TrainSchedule(steps=3, batch_size=4, seed=0))
    for k, v in model.params.items():
        assert np.array_equal(v, before[k])
    assert issubclass(tr.NonFiniteError, ValueError)


@pytest.mark.parametrize("eval_every", [0, -3])
def test_finetune_rejects_an_eval_every_below_one_before_step_1(tiny_config, oracle_pools, eval_every):
    model = Seq2SeqModel(tiny_config, seed=4)
    before = {k: v.copy() for k, v in model.params.items()}
    with pytest.raises(ValueError, match=f"^eval_every must be >= 1, got {eval_every}$"):
        tr.finetune(model, *_one_task("alpha", oracle_pools["finetune"]), tr.TrainSchedule(steps=3, batch_size=4),
                    eval_every=eval_every)
    for k, v in model.params.items():
        assert v.tobytes() == before[k].tobytes(), k


def test_generate_max_len_zero(tiny_config):
    model = Seq2SeqModel(tiny_config, seed=0)
    assert tr.generate(model, [1, 2, 3], max_len=0) == []


def test_generate_deterministic(tiny_config):
    model = Seq2SeqModel(tiny_config, seed=0)
    a = tr.generate(model, [1, 5, 9, 2], max_len=8)
    b = tr.generate(model, [1, 5, 9, 2], max_len=8)
    assert a == b
    assert len(a) <= 8


def test_beam_one_equals_greedy(tiny_config):
    model = Seq2SeqModel(tiny_config, seed=1)
    greedy = tr.generate(model, [1, 7, 4, 2], max_len=6, eos_id=2)
    beam = tr.generate(model, [1, 7, 4, 2], max_len=6, beam=1, eos_id=2)
    assert greedy == beam


def test_beam_search_runs(tiny_config):
    model = Seq2SeqModel(tiny_config, seed=1)
    out = tr.generate(model, [1, 7, 4, 2], max_len=6, beam=3, eos_id=2)
    assert isinstance(out, list)
    assert len(out) <= 6


def _reference_generate(model, source_ids, max_len, beam=1, eos_id=None):
    """The quadratic decoder generate() replaced: every step re-runs the full
    decoder over the whole prefix, one call per beam hypothesis."""
    if max_len <= 0:
        return []
    max_len = min(max_len, model.config.max_tgt_len - 1)
    src = np.asarray([source_ids], dtype=np.int64)
    src_len = np.asarray([len(source_ids)], dtype=np.int64)
    enc_out, _ = encoder_forward(model, src, src_len)
    start = model.config.pad_id

    def logits_after(dec_in):
        tgt = np.asarray([dec_in], dtype=np.int64)
        hidden, _ = decoder_forward(model, tgt, np.asarray([len(dec_in)]), enc_out, src_len)
        return hidden[-1] @ model.params["embed.tok"] + model.params["lm.b"]

    if beam <= 1:
        out = []
        while len(out) < max_len:
            nxt = int(np.argmax(logits_after([start, *out])))
            if eos_id is not None and nxt == eos_id:
                break
            out.append(nxt)
        return out
    hyps = [([], 0.0, False)]
    for _ in range(max_len):
        expanded = []
        for seq, score, finished in hyps:
            if finished:
                expanded.append((seq, score, True))
                continue
            logits = logits_after([start, *seq])
            logp = logits - logits.max()
            logp = logp - np.log(np.exp(logp).sum())
            for token_id in np.argsort(-logp)[:beam]:
                token_id = int(token_id)
                if eos_id is not None and token_id == eos_id:
                    expanded.append((seq, score + float(logp[token_id]), True))
                else:
                    expanded.append((seq + [token_id], score + float(logp[token_id]), False))
        expanded.sort(key=lambda h: -h[1])
        hyps = expanded[:beam]
        if all(finished for _, _, finished in hyps):
            break
    return hyps[0][0]


def _assert_decodes_like_reference(model, sources):
    """Lengths 1/7/40, beams 1/3/4, without an end id and with the reference's
    sixth greedy token as one, so that hypotheses finish mid-search."""
    for src in sources:
        eos_ids = (None, _reference_generate(model, src, 6)[5])
        for length in (1, 7, 40):
            for beam in (1, 3, 4):
                for eos in eos_ids:
                    want = _reference_generate(model, src, length, beam=beam, eos_id=eos)
                    got = tr.generate(model, src, length, beam=beam, eos_id=eos)
                    assert got == want, (len(src), length, beam, eos)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generate_matches_full_prefix_reference(tiny_config, seed):
    rng = np.random.default_rng(seed)
    sources = [[1, 7, 4, 2], list(rng.integers(3, tiny_config.vocab_size, size=30))]
    _assert_decodes_like_reference(Seq2SeqModel(tiny_config, seed=seed), sources)


def test_generate_matches_reference_at_large_vocab():
    cfg = ModelConfig(vocab_size=2500, d_model=128, num_heads=4, max_src_len=200, max_tgt_len=64)
    rng = np.random.default_rng(3)
    sources = [list(rng.integers(1, cfg.vocab_size, size=n)) for n in (12, 150)]
    _assert_decodes_like_reference(Seq2SeqModel(cfg, seed=3), sources)


def test_beam_wider_than_vocabulary_matches_reference():
    cfg = ModelConfig(vocab_size=3, d_model=8, num_heads=2, encoder_layers=1, decoder_layers=1,
                      feedforward_dim=16, max_src_len=16, max_tgt_len=16)
    model = Seq2SeqModel(cfg, seed=0)
    for beam in (3, 5):
        for eos in (None, 2):
            want = _reference_generate(model, [1, 2, 0, 1], 6, beam=beam, eos_id=eos)
            assert tr.generate(model, [1, 2, 0, 1], 6, beam=beam, eos_id=eos) == want


def test_top_k_orders_ties_by_id():
    logp = np.array([[0.0, -1.0, 0.0, -2.0, 0.0], [-3.0, -1.0, -1.0, -0.5, -4.0]])
    assert tr._top_k(logp, 3).tolist() == [[0, 2, 4], [3, 1, 2]]
    assert tr._top_k(logp, 9).tolist() == [[0, 2, 4, 1, 3], [3, 1, 2, 0, 4]]


@pytest.mark.parametrize("bad", [-1, 50])
def test_generate_rejects_out_of_vocabulary_source(bad):
    model = Seq2SeqModel(ModelConfig(vocab_size=50, d_model=16, num_heads=2, encoder_layers=1,
                                     decoder_layers=1, feedforward_dim=32, max_src_len=16, max_tgt_len=16))
    with pytest.raises(ValueError, match=f"source id outside vocabulary: {bad} at position 2"):
        tr.generate(model, [1, 5, bad, 2], max_len=4)


@pytest.mark.parametrize("length", [0, 161])
def test_generate_rejects_source_outside_length_caps(tiny_config, length):
    model = Seq2SeqModel(tiny_config, seed=2)
    with pytest.raises(ValueError, match=re.escape(f"source length {length} outside 1..160")):
        tr.generate(model, [1] * length, max_len=4)


def test_overfit_model_reproduces_memorized_targets(tokenizer, small_config, bundled_docs):
    docs = [obj.clip_document(d, 12, 20) for d in bundled_docs[:8]]
    instances = []
    for i, doc in enumerate(docs):
        words = len(doc.nl_tokens) + len(doc.code_tokens)
        plan = obj.sample_spans(words, 0.15, obj.document_rng(7, i), min_budget=1)
        instances.append(obj.build_msp(doc, tokenizer, plan))
    model = Seq2SeqModel(small_config, seed=0)
    tr.pretrain(model, instances, tr.TrainSchedule(steps=400, batch_size=8, peak_lr=2e-3, seed=0))
    for inst in instances:
        out = tr.generate(
            model, inst.source_ids, max_len=len(inst.target_ids) + 8, eos_id=tokenizer.sep_id
        )
        assert out == list(inst.target_ids[:-1])


def test_finetune_multitask_tracks_best_checkpoints(tokenizer, tiny_config):
    def make_pairs(word, n):
        out = []
        for i in range(n):
            src = (tokenizer.cls_id, *tokenizer.encode(f"{word} {i}", use_specials=False), tokenizer.sep_id)
            tgt = (*tokenizer.encode(word, use_specials=False), tokenizer.sep_id)
            out.append(obj.TrainingInstance(src, tgt, obj.FINETUNE))
        return out

    datasets = {"alpha": make_pairs("alpha", 12), "beta": make_pairs("beta", 4)}
    validation = {"alpha": datasets["alpha"][:2], "beta": datasets["beta"][:2]}
    mixture = mx.TaskMixture(
        tasks=(
            mx.TaskSpec("alpha", 12, control_code="Do alpha:"),
            mx.TaskSpec("beta", 4, control_code="Do beta:"),
        ),
        alpha=0.7,
    )
    model = Seq2SeqModel(tiny_config, seed=5)
    log, best = tr.finetune(
        model, mixture, _with_control_codes(mixture, datasets, tokenizer),
        tr.TrainSchedule(steps=30, batch_size=4, seed=0),
        validation=_with_control_codes(mixture, validation, tokenizer), eval_every=10,
    )
    assert {r.objective for r in log} <= {"alpha", "beta"}
    assert set(best) == {"alpha", "beta"}
    for ckpt in best.values():
        assert ckpt.metric >= 0.0
        assert set(ckpt.params) == set(model.params)


# --------------------------------------------------------------------------
# the mixture loop that the one loop replaced, kept as the oracle of pretrain and finetune
# --------------------------------------------------------------------------


def _float32_copy(model):
    """The float32 masters a run trains: a cast of the caller's float64 model."""
    return Seq2SeqModel(model.config, {k: v.astype(np.float32) for k, v in model.params.items()})


def _reference_loss_for(model, batch, objective, drop_rng=None, compute_grads=True):
    if objective == obj.IT:
        return mdl.tagging_loss_and_grads(model, batch, drop_rng=drop_rng, compute_grads=compute_grads)
    return mdl.seq2seq_loss_and_grads(model, batch, drop_rng=drop_rng, compute_grads=compute_grads)


def _reference_finetune_multitask(model, mixture, datasets, tokenizer, schedule, validation, eval_every):
    prepared = {}
    for spec in mixture.tasks:
        pool = [mx.apply_control_code(inst, spec, tokenizer) for inst in datasets[spec.name]]
        prepared[spec.name] = tr._filter_to_caps(pool, model, spec.name)
    rng = np.random.default_rng(schedule.seed)
    drop_rng = np.random.default_rng(schedule.seed + 1) if model.config.dropout > 0 else None
    masters = _float32_copy(model)
    opt = tr.Adam(masters.params, schedule)
    records = []
    best = {}

    def validate(step):
        for spec in mixture.tasks:
            val = validation.get(spec.name)
            if not val:
                continue
            prepped = [mx.apply_control_code(inst, spec, tokenizer) for inst in val]
            # scored in batches of the schedule's size, as float32 sums depend on the batch
            loss, count = 0.0, 0
            for i in range(0, len(prepped), schedule.batch_size):
                part = prepped[i : i + schedule.batch_size]
                part_loss, part_count, _ = _reference_loss_for(masters, part, part[0].objective, compute_grads=False)
                loss, count = loss + part_loss, count + part_count
            mean = loss / max(count, 1)
            if spec.name not in best or mean < best[spec.name].metric:
                best[spec.name] = tr.TaskCheckpoint(
                    step, mean, {k: v.astype(np.float64) for k, v in masters.params.items()}
                )

    for step in range(1, schedule.steps + 1):
        task = mx.sample_task(mixture, rng)
        batch = tr._draw_batch(prepared[task], schedule.batch_size, rng)
        loss, count, grads = _reference_loss_for(masters, batch, batch[0].objective, drop_rng)
        opt.step(masters.params, grads)
        records.append(tr.StepRecord(step, task, loss / max(count, 1)))
        if validation and (step % eval_every == 0 or step == schedule.steps):
            validate(step)
    if records:
        model.params.update((k, v.astype(np.float64)) for k, v in masters.params.items())
    return records, best


def _finetune_pairs(tokenizer, word, n):
    out = []
    for i in range(n):
        src = (tokenizer.cls_id, *tokenizer.encode(f"{word} {i}", use_specials=False), tokenizer.sep_id)
        tgt = (*tokenizer.encode(word, use_specials=False), tokenizer.sep_id)
        out.append(obj.TrainingInstance(src, tgt, obj.FINETUNE))
    return out


def _two_task_mixture():
    return mx.TaskMixture(
        tasks=(mx.TaskSpec("alpha", 12, control_code="Do alpha:"), mx.TaskSpec("beta", 4, control_code="Do beta:")),
        alpha=0.7,
    )


def _assert_same_run(got_log, got_model, want_log, want_model):
    assert [r.to_dict() for r in got_log] == [r.to_dict() for r in want_log]
    assert set(got_model.params) == set(want_model.params)
    for k in want_model.params:
        assert np.array_equal(got_model.params[k], want_model.params[k]), k


def _assert_same_best(got_best, want_best):
    assert set(got_best) == set(want_best)
    for task, ckpt in want_best.items():
        assert got_best[task].step == ckpt.step
        assert got_best[task].metric == pytest.approx(ckpt.metric, rel=1e-12, abs=0)
        for k, v in ckpt.params.items():
            assert np.array_equal(got_best[task].params[k], v)


@pytest.fixture(scope="module")
def oracle_pools(bundled_docs, tokenizer, denoise_pool):
    bimodal = [obj.clip_document(d, 12, 20) for d in bundled_docs if d.is_bimodal][:20]
    tagging = [obj.build_it(obj.clip_document(d, 12, 20), tokenizer) for d in bundled_docs[:20]]
    return {
        "denoise": list(denoise_pool),
        "span-only": [i for i in denoise_pool if i.objective == obj.MSP],
        "dual": obj.build_dual_instances(bimodal, tokenizer),
        "tagging": tagging,
        "finetune": _finetune_pairs(tokenizer, "alpha", 10),
    }


@pytest.mark.parametrize(
    "pool, phase, dropout",
    [
        ("denoise", "denoise", 0.0),
        ("denoise", "denoise", 0.1),
        ("span-only", "denoise", 0.0),
        ("dual", "dual", 0.0),
        ("dual", "dual", 0.1),
    ],
)
def test_pretrain_matches_reference_loop(tiny_config, tokenizer, oracle_pools, pool, phase, dropout):
    """A phase is the uniform mixture of its objectives' non-empty pools,
    trained as ``finetune`` trains a mixture."""
    cfg = dataclasses.replace(tiny_config, dropout=dropout)
    sched = tr.TrainSchedule(steps=8, batch_size=4, peak_lr=1e-3, warmup_steps=2, seed=3)
    want_model, got_model = Seq2SeqModel(cfg, seed=1), Seq2SeqModel(cfg, seed=1)
    allowed = obj.DENOISING_TASKS if phase == "denoise" else tr.DUAL_TASKS
    datasets = {o: [i for i in oracle_pools[pool] if i.objective == o] for o in allowed}
    datasets = {o: d for o, d in datasets.items() if tr._filter_to_caps(d, want_model, o)}
    mixture = mx.TaskMixture(tuple(mx.TaskSpec(o, len(d)) for o, d in datasets.items()), alpha=0.0)
    want, _ = _reference_finetune_multitask(want_model, mixture, datasets, tokenizer, sched, {}, eval_every=1)
    got = tr.pretrain(got_model, oracle_pools[pool], sched, phase)
    _assert_same_run(got, got_model, want, want_model)


def test_pretrain_leaves_out_an_objective_the_caps_empty(tiny_config, denoise_pool, caplog):
    """Every MIP instance is too long for the model: the phase trains on a
    uniform mixture of MSP and IT, as if no MIP instance had been given."""
    import logging

    pad = (5,) * tiny_config.max_src_len
    overlong = [dataclasses.replace(i, source_ids=i.source_ids + pad) if i.objective == obj.MIP else i
                for i in denoise_pool]
    sched = tr.TrainSchedule(steps=12, batch_size=4, seed=0)
    got_model, want_model = Seq2SeqModel(tiny_config, seed=2), Seq2SeqModel(tiny_config, seed=2)
    with caplog.at_level(logging.WARNING):
        got = tr.pretrain(got_model, overlong, sched)
    assert any("dropping objective MIP from the denoise phase" in r.message for r in caplog.records)
    assert {r.objective for r in got} == {obj.MSP, obj.IT}
    want = tr.pretrain(want_model, [i for i in denoise_pool if i.objective != obj.MIP], sched)
    _assert_same_run(got, got_model, want, want_model)


@pytest.mark.parametrize("pool", ["finetune", "dual", "tagging"])
def test_single_pool_finetune_matches_reference_loop(tiny_config, tokenizer, oracle_pools, pool):
    """A single pool is a one-task mixture; the tagging pool trains and
    validates through the tagging head."""
    mixture, datasets = _one_task(pool, oracle_pools[pool], control_code=f"Do {pool}:")
    validation = {pool: oracle_pools[pool][:6]}
    sched = tr.TrainSchedule(steps=8, batch_size=4, peak_lr=2e-3, seed=2)
    want_model, got_model = Seq2SeqModel(tiny_config, seed=6), Seq2SeqModel(tiny_config, seed=6)
    want, want_best = _reference_finetune_multitask(
        want_model, mixture, datasets, tokenizer, sched, validation, eval_every=3
    )
    got, got_best = tr.finetune(got_model, mixture, _with_control_codes(mixture, datasets, tokenizer), sched,
                                validation=_with_control_codes(mixture, validation, tokenizer), eval_every=3)
    _assert_same_run(got, got_model, want, want_model)
    assert set(want_best) == {pool}
    _assert_same_best(got_best, want_best)


def test_multitask_matches_reference_loop(tokenizer, tiny_config):
    datasets = {"alpha": _finetune_pairs(tokenizer, "alpha", 12), "beta": _finetune_pairs(tokenizer, "beta", 4)}
    # validation sets larger than a batch, so the chunked scoring spans several chunks
    validation = {"alpha": datasets["alpha"][:7], "beta": datasets["beta"] + datasets["alpha"][:3]}
    sched = tr.TrainSchedule(steps=12, batch_size=3, peak_lr=2e-3, seed=4)
    want_model, got_model = Seq2SeqModel(tiny_config, seed=5), Seq2SeqModel(tiny_config, seed=5)
    want, want_best = _reference_finetune_multitask(
        want_model, _two_task_mixture(), datasets, tokenizer, sched, validation, eval_every=5
    )
    mixture = _two_task_mixture()
    got, got_best = tr.finetune(
        got_model, mixture, _with_control_codes(mixture, datasets, tokenizer), sched,
        validation=_with_control_codes(mixture, validation, tokenizer), eval_every=5,
    )
    _assert_same_run(got, got_model, want, want_model)
    assert set(want_best) == {"alpha", "beta"}
    _assert_same_best(got_best, want_best)


def _finetune_run(name, cfg, tokenizer):
    model = Seq2SeqModel(cfg, seed=3)
    sched = tr.TrainSchedule(steps=6, batch_size=4, peak_lr=2e-3, seed=1)
    if name == "seq2seq":  # one pool of generation pairs, as a one-task mixture
        mixture, datasets = _one_task("alpha", _finetune_pairs(tokenizer, "alpha", 10))
    else:
        mixture = _two_task_mixture()
        datasets = {"alpha": _finetune_pairs(tokenizer, "alpha", 12), "beta": _finetune_pairs(tokenizer, "beta", 4)}
    log, _ = tr.finetune(model, mixture, _with_control_codes(mixture, datasets, tokenizer), sched)
    return [r.to_dict() for r in log], model.params


@pytest.mark.parametrize("name", ["seq2seq", "multitask"])
def test_finetune_honours_dropout(tokenizer, tiny_config, name):
    plain, _ = _finetune_run(name, tiny_config, tokenizer)
    dropped_cfg = dataclasses.replace(tiny_config, dropout=0.5)
    first, first_params = _finetune_run(name, dropped_cfg, tokenizer)
    second, second_params = _finetune_run(name, dropped_cfg, tokenizer)
    assert [r["loss"] for r in first] != [r["loss"] for r in plain]
    assert first == second
    for k in first_params:
        assert np.array_equal(first_params[k], second_params[k])


def test_finetune_rejects_a_task_that_mixes_tagging_with_sequence_instances(tiny_config, tokenizer, oracle_pools):
    model = Seq2SeqModel(tiny_config, seed=0)
    before = {k: v.copy() for k, v in model.params.items()}
    sched = tr.TrainSchedule(steps=2, batch_size=4, seed=0)
    message = "task 'denoise' mixes the tagging and sequence losses: its instances have objectives IT, MIP, MSP"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tr.finetune(model, *_one_task("denoise", oracle_pools["denoise"]), sched)
    # a validation set counts as the task's instances too
    with pytest.raises(ValueError, match="task 'tagging' mixes .* objectives FINETUNE, IT$"):
        tr.finetune(model, *_one_task("tagging", oracle_pools["tagging"]), sched,
                    validation={"tagging": oracle_pools["finetune"][:2]})
    for k, v in model.params.items():
        assert np.array_equal(v, before[k])
    # every objective but IT takes the sequence loss, so they may share a task
    sequence = oracle_pools["span-only"][:4] + oracle_pools["dual"][:4] + oracle_pools["finetune"][:4]
    sequence += [i for i in oracle_pools["denoise"] if i.objective == obj.MIP][:4]
    log, _ = tr.finetune(model, *_one_task("sequence", sequence), sched)
    assert [r.objective for r in log] == ["sequence", "sequence"]


def test_multitask_validation_drops_overlong_records(tokenizer, tiny_config, caplog):
    import logging

    datasets = {"alpha": _finetune_pairs(tokenizer, "alpha", 12), "beta": _finetune_pairs(tokenizer, "beta", 4)}
    overlong = obj.TrainingInstance(
        (tokenizer.cls_id, *[5] * (tiny_config.max_src_len + 40), tokenizer.sep_id), (5, 2), obj.FINETUNE
    )
    validation = {"alpha": datasets["alpha"][:2] + [overlong], "beta": datasets["beta"][:2]}
    model, mixture = Seq2SeqModel(tiny_config, seed=5), _two_task_mixture()
    with caplog.at_level(logging.WARNING):
        log, best = tr.finetune(
            model, mixture, _with_control_codes(mixture, datasets, tokenizer),
            tr.TrainSchedule(steps=4, batch_size=2, seed=0),
            validation=_with_control_codes(mixture, validation, tokenizer), eval_every=2,
        )
    assert len(log) == 4
    assert any(r.message.startswith("alpha validation: dropping 1 of 3 instances exceeding model caps")
               for r in caplog.records)
    assert set(best) == {"alpha", "beta"}


# --------------------------------------------------------------------------
# the training state between steps
# --------------------------------------------------------------------------


def _uniform_mixture(instances):
    """The uniform mixture of the denoising objectives that ``instances`` hold, as ``pretrain`` builds the phase."""
    pools = {o: [i for i in instances if i.objective == o] for o in obj.DENOISING_TASKS}
    pools = {o: p for o, p in pools.items() if p}
    return mx.TaskMixture(tuple(mx.TaskSpec(o, len(p)) for o, p in pools.items()), alpha=0.0), pools


def _finetune_setup(tokenizer):
    """The two-task mixture, its pools and its validation sets, with control codes prepended."""
    mixture = _two_task_mixture()
    datasets = {"alpha": _finetune_pairs(tokenizer, "alpha", 12), "beta": _finetune_pairs(tokenizer, "beta", 4)}
    validation = {"alpha": datasets["alpha"][:5], "beta": datasets["beta"][:3]}
    return (mixture, _with_control_codes(mixture, datasets, tokenizer),
            _with_control_codes(mixture, validation, tokenizer))


def _advance(state, mixture, pools, held_out, steps, eval_every):
    """``state`` advanced by ``steps`` steps, validated as ``finetune`` validates."""
    schedule = state.opt.schedule
    for _ in range(steps):
        step = state.advance(mixture, pools).step
        if step % eval_every and step != schedule.steps:
            continue
        for task, val in held_out.items():
            mean = tr._mean_loss(state.model, val, schedule.batch_size)
            if task not in state.best or mean < state.best[task].metric:
                params = {k: v.astype(np.float64) for k, v in state.model.params.items()}
                state.best[task] = tr.TaskCheckpoint(step, mean, params)
    return state


def _assert_same_result(records, params, best, want):
    """A run's records, parameters and best checkpoints are those of the state
    ``want``, bit for bit: ``params`` are its masters, or their float64 cast
    that a run writes back."""
    assert [r.to_dict() for r in records] == [r.to_dict() for r in want.records]
    for k, v in want.model.params.items():
        assert params[k].tobytes() == v.astype(params[k].dtype).tobytes(), k
    assert set(best) == set(want.best)
    for task, ckpt in want.best.items():
        assert (best[task].step, best[task].metric) == (ckpt.step, ckpt.metric)
        for k, v in ckpt.params.items():
            assert best[task].params[k].tobytes() == v.tobytes(), (task, k)


def _assert_same_state(got, want):
    _assert_same_result(got.records, got.model.params, got.best, want)
    for k in want.model.params:
        for got_arrays, want_arrays in ((got.opt.m, want.opt.m), (got.opt.v, want.opt.v)):
            assert got_arrays[k].tobytes() == want_arrays[k].tobytes(), k
    assert got.opt.t == want.opt.t
    for gen in ("rng", "drop_rng"):
        assert getattr(got, gen).bit_generator.state == getattr(want, gen).bit_generator.state, gen


@pytest.mark.parametrize("pool, dropout", [("denoise", 0.0), ("denoise", 0.1), ("tagging", 0.1)])
def test_write_back_gives_the_caller_the_cast_of_the_masters(tiny_config, oracle_pools, pool, dropout):
    """The run trains float32 masters with float32 moments and no other copy
    of the parameters.  Before a step, writing back leaves the caller's
    float64 model as it was; after steps, it makes the model the float64
    cast of the masters, bit for bit."""
    cfg = dataclasses.replace(tiny_config, dropout=dropout)
    model = Seq2SeqModel(cfg, seed=1)
    before = {k: v.copy() for k, v in model.params.items()}
    state = tr.TrainState.start(model, tr.TrainSchedule(steps=3, batch_size=4, seed=3))
    mixture, pools = _uniform_mixture(oracle_pools[pool])
    state.write_back(model)
    for k, v in model.params.items():
        assert v.tobytes() == before[k].tobytes(), k
    for _ in range(3):
        state.advance(mixture, pools)
    for arrays in (state.model.params, state.opt.m, state.opt.v):
        assert {a.dtype for a in arrays.values()} == {np.dtype(np.float32)}
    state.write_back(model)
    for k, p in state.model.params.items():
        want = p.astype(np.float64)
        assert model.params[k].dtype == want.dtype and model.params[k].tobytes() == want.tobytes(), k
    assert any(not np.array_equal(model.params[k], v) for k, v in before.items())


def test_a_compute_dtype_model_is_its_own_masters(tiny_config, denoise_pool, astype_copies, monkeypatch):
    """With ``COMPUTE_DTYPE`` float64, as the golden pipeline pin runs, a
    float64 model is trained in place: the state's masters are the model,
    Adam's moments are float64 and no parameter copy is made."""
    monkeypatch.setattr(tr, "COMPUTE_DTYPE", np.float64)
    model = Seq2SeqModel(tiny_config, seed=4)
    arrays, before = dict(model.params), {k: v.copy() for k, v in model.params.items()}
    state = tr.TrainState.start(model, tr.TrainSchedule(steps=3, batch_size=4, seed=0))
    assert state.model is model
    mixture, pools = _uniform_mixture(denoise_pool)
    for _ in range(3):
        state.advance(mixture, pools)
    state.write_back(model)
    assert all(model.params[k] is v for k, v in arrays.items())
    assert any(not np.array_equal(v, before[k]) for k, v in arrays.items())
    assert {a.dtype for a in (*state.opt.m.values(), *state.opt.v.values())} == {np.dtype(np.float64)}
    tr.pretrain(model, denoise_pool, tr.TrainSchedule(steps=2, batch_size=4, seed=1))
    assert astype_copies == [] and all(model.params[k] is v for k, v in arrays.items())


@pytest.mark.parametrize("run", ["pretrain", "finetune"])
def test_a_state_copied_mid_run_continues_bit_for_bit(tiny_config, tokenizer, oracle_pools, run):
    """A deep copy taken after k steps and the state it was copied from each
    go on to step n, and both end where a run of n steps at once ends: the
    state holds everything a step reads.  The run of n steps is the run that
    ``pretrain`` (a denoise phase) or ``finetune`` (two tasks, validated every
    3 steps) makes."""
    cfg = dataclasses.replace(tiny_config, dropout=0.1)
    n, k, eval_every = 9, 4, 3
    sched = tr.TrainSchedule(steps=n, batch_size=4, peak_lr=2e-3, warmup_steps=2, seed=7)
    held_out = {}
    if run == "pretrain":
        mixture, pools = _uniform_mixture(oracle_pools["denoise"])
    else:
        mixture, pools, held_out = _finetune_setup(tokenizer)
    def advanced(state, steps):
        return _advance(state, mixture, pools, held_out, steps, eval_every)

    state = advanced(tr.TrainState.start(Seq2SeqModel(cfg, seed=2), sched), k)
    assert bool(state.best) == (run == "finetune")  # the copy carries validated checkpoints
    twin = copy.deepcopy(state)
    advanced(state, n - k)
    advanced(twin, n - k)
    whole = advanced(tr.TrainState.start(Seq2SeqModel(cfg, seed=2), sched), n)
    _assert_same_state(twin, state)
    _assert_same_state(state, whole)
    reference = Seq2SeqModel(cfg, seed=2)
    if run == "pretrain":
        records, best = tr.pretrain(reference, oracle_pools["denoise"], sched), {}
    else:
        records, best = tr.finetune(reference, mixture, pools, sched, held_out, eval_every)
    _assert_same_result(records, reference.params, best, whole)
