from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from codepretrain import mixture as mx
from codepretrain import model as mdl
from codepretrain import objectives as obj
from codepretrain import synth
from codepretrain import training as tr
from codepretrain.model import ModelConfig, Seq2SeqModel, decoder_forward, encoder_forward, forward_lm


@pytest.fixture(scope="module")
def denoise_pool(bundled_docs, tokenizer):
    docs = [obj.clip_document(d, 16, 32) for d in bundled_docs[:60]]
    return obj.build_denoising_instances(docs, tokenizer, seed=2)


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
    with caplog.at_level(logging.WARNING):
        log = tr.pretrain(model, list(denoise_pool) + [giant], tr.TrainSchedule(steps=2, batch_size=4, seed=0))
    assert len(log) == 2
    assert any("exceeding model caps" in r.message for r in caplog.records)
    # nothing left to train on -> clear error instead of a crash mid-run
    with pytest.raises(ValueError):
        tr.finetune_seq2seq(model, [giant], tr.TrainSchedule(steps=1, seed=0))


def test_pretrain_rejects_phase_mismatch(tiny_config, tokenizer, bundled_docs):
    duals = obj.build_dual_instances([d for d in bundled_docs if d.is_bimodal][:4], tokenizer)
    model = Seq2SeqModel(tiny_config, seed=0)
    with pytest.raises(tr.InstanceObjectiveError):
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
    opt = tr.Adam(params, tr.TrainSchedule(steps=3, peak_lr=0.1, clip_norm=1.0))
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


def test_non_finite_loss_stops_training_before_update(tiny_config, denoise_pool):
    model = Seq2SeqModel(tiny_config, seed=4)
    model.params["lm.b"][3] = np.inf
    before = {k: v.copy() for k, v in model.params.items()}
    msp = [i for i in denoise_pool if i.objective == obj.MSP]
    with pytest.raises(tr.NonFiniteError, match=r"^step 1 \(objective MSP\): loss is nan$"):
        tr.finetune_seq2seq(model, msp, tr.TrainSchedule(steps=3, batch_size=4, seed=0))
    for k, v in model.params.items():
        assert np.array_equal(v, before[k])
    assert issubclass(tr.NonFiniteError, ValueError)


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
        return hidden[0, -1] @ model.params["lm.w"] + model.params["lm.b"]

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


def test_first_step_distribution_matches_teacher_forcing(tiny_config):
    model = Seq2SeqModel(tiny_config, seed=4)
    src = [1, 9, 8, 7, 2]
    dist = tr.first_step_distribution(model, src)
    np.testing.assert_allclose(dist, forward_lm(model, src, [5])[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad", [-1, 50])
def test_generate_rejects_out_of_vocabulary_source(bad):
    model = Seq2SeqModel(ModelConfig(vocab_size=50, d_model=16, num_heads=2, encoder_layers=1,
                                     decoder_layers=1, feedforward_dim=32, max_src_len=16, max_tgt_len=16))
    with pytest.raises(ValueError, match=f"source id outside vocabulary: {bad} at position 2"):
        tr.generate(model, [1, 5, bad, 2], max_len=4)
    with pytest.raises(ValueError, match="source id outside vocabulary"):
        tr.first_step_distribution(model, [bad])


def test_classify_unigram_single_label(tiny_config):
    model = Seq2SeqModel(tiny_config, seed=2)
    assert tr.classify_unigram(model, [1, 4, 2], label_ids=[17]) == 17
    with pytest.raises(ValueError):
        tr.classify_unigram(model, [1, 4, 2], label_ids=[])


def test_embed_dimension_and_self_similarity(tiny_config):
    model = Seq2SeqModel(tiny_config, seed=2)
    e1 = tr.embed_last_state(model, [1, 9, 8, 2])
    assert e1.shape == (tiny_config.d_model,)
    e2 = tr.embed_last_state(model, [1, 9, 8, 2])
    assert tr.cosine_similarity(e1, e2) == pytest.approx(1.0)


def test_unigram_classifier_separable_set(tokenizer, tiny_config):
    # 20 synthetic examples, label decided by a marker token in the source
    zero_id = tokenizer.encode("0", use_specials=False)
    one_id = tokenizer.encode("1", use_specials=False)
    assert len(zero_id) == 1 and len(one_id) == 1
    label_ids = [zero_id[0], one_id[0]]
    rng = np.random.default_rng(0)
    instances = []
    golds = []
    for i in range(20):
        label = i % 2
        marker = "left" if label == 0 else "right"
        payload = tokenizer.encode(f"{marker} value {int(rng.integers(100))}", use_specials=False)
        source = (tokenizer.cls_id, *payload, tokenizer.sep_id)
        target = (label_ids[label], tokenizer.sep_id)
        instances.append(obj.TrainingInstance(source, target, obj.FINETUNE))
        golds.append(label)
    model = Seq2SeqModel(tiny_config, seed=3)
    tr.finetune_seq2seq(model, instances, tr.TrainSchedule(steps=120, batch_size=8, peak_lr=2e-3, seed=0))
    preds = [
        0 if tr.classify_unigram(model, inst.source_ids, label_ids) == label_ids[0] else 1
        for inst in instances
    ]
    assert preds == golds


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


def test_clone_pairs_score_above_random_pairs(mask_protocol, tokenizer):
    """After identifier-mask-inclusive pre-training, rename-only clones embed
    closer than unrelated snippets."""
    model = mask_protocol["joint"]
    docs = mask_protocol["eval_docs"]
    rng = np.random.default_rng(12)

    def source_ids(doc):
        ids = [tokenizer.cls_id, tokenizer.sep_id]
        for t in doc.code_tokens:
            ids.extend(tokenizer.encode(t, use_specials=False))
        ids.append(tokenizer.sep_id)
        return ids[:60]

    clone_sims = []
    random_sims = []
    for i, doc in enumerate(docs[:10]):
        clone = synth.rename_identifiers(doc, rng)
        e_doc = tr.embed_last_state(model, source_ids(doc))
        e_clone = tr.embed_last_state(model, source_ids(clone))
        clone_sims.append(tr.cosine_similarity(e_doc, e_clone))
        other = docs[(i + 5) % len(docs)]
        e_other = tr.embed_last_state(model, source_ids(other))
        random_sims.append(tr.cosine_similarity(e_doc, e_other))
    assert np.mean(clone_sims) > np.mean(random_sims)


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
    log, best = tr.finetune_multitask(
        model, mixture, datasets, tokenizer, tr.TrainSchedule(steps=30, batch_size=4, seed=0),
        validation=validation, eval_every=10,
    )
    assert {r.objective for r in log} <= {"alpha", "beta"}
    assert set(best) == {"alpha", "beta"}
    for ckpt in best.values():
        assert ckpt.metric >= 0.0
        assert set(ckpt.params) == set(model.params)


# --------------------------------------------------------------------------
# the four training loops that the one loop replaced, kept as its oracle
# --------------------------------------------------------------------------


def _reference_loss_for(model, batch, objective, drop_rng):
    if objective == obj.IT:
        return mdl.tagging_loss_and_grads(model, batch, drop_rng=drop_rng)
    return mdl.seq2seq_loss_and_grads(model, batch, drop_rng=drop_rng)


def _reference_pretrain(model, instances, schedule, phase="denoise"):
    allowed = obj.DENOISING_TASKS if phase == "denoise" else tr.DUAL_TASKS
    pools = {o: [] for o in allowed}
    for inst in instances:
        pools[inst.objective].append(inst)
    for o in allowed:
        pools[o] = tr._filter_to_caps(pools[o], model)
    available = [o for o in allowed if pools[o]]
    rng = np.random.default_rng(schedule.seed)
    drop_rng = np.random.default_rng(schedule.seed + 1) if model.config.dropout > 0 else None
    opt = tr.Adam(model.params, schedule)
    records = []
    for step in range(1, schedule.steps + 1):
        if phase == "denoise":
            objective = obj.pick_denoising_task(rng)
        else:
            objective = tr.DUAL_TASKS[rng.integers(2)]
        if not pools[objective]:
            objective = available[int(rng.integers(len(available)))]
        batch = tr._draw_batch(pools[objective], schedule.batch_size, rng)
        loss, count, grads = _reference_loss_for(model, batch, objective, drop_rng)
        opt.step(model.params, grads)
        records.append(tr.StepRecord(step, objective, loss / max(count, 1)))
    return records


def _reference_finetune_seq2seq(model, instances, schedule):
    pool = tr._filter_to_caps(list(instances), model)
    rng = np.random.default_rng(schedule.seed)
    opt = tr.Adam(model.params, schedule)
    records = []
    for step in range(1, schedule.steps + 1):
        batch = tr._draw_batch(pool, schedule.batch_size, rng)
        loss, count, grads = mdl.seq2seq_loss_and_grads(model, batch)
        opt.step(model.params, grads)
        records.append(tr.StepRecord(step, batch[0].objective, loss / max(count, 1)))
    return records


def _reference_finetune_tagging(model, instances, schedule):
    pool = tr._filter_to_caps(list(instances), model)
    rng = np.random.default_rng(schedule.seed)
    opt = tr.Adam(model.params, schedule)
    records = []
    for step in range(1, schedule.steps + 1):
        batch = tr._draw_batch(pool, schedule.batch_size, rng)
        loss, count, grads = mdl.tagging_loss_and_grads(model, batch)
        opt.step(model.params, grads)
        records.append(tr.StepRecord(step, obj.IT, loss / max(count, 1)))
    return records


def _reference_finetune_multitask(model, mixture, datasets, tokenizer, schedule, validation, eval_every):
    prepared = {}
    for spec in mixture.tasks:
        pool = [mx.apply_control_code(inst, spec, tokenizer) for inst in datasets[spec.name]]
        prepared[spec.name] = tr._filter_to_caps(pool, model)
    rng = np.random.default_rng(schedule.seed)
    opt = tr.Adam(model.params, schedule)
    records = []
    best = {}

    def validate(step):
        for spec in mixture.tasks:
            val = validation.get(spec.name)
            if not val:
                continue
            prepped = [mx.apply_control_code(inst, spec, tokenizer) for inst in val]
            loss, count, _ = mdl.seq2seq_loss_and_grads(model, prepped, compute_grads=False)
            mean = loss / max(count, 1)
            if spec.name not in best or mean < best[spec.name].metric:
                best[spec.name] = tr.TaskCheckpoint(
                    spec.name, step, mean, {k: v.copy() for k, v in model.params.items()}
                )

    for step in range(1, schedule.steps + 1):
        task = mx.sample_task(mixture, rng)
        batch = tr._draw_batch(prepared[task], schedule.batch_size, rng)
        loss, count, grads = mdl.seq2seq_loss_and_grads(model, batch)
        opt.step(model.params, grads)
        records.append(tr.StepRecord(step, task, loss / max(count, 1)))
        if validation and (step % eval_every == 0 or step == schedule.steps):
            validate(step)
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
def test_pretrain_matches_reference_loop(tiny_config, oracle_pools, pool, phase, dropout):
    cfg = dataclasses.replace(tiny_config, dropout=dropout)
    sched = tr.TrainSchedule(steps=8, batch_size=4, peak_lr=1e-3, warmup_steps=2, seed=3)
    want_model, got_model = Seq2SeqModel(cfg, seed=1), Seq2SeqModel(cfg, seed=1)
    want = _reference_pretrain(want_model, oracle_pools[pool], sched, phase)
    got = tr.pretrain(got_model, oracle_pools[pool], sched, phase)
    _assert_same_run(got, got_model, want, want_model)


@pytest.mark.parametrize(
    "pool, new, reference",
    [
        ("finetune", tr.finetune_seq2seq, _reference_finetune_seq2seq),
        ("dual", tr.finetune_seq2seq, _reference_finetune_seq2seq),
        ("tagging", tr.finetune_tagging, _reference_finetune_tagging),
    ],
)
def test_single_pool_finetune_matches_reference_loop(tiny_config, oracle_pools, pool, new, reference):
    sched = tr.TrainSchedule(steps=8, batch_size=4, peak_lr=2e-3, seed=2)
    want_model, got_model = Seq2SeqModel(tiny_config, seed=6), Seq2SeqModel(tiny_config, seed=6)
    want = reference(want_model, oracle_pools[pool], sched)
    got = new(got_model, oracle_pools[pool], sched)
    _assert_same_run(got, got_model, want, want_model)


def test_multitask_matches_reference_loop(tokenizer, tiny_config):
    datasets = {"alpha": _finetune_pairs(tokenizer, "alpha", 12), "beta": _finetune_pairs(tokenizer, "beta", 4)}
    # validation sets larger than a batch, so the chunked scoring spans several chunks
    validation = {"alpha": datasets["alpha"][:7], "beta": datasets["beta"] + datasets["alpha"][:3]}
    sched = tr.TrainSchedule(steps=12, batch_size=3, peak_lr=2e-3, seed=4)
    want_model, got_model = Seq2SeqModel(tiny_config, seed=5), Seq2SeqModel(tiny_config, seed=5)
    want, want_best = _reference_finetune_multitask(
        want_model, _two_task_mixture(), datasets, tokenizer, sched, validation, eval_every=5
    )
    got, got_best = tr.finetune_multitask(
        got_model, _two_task_mixture(), datasets, tokenizer, sched, validation=validation, eval_every=5
    )
    _assert_same_run(got, got_model, want, want_model)
    assert set(got_best) == set(want_best) == {"alpha", "beta"}
    for task, ckpt in want_best.items():
        assert got_best[task].step == ckpt.step
        assert got_best[task].metric == pytest.approx(ckpt.metric, rel=1e-12, abs=0)
        for k, v in ckpt.params.items():
            assert np.array_equal(got_best[task].params[k], v)


def _finetune_run(name, cfg, tokenizer):
    model = Seq2SeqModel(cfg, seed=3)
    sched = tr.TrainSchedule(steps=6, batch_size=4, peak_lr=2e-3, seed=1)
    if name == "seq2seq":
        log = tr.finetune_seq2seq(model, _finetune_pairs(tokenizer, "alpha", 10), sched)
    else:
        datasets = {"alpha": _finetune_pairs(tokenizer, "alpha", 12), "beta": _finetune_pairs(tokenizer, "beta", 4)}
        log, _ = tr.finetune_multitask(model, _two_task_mixture(), datasets, tokenizer, sched)
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


def test_multitask_validation_drops_overlong_records(tokenizer, tiny_config, caplog):
    import logging

    datasets = {"alpha": _finetune_pairs(tokenizer, "alpha", 12), "beta": _finetune_pairs(tokenizer, "beta", 4)}
    overlong = obj.TrainingInstance(
        (tokenizer.cls_id, *[5] * (tiny_config.max_src_len + 40), tokenizer.sep_id), (5, 2), obj.FINETUNE
    )
    validation = {"alpha": datasets["alpha"][:2] + [overlong], "beta": datasets["beta"][:2]}
    model = Seq2SeqModel(tiny_config, seed=5)
    with caplog.at_level(logging.WARNING):
        log, best = tr.finetune_multitask(
            model, _two_task_mixture(), datasets, tokenizer, tr.TrainSchedule(steps=4, batch_size=2, seed=0),
            validation=validation, eval_every=2,
        )
    assert len(log) == 4
    assert any("dropping 1 of 3 instances exceeding model caps" in r.message for r in caplog.records)
    assert set(best) == {"alpha", "beta"}
