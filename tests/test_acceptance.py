"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Heavy trained-model fixtures are shared with the unit tests via conftest.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from codepretrain import bpe, metrics as mx, mixture, synth
from codepretrain import objectives as obj
from codepretrain import training as tr
from codepretrain.model import (
    Seq2SeqModel,
    tag_probabilities,
    tagging_loss_and_grads,
)
from codepretrain.model import is_decoder_param

ORACLE_900_100 = (0.82318212236958793665, 0.17681787763041206335)
GOLDEN_BLEU_SHORT_HYP = 71.65313105737893


def _report(num: int, description: str, ok: bool, detail: str, elapsed: float | None = None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\n[{status}] criterion {num}{timing}: {description} -- {detail}")
    assert ok, f"criterion {num}: {description} ({detail})"


def test_criterion_1_masking_statistics():
    start = time.time()
    rng = np.random.default_rng(42)
    trials = 100_000
    num_words = 100
    masked = 0
    spans = 0
    for _ in range(trials):
        plan = obj.sample_spans(num_words, 0.15, rng)
        masked += plan.masked_words
        spans += len(plan.spans)
    elapsed = time.time() - start
    fraction = masked / (trials * num_words)
    mean_len = masked / spans
    ok = 0.149 <= fraction <= 0.151 and 2.9 <= mean_len <= 3.1 and elapsed < 10.0
    _report(
        1,
        "masking statistics over 1e5 span plans",
        ok,
        f"fraction={fraction:.6f} mean_span_len={mean_len:.4f}",
        elapsed,
    )


def test_criterion_2_msp_reconstruction_fuzz(tokenizer, lexers):
    start = time.time()
    rng = np.random.default_rng(1234)
    failures = 0
    trials = 10_000
    for i in range(trials):
        doc = synth.random_document(rng, lexers, "mini")
        words = len(doc.nl_tokens) + len(doc.code_tokens)
        plan = obj.sample_spans(words, 0.15, rng, min_budget=1)
        inst = obj.build_msp(doc, tokenizer, plan)
        ref = obj.build_msp(doc, tokenizer, obj.SpanPlan(()))
        if obj.splice_msp(inst, tokenizer) != list(ref.source_ids):
            failures += 1
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 30.0
    _report(2, "span reconstruction fuzz over 1e4 documents", ok, f"failures={failures}", elapsed)


def test_criterion_3_mip_consistency_fuzz(tokenizer, lexers):
    start = time.time()
    rng = np.random.default_rng(987)
    failures = 0
    checked = 0
    while checked < 10_000:
        doc = synth.random_document(rng, lexers, "mini")
        if not any(doc.identifier_labels):
            continue
        inst = obj.build_mip(doc, tokenizer)
        checked += 1
        segments = obj.parse_sentinel_segments(inst.target_ids, tokenizer)
        indices = [s[0] for s in segments]
        distinct: list[str] = []
        for token, label in zip(doc.code_tokens, doc.identifier_labels):
            if label and token not in distinct:
                distinct.append(token)
        # target sentinels appear exactly once, in first-occurrence order
        if indices != list(range(len(distinct))):
            failures += 1
            continue
        by_index = dict(segments)
        # every occurrence of one identifier maps to the one sentinel holding it
        source_positions: dict[int, int] = {}
        for token_id in inst.source_ids:
            j = tokenizer.sentinel_index(token_id)
            if j is not None:
                source_positions[j] = source_positions.get(j, 0) + 1
        for j, name in enumerate(distinct):
            occurrences = sum(
                1 for t, y in zip(doc.code_tokens, doc.identifier_labels) if y and t == name
            )
            if source_positions.get(j) != occurrences:
                failures += 1
                break
            if by_index[j] != tokenizer.encode(name, use_specials=False):
                failures += 1
                break
    elapsed = time.time() - start
    ok = failures == 0
    _report(3, "identifier-mask consistency fuzz over 1e4 documents", ok, f"failures={failures}", elapsed)


def test_criterion_4_gradient_checks(tokenizer, tiny_config, bundled_docs):
    start = time.time()
    model = Seq2SeqModel(tiny_config, seed=7)
    doc = obj.clip_document(bundled_docs[0], 12, 20)
    words = len(doc.nl_tokens) + len(doc.code_tokens)
    plan = obj.sample_spans(words, 0.15, np.random.default_rng(0), min_budget=1)
    msp_inst = obj.build_msp(doc, tokenizer, plan)
    it_inst = obj.build_it(doc, tokenizer)
    mip_doc = next(d for d in bundled_docs if any(d.identifier_labels))
    mip_inst = obj.build_mip(obj.clip_document(mip_doc, 12, 20), tokenizer)

    err_msp = tr.grad_check(model, msp_inst, coords_per_param=3, seed=1)
    err_it = tr.grad_check(model, it_inst, coords_per_param=3, seed=2)
    err_mip = tr.grad_check(model, mip_inst, coords_per_param=3, seed=3)

    # finite differences on decoder parameters under the tagging loss
    def it_loss():
        return tagging_loss_and_grads(model, [it_inst], compute_grads=False)[0]

    fd_decoder = 0.0
    rng = np.random.default_rng(4)
    for name, p in model.params.items():
        if not is_decoder_param(name):
            continue
        idx = tuple(rng.integers(0, s) for s in p.shape) if p.ndim else ()
        orig = p[idx]
        h = 1e-4 * (1.0 + abs(orig))
        p[idx] = orig + h
        up = it_loss()
        p[idx] = orig - h
        down = it_loss()
        p[idx] = orig
        fd_decoder = max(fd_decoder, abs(up - down) / (2 * h))
    _, _, grads = tagging_loss_and_grads(model, [it_inst])
    analytic_decoder = max(
        float(np.abs(g).max()) for k, g in grads.items() if is_decoder_param(k)
    )
    elapsed = time.time() - start
    ok = (
        err_msp < 1e-4
        and err_it < 1e-4
        and err_mip < 1e-4
        and fd_decoder < 1e-6
        and analytic_decoder < 1e-6
        and elapsed < 120.0
    )
    _report(
        4,
        "analytic vs finite-difference gradients",
        ok,
        f"rel_err span={err_msp:.2e} tag={err_it:.2e} ident={err_mip:.2e} "
        f"decoder_fd={fd_decoder:.2e} decoder_analytic={analytic_decoder:.2e}",
        elapsed,
    )


def test_criterion_5_balanced_sampling_suite():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst_norm = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        sizes = [int(rng.integers(1, 10**6)) for _ in range(n)]
        alpha = float(rng.random() * 2)
        probs = mixture.mixture_probs(sizes, alpha)
        worst_norm = max(worst_norm, abs(sum(probs) - 1.0))
    prop = mixture.mixture_probs([300, 100, 600], 1.0)
    prop_exact = prop == pytest.approx([0.3, 0.1, 0.6], abs=1e-15)
    unif = mixture.mixture_probs([7, 900, 12, 1], 0.0)
    unif_exact = unif == pytest.approx([0.25] * 4, abs=1e-15)
    q = mixture.mixture_probs([900, 100], 0.7)
    oracle_ok = abs(q[0] - ORACLE_900_100[0]) < 1e-9 and abs(q[1] - ORACLE_900_100[1]) < 1e-9
    elapsed = time.time() - start
    ok = worst_norm < 1e-12 and prop_exact and unif_exact and oracle_ok
    _report(
        5,
        "tempered task-sampling probabilities",
        ok,
        f"worst_norm_err={worst_norm:.2e} q900={q[0]:.10f}",
        elapsed,
    )


def _random_unicode_string(rng: np.random.Generator, max_len: int = 40) -> str:
    n = int(rng.integers(0, max_len + 1))
    chars = []
    while len(chars) < n:
        cp = int(rng.integers(0, 0x10000))
        if 0xD800 <= cp <= 0xDFFF:  # surrogates are not valid scalar values
            continue
        chars.append(chr(cp))
    return "".join(chars)


def test_criterion_6_tokenizer(tokenizer, code_tokenizer, nl_tokenizer, bundled_records):
    start = time.time()
    rng = np.random.default_rng(77)
    failures = 0
    for _ in range(10_000):
        text = _random_unicode_string(rng)
        if tokenizer.decode(tokenizer.encode(text)) != text:
            failures += 1
    brace_ok = True
    for brace in ("{", "}"):
        ids = code_tokenizer.encode(brace, use_specials=False)
        if len(ids) != 1 or code_tokenizer.is_special_id(ids[0]):
            brace_ok = False
    report = bpe.compression_ratio(
        code_tokenizer, nl_tokenizer, [r.code for r in bundled_records]
    )
    elapsed = time.time() - start
    ok = failures == 0 and brace_ok and report.mean_ratio < 1.0
    _report(
        6,
        "tokenizer losslessness, bracket coverage, compression direction",
        ok,
        f"roundtrip_failures={failures} brace_single_unit={brace_ok} mean_ratio={report.mean_ratio:.4f}",
        elapsed,
    )


def test_criterion_7_overfit_smoke(tokenizer, small_config, bundled_docs):
    start = time.time()
    docs = [obj.clip_document(d, 16, 32) for d in bundled_docs if d.language == "mini"]
    assert len(docs) == 50
    instances = []
    for i, doc in enumerate(docs):
        words = len(doc.nl_tokens) + len(doc.code_tokens)
        plan = obj.sample_spans(words, 0.15, obj.document_rng(11, i), min_budget=1)
        instances.append(obj.build_msp(doc, tokenizer, plan))
    schedule = tr.TrainSchedule(steps=200, batch_size=8, peak_lr=1e-3, seed=0)

    model_a = Seq2SeqModel(small_config, seed=0)
    log_a = tr.pretrain(model_a, instances, schedule)
    model_b = Seq2SeqModel(small_config, seed=0)
    log_b = tr.pretrain(model_b, instances, schedule)

    first = log_a[0].loss
    last = log_a[-1].loss
    drop = 1.0 - last / first
    identical = [r.to_dict() for r in log_a] == [r.to_dict() for r in log_b]
    elapsed = time.time() - start
    ok = drop >= 0.5 and identical and elapsed < 300.0
    _report(
        7,
        "overfit smoke on the 50-document corpus",
        ok,
        f"loss {first:.3f} -> {last:.3f} (drop {drop * 100:.0f}%) bit_identical={identical}",
        elapsed,
    )


def test_criterion_8_identifier_tagging_f1(tokenizer, small_config, lexers):
    start = time.time()
    rng = np.random.default_rng(5)
    docs = [synth.random_document(rng, lexers, "mini") for _ in range(600)]
    instances = [obj.build_it(d, tokenizer) for d in docs]
    train, held = instances[:500], instances[500:]
    model = Seq2SeqModel(small_config, seed=1)
    tagging = mixture.TaskMixture((mixture.TaskSpec("tagging", len(train)),))
    tr.finetune(model, tagging, {"tagging": train},
                tr.TrainSchedule(steps=400, batch_size=16, peak_lr=1e-3, seed=0))
    preds: list[int] = []
    golds: list[int] = []
    for inst in held:
        p = tag_probabilities(model, inst)
        preds.extend((p >= 0.5).astype(int).tolist())
        golds.extend(inst.tag_labels)
    f1 = mx.f1_binary(preds, golds)
    elapsed = time.time() - start
    ok = f1 >= 0.95 and elapsed < 600.0
    _report(8, "tagging head reaches F1 >= 0.95 on held-out documents", ok, f"f1={f1:.4f}", elapsed)


def test_criterion_9_mask_task_interaction(mask_protocol, tokenizer):
    start = time.time()
    results = {}
    for name in ("msp_only", "joint"):
        model = mask_protocol[name]
        results[name] = {
            "MSP": tr.evaluate_mask_instances(model, mask_protocol["msp_eval"], tokenizer),
            "MIP": tr.evaluate_mask_instances(model, mask_protocol["mip_eval"], tokenizer),
        }
    for name, r in results.items():
        print(
            f"\n  {name}: span acc={r['MSP']['accuracy']:.2f} predM={r['MSP']['pred_count_match']:.2f} | "
            f"ident acc={r['MIP']['accuracy']:.2f} predM={r['MIP']['pred_count_match']:.2f}"
        )
    cross_task_degraded = (
        results["msp_only"]["MIP"]["pred_count_match"]
        < results["joint"]["MIP"]["pred_count_match"]
    )
    elapsed = time.time() - start
    _report(
        9,
        "mask-task interaction protocol (single-objective degrades cross-task #Pred-M)",
        cross_task_degraded,
        f"msp_only MIP predM={results['msp_only']['MIP']['pred_count_match']:.2f} "
        f"< joint MIP predM={results['joint']['MIP']['pred_count_match']:.2f}",
        elapsed,
    )


def test_criterion_10_metrics():
    start = time.time()
    identity = mx.smoothed_bleu4("a b c d".split(), "a b c d".split())
    empty = mx.smoothed_bleu4([], "a b".split())
    frozen = mx.smoothed_bleu4("the cat sat".split(), "the cat sat down".split())
    elapsed = time.time() - start
    ok = (
        identity == 100.0
        and empty == 0.0
        and abs(frozen - GOLDEN_BLEU_SHORT_HYP) < 1e-6
        and abs(frozen - 100.0 * math.exp(1.0 - 4.0 / 3.0)) < 1e-6
    )
    _report(
        10,
        "smoothed BLEU identity/empty/frozen cases",
        ok,
        f"identity={identity} empty={empty} short_hyp={frozen:.8f}",
        elapsed,
    )
