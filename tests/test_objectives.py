from __future__ import annotations

import numpy as np
import pytest

from codepretrain import bpe
from codepretrain import objectives as obj
from codepretrain import synth
from codepretrain.corpus import CodeDocument


def _doc(code_tokens, labels, nl=(), language="mini"):
    return CodeDocument(tuple(nl), tuple(code_tokens), language, tuple(labels))


def _tokens(tokenizer, ids):
    return [tokenizer.token_for_id(i) for i in ids]


# -- span planning -----------------------------------------------------------


def test_budget_twenty_words():
    plan = obj.sample_spans(20, 0.15, np.random.default_rng(0))
    assert plan.masked_words == 3


def test_rate_zero_no_spans():
    plan = obj.sample_spans(50, 0.0, np.random.default_rng(0))
    assert plan.spans == ()


def test_num_words_zero():
    assert obj.sample_spans(0, 0.15, np.random.default_rng(0)).spans == ()


def test_round_half_up_budget():
    # 0.15 * 10 = 1.5 rounds up to 2
    plan = obj.sample_spans(10, 0.15, np.random.default_rng(1))
    assert plan.masked_words == 2


def test_rate_bounds_checked():
    with pytest.raises(ValueError):
        obj.sample_spans(10, 1.5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        obj.sample_spans(-1, 0.5, np.random.default_rng(0))


def test_min_budget_forces_one_span():
    plan = obj.sample_spans(2, 0.15, np.random.default_rng(0), min_budget=1)
    assert plan.masked_words == 1


def test_span_structure_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(500):
        num_words = int(rng.integers(0, 150))
        rate = float(rng.choice([0.0, 0.1, 0.15, 0.3, 0.5, 1.0]))
        plan = obj.sample_spans(num_words, rate, rng)
        assert plan.masked_words == obj.round_half_up(rate * num_words)
        prev_end = -1
        for start, length in plan.spans:
            assert 1 <= length <= 5
            assert start > prev_end
            assert start + length <= num_words
            prev_end = start + length - 1


def test_span_statistics_quick():
    rng = np.random.default_rng(3)
    masked = spans = 0
    for _ in range(3000):
        plan = obj.sample_spans(100, 0.15, rng)
        masked += plan.masked_words
        spans += len(plan.spans)
    assert masked / (100 * 3000) == pytest.approx(0.15, abs=1e-9)
    assert 2.9 <= masked / spans <= 3.1


def test_seeded_plan_reproducible():
    a = obj.sample_spans(80, 0.15, np.random.default_rng(11))
    b = obj.sample_spans(80, 0.15, np.random.default_rng(11))
    assert a == b


@pytest.mark.parametrize("rate", [0.6, 0.9, 1.0])
def test_span_plans_fit_the_sentinels_after_the_boundary_split(tokenizer, rate):
    """At most 99 spans, and at most 99 five-word spans of budget, so a span
    the NL/code boundary splits still leaves every span a sentinel."""
    doc = _doc(["x"] * 300, [1] * 300, nl=["y"] * 300)
    for seed in range(5):
        plan = obj.sample_spans(600, rate, np.random.default_rng(seed))
        assert len(plan.spans) <= bpe.NUM_MASK_TOKENS - 1
        assert plan.masked_words == min(obj.round_half_up(rate * 600), 99 * obj.MAX_SPAN)
        prev_end = -1
        for start, length in plan.spans:
            assert 1 <= length <= 5 and start > prev_end and start + length <= 600
            prev_end = start + length - 1
        segments = obj.parse_sentinel_segments(obj.build_msp(doc, tokenizer, plan).target_ids, tokenizer)
        assert len(segments) <= bpe.NUM_MASK_TOKENS


# -- span corruption ---------------------------------------------------------


def test_msp_four_word_example(tokenizer):
    doc = _doc(["a", "b", "c", "d"], [1, 1, 1, 1])
    plan = obj.SpanPlan(spans=((1, 2),))
    inst = obj.build_msp(doc, tokenizer, plan)
    enc = lambda w: tokenizer.encode(w, use_specials=False)
    assert list(inst.source_ids) == [
        tokenizer.cls_id,
        tokenizer.sep_id,
        *enc("a"),
        tokenizer.mask_id(0),
        *enc("d"),
        tokenizer.sep_id,
    ]
    assert list(inst.target_ids) == [
        tokenizer.mask_id(0),
        *enc("b"),
        *enc("c"),
        tokenizer.sep_id,
    ]


def test_msp_empty_plan_is_identity(tokenizer):
    doc = _doc(["a", "b"], [1, 1], nl=("hi",))
    inst = obj.build_msp(doc, tokenizer, obj.SpanPlan(()))
    assert inst.target_ids == ()
    assert inst.source_ids[0] == tokenizer.cls_id
    assert tokenizer.mask_id(0) not in inst.source_ids


def test_msp_sentinels_strictly_increasing(tokenizer):
    doc = _doc(list("abcdefghij"), [1] * 10)
    plan = obj.SpanPlan(spans=((1, 2), (5, 1), (8, 2)))
    inst = obj.build_msp(doc, tokenizer, plan)
    src_sentinels = [tokenizer.sentinel_index(i) for i in inst.source_ids
                     if tokenizer.sentinel_index(i) is not None]
    tgt_sentinels = [tokenizer.sentinel_index(i) for i in inst.target_ids
                     if tokenizer.sentinel_index(i) is not None]
    assert src_sentinels == [0, 1, 2]
    assert tgt_sentinels == [0, 1, 2]


def test_msp_span_outside_doc_rejected(tokenizer):
    doc = _doc(["a", "b"], [1, 1])
    with pytest.raises(ValueError):
        obj.build_msp(doc, tokenizer, obj.SpanPlan(((1, 5),)))


def test_msp_sentinel_exhaustion(tokenizer):
    doc = _doc(["x"] * 400, [1] * 400)
    spans = tuple((3 * i, 1) for i in range(101))
    with pytest.raises(ValueError, match="101 spans exceed 100 sentinels"):
        obj.build_msp(doc, tokenizer, obj.SpanPlan(spans))


def test_msp_boundary_span_splits(tokenizer):
    doc = _doc(["c1", "c2"], [1, 1], nl=("w1", "w2"))
    # one span covering the last NL word and the first code token
    plan = obj.SpanPlan(spans=((1, 2),))
    inst = obj.build_msp(doc, tokenizer, plan)
    sep_positions = [i for i, t in enumerate(inst.source_ids) if t == tokenizer.sep_id]
    m0 = inst.source_ids.index(tokenizer.mask_id(0))
    m1 = inst.source_ids.index(tokenizer.mask_id(1))
    assert m0 < sep_positions[0] < m1  # separator survives between the halves
    ref = obj.build_msp(doc, tokenizer, obj.SpanPlan(()))
    assert obj.splice_msp(inst, tokenizer) == list(ref.source_ids)


def test_msp_reconstruction_fuzz_small(tokenizer, lexers):
    rng = np.random.default_rng(21)
    for i in range(300):
        doc = synth.random_document(rng, lexers, "mini")
        words = len(doc.nl_tokens) + len(doc.code_tokens)
        plan = obj.sample_spans(words, 0.15, rng, min_budget=1)
        inst = obj.build_msp(doc, tokenizer, plan)
        ref = obj.build_msp(doc, tokenizer, obj.SpanPlan(()))
        assert obj.splice_msp(inst, tokenizer) == list(ref.source_ids)


# -- identifier tagging ------------------------------------------------------


def test_it_projects_labels_to_subwords(tokenizer):
    # find a code token that splits into at least two subwords
    multi = None
    for cand in ("responseBuffer", "total_count9", "zqx"):
        if len(tokenizer.encode(cand, use_specials=False)) >= 2:
            multi = cand
            break
    assert multi is not None
    n = len(tokenizer.encode(multi, use_specials=False))
    doc = _doc([multi, ";"], [1, 0])
    inst = obj.build_it(doc, tokenizer)
    assert inst.tag_labels == (1,) * n + (0,)


def test_it_all_zero_labels(tokenizer):
    doc = _doc(["int", ";"], [0, 0])
    assert obj.build_it(doc, tokenizer).tag_labels == (0, 0)


def test_it_alignment_matches_code_segment(tokenizer, lexers):
    rng = np.random.default_rng(2)
    for _ in range(50):
        doc = synth.random_document(rng, lexers, "mini")
        inst = obj.build_it(doc, tokenizer)
        code_len = sum(
            len(tokenizer.encode(t, use_specials=False)) for t in doc.code_tokens
        )
        assert len(inst.tag_labels) == code_len
        assert inst.objective == obj.IT
        assert inst.target_ids == ()


def test_it_keywords_zero_identifiers_one(tokenizer, lexers, mini_lexer):
    from codepretrain.corpus import RawRecord, normalize

    doc = normalize(RawRecord(code="if (count) return count;", language="mini"), mini_lexer)
    inst = obj.build_it(doc, tokenizer)
    # walk tag labels token by token
    pos = 0
    for token, label in zip(doc.code_tokens, doc.identifier_labels):
        n = len(tokenizer.encode(token, use_specials=False))
        assert set(inst.tag_labels[pos : pos + n]) == {label}
        pos += n


# -- identifier masking ------------------------------------------------------


def test_mip_shared_sentinel_example(tokenizer):
    doc = _doc(["a", "=", "a", "+", "b"], [1, 0, 1, 0, 1])
    inst = obj.build_mip(doc, tokenizer)
    enc = lambda w: tokenizer.encode(w, use_specials=False)
    assert list(inst.source_ids) == [
        tokenizer.cls_id,
        tokenizer.sep_id,
        tokenizer.mask_id(0),
        *enc("="),
        tokenizer.mask_id(0),
        *enc("+"),
        tokenizer.mask_id(1),
        tokenizer.sep_id,
    ]
    assert list(inst.target_ids) == [
        tokenizer.mask_id(0),
        *enc("a"),
        tokenizer.mask_id(1),
        *enc("b"),
        tokenizer.sep_id,
    ]


def test_mip_single_identifier(tokenizer):
    doc = _doc(["x", ";"], [1, 0])
    inst = obj.build_mip(doc, tokenizer)
    assert sum(1 for i in inst.source_ids if i == tokenizer.mask_id(0)) == 1
    segs = obj.parse_sentinel_segments(inst.target_ids, tokenizer)
    assert [s[0] for s in segs] == [0]


def test_mip_zero_identifiers_skip_signal(tokenizer):
    doc = _doc(["return", ";"], [0, 0])
    with pytest.raises(ValueError, match="^0 distinct identifiers: identifier masking needs 1 to 100"):
        obj.build_mip(doc, tokenizer)


def test_mip_sentinel_exhaustion(tokenizer):
    names = [f"v{i}" for i in range(101)]
    doc = _doc(names, [1] * 101)
    with pytest.raises(ValueError, match="101 distinct identifiers: identifier masking needs 1 to 100"):
        obj.build_mip(doc, tokenizer)


def test_denoising_falls_back_to_span_masking_on_too_many_identifiers(tokenizer):
    """Where identifier masking is drawn for a document with more distinct
    identifiers than sentinels, the document gets a span-masking instance."""
    doc = _doc([f"v{i}" for i in range(101)], [1] * 101)
    seeds = [s for s in range(12) if obj.pick_denoising_task(obj.document_rng(s, 0)) == obj.MIP]
    assert seeds
    for seed in seeds:
        [inst] = obj.build_denoising_instances([doc], tokenizer, seed=seed)
        assert inst.objective == obj.MSP


def test_mip_consistency_fuzz_small(tokenizer, lexers):
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(300):
        doc = synth.random_document(rng, lexers, "mini")
        if not any(doc.identifier_labels):
            continue
        inst = obj.build_mip(doc, tokenizer)
        segs = obj.parse_sentinel_segments(inst.target_ids, tokenizer)
        indices = [s[0] for s in segs]
        assert indices == sorted(set(indices)), "target sentinels must appear exactly once"
        ident_order = []
        for token, label in zip(doc.code_tokens, doc.identifier_labels):
            if label and token not in ident_order:
                ident_order.append(token)
        assert len(segs) == len(ident_order)
        by_index = dict(segs)
        pos = 0
        for token, label in zip(doc.code_tokens, doc.identifier_labels):
            if label:
                j = ident_order.index(token)
                assert by_index[j] == tokenizer.encode(token, use_specials=False)
        checked += 1
    assert checked > 100


# -- dual generation ---------------------------------------------------------


def test_dual_pair_reverses_payloads(tokenizer):
    doc = _doc(["int", "a", ";"], [0, 1, 0], nl=("store", "it"), language="java")
    nl2pl, pl2nl = obj.build_dual_pair(doc, tokenizer)
    assert nl2pl.objective == obj.DUAL_NL2PL
    assert pl2nl.objective == obj.DUAL_PL2NL
    # payload of one source is the other's target (minus tags/cls/sep framing)
    assert nl2pl.source_ids[2:-1] == pl2nl.target_ids[:-1]
    assert pl2nl.source_ids[2:-1] == nl2pl.target_ids[:-1]


def test_dual_pair_language_ids(tokenizer):
    doc = _doc(["int", "a", ";"], [0, 1, 0], nl=("store",), language="java")
    nl2pl, pl2nl = obj.build_dual_pair(doc, tokenizer)
    assert nl2pl.source_ids[1] == tokenizer.language_id("en")
    assert pl2nl.source_ids[1] == tokenizer.language_id("java")


def test_dual_unimodal_rejected(tokenizer):
    doc = _doc(["int", "a", ";"], [0, 1, 0])
    with pytest.raises(ValueError, match="dual generation requires a bimodal document"):
        obj.build_dual_pair(doc, tokenizer)


def test_dual_counts(bundled_docs, tokenizer):
    bimodal = sum(1 for d in bundled_docs if d.is_bimodal)
    instances = obj.build_dual_instances(bundled_docs, tokenizer)
    assert len(instances) == 2 * bimodal


# -- task choice and pipeline ------------------------------------------------


def test_pick_task_membership_and_reproducibility():
    rng = np.random.default_rng(0)
    assert obj.pick_denoising_task(rng) in obj.DENOISING_TASKS
    a = [obj.pick_denoising_task(np.random.default_rng(4)) for _ in range(10)]
    b = [obj.pick_denoising_task(np.random.default_rng(4)) for _ in range(10)]
    assert a == b


def test_pick_task_equal_probability():
    rng = np.random.default_rng(8)
    n = 300_000
    counts = {t: 0 for t in obj.DENOISING_TASKS}
    for _ in range(n):
        counts[obj.pick_denoising_task(rng)] += 1
    for t in obj.DENOISING_TASKS:
        assert abs(counts[t] / n - 1 / 3) < 0.01


def test_build_denoising_instances_deterministic(bundled_docs, tokenizer):
    a = obj.build_denoising_instances(bundled_docs[:40], tokenizer, seed=6)
    b = obj.build_denoising_instances(bundled_docs[:40], tokenizer, seed=6)
    assert a == b
    assert {i.objective for i in a} <= set(obj.DENOISING_TASKS)


def test_identifier_less_docs_fall_back_to_spans(tokenizer):
    docs = [_doc(["return", ";"], [0, 0]) for _ in range(30)]
    instances = obj.build_denoising_instances(docs, tokenizer, seed=0)
    assert all(i.objective in (obj.MSP, obj.IT) for i in instances)


def test_instance_file_roundtrip(bundled_docs, tokenizer, tmp_path):
    instances = obj.build_denoising_instances(bundled_docs[:30], tokenizer, seed=1)
    path = tmp_path / "inst.jsonl"
    obj.write_instances(instances, path)
    assert list(obj.read_instances(path)) == instances


def test_clip_document():
    doc = _doc([str(i) for i in range(10)], [0] * 10, nl=tuple("abcdef"))
    clipped = obj.clip_document(doc, max_nl=3, max_code=4)
    assert len(clipped.nl_tokens) == 3
    assert len(clipped.code_tokens) == 4
    assert len(clipped.identifier_labels) == 4


def test_built_instances_respect_length_caps(bundled_docs, tokenizer):
    max_src, max_tgt = 160, 64
    denoise = obj.build_denoising_instances(
        bundled_docs, tokenizer, seed=4, max_src_len=max_src, max_tgt_len=max_tgt
    )
    dual = obj.build_dual_instances(
        bundled_docs, tokenizer, max_src_len=max_src, max_tgt_len=max_tgt
    )
    for inst in denoise + dual:
        assert len(inst.source_ids) <= max_src
        assert len(inst.target_ids) <= max_tgt


# -- oracle: the builders as they were before encoding moved into one pass --
#
# Each word was encoded separately for clipping, for the NL recount and again
# inside every builder.  These copies are the reference the single-pass
# builders must match instance for instance.


def _ref_encode(tokenizer, word):
    return tokenizer.encode(word, use_specials=False)


def _ref_build_msp(doc, tokenizer, plan):
    words = list(doc.nl_tokens) + list(doc.code_tokens)
    boundary = len(doc.nl_tokens)
    spans = obj._split_at_boundary(plan.spans, boundary)
    word_ids = [_ref_encode(tokenizer, w) for w in words]
    span_start = {start: (i, length) for i, (start, length) in enumerate(spans)}
    source, target = [tokenizer.cls_id], []

    def emit(lo, hi):
        pos = lo
        while pos < hi:
            if pos in span_start:
                index, length = span_start[pos]
                source.append(tokenizer.mask_id(index))
                target.append(tokenizer.mask_id(index))
                for w in range(pos, pos + length):
                    target.extend(word_ids[w])
                pos += length
            else:
                source.extend(word_ids[pos])
                pos += 1

    emit(0, boundary)
    source.append(tokenizer.sep_id)
    emit(boundary, len(words))
    source.append(tokenizer.sep_id)
    if spans:
        target.append(tokenizer.sep_id)
    return obj.TrainingInstance(tuple(source), tuple(target), obj.MSP)


def _ref_build_it(doc, tokenizer):
    source = [tokenizer.cls_id]
    for w in doc.nl_tokens:
        source.extend(_ref_encode(tokenizer, w))
    source.append(tokenizer.sep_id)
    tags = []
    for token, label in zip(doc.code_tokens, doc.identifier_labels):
        ids = _ref_encode(tokenizer, token)
        source.extend(ids)
        tags.extend([label] * len(ids))
    source.append(tokenizer.sep_id)
    return obj.TrainingInstance(tuple(source), (), obj.IT, tag_labels=tuple(tags))


def _ref_build_mip(doc, tokenizer):
    distinct = {}
    for token, label in zip(doc.code_tokens, doc.identifier_labels):
        if label == 1 and token not in distinct:
            distinct[token] = len(distinct)
    if not distinct:
        return None
    source = [tokenizer.cls_id]
    for w in doc.nl_tokens:
        source.extend(_ref_encode(tokenizer, w))
    source.append(tokenizer.sep_id)
    for token, label in zip(doc.code_tokens, doc.identifier_labels):
        if label == 1:
            source.append(tokenizer.mask_id(distinct[token]))
        else:
            source.extend(_ref_encode(tokenizer, token))
    source.append(tokenizer.sep_id)
    target = []
    for token, index in distinct.items():
        target.append(tokenizer.mask_id(index))
        target.extend(_ref_encode(tokenizer, token))
    target.append(tokenizer.sep_id)
    return obj.TrainingInstance(tuple(source), tuple(target), obj.MIP)


def _ref_build_dual_pair(doc, tokenizer):
    if not doc.is_bimodal:
        raise ValueError("dual generation requires a bimodal document")
    nl_ids = [i for w in doc.nl_tokens for i in _ref_encode(tokenizer, w)]
    pl_ids = [i for t in doc.code_tokens for i in _ref_encode(tokenizer, t)]
    nl_tag = tokenizer.language_id(obj.NL_LANGUAGE_TAG)
    pl_tag = tokenizer.language_id(doc.language)
    cls, sep = tokenizer.cls_id, tokenizer.sep_id
    return (
        obj.TrainingInstance((cls, nl_tag, *nl_ids, sep), (*pl_ids, sep), obj.DUAL_NL2PL),
        obj.TrainingInstance((cls, pl_tag, *pl_ids, sep), (*nl_ids, sep), obj.DUAL_PL2NL),
    )


def _ref_words_within_budget(words, tokenizer, budget):
    kept = used = 0
    for w in words:
        used += len(_ref_encode(tokenizer, w))
        if used > budget:
            break
        kept += 1
    return kept


def _ref_clip_document_to_subwords(doc, tokenizer, max_nl, max_code):
    keep_nl = _ref_words_within_budget(doc.nl_tokens, tokenizer, max_nl)
    keep_code = _ref_words_within_budget(doc.code_tokens, tokenizer, max_code)
    if keep_nl == len(doc.nl_tokens) and keep_code == len(doc.code_tokens):
        return doc
    return CodeDocument(doc.nl_tokens[:keep_nl], doc.code_tokens[:keep_code], doc.language,
                        doc.identifier_labels[:keep_code])


def _ref_build_denoising_instances(docs, tokenizer, rate, seed, max_src_len, max_tgt_len):
    payload = max_src_len - 3
    instances = []
    for i, doc in enumerate(docs):
        doc = _ref_clip_document_to_subwords(doc, tokenizer, payload // 2, payload)
        nl_used = sum(len(_ref_encode(tokenizer, w)) for w in doc.nl_tokens)
        doc = _ref_clip_document_to_subwords(doc, tokenizer, payload // 2, payload - nl_used)
        rng = obj.document_rng(seed, i)
        task = obj.pick_denoising_task(rng)
        if task == obj.MIP:
            inst = _ref_build_mip(doc, tokenizer)
            if inst is not None and len(inst.target_ids) <= max_tgt_len:
                instances.append(inst)
                continue
            task = obj.MSP
        if task == obj.IT:
            instances.append(_ref_build_it(doc, tokenizer))
        else:
            words = len(doc.nl_tokens) + len(doc.code_tokens)
            plan = obj.sample_spans(words, rate, rng, min_budget=1)
            instances.append(_ref_build_msp(doc, tokenizer, plan))
    return instances


def _ref_build_dual_instances(docs, tokenizer, max_src_len, max_tgt_len):
    budget = min(max_src_len - 3, max_tgt_len - 1)
    instances = []
    for doc in docs:
        if not doc.is_bimodal:
            continue
        doc = _ref_clip_document_to_subwords(doc, tokenizer, budget, budget)
        instances.extend(_ref_build_dual_pair(doc, tokenizer))
    return instances


def _oracle_corpora(bundled_docs, lexers):
    """The bundled documents, short synthetic ones, and long ones made by
    joining eight synthetic documents of one language."""
    rng = np.random.default_rng(21)
    langs = ("mini", "java", "python", "go")
    short = [synth.random_document(rng, lexers, langs[i % 4]) for i in range(120)]
    long = []
    for k in range(24):
        parts = [synth.random_document(rng, lexers, langs[k % 4]) for _ in range(8)]
        long.append(CodeDocument(
            tuple(w for p in parts for w in p.nl_tokens),
            tuple(t for p in parts for t in p.code_tokens),
            langs[k % 4],
            tuple(y for p in parts for y in p.identifier_labels),
        ))
    return {"bundled": bundled_docs, "short": short, "long": long}


@pytest.mark.parametrize("max_src, max_tgt", [(512, 256), (64, 32), (40, 20)])
def test_batch_builders_match_reference(bundled_docs, lexers, tokenizer, max_src, max_tgt):
    for name, docs in _oracle_corpora(bundled_docs, lexers).items():
        for seed in range(3):
            got = obj.build_denoising_instances(docs, tokenizer, 0.15, seed, max_src, max_tgt)
            want = _ref_build_denoising_instances(docs, tokenizer, 0.15, seed, max_src, max_tgt)
            assert got == want, (name, seed)
        got = obj.build_dual_instances(docs, tokenizer, max_src, max_tgt)
        assert got == _ref_build_dual_instances(docs, tokenizer, max_src, max_tgt), name


def test_public_builders_match_reference(bundled_docs, tokenizer):
    for i, doc in enumerate(bundled_docs):
        plan = obj.sample_spans(len(doc.nl_tokens) + len(doc.code_tokens), 0.3, np.random.default_rng(i))
        assert obj.build_msp(doc, tokenizer, plan) == _ref_build_msp(doc, tokenizer, plan)
        assert obj.build_it(doc, tokenizer) == _ref_build_it(doc, tokenizer)
        if any(doc.identifier_labels):
            assert obj.build_mip(doc, tokenizer) == _ref_build_mip(doc, tokenizer)
        if doc.is_bimodal:
            assert obj.build_dual_pair(doc, tokenizer) == _ref_build_dual_pair(doc, tokenizer)


@pytest.mark.parametrize("max_src, max_tgt", [(512, 256), (40, 20)])
def test_batch_builders_encode_each_word_at_most_once(
    bundled_docs, tokenizer, monkeypatch, max_src, max_tgt
):
    """A word the tokenizer has not seen is a cache miss, the one path that
    pre-tokenizes and merges; a fresh tokenizer misses once per distinct word
    at most, a warm one never, and both build the same instances."""
    distinct = {w for d in bundled_docs for w in (*d.nl_tokens, *d.code_tokens)}
    for build in (
        lambda tok: obj.build_denoising_instances(bundled_docs, tok, seed=0, max_src_len=max_src,
                                                  max_tgt_len=max_tgt),
        lambda tok: obj.build_dual_instances(bundled_docs, tok, max_src_len=max_src, max_tgt_len=max_tgt),
    ):
        fresh = bpe.SubwordTokenizer(tokenizer.specials, tokenizer.merges)
        misses = 0
        encode_plain = fresh._encode_plain

        def counting_encode_plain(text):
            nonlocal misses
            misses += 1
            return encode_plain(text)

        monkeypatch.setattr(fresh, "_encode_plain", counting_encode_plain)
        assert build(fresh) == build(tokenizer)
        assert 0 < misses <= len(distinct)
        misses = 0
        build(fresh)
        assert misses == 0


@pytest.mark.parametrize("build", [obj.build_denoising_instances, obj.build_dual_instances])
@pytest.mark.parametrize("caps, message", [
    ((3, 256), "max_src_len must be in 4..512, got 3"),
    ((513, 256), "max_src_len must be in 4..512, got 513"),
    ((512, 1), "max_tgt_len must be in 2..256, got 1"),
    ((512, 257), "max_tgt_len must be in 2..256, got 257"),
], ids=["src-3", "src-513", "tgt-1", "tgt-257"])
def test_builders_reject_caps_a_model_cannot_take(bundled_docs, tokenizer, build, caps, message):
    """A cap with no room for one payload id would build instances with no payload."""
    with pytest.raises(ValueError, match=message):
        build(bundled_docs, tokenizer, max_src_len=caps[0], max_tgt_len=caps[1])


def test_dual_instances_skip_documents_clipped_to_no_nl(bundled_docs, tokenizer):
    assert len(tokenizer.encode("x" * 200, use_specials=False)) > 19  # the budget at max_tgt_len 20
    long_word = _doc(["int", "a", ";"], [0, 1, 0], nl=("x" * 200, "it"), language="java")
    short = _doc(["int", "a", ";"], [0, 1, 0], nl=("store", "it"), language="java")
    instances = obj.build_dual_instances([long_word, short], tokenizer, max_tgt_len=20)
    assert instances == list(obj.build_dual_pair(short, tokenizer))
