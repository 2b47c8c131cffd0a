"""Fast tests of the benchmark's own checks: each must pass on good output
and catch a corrupted one.

    python3 -m pytest bench -q

These stay out of the package's test suite, which collects ``tests/`` only.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
from spans import Tracer  # noqa: E402

from codepretrain import bpe, corpus, lexer, metrics  # noqa: E402
from codepretrain import model as mdl  # noqa: E402
from codepretrain import training as tr  # noqa: E402
from workloads import _next_probs  # noqa: E402


@pytest.fixture(scope="module")
def tiny():
    cfg = mdl.ModelConfig(vocab_size=40, d_model=8, num_heads=2, encoder_layers=1, decoder_layers=1,
                          feedforward_dim=16, max_src_len=32, max_tgt_len=16)
    return mdl.Seq2SeqModel(cfg, seed=3), (1, 7, 12, 30, 5, 2)


def test_bleu_identity_empty_and_agreement():
    ref = "compute the total of the buffer".split()
    assert checks.bleu4(ref, ref) == pytest.approx(100.0)
    assert checks.bleu4([], ref) == 0.0
    rng = np.random.default_rng(0)
    words = ["a", "b", "c", "d", "e"]
    for _ in range(200):
        h = list(rng.choice(words, size=rng.integers(1, 9)))
        r = list(rng.choice(words, size=rng.integers(1, 9)))
        assert abs(checks.bleu4(h, r) - metrics.smoothed_bleu4(h, r)) < 1e-9


def test_check_eval_catches_wrong_score():
    hyps, refs = ["a b c", "x y"], ["a b c d", "x y"]
    good = checks.corpus_bleu_lines(hyps, refs)
    assert checks.check_eval(good, hyps, refs, "eval") == []
    assert checks.check_eval(good + 1e-6, hyps, refs, "eval")


def test_greedy_check_catches_corrupted_token(tiny):
    model, src = tiny
    out = tr.generate(model, src, 8)
    assert checks.check_greedy(mdl.forward_lm(model, src, out), out, "g") == []
    probs = mdl.forward_lm(model, src, out)
    bad = list(out)
    bad[3] = int(np.argmin(probs[3]))
    assert checks.check_greedy(mdl.forward_lm(model, src, bad), bad, "g")


def test_beam_check_matches_program_and_catches_a_worse_hypothesis(tiny):
    model, src = tiny
    got = tr.generate(model, src, 6, beam=4)
    seq, ref_lp = checks.plain_beam(_next_probs(model, src), 4, 6)
    assert seq == got
    got_lp = checks.sequence_logprob(mdl.forward_lm(model, src, got), got)
    assert checks.check_beam(got_lp, ref_lp, "b") == []
    worse = got[:-1] + [int(np.argmin(mdl.forward_lm(model, src, got)[-1]))]
    worse_lp = checks.sequence_logprob(mdl.forward_lm(model, src, worse), worse)
    assert checks.check_beam(worse_lp, ref_lp, "b")


def test_counts_catch_off_by_one():
    assert checks.check_counts("documents", 200, 200) == []
    assert checks.check_counts("documents", 199, 200)
    assert checks.check_counts("dual instances", 2 * 70 + 1, 2 * 70)


def test_generated_labels_match_and_corruption_is_caught():
    records = gen.make_corpus(5, 24, gen.LONG)
    lexers = lexer.load_lexers()
    raw = [corpus.RawRecord(r.code, r.language, r.docstring) for r in records]
    docs = list(corpus.normalize_corpus(raw, lexers))
    planted = [r.planted for r in records]
    assert checks.check_identifier_labels(docs, planted) == []
    assert checks.check_identifier_labels(docs[:-1], planted)
    d = docs[4]
    flipped = corpus.CodeDocument(d.nl_tokens, d.code_tokens, d.language,
                                  (1 - d.identifier_labels[0], *d.identifier_labels[1:]))
    assert checks.check_identifier_labels(docs[:4] + [flipped] + docs[5:], planted)


def test_generator_is_seeded_and_shape_is_fixed():
    a, b, c = gen.make_corpus(1, 40), gen.make_corpus(1, 40), gen.make_corpus(2, 40)
    assert a == b and a != c
    assert [r.language for r in a] == [r.language for r in c]
    assert [r.docstring is None for r in a] == [r.docstring is None for r in c]
    assert sum(r.docstring is not None for r in a) == 28


def test_roundtrip_check_catches_lossy_decode():
    texts = [r.code for r in gen.make_corpus(1, 30)]
    tok = bpe.train(texts, 600, 2)
    assert checks.check_roundtrip(tok.encode, tok.decode, texts) == []
    assert checks.check_roundtrip(tok.encode, lambda ids: tok.decode(ids).strip("}"), texts)


def test_same_logs_and_loss_falls():
    log = [("MSP", 9.1), ("IT", 0.69)]
    assert checks.check_same_logs([log, list(log)], "t") == []
    assert checks.check_same_logs([log, [("MSP", 9.1), ("IT", 0.6900000001)]], "t")
    assert checks.check_loss_falls(9.0, 8.0, "t") == []
    assert checks.check_loss_falls(9.0, 9.0, "t")


def test_train_tokens_uses_pool_means():
    class I:
        def __init__(self, s, t):
            self.source_ids, self.target_ids = (0,) * s, (0,) * t

    pools = {"MSP": [I(10, 4), I(20, 6)] * 5, "IT": [I(30, 0)], "MIP": [I(5, 5)]}
    # A batch never holds more instances than its pool, as in training._draw_batch.
    assert checks.train_tokens(["MSP", "IT", "MIP", "MSP"], pools, 8) == 8 * 20 + 1 * 30 + 1 * 10 + 8 * 20


def test_tracer_self_time_and_disabled():
    t = Tracer(True)
    with t.span("outer"):
        with t.span("inner", n=3):
            sum(range(10000))
    own = t.self_times()
    outer, inner = t.spans
    assert inner["parent"] == outer["id"]
    assert own[outer["id"]] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"]))
    off = Tracer(False)
    with off.span("x"):
        pass
    assert off.spans == []
