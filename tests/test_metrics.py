from __future__ import annotations

import math
import random

import pytest

from codepretrain import metrics as mx
from codepretrain.objectives import MIP, TrainingInstance

# Hand computation for hyp "the cat sat" vs ref "the cat sat down": all four
# smoothed precisions are (m+1)/(m+1) = 1, brevity penalty exp(1 - 4/3).
GOLDEN_SHORT_HYP = 100.0 * math.exp(1.0 - 4.0 / 3.0)


def test_bleu_identity_is_100():
    assert mx.smoothed_bleu4("the cat sat".split(), "the cat sat".split()) == 100.0


def test_bleu_empty_hypothesis_is_0():
    assert mx.smoothed_bleu4([], "a b".split()) == 0.0


def test_bleu_empty_reference_rejected():
    with pytest.raises(ValueError):
        mx.smoothed_bleu4("a".split(), [])


def test_bleu_frozen_hand_case():
    got = mx.smoothed_bleu4("the cat sat".split(), "the cat sat down".split())
    assert got == pytest.approx(GOLDEN_SHORT_HYP, abs=1e-6)
    assert got == pytest.approx(71.65313105737893, abs=1e-6)


def test_bleu_rename_invariance():
    hyp = "a b c a".split()
    ref = "a b c d a".split()
    mapping = {"a": "w1", "b": "w2", "c": "w3", "d": "w4"}
    renamed_hyp = [mapping[t] for t in hyp]
    renamed_ref = [mapping[t] for t in ref]
    assert mx.smoothed_bleu4(hyp, ref) == pytest.approx(
        mx.smoothed_bleu4(renamed_hyp, renamed_ref), abs=1e-12
    )


def test_bleu_in_range():
    rng = random.Random(0)
    vocab = ["w%d" % i for i in range(6)]
    for _ in range(200):
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
        assert 0.0 <= mx.smoothed_bleu4(hyp, ref) <= 100.0


def test_exact_match_all_equal():
    assert mx.exact_match(["a b", "c  d"], ["a b", "c d"]) == 1.0


def test_exact_match_normalizes_whitespace():
    assert mx.exact_match(["a   b"], ["a b"]) == 1.0
    assert mx.exact_match(["a b"], ["a c"]) == 0.0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        mx.exact_match(["a"], ["a", "b"])
    with pytest.raises(ValueError):
        mx.accuracy([1], [1, 0])
    with pytest.raises(ValueError):
        mx.f1_binary([1], [1, 0])


def test_f1_perfect():
    assert mx.f1_binary([1, 0, 1, 0], [1, 0, 1, 0]) == 1.0


def test_f1_all_positive_half_gold():
    assert mx.f1_binary([1, 1, 1, 1], [1, 1, 0, 0]) == pytest.approx(2 / 3)


def test_missing_prediction_is_a_false_negative_where_gold_is_positive():
    assert mx.precision_recall_f1([None, 1, None], [1, 1, 0]) == (1.0, 0.5, pytest.approx(2 / 3))
    assert mx.accuracy([None, 1, None], [1, 1, 0]) == pytest.approx(1 / 3)


def test_f1_equals_harmonic_mean_of_own_pr():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 30)
        preds = [rng.randint(0, 1) for _ in range(n)]
        golds = [rng.randint(0, 1) for _ in range(n)]
        p, r, f1 = mx.precision_recall_f1(preds, golds)
        expected = 2 * p * r / (p + r) if p + r else 0.0
        assert f1 == pytest.approx(expected, abs=1e-12)


def test_accuracy():
    assert mx.accuracy([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)


def test_metrics_permutation_equivariant():
    preds = [1, 0, 1, 1, 0]
    golds = [1, 1, 0, 1, 0]
    perm = [4, 2, 0, 1, 3]
    assert mx.accuracy(preds, golds) == mx.accuracy([preds[i] for i in perm], [golds[i] for i in perm])
    assert mx.f1_binary(preds, golds) == mx.f1_binary([preds[i] for i in perm], [golds[i] for i in perm])


def _mip_instance(tokenizer, n_sentinels):
    target = []
    for j in range(n_sentinels):
        target.append(tokenizer.mask_id(j))
        target.extend(tokenizer.encode(f"v{j}", use_specials=False))
    target.append(tokenizer.sep_id)
    return TrainingInstance((tokenizer.cls_id, tokenizer.sep_id), tuple(target), MIP)


def test_pred_count_match_exact(tokenizer):
    inst = _mip_instance(tokenizer, 2)
    output = list(inst.target_ids)
    assert mx.pred_count_match([output], [inst], tokenizer) == 1.0


def test_pred_count_match_empty_output(tokenizer):
    inst = _mip_instance(tokenizer, 2)
    assert mx.pred_count_match([[]], [inst], tokenizer) == 0.0


def test_pred_count_match_mixed_batch(tokenizer):
    instances = [_mip_instance(tokenizer, 2) for _ in range(10)]
    outputs = []
    for i in range(10):
        if i < 7:
            outputs.append(list(instances[i].target_ids))
        else:
            outputs.append([tokenizer.mask_id(0)])  # one sentinel instead of two
    assert mx.pred_count_match(outputs, instances, tokenizer) == pytest.approx(0.7)
