"""Evaluation metrics: smoothed 4-gram BLEU, exact match, binary F1, accuracy,
and the sentinel prediction-count match ratio for mask-style outputs.

BLEU smoothing is add-one on every n-gram precision (numerator and
denominator), so scores are reproducible within this artifact but not
comparable across toolkits.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .bpe import SubwordTokenizer
from .objectives import TrainingInstance, parse_sentinel_segments


@dataclass
class EvalReport:
    metric: str
    value: float
    per_example: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"metric": self.metric, "value": self.value, "per_example": self.per_example}


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def smoothed_bleu4(hypothesis: Sequence[str], reference: Sequence[str]) -> float:
    """Sentence BLEU with 4-gram precisions, add-one smoothing, brevity penalty.

    Returns a score in [0, 100]; an empty hypothesis scores 0.
    """
    if len(reference) == 0:
        raise ValueError("reference must be non-empty")
    if len(hypothesis) == 0:
        return 0.0
    log_precision_sum = 0.0
    for n in range(1, 5):
        hyp_counts = _ngrams(hypothesis, n)
        ref_counts = _ngrams(reference, n)
        matches = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        total = sum(hyp_counts.values())
        log_precision_sum += math.log((matches + 1) / (total + 1))
    brevity = 1.0
    if len(hypothesis) < len(reference):
        brevity = math.exp(1.0 - len(reference) / len(hypothesis))
    return 100.0 * brevity * math.exp(log_precision_sum / 4.0)


def _check_lengths(a, b):
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")


def exact_match(hyps: Sequence[str], refs: Sequence[str]) -> float:
    """Fraction of pairs whose whitespace-normalized token sequences agree."""
    _check_lengths(hyps, refs)
    if not hyps:
        return 0.0
    hits = sum(1 for h, r in zip(hyps, refs) if h.split() == r.split())
    return hits / len(hyps)


def accuracy(preds: Sequence, golds: Sequence) -> float:
    _check_lengths(preds, golds)
    if not preds:
        return 0.0
    return sum(1 for p, g in zip(preds, golds) if p == g) / len(preds)


def precision_recall_f1(preds: Sequence, golds: Sequence[int]) -> tuple[float, float, float]:
    """Binary scores with 1 as the positive class; a prediction other than 1,
    a missing label included, counts as non-positive."""
    _check_lengths(preds, golds)
    tp = sum(1 for p, g in zip(preds, golds) if p == 1 and g == 1)
    fp = sum(1 for p, g in zip(preds, golds) if p == 1 and g == 0)
    fn = sum(1 for p, g in zip(preds, golds) if p != 1 and g == 1)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def f1_binary(preds: Sequence, golds: Sequence[int]) -> float:
    return precision_recall_f1(preds, golds)[2]


def pred_count_match(
    outputs: Iterable[Sequence[int]],
    instances: Iterable[TrainingInstance],
    tokenizer: SubwordTokenizer,
) -> float:
    """Fraction of decoded outputs whose sentinel-delimited segment count equals
    the sentinel count of the instance's target."""
    total = 0
    hits = 0
    for out, inst in zip(outputs, instances):
        expected = len(parse_sentinel_segments(inst.target_ids, tokenizer))
        got = len(parse_sentinel_segments(out, tokenizer))
        hits += int(got == expected)
        total += 1
    return hits / total if total else 0.0
