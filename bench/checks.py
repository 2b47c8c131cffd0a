"""Correctness checks, run outside the timed blocks.

Each check compares the package's output with a computation made here, apart
from the package, or with a property of the method.  A check returns a list
of error strings; an empty list means it passed.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Sequence

import numpy as np

GREEDY_TOL = 1e-9
BEAM_TOL = 1e-9
BLEU_TOL = 1e-9


def bleu4(hyp: Sequence[str], ref: Sequence[str]) -> float:
    """Sentence BLEU-4 in [0, 100]: add-one smoothing on every n-gram
    precision, geometric mean, brevity penalty; 0 for an empty hypothesis."""
    if not hyp:
        return 0.0
    logs = []
    for n in (1, 2, 3, 4):
        h = Counter(zip(*(hyp[i:] for i in range(n))))
        r = Counter(zip(*(ref[i:] for i in range(n))))
        clipped = sum((h & r).values())
        logs.append(math.log((clipped + 1) / (max(len(hyp) - n + 1, 0) + 1)))
    bp = 1.0 if len(hyp) >= len(ref) else math.exp(1 - len(ref) / len(hyp))
    return 100.0 * bp * math.exp(sum(logs) / 4)


def corpus_bleu_lines(hyps: list[str], refs: list[str]) -> float:
    """Mean sentence BLEU over line pairs; an empty reference scores 0."""
    scores = [bleu4(h.split(), r.split()) if r.split() else 0.0 for h, r in zip(hyps, refs)]
    return sum(scores) / len(scores)


def check_eval(reported: float, hyps: list[str], refs: list[str], what: str) -> list[str]:
    expected = corpus_bleu_lines(hyps, refs)
    if abs(reported - expected) > BLEU_TOL:
        return [f"{what}: eval BLEU {reported!r} != independent BLEU {expected!r}"]
    return []


def check_greedy(probs: np.ndarray, out: Sequence[int], what: str) -> list[str]:
    """``probs`` holds teacher-forced next-token distributions along ``out``;
    each emitted token must be (within tolerance) the most probable one."""
    if len(out) != len(probs):
        return [f"{what}: {len(out)} tokens but {len(probs)} distributions"]
    gaps = probs.max(axis=1) - probs[np.arange(len(out)), list(out)]
    worst = int(np.argmax(gaps))
    if gaps[worst] > GREEDY_TOL:
        return [f"{what}: token {worst} is {gaps[worst]:.3g} below the position's maximum"]
    return []


def sequence_logprob(probs: np.ndarray, seq: Sequence[int]) -> float:
    return float(np.log(probs[np.arange(len(seq)), list(seq)]).sum())


def plain_beam(next_probs: Callable[[list[list[int]]], np.ndarray], beam: int, max_len: int):
    """Beam search without end-of-sequence: keep the ``beam`` best prefixes by
    summed log-probability, expanding each by its ``beam`` best tokens.

    ``next_probs(prefixes)`` returns one next-token distribution per prefix.
    Returns (best sequence, its log-probability).
    """
    hyps: list[tuple[list[int], float]] = [([], 0.0)]
    for _ in range(max_len):
        dists = next_probs([seq for seq, _ in hyps])
        expanded = []
        for (seq, score), dist in zip(hyps, dists):
            logp = np.log(dist)
            for tok in np.argsort(-logp)[:beam]:
                expanded.append((seq + [int(tok)], score + float(logp[tok])))
        expanded.sort(key=lambda h: -h[1])
        hyps = expanded[:beam]
    return hyps[0]


def check_beam(program_logprob: float, reference_logprob: float, what: str) -> list[str]:
    if abs(program_logprob - reference_logprob) > BEAM_TOL:
        return [
            f"{what}: beam hypothesis log-prob {program_logprob!r} != "
            f"plain beam search {reference_logprob!r}"
        ]
    return []


def check_same_logs(logs: list[list[tuple]], what: str) -> list[str]:
    """Blocks run from the same state and seed must log bit-identical losses."""
    for i, log in enumerate(logs[1:], start=2):
        if log != logs[0]:
            return [f"{what}: block {i} loss log differs from block 1"]
    return []


def check_loss_falls(before: float, after: float, what: str) -> list[str]:
    if not after < before:
        return [f"{what}: held loss did not fall ({before:.4f} -> {after:.4f})"]
    return []


def check_counts(what: str, got: int, expected: int) -> list[str]:
    if got != expected:
        return [f"{what}: got {got}, expected {expected}"]
    return []


def check_roundtrip(encode, decode, texts: Sequence[str]) -> list[str]:
    bad = sum(1 for t in texts if decode(encode(t)) != t)
    if bad:
        return [f"tokenizer: decode(encode(t)) != t for {bad} of {len(texts)} texts"]
    return []


def check_identifier_labels(docs, planted: Sequence[frozenset[str]]) -> list[str]:
    """The tokens labelled 1 in each document must be exactly the names the
    generator planted in its code."""
    if len(docs) != len(planted):
        return [f"labels: {len(docs)} documents for {len(planted)} records"]
    bad = [
        i for i, (doc, names) in enumerate(zip(docs, planted))
        if {t for t, y in zip(doc.code_tokens, doc.identifier_labels) if y} != names
    ]
    if bad:
        return [f"labels: identifier labels differ from the planted names in {len(bad)} documents (first {bad[0]})"]
    return []


def train_tokens(log_objectives: Sequence[str], pools: dict[str, list], batch_size: int) -> float:
    """Real tokens trained on: per logged step, batch size times the mean
    source+target length of that step's objective pool (source alone for
    identifier tagging, which has no target)."""
    means = {
        name: sum(len(i.source_ids) + len(i.target_ids) for i in pool) / len(pool)
        for name, pool in pools.items() if pool
    }
    return sum(min(batch_size, len(pools[o])) * means[o] for o in log_objectives)
