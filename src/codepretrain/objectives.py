"""Builders for the four pre-training objectives.

An input document is laid out as ``[CLS] nl words [SEP] code tokens [SEP]``.
Masking always operates on whole words (NL words and code lexemes), never
inside a word's subword run:

- span masking: disjoint whole-word spans are replaced by one sentinel each,
  and the decoder target lists ``sentinel, span tokens`` pairs in order;
- identifier tagging: the uncorrupted sequence plus one binary label per
  subword of the code segment;
- identifier masking: every occurrence of each distinct identifier is
  replaced by that identifier's own sentinel (many occurrences, one
  sentinel), and the target lists ``sentinel, identifier`` pairs once each;
- dual generation: a bimodal document yields one NL-to-code and one
  code-to-NL instance, each source prefixed with its language-id token.

Span plans mask exactly ``round(rate * num_words)`` words.  The number of
spans is chosen so the average span length is 3, and the span lengths are a
uniformly sampled composition of the budget into parts of 1..5.  Targets end
with [SEP], which doubles as the end-of-sequence marker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import artifacts
from .bpe import NUM_MASK_TOKENS, SubwordTokenizer
from .corpus import CodeDocument

MSP = "MSP"
IT = "IT"
MIP = "MIP"
DUAL_NL2PL = "DUAL_NL2PL"
DUAL_PL2NL = "DUAL_PL2NL"
FINETUNE = "FINETUNE"
OBJECTIVES = (MSP, IT, MIP, DUAL_NL2PL, DUAL_PL2NL, FINETUNE)
DENOISING_TASKS = (MSP, IT, MIP)

MIN_SPAN, MAX_SPAN = 1, 5
TARGET_MEAN_SPAN = 3

NL_LANGUAGE_TAG = "en"

MAX_SRC_LEN, MAX_TGT_LEN = 512, 256  # the model's length caps, which ModelConfig enforces


class NoIdentifiersError(ValueError):
    """Identifier masking is undefined for a document with no identifiers;
    callers fall back to span masking."""


@dataclass(frozen=True)
class TrainingInstance:
    source_ids: tuple[int, ...]
    target_ids: tuple[int, ...]
    objective: str
    tag_labels: tuple[int, ...] | None = None
    control_code: str | None = None

    def to_dict(self) -> dict:
        d = {
            "source_ids": list(self.source_ids),
            "target_ids": list(self.target_ids),
            "objective": self.objective,
        }
        if self.tag_labels is not None:
            d["tag_labels"] = list(self.tag_labels)
        if self.control_code is not None:
            d["control_code"] = self.control_code
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainingInstance":
        if d["objective"] not in OBJECTIVES:
            raise ValueError(f"unknown objective {d['objective']!r}")
        tags = d.get("tag_labels")
        return cls(
            source_ids=tuple(d["source_ids"]),
            target_ids=tuple(d["target_ids"]),
            objective=d["objective"],
            tag_labels=None if tags is None else tuple(tags),
            control_code=d.get("control_code"),
        )


@dataclass(frozen=True)
class SpanPlan:
    spans: tuple[tuple[int, int], ...]  # (start, length) over whole-word positions

    @property
    def masked_words(self) -> int:
        return sum(length for _, length in self.spans)


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


@lru_cache(maxsize=None)
def _compositions(total: int, parts: int) -> int:
    """Number of ways to write ``total`` as ``parts`` ordered lengths in 1..5."""
    if parts == 0:
        return 1 if total == 0 else 0
    if total < parts * MIN_SPAN or total > parts * MAX_SPAN:
        return 0
    return sum(_compositions(total - l, parts - 1) for l in range(MIN_SPAN, MAX_SPAN + 1))


def _sample_lengths(budget: int, num_spans: int, rng: np.random.Generator) -> list[int]:
    """Uniformly sample one composition of ``budget`` into spans of 1..5 words."""
    lengths: list[int] = []
    remaining = budget
    for slot in range(num_spans, 0, -1):
        weights = [_compositions(remaining - l, slot - 1) for l in range(MIN_SPAN, MAX_SPAN + 1)]
        total = sum(weights)
        pick = rng.random() * total
        acc = 0
        chosen = max(l for l, w in zip(range(MIN_SPAN, MAX_SPAN + 1), weights) if w > 0)
        for l, w in zip(range(MIN_SPAN, MAX_SPAN + 1), weights):
            acc += w
            if pick < acc:
                chosen = l
                break
        lengths.append(chosen)
        remaining -= chosen
    return lengths


def _sample_gaps(free: int, num_gaps: int, rng: np.random.Generator) -> list[int]:
    """Uniform weak composition of ``free`` into ``num_gaps`` nonnegative parts."""
    if num_gaps == 1:
        return [free]
    if free == 0:
        return [0] * num_gaps
    dividers = np.sort(rng.choice(free + num_gaps - 1, size=num_gaps - 1, replace=False))
    gaps = []
    prev = -1
    for d in dividers:
        gaps.append(int(d) - prev - 1)
        prev = int(d)
    gaps.append(free + num_gaps - 2 - prev)
    return gaps


def sample_spans(
    num_words: int,
    rate: float,
    rng: np.random.Generator,
    min_budget: int = 0,
) -> SpanPlan:
    """Plan disjoint whole-word mask spans covering round(rate * num_words) words.

    Spans are kept non-adjacent whenever enough unmasked words remain to
    separate them, so distinct sentinels stand for genuinely distinct spans.
    ``min_budget`` lets the instance pipeline force at least one masked word
    on very short documents where the budget would round to zero.  Every draw
    comes from ``rng``.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    if num_words < 0:
        raise ValueError(f"num_words must be nonnegative, got {num_words}")
    budget = round_half_up(rate * num_words)
    budget = min(max(budget, min_budget), num_words)
    if budget == 0:
        return SpanPlan(spans=())

    num_spans = round_half_up(budget / TARGET_MEAN_SPAN)
    num_spans = max(num_spans, math.ceil(budget / MAX_SPAN), 1)
    num_spans = min(num_spans, budget)
    lengths = _sample_lengths(budget, num_spans, rng)

    free = num_words - budget
    separators = num_spans - 1 if free >= num_spans - 1 else 0
    gaps = _sample_gaps(free - separators, num_spans + 1, rng)

    spans: list[tuple[int, int]] = []
    cursor = gaps[0]
    for i, length in enumerate(lengths):
        spans.append((cursor, length))
        cursor += length + gaps[i + 1]
        if i < num_spans - 1 and separators:
            cursor += 1
    return SpanPlan(spans=tuple(spans))


WordIds = list[tuple[int, ...]]  # the subword ids of each whole word


def _encode_words(
    words: Iterable[str], tokenizer: SubwordTokenizer, budget: float = math.inf
) -> WordIds:
    """Subword ids of each word in the longest whole-word prefix of ``words``
    whose total fits ``budget``.  This is the only place a word becomes ids;
    the tokenizer encodes each distinct word once, and no word after the
    first one that overflows is looked up.

    The private builders below take a document's NL and code words encoded
    here, possibly clipped; zipping them with ``doc.code_tokens`` and
    ``doc.identifier_labels`` truncates those to the clipped length.
    """
    out: WordIds = []
    used = 0
    for w in words:
        ids = tokenizer.encode_word(w)
        used += len(ids)
        if used > budget:
            break
        out.append(ids)
    return out


def _flat(word_ids: WordIds) -> list[int]:
    return [i for ids in word_ids for i in ids]


def _split_at_boundary(
    spans: Iterable[tuple[int, int]], boundary: int
) -> list[tuple[int, int]]:
    """Split any span straddling the NL/code boundary so the separator token
    between the segments survives corruption."""
    out: list[tuple[int, int]] = []
    for start, length in spans:
        end = start + length
        if start < boundary < end:
            out.append((start, boundary - start))
            out.append((boundary, end - boundary))
        else:
            out.append((start, length))
    return out


def _msp(nl: WordIds, code: WordIds, tokenizer: SubwordTokenizer, plan: SpanPlan) -> TrainingInstance:
    word_ids = nl + code
    for start, length in plan.spans:
        if start < 0 or start + length > len(word_ids):
            raise ValueError(f"span {(start, length)} exceeds document of {len(word_ids)} words")
    spans = _split_at_boundary(plan.spans, len(nl))
    if len(spans) > NUM_MASK_TOKENS:
        raise ValueError(f"{len(spans)} spans exceed {NUM_MASK_TOKENS} sentinels")

    sentinel_at = {start: tokenizer.mask_id(i) for i, (start, _) in enumerate(spans)}
    masked = {pos for start, length in spans for pos in range(start, start + length)}
    source: list[int] = [tokenizer.cls_id]
    target: list[int] = []
    for lo, segment in ((0, nl), (len(nl), code)):
        for pos, ids in enumerate(segment, start=lo):
            if pos in sentinel_at:
                source.append(sentinel_at[pos])
                target.append(sentinel_at[pos])
            (target if pos in masked else source).extend(ids)
        source.append(tokenizer.sep_id)
    if spans:
        target.append(tokenizer.sep_id)
    return TrainingInstance(tuple(source), tuple(target), MSP)


def _it(doc: CodeDocument, nl: WordIds, code: WordIds, tokenizer: SubwordTokenizer) -> TrainingInstance:
    source = [tokenizer.cls_id, *_flat(nl), tokenizer.sep_id]
    tag_labels: list[int] = []
    for ids, label in zip(code, doc.identifier_labels):
        source.extend(ids)
        tag_labels.extend([label] * len(ids))
    source.append(tokenizer.sep_id)
    return TrainingInstance(tuple(source), (), IT, tag_labels=tuple(tag_labels))


def _mip(doc: CodeDocument, nl: WordIds, code: WordIds, tokenizer: SubwordTokenizer) -> TrainingInstance:
    words = list(zip(doc.code_tokens, doc.identifier_labels, code))
    distinct: dict[str, tuple[int, tuple[int, ...]]] = {}  # identifier -> (sentinel index, ids)
    for token, label, ids in words:
        if label == 1 and token not in distinct:
            distinct[token] = (len(distinct), ids)
    if not distinct:
        raise NoIdentifiersError("document has no identifier tokens")
    if len(distinct) > NUM_MASK_TOKENS:
        raise ValueError(f"{len(distinct)} distinct identifiers exceed {NUM_MASK_TOKENS} sentinels")

    source = [tokenizer.cls_id, *_flat(nl), tokenizer.sep_id]
    for token, label, ids in words:
        if label == 1:
            source.append(tokenizer.mask_id(distinct[token][0]))
        else:
            source.extend(ids)
    source.append(tokenizer.sep_id)

    target: list[int] = []
    for index, ids in distinct.values():
        target.append(tokenizer.mask_id(index))
        target.extend(ids)
    target.append(tokenizer.sep_id)
    return TrainingInstance(tuple(source), tuple(target), MIP)


def _dual_pair(
    doc: CodeDocument, nl: WordIds, code: WordIds, tokenizer: SubwordTokenizer
) -> tuple[TrainingInstance, TrainingInstance]:
    nl_ids, pl_ids = _flat(nl), _flat(code)
    nl_tag, pl_tag = tokenizer.language_id(NL_LANGUAGE_TAG), tokenizer.language_id(doc.language)
    cls, sep = tokenizer.cls_id, tokenizer.sep_id
    return (
        TrainingInstance((cls, nl_tag, *nl_ids, sep), (*pl_ids, sep), DUAL_NL2PL),
        TrainingInstance((cls, pl_tag, *pl_ids, sep), (*nl_ids, sep), DUAL_PL2NL),
    )


def _encode_doc(doc: CodeDocument, tokenizer: SubwordTokenizer) -> tuple[WordIds, WordIds]:
    return _encode_words(doc.nl_tokens, tokenizer), _encode_words(doc.code_tokens, tokenizer)


def build_msp(doc: CodeDocument, tokenizer: SubwordTokenizer, plan: SpanPlan) -> TrainingInstance:
    """Span-corruption instance: masked source plus sentinel-delimited target."""
    return _msp(*_encode_doc(doc, tokenizer), tokenizer, plan)


def build_it(doc: CodeDocument, tokenizer: SubwordTokenizer) -> TrainingInstance:
    """Uncorrupted sequence plus per-subword identifier labels for the code segment."""
    return _it(doc, *_encode_doc(doc, tokenizer), tokenizer)


def build_mip(doc: CodeDocument, tokenizer: SubwordTokenizer) -> TrainingInstance:
    """Identifier-obfuscation instance: each distinct identifier gets one
    sentinel shared by all of its occurrences."""
    return _mip(doc, *_encode_doc(doc, tokenizer), tokenizer)


def build_dual_pair(
    doc: CodeDocument, tokenizer: SubwordTokenizer
) -> tuple[TrainingInstance, TrainingInstance]:
    """NL-to-code and code-to-NL instances with language-id source prefixes."""
    if not doc.is_bimodal:
        raise ValueError("dual generation requires a bimodal document")
    return _dual_pair(doc, *_encode_doc(doc, tokenizer), tokenizer)


def pick_denoising_task(rng: np.random.Generator) -> str:
    """One of the three denoising objectives, each with probability 1/3."""
    return DENOISING_TASKS[rng.integers(len(DENOISING_TASKS))]


def parse_sentinel_segments(
    ids: Iterable[int], tokenizer: SubwordTokenizer
) -> list[tuple[int, list[int]]]:
    """Split a target-style sequence into (sentinel index, following ids) pairs.

    Ids before the first sentinel are dropped; a [SEP] ends the sequence.
    """
    segments: list[tuple[int, list[int]]] = []
    current: list[int] | None = None
    for token_id in ids:
        if token_id == tokenizer.sep_id:
            break
        index = tokenizer.sentinel_index(token_id)
        if index is not None:
            current = []
            segments.append((index, current))
        elif current is not None:
            current.append(token_id)
    return segments


def splice_msp(instance: TrainingInstance, tokenizer: SubwordTokenizer) -> list[int]:
    """Reinsert target spans at their sentinels; yields the uncorrupted ids."""
    segments = dict(parse_sentinel_segments(instance.target_ids, tokenizer))
    out: list[int] = []
    for token_id in instance.source_ids:
        index = tokenizer.sentinel_index(token_id)
        if index is not None:
            out.extend(segments.get(index, []))
        else:
            out.append(token_id)
    return out


def clip_document(doc: CodeDocument, max_nl: int, max_code: int) -> CodeDocument:
    """Length cap at whole-word granularity; a no-op for short documents."""
    if len(doc.nl_tokens) <= max_nl and len(doc.code_tokens) <= max_code:
        return doc
    return CodeDocument(
        nl_tokens=doc.nl_tokens[:max_nl],
        code_tokens=doc.code_tokens[:max_code],
        language=doc.language,
        identifier_labels=doc.identifier_labels[:max_code],
    )


def document_rng(global_seed: int, doc_index: int) -> np.random.Generator:
    """Per-document generator; output is independent of processing order."""
    return np.random.default_rng(np.random.SeedSequence([global_seed, doc_index]))


def _check_length_caps(max_src_len: int, max_tgt_len: int) -> None:
    """A source needs room for [CLS], one id and two [SEP]s, a target for one
    id and [SEP]; tighter caps would build instances with no payload."""
    for name, value, low, high in (("max_src_len", max_src_len, 4, MAX_SRC_LEN),
                                   ("max_tgt_len", max_tgt_len, 2, MAX_TGT_LEN)):
        if not low <= value <= high:
            raise ValueError(f"{name} must be in {low}..{high}, got {value!r}")


def build_denoising_instances(
    docs: Iterable[CodeDocument],
    tokenizer: SubwordTokenizer,
    rate: float = 0.15,
    seed: int = 0,
    max_src_len: int = 512,
    max_tgt_len: int = 256,
) -> list[TrainingInstance]:
    """One denoising instance per document, objective drawn per document.

    Documents are clipped at whole-word boundaries so sources fit
    ``max_src_len`` subword ids.  Documents without identifiers, and the rare
    identifier-heavy ones whose obfuscation target would overflow
    ``max_tgt_len``, fall back from identifier masking to span masking.
    """
    _check_length_caps(max_src_len, max_tgt_len)
    # [CLS] + two [SEP]s frame the source; NL takes at most half the payload
    # budget and code gets whatever NL leaves unused.
    payload = max_src_len - 3
    instances: list[TrainingInstance] = []
    for i, doc in enumerate(docs):
        nl = _encode_words(doc.nl_tokens, tokenizer, payload // 2)
        code = _encode_words(doc.code_tokens, tokenizer, payload - sum(map(len, nl)))
        rng = document_rng(seed, i)
        task = pick_denoising_task(rng)
        if task == MIP:
            try:
                inst = _mip(doc, nl, code, tokenizer)
                if len(inst.target_ids) <= max_tgt_len:
                    instances.append(inst)
                    continue
                task = MSP
            except NoIdentifiersError:
                task = MSP
        if task == IT:
            instances.append(_it(doc, nl, code, tokenizer))
        else:
            plan = sample_spans(len(nl) + len(code), rate, rng, min_budget=1)
            instances.append(_msp(nl, code, tokenizer, plan))
    return instances


def build_dual_instances(
    docs: Iterable[CodeDocument],
    tokenizer: SubwordTokenizer,
    max_src_len: int = 512,
    max_tgt_len: int = 256,
) -> list[TrainingInstance]:
    """Two instances per bimodal document.  Each segment appears once as a
    source payload and once as a target, so both segments are clipped to the
    smaller of the two budgets; documents left with no NL word (unimodal
    ones, or ones whose first NL word alone overflows) are skipped.
    """
    _check_length_caps(max_src_len, max_tgt_len)
    budget = min(max_src_len - 3, max_tgt_len - 1)
    instances: list[TrainingInstance] = []
    for doc in docs:
        nl = _encode_words(doc.nl_tokens, tokenizer, budget)
        if nl:
            code = _encode_words(doc.code_tokens, tokenizer, budget)
            instances.extend(_dual_pair(doc, nl, code, tokenizer))
    return instances


def write_instances(instances: Iterable[TrainingInstance], path: str | Path) -> int:
    return artifacts.write_jsonl(instances, path)


def read_instances(path: str | Path) -> Iterator[TrainingInstance]:
    return artifacts.read_jsonl(path, TrainingInstance.from_dict)
