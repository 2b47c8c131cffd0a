"""Byte-level BPE subword tokenizer trained from scratch.

Every byte value is a base vocabulary unit, so any UTF-8 text is encodable
and ``decode(encode(t)) == t`` holds exactly.  Reserved special tokens
([PAD], [CLS], [SEP], [MASK0]..[MASK99], plus language-id tokens) occupy the
lowest id slots and are never produced by merges.

Pre-tokenization splits raw text into runs of letters/underscores, digits,
whitespace, and other symbols; merges never cross those boundaries.  Bytes
are spelled with the usual printable byte alphabet (a bijection from byte
values onto printable code points) so vocab and merges serialize as plain
text lines.
"""

from __future__ import annotations

import json
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from . import artifacts

FORMAT_VERSION = 1

PAD, CLS, SEP = "[PAD]", "[CLS]", "[SEP]"
NUM_MASK_TOKENS = 100
MASK_TOKENS = tuple(f"[MASK{i}]" for i in range(NUM_MASK_TOKENS))

_PRETOKEN_RE = re.compile(r"[A-Za-z_]+|[0-9]+|\s+|[^A-Za-z0-9_\s]+")


def default_specials() -> list[str]:
    """[PAD], [CLS], [SEP], the 100 sentinels, then one <tag> id per built-in
    language and ``en``."""
    from .lexer import builtin_language_tags

    return [PAD, CLS, SEP, *MASK_TOKENS, *(f"<{t}>" for t in sorted(builtin_language_tags() + ["en"]))]


def _byte_alphabet() -> dict[int, str]:
    # Bijection byte value -> printable code point; printable ASCII maps to itself.
    visible = (
        list(range(ord("!"), ord("~") + 1))
        + list(range(ord("¡"), ord("¬") + 1))
        + list(range(ord("®"), ord("ÿ") + 1))
    )
    mapping = {b: chr(b) for b in visible}
    shift = 0
    for b in range(256):
        if b not in mapping:
            mapping[b] = chr(256 + shift)
            shift += 1
    return mapping


_BYTE_TO_CHAR = _byte_alphabet()
_CHAR_TO_BYTE = {c: b for b, c in _BYTE_TO_CHAR.items()}


def _to_printable(raw: bytes) -> str:
    return "".join(_BYTE_TO_CHAR[b] for b in raw)


def _to_bytes(printable: str) -> bytes:
    return bytes(_CHAR_TO_BYTE[c] for c in printable)


def is_printable_token(printable: str) -> bool:
    """A merge result is kept only if its bytes decode to UTF-8 text whose
    characters avoid Unicode category C*, newline and tab excepted."""
    try:
        text = _to_bytes(printable).decode("utf-8")
    except UnicodeDecodeError:
        return False
    for ch in text:
        if ch in ("\n", "\t"):
            continue
        if unicodedata.category(ch).startswith("C"):
            return False
    return True


def _merge_pair(symbols: list[str], pair: tuple[str, str]) -> list[str]:
    """``symbols`` with every occurrence of ``pair`` merged, left to right."""
    first, second = pair
    merged = first + second
    out: list[str] = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == first and symbols[i + 1] == second:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


@dataclass(frozen=True)
class CompressionReport:
    mean_ratio: float
    ratios: tuple[float, ...]


class SubwordTokenizer:
    """Trained byte-level BPE vocabulary with merges and reserved specials."""

    def __init__(self, specials: list[str], merges: list[tuple[str, str]]):
        self._specials = list(specials)
        self._special_ids = {tok: i for i, tok in enumerate(self._specials)}
        if len(self._special_ids) != len(self._specials):
            raise ValueError("duplicate special tokens")
        self._merges = list(merges)
        self._id_to_token: list[str] = list(self._specials)
        self._id_to_token.extend(_BYTE_TO_CHAR[b] for b in range(256))
        for a, b in self._merges:
            self._id_to_token.append(a + b)
        self._token_to_id = {t: i for i, t in enumerate(self._id_to_token)}
        if len(self._token_to_id) != len(self._id_to_token):
            raise ValueError("vocabulary contains duplicate tokens")
        self._ranks = {pair: r for r, pair in enumerate(self._merges)}
        self._special_re = re.compile(
            "|".join(re.escape(s) for s in sorted(self._specials, key=len, reverse=True))
        )
        self._ids: dict[str, tuple[int, ...]] = {}  # raw text -> encode(text, use_specials=False)

    # -- introspection ------------------------------------------------------

    @property
    def vocab_size(self) -> int:
        return len(self._id_to_token)

    @property
    def specials(self) -> list[str]:
        return list(self._specials)

    @property
    def merges(self) -> list[tuple[str, str]]:
        return list(self._merges)

    @property
    def pad_id(self) -> int:
        return self._special_ids[PAD]

    @property
    def cls_id(self) -> int:
        return self._special_ids[CLS]

    @property
    def sep_id(self) -> int:
        return self._special_ids[SEP]

    def mask_id(self, index: int) -> int:
        if not 0 <= index < NUM_MASK_TOKENS:
            raise ValueError(f"sentinel index out of range: {index}")
        return self._special_ids[MASK_TOKENS[index]]

    def sentinel_index(self, token_id: int) -> int | None:
        """Sentinel number when ``token_id`` is a [MASKi] id, else None."""
        if 0 <= token_id < len(self._specials):
            tok = self._specials[token_id]
            if tok.startswith("[MASK") and tok.endswith("]"):
                return int(tok[5:-1])
        return None

    def language_id(self, tag: str) -> int:
        """The id of the ``<tag>`` special; a tag without one raises ValueError
        listing the language ids the tokenizer has."""
        token = f"<{tag}>"
        if token not in self._special_ids:
            tags = [s for s in self._specials if s.startswith("<")]
            raise ValueError(f"tokenizer has no language id {token}; its language ids are {', '.join(tags)}")
        return self._special_ids[token]

    def is_special_id(self, token_id: int) -> bool:
        return 0 <= token_id < len(self._specials)

    def token_for_id(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._id_to_token):
            raise ValueError(f"id out of range: {token_id}")
        return self._id_to_token[token_id]

    # -- encode / decode ----------------------------------------------------

    def _merge_pretoken(self, pretoken: str) -> tuple[int, ...]:
        symbols = list(_to_printable(pretoken.encode("utf-8")))
        while len(symbols) > 1:
            ranks = [self._ranks.get(pair) for pair in zip(symbols, symbols[1:])]
            best_rank = min((r for r in ranks if r is not None), default=None)
            if best_rank is None:
                break
            symbols = _merge_pair(symbols, self._merges[best_rank])
        return tuple(self._token_to_id[token] for token in symbols)

    def encode_word(self, word: str) -> tuple[int, ...]:
        """``tuple(encode(word, use_specials=False))``, computed once per distinct word."""
        ids = self._ids.get(word)
        if ids is None:
            ids = self._ids[word] = tuple(self._encode_plain(word))
        return ids

    def encode(self, text: str, use_specials: bool = True) -> list[int]:
        """Encode UTF-8 text to ids; special literals become single ids when enabled."""
        if not (use_specials and self._specials):
            return self._encode_plain(text)
        ids, pos = [], 0
        for m in self._special_re.finditer(text):
            ids.extend(self._encode_plain(text[pos:m.start()]))
            ids.append(self._special_ids[m.group(0)])
            pos = m.end()
        ids.extend(self._encode_plain(text[pos:]))
        return ids

    def _encode_plain(self, text: str) -> list[int]:
        ids: list[int] = []
        for pretoken in _PRETOKEN_RE.findall(text):
            cached = self._ids.get(pretoken)
            if cached is None:
                cached = self._ids[pretoken] = self._merge_pretoken(pretoken)
            ids.extend(cached)
        return ids

    def decode(self, ids: Iterable[int]) -> str:
        """Inverse of encode on valid ids; exact on any encode output."""
        raw = bytearray()
        for token_id in ids:
            token = self.token_for_id(token_id)
            if self.is_special_id(token_id):
                raw.extend(token.encode("utf-8"))
            else:
                raw.extend(_to_bytes(token))
        return raw.decode("utf-8", errors="replace")

    # -- persistence --------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        header = [
            f"#codepretrain-tokenizer v{FORMAT_VERSION}",
            "#pretokenizer: regex [A-Za-z_]+|[0-9]+|\\s+|[^A-Za-z0-9_\\s]+ on raw text",
            "#alphabet: 256 byte units in printable byte-alphabet spelling",
            "#specials: " + json.dumps(self._specials),
        ]
        merges = [f"#codepretrain-merges v{FORMAT_VERSION}", *(f"{a} {b}" for a, b in self._merges)]
        for name, lines in (("vocab.txt", header + self._id_to_token), ("merges.txt", merges)):
            artifacts.write_atomic(directory / name, lambda f: f.writelines(line + "\n" for line in lines))

    @classmethod
    def load(cls, directory: str | Path) -> "SubwordTokenizer":
        directory = Path(directory)
        with open(directory / "vocab.txt", encoding="utf-8") as f:
            lines = f.read().split("\n")
        _check_header(lines[0], "#codepretrain-tokenizer v", "vocab")
        specials: list[str] | None = None
        body_start = 0
        for i, line in enumerate(lines):
            if line.startswith("#specials: "):
                specials = json.loads(line[len("#specials: "):])
            if not line.startswith("#"):
                body_start = i
                break
        if specials is None:
            raise ValueError("vocab file is missing its specials header")
        merges_path = directory / "merges.txt"
        with open(merges_path, encoding="utf-8") as f:
            header, *body = f.read().split("\n")
        _check_header(header, "#codepretrain-merges v", "merges")
        # every line after the header is one merge, one whose first unit is "#" too
        merges = []
        for number, line in enumerate(body, start=2):
            if not line:
                continue
            units = line.split(" ")
            if len(units) != 2 or not all(units):
                raise ValueError(f"{merges_path} line {number}: a merge is two units separated by one space, "
                                 f"got {line!r}")
            merges.append((units[0], units[1]))
        tok = cls(specials, merges)
        stored = [ln for ln in lines[body_start:] if ln != ""]
        if stored != tok._id_to_token:
            raise ValueError("vocab file disagrees with merges file")
        return tok


def _check_header(line: str, prefix: str, what: str) -> None:
    """Refuse a tokenizer file whose header is not ``prefix`` + ``FORMAT_VERSION``."""
    if not line.startswith(prefix):
        raise ValueError(f"not a tokenizer {what} file")
    if (found := line[len(prefix):]) != str(FORMAT_VERSION):
        raise ValueError(f"{what} file has format version {found}, expected {FORMAT_VERSION}")


def train(
    corpus: Iterable[str],
    vocab_size: int,
    min_freq: int = 3,
) -> SubwordTokenizer:
    """Learn a byte-level BPE vocabulary from an iterable of texts.

    Merge candidates must occur at least ``min_freq`` times and spell a
    printable token; among equal-frequency candidates the lexicographically
    smallest pair wins, so training is deterministic.
    """
    specials = default_specials()
    base = len(specials) + 256
    if vocab_size <= base:
        raise ValueError(f"vocab_size must exceed specials + byte units ({base}), got {vocab_size}")
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")

    pretoken_freq: Counter[str] = Counter()
    for text in corpus:
        pretoken_freq.update(_PRETOKEN_RE.findall(text))
    if not pretoken_freq:
        raise ValueError("training corpus is empty")
    word_freq = {_to_printable(p.encode("utf-8")): f for p, f in pretoken_freq.items()}

    segments: dict[str, list[str]] = {w: list(w) for w in word_freq}
    pair_counts: Counter[tuple[str, str]] = Counter()
    pair_words: dict[tuple[str, str], set[str]] = {}
    for word, symbols in segments.items():
        freq = word_freq[word]
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] += freq
            pair_words.setdefault(pair, set()).add(word)

    special_set = set(specials)
    rejected: set[str] = set()
    merges: list[tuple[str, str]] = []

    def _acceptable(pair: tuple[str, str]) -> bool:
        merged = pair[0] + pair[1]
        if merged in rejected:
            return False
        if merged in special_set or not is_printable_token(merged):
            rejected.add(merged)
            return False
        return True

    while base + len(merges) < vocab_size:
        best: tuple[str, str] | None = None
        best_count = 0
        for pair, count in pair_counts.items():
            if count < min_freq or count < best_count:
                continue
            if count == best_count and best is not None and pair >= best:
                continue
            if _acceptable(pair):
                best = pair
                best_count = count
        if best is None:
            break
        merges.append(best)
        for word in list(pair_words.get(best, ())):
            freq = word_freq[word]
            symbols = segments[word]
            for pair in zip(symbols, symbols[1:]):
                pair_counts[pair] -= freq
                if pair_counts[pair] <= 0:
                    del pair_counts[pair]
                ws = pair_words.get(pair)
                if ws is not None:
                    ws.discard(word)
                    if not ws:
                        del pair_words[pair]
            out = _merge_pair(symbols, best)
            segments[word] = out
            for pair in zip(out, out[1:]):
                pair_counts[pair] += freq
                pair_words.setdefault(pair, set()).add(word)

    return SubwordTokenizer(specials, merges)


def compression_ratio(
    tokenizer_a: SubwordTokenizer,
    tokenizer_b: SubwordTokenizer,
    corpus: Iterable[str],
) -> CompressionReport:
    """Per-document length(encode_a)/length(encode_b) and its mean."""
    ratios: list[float] = []
    for text in corpus:
        na = len(tokenizer_a.encode(text, use_specials=False))
        nb = len(tokenizer_b.encode(text, use_specials=False))
        if nb == 0:
            continue
        ratios.append(na / nb)
    if not ratios:
        raise ValueError("corpus is empty")
    return CompressionReport(mean_ratio=sum(ratios) / len(ratios), ratios=tuple(ratios))
