"""Corpus ingestion and normalization.

Raw records arrive as line-delimited JSON with string fields ``code``,
``language`` and an optional ``docstring``.  Normalization lexes the code,
labels identifiers, and whitespace-splits the docstring into NL word tokens.
A document without a docstring is unimodal (empty NL side).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from . import artifacts
from . import lexer as lx

log = logging.getLogger(__name__)


class CorpusFormatError(ValueError):
    """A record violates the corpus file schema."""


class EmptyDocumentError(ValueError):
    """Lexing produced no code tokens; the document cannot be used."""


@dataclass(frozen=True)
class RawRecord:
    code: str
    language: str
    docstring: str | None = None

    def validate(self) -> "RawRecord":
        if not isinstance(self.code, str) or not self.code.strip():
            raise CorpusFormatError("field 'code' must be a non-empty string")
        if not isinstance(self.language, str) or not self.language:
            raise CorpusFormatError("field 'language' must be a non-empty string")
        if self.docstring is not None and not isinstance(self.docstring, str):
            raise CorpusFormatError("field 'docstring' must be a string when present")
        return self


@dataclass(frozen=True)
class CodeDocument:
    nl_tokens: tuple[str, ...]
    code_tokens: tuple[str, ...]
    language: str
    identifier_labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.identifier_labels) != len(self.code_tokens):
            raise ValueError(
                f"label/token misalignment: {len(self.identifier_labels)} labels for "
                f"{len(self.code_tokens)} code tokens"
            )
        if any(y not in (0, 1) for y in self.identifier_labels):
            raise ValueError("identifier labels must be 0 or 1")

    @property
    def is_bimodal(self) -> bool:
        return len(self.nl_tokens) > 0

    def to_dict(self) -> dict:
        return {
            "nl_tokens": list(self.nl_tokens),
            "code_tokens": list(self.code_tokens),
            "language": self.language,
            "identifier_labels": list(self.identifier_labels),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CodeDocument":
        return cls(
            nl_tokens=tuple(d["nl_tokens"]),
            code_tokens=tuple(d["code_tokens"]),
            language=d["language"],
            identifier_labels=tuple(d["identifier_labels"]),
        )


@dataclass
class LanguageStats:
    with_nl: int = 0
    without_nl: int = 0
    identifier_tokens: int = 0
    code_tokens: int = 0

    @property
    def identifier_rate(self) -> float:
        return self.identifier_tokens / self.code_tokens if self.code_tokens else 0.0


@dataclass(frozen=True)
class IngestError:
    line_number: int
    message: str


def ingest(path: str | Path, errors: list[IngestError] | None = None) -> Iterator[RawRecord]:
    """Yield raw records from the JSONL corpus ``path`` in file order.

    Malformed lines are reported with their 1-based line number into
    ``errors``, or logged when no list is given; processing continues.  An
    unreadable file raises.
    """
    with open(path, encoding="utf-8") as f:
        yield from _ingest_lines(f, errors)


def _ingest_lines(lines: Iterable[str], errors: list[IngestError] | None) -> Iterator[RawRecord]:
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise CorpusFormatError("record must be an object")
            record = RawRecord(
                code=obj.get("code"),
                language=obj.get("language"),
                docstring=obj.get("docstring"),
            ).validate()
        except (json.JSONDecodeError, CorpusFormatError) as exc:
            if errors is None:
                log.warning("line %d: %s", lineno, exc)
            else:
                errors.append(IngestError(lineno, str(exc)))
            continue
        yield record


def normalize(
    record: RawRecord,
    lexer: lx.LanguageLexer,
    strip_comments: bool = True,
) -> CodeDocument:
    """Turn a raw record into a CodeDocument with identifier labels.

    The code's token texts and labels are read in one scan of the lexer's
    matches, with no token objects."""
    if lexer.language != record.language:
        raise ValueError(f"{lexer.language} lexer given a {record.language} record")
    texts, labels = lx.code_texts(record.code, lexer, keep_comments=not strip_comments)
    if not texts:
        raise EmptyDocumentError(f"no code tokens after lexing {record.language} source")
    nl_tokens = tuple(record.docstring.split()) if record.docstring else ()
    return CodeDocument(
        nl_tokens=nl_tokens,
        code_tokens=tuple(texts),
        language=record.language,
        identifier_labels=tuple(labels),
    )


def normalize_corpus(
    records: Iterable[RawRecord],
    lexers: dict[str, lx.LanguageLexer],
    strip_comments: bool = True,
) -> Iterator[CodeDocument]:
    """Normalize a record stream, dropping empty documents with a warning."""
    for record in records:
        lexer = lx.get_lexer(record.language, lexers)
        try:
            yield normalize(record, lexer, strip_comments=strip_comments)
        except EmptyDocumentError:
            log.warning("dropping document with no lexable code (language=%s)", record.language)


def compute_stats(docs: Iterable[CodeDocument]) -> dict[str, LanguageStats]:
    """Document counts and identifier rates by language; order-independent."""
    stats: dict[str, LanguageStats] = {}
    for doc in docs:
        s = stats.setdefault(doc.language, LanguageStats())
        if doc.is_bimodal:
            s.with_nl += 1
        else:
            s.without_nl += 1
        s.identifier_tokens += sum(doc.identifier_labels)
        s.code_tokens += len(doc.code_tokens)
    return stats


def write_documents(docs: Iterable[CodeDocument], path: str | Path) -> int:
    return artifacts.write_jsonl(docs, path)


def read_documents(path: str | Path) -> Iterator[CodeDocument]:
    return artifacts.read_jsonl(path, CodeDocument.from_dict)


def bundled_corpus_path() -> Path:
    """Location of the small corpus shipped with the package."""
    from importlib import resources

    return Path(str(resources.files("codepretrain").joinpath("data/mini_corpus.jsonl")))
