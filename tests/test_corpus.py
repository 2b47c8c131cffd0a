from __future__ import annotations

import json
import random

import pytest

from codepretrain import corpus

GOLDEN_RATES = {
    # Frozen from a standalone counting pass over the bundled corpus.
    "go": (35, 15, 0.3138479001135074),
    "java": (34, 16, 0.27360308285163776),
    "mini": (31, 19, 0.28586278586278585),
    "python": (34, 16, 0.4172549019607843),
}


def _write(tmp_path, lines):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_ingest_two_valid_lines(tmp_path):
    path = _write(
        tmp_path,
        [
            json.dumps({"code": "int a;", "language": "mini"}),
            json.dumps({"code": "return;", "language": "mini", "docstring": "done"}),
        ],
    )
    errors: list[corpus.IngestError] = []
    records = list(corpus.ingest(path, errors=errors))
    assert len(records) == 2
    assert errors == []
    assert records[1].docstring == "done"


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    errors: list[corpus.IngestError] = []
    assert list(corpus.ingest(path, errors=errors)) == []
    assert errors == []


def test_ingest_truncated_line_reports_line_number(tmp_path):
    path = _write(
        tmp_path,
        [
            json.dumps({"code": "int a;", "language": "mini"}),
            '{"code": "int b;", "langua',
        ],
    )
    errors: list[corpus.IngestError] = []
    records = list(corpus.ingest(path, errors=errors))
    assert len(records) == 1
    assert len(errors) == 1
    assert errors[0].line_number == 2


def test_ingest_validates_fields(tmp_path):
    path = _write(
        tmp_path,
        [
            json.dumps({"code": "   ", "language": "mini"}),
            json.dumps({"language": "mini"}),
            json.dumps({"code": "int a;"}),
            json.dumps(["not", "an", "object"]),
        ],
    )
    errors: list[corpus.IngestError] = []
    assert list(corpus.ingest(path, errors=errors)) == []
    assert [e.line_number for e in errors] == [1, 2, 3, 4]


def test_ingest_unreadable_file_is_fatal(tmp_path):
    with pytest.raises(OSError):
        list(corpus.ingest(tmp_path / "missing.jsonl"))


def test_normalize_bimodal(mini_lexer):
    record = corpus.RawRecord(code="int a;", language="mini", docstring="declares a")
    doc = corpus.normalize(record, mini_lexer)
    assert doc.nl_tokens == ("declares", "a")
    assert doc.code_tokens == ("int", "a", ";")
    assert doc.identifier_labels == (0, 1, 0)
    assert doc.is_bimodal


def test_normalize_unimodal(mini_lexer):
    doc = corpus.normalize(corpus.RawRecord(code="return;", language="mini"), mini_lexer)
    assert doc.nl_tokens == ()
    assert not doc.is_bimodal


def test_normalize_labels_informative_name(mini_lexer):
    doc = corpus.normalize(
        corpus.RawRecord(code="binarySearch ( arr )", language="mini"), mini_lexer
    )
    assert doc.code_tokens[0] == "binarySearch"
    assert doc.identifier_labels[0] == 1


def test_normalize_strips_comments_by_default(mini_lexer):
    record = corpus.RawRecord(code="int a; // note", language="mini")
    assert "// note" not in corpus.normalize(record, mini_lexer).code_tokens
    kept = corpus.normalize(record, mini_lexer, strip_comments=False)
    assert "// note" in kept.code_tokens


def test_normalize_wrong_lexer_language(mini_lexer):
    record = corpus.RawRecord(code="int a;", language="java")
    with pytest.raises(ValueError, match="mini lexer given a java record"):
        corpus.normalize(record, mini_lexer)


def test_normalize_empty_document_error(mini_lexer):
    record = corpus.RawRecord(code="/* only a comment */", language="mini")
    with pytest.raises(corpus.EmptyDocumentError):
        corpus.normalize(record, mini_lexer)


def test_normalize_corpus_drops_empty_docs(mini_lexer, lexers):
    records = [
        corpus.RawRecord(code="/* nothing */", language="mini"),
        corpus.RawRecord(code="int a;", language="mini"),
    ]
    docs = list(corpus.normalize_corpus(records, lexers))
    assert len(docs) == 1


def test_document_alignment_enforced():
    with pytest.raises(ValueError):
        corpus.CodeDocument((), ("a", "b"), "mini", (1,))
    with pytest.raises(ValueError):
        corpus.CodeDocument((), ("a",), "mini", (2,))


def test_stats_single_doc():
    doc = corpus.CodeDocument((), ("int", "a", ";"), "mini", (0, 1, 0))
    stats = corpus.compute_stats([doc])
    assert stats["mini"].identifier_rate == pytest.approx(1 / 3)
    assert stats["mini"].without_nl == 1


def test_stats_two_docs():
    docs = [
        corpus.CodeDocument((), ("a", "b"), "mini", (1, 1)),
        corpus.CodeDocument((), ("c", "d"), "mini", (0, 0)),
    ]
    stats = corpus.compute_stats(docs)
    assert stats["mini"].identifier_rate == pytest.approx(0.5)


def test_stats_empty_corpus():
    assert corpus.compute_stats([]) == {}


def test_bundled_corpus_golden_rates(bundled_docs):
    stats = corpus.compute_stats(bundled_docs)
    assert set(stats) == set(GOLDEN_RATES)
    for lang, (with_nl, without_nl, rate) in GOLDEN_RATES.items():
        s = stats[lang]
        assert s.with_nl == with_nl
        assert s.without_nl == without_nl
        assert s.identifier_rate == pytest.approx(rate, abs=1e-12)


def test_stats_order_independent(bundled_docs):
    shuffled = list(bundled_docs)
    random.Random(5).shuffle(shuffled)
    assert corpus.compute_stats(shuffled) == corpus.compute_stats(bundled_docs)


def test_document_roundtrip(bundled_docs, tmp_path):
    path = tmp_path / "docs.jsonl"
    corpus.write_documents(bundled_docs, path)
    back = list(corpus.read_documents(path))
    assert back == bundled_docs
