"""``corpus.normalize`` against a frozen copy of its token-list form.

The reference lexes with the frozen hand-written lexer of
``test_lexer_reference``, drops comments when asked, takes the token texts and
labels each token 1 when it is an identifier.  ``normalize`` must build the
same ``CodeDocument``, or raise ``EmptyDocumentError`` on the same inputs, for
both ``strip_comments`` values, on every code string the lexer reference test
lexes and on a few edge cases.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codepretrain import corpus, synth
from codepretrain import lexer as lx

from test_lexer_reference import _FUZZ_PIECES, FUZZ_LEXERS, LEXERS, TAGS, _ref_lex


def _ref_normalize(record: corpus.RawRecord, lexer: lx.LanguageLexer, strip_comments: bool) -> corpus.CodeDocument:
    if lexer.language != record.language:
        raise ValueError(f"{lexer.language} lexer given a {record.language} record")
    tokens = _ref_lex(record.code, lexer)
    if strip_comments:
        tokens = [t for t in tokens if t.kind != "comment"]
    if not tokens:
        raise corpus.EmptyDocumentError(f"no code tokens after lexing {record.language} source")
    nl_tokens = tuple(record.docstring.split()) if record.docstring else ()
    return corpus.CodeDocument(
        nl_tokens=nl_tokens,
        code_tokens=tuple(t.text for t in tokens),
        language=record.language,
        identifier_labels=tuple(1 if t.kind == "identifier" else 0 for t in tokens),
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except corpus.EmptyDocumentError:
        return corpus.EmptyDocumentError


def _assert_same(code: str, lexer: lx.LanguageLexer, docstring: str | None = None) -> None:
    record = corpus.RawRecord(code=code, language=lexer.language, docstring=docstring)
    for strip in (True, False):
        got = _outcome(corpus.normalize, record, lexer, strip)
        want = _outcome(_ref_normalize, record, lexer, strip)
        assert got == want, (lexer.language, strip, code)


def test_bundled_corpus_matches_reference(bundled_records):
    for record in bundled_records:
        _assert_same(record.code, LEXERS[record.language], record.docstring)


@pytest.mark.parametrize("tag", TAGS)
def test_synth_corpus_matches_reference(tag):
    rng = np.random.default_rng(7)
    for record in synth.random_corpus(rng, 40):
        _assert_same(record.code, LEXERS[tag], record.docstring)


@given(st.sampled_from(sorted(FUZZ_LEXERS)), st.lists(st.sampled_from(_FUZZ_PIECES), max_size=24))
@settings(max_examples=500, deadline=None)
def test_fuzz_matches_reference(tag, pieces):
    _assert_same("".join(pieces), FUZZ_LEXERS[tag])


@given(st.sampled_from(TAGS), st.text(max_size=60))
@settings(max_examples=200, deadline=None)
def test_arbitrary_text_matches_reference(tag, source):
    _assert_same(source, LEXERS[tag])


@pytest.mark.parametrize("code", [
    "x = 1   \n\t  ",
    "return y;\n\n\n",
    "a\xa0b\u3000c\u2028d\x1ce",
    "\xa0\u3000 \u2028\x1c if\u2028",
    "f(x) // trailing note\n",
    "/* only a comment */",
    "# only a comment\n   ",
    "s = 'a\\'' + \"b\" # c\n/* d */ e",
    "naïve = größe + 1",
])
@pytest.mark.parametrize("tag", TAGS)
def test_edge_cases_match_reference(tag, code):
    _assert_same(code, LEXERS[tag], "a  docstring\n")


@pytest.mark.parametrize("code", ["", "   ", "\n\t \xa0\u3000\u2028\x1c\r\n"])
@pytest.mark.parametrize("strip", [True, False])
def test_whitespace_only_source_is_empty(mini_lexer, code, strip):
    record = corpus.RawRecord(code=code, language="mini")
    with pytest.raises(corpus.EmptyDocumentError):
        corpus.normalize(record, mini_lexer, strip_comments=strip)


def test_non_ascii_identifier_matches_reference():
    lexer = replace(LEXERS["python"], identifier_pattern=r"[^\W\d]\w*")
    code = "größe = naïve_λ + 1  # é\nΔx2 = größe\u3000 "
    _assert_same(code, lexer)
    doc = corpus.normalize(corpus.RawRecord(code=code, language="python"), lexer)
    assert doc.code_tokens == ("größe", "=", "naïve_λ", "+", "1", "Δx2", "=", "größe")
    assert doc.identifier_labels == (1, 0, 1, 0, 0, 1, 0, 1)
