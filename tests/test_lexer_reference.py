"""The compiled-scanner lexer against a frozen copy of the hand-written one.

The reference is ``lex`` as it was before each rule table became one
compiled alternation: a per-character loop that tried, in order,
whitespace, line comments, block comments, strings (longest delimiter
first), the identifier pattern, ASCII-led numbers, punctuation, operators
(longest first), printable ASCII as an operator and anything else as
unknown, and that summed the UTF-8 length of every lexeme and skipped gap
for its byte spans.  Both must give the same ``(text, kind, span)`` list on
every input.
"""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codepretrain import lexer as lx
from codepretrain import synth

# --------------------------------------------------------------------------
# the reference: the hand-written scanner loop
# --------------------------------------------------------------------------

_REF_OPERATORS = [
    ">>>=", "<<<=",
    "===", "!==", ">>>", "<<=", ">>=", "**=", "...", "//=", "<=>",
    "&&", "||", "++", "--", "==", "!=", "<=", ">=", "->", "=>", "::",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "**", "//", "..", "?:", "??",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~", "?",
]

_REF_PUNCTUATION = set("()[]{},;.:")

_REF_NUMBER_RE = re.compile(
    r"0[xX][0-9a-fA-F_]+[a-zA-Z]*"
    r"|0[bB][01_]+[a-zA-Z]*"
    r"|\d[\d_]*(\.[\d_]+)?([eE][+-]?\d+)?[a-zA-Z]*"
)


def _ref_lex(source: str, lexer: lx.LanguageLexer) -> list[lx.LexToken]:
    ident_re = re.compile(lexer.identifier_pattern)
    tokens: list[lx.LexToken] = []
    n = len(source)
    i = 0
    byte_pos = 0

    def _emit(end: int, kind: str):
        nonlocal i, byte_pos
        text = source[i:end]
        nbytes = len(text.encode("utf-8"))
        tokens.append(lx.LexToken(text, kind, (byte_pos, byte_pos + nbytes)))
        i = end
        byte_pos += nbytes

    def _skip(end: int):
        nonlocal i, byte_pos
        byte_pos += len(source[i:end].encode("utf-8"))
        i = end

    string_rules = sorted(lexer.strings, key=lambda r: -len(r.delimiter))

    while i < n:
        ch = source[i]
        if ch.isspace():
            j = i + 1
            while j < n and source[j].isspace():
                j += 1
            _skip(j)
            continue

        matched_comment = False
        for start in lexer.line_comments:
            if source.startswith(start, i):
                j = source.find("\n", i)
                _emit(n if j < 0 else j, "comment")
                matched_comment = True
                break
        if matched_comment:
            continue
        for start, end in lexer.block_comments:
            if source.startswith(start, i):
                j = source.find(end, i + len(start))
                _emit(n if j < 0 else j + len(end), "comment")
                matched_comment = True
                break
        if matched_comment:
            continue

        matched_string = False
        for rule in string_rules:
            if source.startswith(rule.delimiter, i):
                j = i + len(rule.delimiter)
                while j < n:
                    if rule.escape and source.startswith(rule.escape, j) and j + 1 < n:
                        j += 2
                        continue
                    if source.startswith(rule.delimiter, j):
                        j += len(rule.delimiter)
                        break
                    if "\n" == source[j] and len(rule.delimiter) == 1:
                        break
                    j += 1
                _emit(j, "literal")
                matched_string = True
                break
        if matched_string:
            continue

        m = ident_re.match(source, i)
        if m and m.end() > i:
            text = source[i:m.end()]
            _emit(m.end(), "keyword" if text in lexer.keyword_set else "identifier")
            continue

        if ch.isascii() and ch.isdigit():
            m = _REF_NUMBER_RE.match(source, i)
            _emit(m.end(), "literal")
            continue

        if ch in _REF_PUNCTUATION:
            _emit(i + 1, "punctuation")
            continue

        matched_op = False
        for op in _REF_OPERATORS:
            if source.startswith(op, i):
                _emit(i + len(op), "operator")
                matched_op = True
                break
        if matched_op:
            continue

        if ch.isascii() and ch.isprintable():
            _emit(i + 1, "operator")
        else:
            _emit(i + 1, "unknown")

    return tokens


# --------------------------------------------------------------------------
# the comparisons
# --------------------------------------------------------------------------

LEXERS = lx.load_lexers()
TAGS = sorted(LEXERS)
# The built-in tables list string delimiters longest first already; these
# list them shortest first, so the scanner must order them itself.
FUZZ_LEXERS = {**LEXERS, **{
    f"{tag}-reversed": replace(LEXERS[tag], strings=LEXERS[tag].strings[::-1]) for tag in ("java", "python")
}}


def _assert_same(source: str, lexer: lx.LanguageLexer) -> None:
    got = [(t.text, t.kind, t.span) for t in lx.lex(source, lexer)]
    want = [(t.text, t.kind, t.span) for t in _ref_lex(source, lexer)]
    assert got == want, (lexer.language, source)


def test_all_nine_tables_are_compared():
    assert TAGS == ["c", "csharp", "go", "java", "javascript", "mini", "php", "python", "ruby"]


def test_bundled_corpus_matches_reference(bundled_records):
    for record in bundled_records:
        _assert_same(record.code, LEXERS[record.language])
        if record.docstring:
            _assert_same(record.docstring, LEXERS[record.language])


@pytest.mark.parametrize("tag", TAGS)
def test_synth_corpus_matches_reference(tag):
    """Snippets in every language ``synth`` writes, lexed with every table."""
    rng = np.random.default_rng(7)
    for record in synth.random_corpus(rng, 40):
        _assert_same(record.code, LEXERS[tag])


# Pieces that reach every rule: each table's string delimiters, escapes at the
# end of input, unterminated strings and comments, every comment opener,
# operator prefixes, numbers, ASCII controls that are whitespace (\x1c) or not
# (\x01), a non-ASCII letter and a non-ASCII digit.
_FUZZ_PIECES = [
    '"', "'", '"""', "'''", "`", "\\", "\\\n", '"\\', "'a\\'", '"x\n', "'''x", '"""x"',
    "/*", "*/", "//", "#", "=begin", "=end", "\n", "\r", "\r\n", "\t", " ", "\x1c", "\x01",
    "é", "٣", "1٣", "0x1F", "0b10", "3.5e-2", "1_000L", "0x", "9", "foo", "Bar2", "$x", "@y",
    "@@z", "ok?", "if", "return", ">>>=", "<<=", "=>", "...", "::", "?", "-", "+", "=",
    "(", "]", "{", ",", ";", ".", ":", "@", "$",
]


@given(st.sampled_from(sorted(FUZZ_LEXERS)), st.lists(st.sampled_from(_FUZZ_PIECES), max_size=24))
@settings(max_examples=500, deadline=None)
def test_fuzz_matches_reference(tag, pieces):
    _assert_same("".join(pieces), FUZZ_LEXERS[tag])


@given(st.sampled_from(TAGS), st.text(max_size=60))
@settings(max_examples=200, deadline=None)
def test_arbitrary_text_matches_reference(tag, source):
    _assert_same(source, LEXERS[tag])
