from __future__ import annotations

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codepretrain import bpe, corpus
from codepretrain import lexer as lx


def kinds(tokens):
    return [t.kind for t in tokens]


def texts(tokens):
    return [t.text for t in tokens]


def test_lex_assignment(mini_lexer):
    tokens = lx.lex("x = 1", mini_lexer)
    assert kinds(tokens) == ["identifier", "operator", "literal"]
    assert texts(tokens) == ["x", "=", "1"]


def test_lex_empty(mini_lexer):
    assert lx.lex("", mini_lexer) == []


def test_lex_keyword_parens(mini_lexer):
    tokens = lx.lex("while (i)", mini_lexer)
    assert kinds(tokens) == ["keyword", "punctuation", "identifier", "punctuation"]


def test_label_identifiers_definitional(mini_lexer):
    tokens = lx.lex("x = 1", mini_lexer)
    assert lx.label_identifiers(tokens) == [1, 0, 0]


def test_label_all_keywords(mini_lexer):
    tokens = lx.lex("int float return if else while", mini_lexer)
    assert all(t.kind == "keyword" for t in tokens)
    assert lx.label_identifiers(tokens) == [0, 0, 0, 0, 0, 0]


def test_function_snippet_labels(mini_lexer):
    src = "int binarySearch(int arr) { if (arr) return target; }"
    tokens = lx.lex(src, mini_lexer)
    by_text = {t.text: t.kind for t in tokens}
    assert by_text["binarySearch"] == "identifier"
    assert by_text["arr"] == "identifier"
    assert by_text["target"] == "identifier"
    assert by_text["if"] == "keyword"
    assert by_text["return"] == "keyword"


def test_lex_deterministic(mini_lexer):
    src = 'int a = "s"; // c\nfloat b2 = a * 2.5e3;'
    assert lx.lex(src, mini_lexer) == lx.lex(src, mini_lexer)


def test_strings_and_comments_not_identifiers(mini_lexer):
    tokens = lx.lex('x = "hello world"; /* note about y */ // more z', mini_lexer)
    assert kinds(tokens) == ["identifier", "operator", "literal", "punctuation", "comment", "comment"]


def test_field_access_chain(mini_lexer):
    tokens = lx.lex("a.b", mini_lexer)
    assert kinds(tokens) == ["identifier", "punctuation", "identifier"]


def test_spans_are_ordered_and_byte_based(mini_lexer):
    src = "a = été + 1"  # identifier with two-byte chars
    tokens = lx.lex(src, mini_lexer)
    prev_end = 0
    for t in tokens:
        assert t.span[0] >= prev_end
        assert t.span[1] > t.span[0]
        prev_end = t.span[1]
    raw = src.encode("utf-8")
    for t in tokens:
        assert raw[t.span[0] : t.span[1]].decode("utf-8") == t.text


def test_unknown_tokens_are_total(mini_lexer):
    tokens = lx.lex("a \x01 b", mini_lexer)
    assert kinds(tokens) == ["identifier", "unknown", "identifier"]


def test_builtin_tables_complete(lexers):
    expected = {"mini", "java", "python", "go", "javascript", "php", "ruby", "c", "csharp"}
    assert expected <= set(lexers)
    for lexer in lexers.values():
        assert lexer.keyword_set


def test_language_specific_identifiers(lexers):
    php = lx.lex("$count = $count + 1;", lexers["php"])
    assert php[0].kind == "identifier" and php[0].text == "$count"
    rb = lx.lex("@total = items.size", lexers["ruby"])
    assert rb[0].kind == "identifier" and rb[0].text == "@total"
    py = lx.lex('def f():\n    """doc"""\n    return None', lexers["python"])
    by_text = {t.text: t.kind for t in py}
    assert by_text['"""doc"""'] == "literal"
    assert by_text["None"] == "keyword"
    go = lx.lex("s := `raw\nstring`", lexers["go"])
    assert any(t.kind == "literal" and t.text.startswith("`") for t in go)


def test_unsupported_language_has_typed_error(lexers):
    tags = "c, csharp, go, java, javascript, mini, php, python, ruby"
    with pytest.raises(ValueError, match=f"^unsupported language tag: cobol; supported tags are {tags}$"):
        lx.get_lexer("cobol", lexers)


def test_language_set_is_closed(lexers):
    """Each built-in table is named for its language, and every language the
    lexers accept has a tokenizer language id, so it can build dual instances."""
    for path in lx._builtin_table_dir().iterdir():
        if path.name.endswith(".json"):
            assert json.loads(path.read_text(encoding="utf-8"))["language"] == path.name[:-5]
    tok = bpe.SubwordTokenizer(bpe.default_specials(), [])
    for tag in lexers:
        tok.language_id(tag)


def test_empty_keyword_set_rejected():
    with pytest.raises(ValueError):
        lx.LanguageLexer(language="x", keyword_set=frozenset())


@pytest.mark.parametrize("table, cause", [
    ({"language": "mini"}, "missing key 'keywords'"),
    ({"keywords": ["int"]}, "missing key 'language'"),
    ({"language": "mini", "keywords": ["int"], "identifier": "[A-Z"},
     "identifier pattern '[A-Z': unterminated character set"),
    ({"language": "mini", "keywords": ["int"], "identifier": "[a-z]*"},
     "identifier pattern '[a-z]*' matches the empty string"),
], ids=["no-keywords", "no-language", "bad-pattern", "empty-pattern"])
def test_malformed_table_names_its_cause(table, cause):
    with pytest.raises(ValueError) as exc:
        lx.LanguageLexer.from_dict(table)
    assert str(exc.value).startswith(cause)


@pytest.mark.parametrize("rules", [
    {"line_comments": ("",)},
    {"block_comments": (("", "*/"),)},
    {"strings": (lx.StringRule(""),)},
])
def test_empty_delimiter_rejected(rules):
    # an empty delimiter matches at every position without consuming input
    with pytest.raises(ValueError, match="delimiters must be non-empty"):
        lx.LanguageLexer(language="x", keyword_set=frozenset({"if"}), **rules)


@st.composite
def _source_text(draw):
    atoms = st.sampled_from(
        ["foo", "bar2", "if", "while", "int", "return", "+", "=", "(", ")", "{", "}", ";", "12", '"s"', "// c"]
    )
    return " ".join(draw(st.lists(atoms, max_size=30)))


@given(_source_text())
@settings(max_examples=100, deadline=None)
def test_keyword_filtering_property(src):
    lexer = lx.load_lexers()["mini"]
    for t in lx.lex(src, lexer):
        if t.kind == "identifier":
            assert t.text not in lexer.keyword_set


@given(st.text(max_size=120))
@settings(max_examples=100, deadline=None)
def test_label_length_matches_tokens(src):
    lexer = lx.load_lexers()["mini"]
    tokens = lx.lex(src, lexer)
    assert len(lx.label_identifiers(tokens)) == len(tokens)


@given(st.text(max_size=120))
@settings(max_examples=100, deadline=None)
def test_lex_covers_non_whitespace(src):
    lexer = lx.load_lexers()["mini"]
    tokens = lx.lex(src, lexer)
    covered = "".join(t.text for t in tokens)
    assert [c for c in covered if not c.isspace()] == [c for c in src if not c.isspace()]


@pytest.mark.parametrize("source, want", [
    ("x" + " " * 200_000, [("x", "identifier", (0, 1))]),
    (" " * 200_000 + "x", [("x", "identifier", (200_000, 200_001))]),
    (" " * 200_000, []),
])
def test_long_whitespace_runs_lex_in_linear_time(mini_lexer, source, want):
    """A run of whitespace is consumed in one step wherever it sits, so a long
    one before, after or instead of the code stays cheap."""
    start = time.perf_counter()
    tokens = lx.lex(source, mini_lexer)
    record = corpus.RawRecord(code=source, language="mini")
    try:
        doc = corpus.normalize(record, mini_lexer)
    except corpus.EmptyDocumentError:
        doc = None
    elapsed = time.perf_counter() - start
    assert [(t.text, t.kind, t.span) for t in tokens] == want
    if want:
        assert (doc.code_tokens, doc.identifier_labels) == (("x",), (1,))
    else:
        assert doc is None
    assert elapsed < 2.0
