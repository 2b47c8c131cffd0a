"""Rule-table lexer that classifies code tokens and labels identifiers.

Each supported language is described by a small JSON table (keyword set,
identifier pattern, comment and string delimiters).  A table compiles into
one scanner: an alternation of named groups in priority order (line
comments, block comments, strings with the longest delimiter first, the
identifier pattern, numbers, punctuation, operators with the longest first,
any other printable ASCII character as an operator, anything else as
``unknown``), walked with ``finditer``.  Each match carries the whitespace
before its token, and an empty end-of-input alternative takes trailing
whitespace; since ``unknown`` matches any character, the leading whitespace
never backtracks.  The lexer is total: every character of input ends up in
some token or in skipped whitespace.
Identifier labeling is purely lexical: a token is an identifier iff it
matches the language's identifier pattern and is not a reserved keyword.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import NamedTuple

# Longest-first so that the scanner never splits a compound operator.
_DEFAULT_OPERATORS = [
    ">>>=", "<<<=",
    "===", "!==", ">>>", "<<=", ">>=", "**=", "...", "//=", "<=>",
    "&&", "||", "++", "--", "==", "!=", "<=", ">=", "->", "=>", "::",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "**", "//", "..", "?:", "??",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~", "?",
]

# Numbers start with an ASCII digit; ``\d`` alone would admit other scripts' digits.
_NUMBER = (
    r"(?=[0-9])(?:0[xX][0-9a-fA-F_]+[a-zA-Z]*"
    r"|0[bB][01_]+[a-zA-Z]*"
    r"|\d[\d_]*(?:\.[\d_]+)?(?:[eE][+-]?\d+)?[a-zA-Z]*)"
)

# Token kind of each scanner group named otherwise; "word" is decided by the
# keyword set and "end" holds no token.
_GROUP_KIND = {"string": "literal", "number": "literal"}


class LexToken(NamedTuple):
    """One token; a tuple, so building the many a corpus lexes into stays cheap."""

    text: str
    kind: str  # identifier, keyword, literal, operator, punctuation, comment or unknown
    span: tuple[int, int]  # byte offsets into the UTF-8 encoding of the source


@dataclass(frozen=True)
class StringRule:
    delimiter: str
    escape: str | None = "\\"

    def pattern(self) -> str:
        """From the delimiter to the closing one or the end of input; a
        one-character delimiter also stops before a newline.  An escape takes
        the character after it along, when there is one."""
        d = re.escape(self.delimiter)
        body = rf"(?!{d})" + (r"[^\n]" if len(self.delimiter) == 1 else r"[\s\S]")
        if self.escape:
            body = rf"(?={re.escape(self.escape)})[\s\S]{{2}}|{body}"
        return rf"{d}(?:{body})*(?:{d})?"


@dataclass(frozen=True)
class LanguageLexer:
    """Immutable lexing rule table for one language.

    The identifier pattern becomes one group of the compiled scanner, so it
    must not match the empty string, and it may not use numbered
    backreferences or global inline flags such as ``(?i)``."""

    language: str
    keyword_set: frozenset[str]
    identifier_pattern: str = r"[A-Za-z_][A-Za-z0-9_]*"
    line_comments: tuple[str, ...] = ()
    block_comments: tuple[tuple[str, str], ...] = ()
    strings: tuple[StringRule, ...] = (StringRule('"'), StringRule("'"))
    _scanner: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.keyword_set:
            raise ValueError(f"language {self.language!r} has an empty keyword set")
        delimiters = [*self.line_comments, *(d for pair in self.block_comments for d in pair)]
        if "" in delimiters + [r.delimiter for r in self.strings]:
            raise ValueError("comment and string delimiters must be non-empty")
        groups = {
            "comment": "|".join([rf"{re.escape(s)}[^\n]*" for s in self.line_comments] + [
                rf"{re.escape(s)}[\s\S]*?(?:{re.escape(e)}|\Z)" for s, e in self.block_comments]),
            "string": "|".join(r.pattern() for r in sorted(self.strings, key=lambda r: -len(r.delimiter))),
            "word": self.identifier_pattern,
            "number": _NUMBER,
            "punctuation": r"[()\[\]{},;.:]",
            "operator": "|".join(map(re.escape, _DEFAULT_OPERATORS)) + r"|[!-~]",
            "unknown": r"[\s\S]",
        }
        try:
            empty_word = re.match(self.identifier_pattern, "")
            alternation = "|".join(f"(?P<{g}>{p})" for g, p in groups.items() if p)
            scanner = re.compile(rf"\s*(?:{alternation}|(?P<end>\Z))")
        except re.error as exc:
            raise ValueError(f"identifier pattern {self.identifier_pattern!r}: {exc}") from None
        if empty_word:
            raise ValueError(f"identifier pattern {self.identifier_pattern!r} matches the empty string")
        object.__setattr__(self, "_scanner", scanner)

    @classmethod
    def from_dict(cls, table: dict) -> "LanguageLexer":
        """The lexer a parsed JSON table describes; a malformed table raises
        ValueError naming the cause."""
        if not isinstance(table, dict):
            raise ValueError("a language table must be a JSON object")
        try:
            return cls(
                language=table["language"],
                keyword_set=frozenset(table["keywords"]),
                identifier_pattern=table.get("identifier", r"[A-Za-z_][A-Za-z0-9_]*"),
                line_comments=tuple(table.get("line_comments", [])),
                block_comments=tuple((a, b) for a, b in table.get("block_comments", [])),
                strings=tuple(
                    StringRule(s["delimiter"], s.get("escape", "\\"))
                    for s in table.get("strings", [{"delimiter": '"'}, {"delimiter": "'"}])
                ),
            )
        except KeyError as exc:
            raise ValueError(f"missing key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed table: {exc}") from None


def _scan(source: str, lexer: LanguageLexer):
    """Each token of ``source`` as ``(text, kind, match)``, in order.

    This is the one loop over the scanner.  A match is the whitespace before
    a token followed by the token, which is the match's last group; the empty
    ``end`` match that takes trailing whitespace yields nothing."""
    keywords = lexer.keyword_set
    for m in lexer._scanner.finditer(source):
        group = m.lastgroup
        text = m[group]
        if group == "word":
            yield text, "keyword" if text in keywords else "identifier", m
        elif group != "end":
            yield text, _GROUP_KIND.get(group, group), m


def lex(source: str, lexer: LanguageLexer) -> list[LexToken]:
    """Tokenize ``source`` into classified lexemes covering all non-whitespace input."""
    if source.isascii():
        return [LexToken(text, kind, m.span(m.lastindex)) for text, kind, m in _scan(source, lexer)]
    tokens: list[LexToken] = []
    end = 0  # byte offset where the previous token ended
    for text, kind, m in _scan(source, lexer):
        start = end + len(source[m.start():m.start(m.lastindex)].encode("utf-8"))
        end = start + len(text.encode("utf-8"))
        tokens.append(LexToken(text, kind, (start, end)))
    return tokens


def code_texts(source: str, lexer: LanguageLexer, keep_comments: bool = False) -> tuple[list[str], list[int]]:
    """The token texts of ``source`` and their identifier labels (1 for an
    identifier, 0 otherwise), in one scan with no token objects.  Comments
    are dropped unless ``keep_comments``."""
    texts: list[str] = []
    labels: list[int] = []
    for text, kind, _ in _scan(source, lexer):
        if keep_comments or kind != "comment":
            texts.append(text)
            labels.append(1 if kind == "identifier" else 0)
    return texts, labels


def label_identifiers(tokens: list[LexToken]) -> list[int]:
    """Binary labels aligned to ``tokens``: 1 for identifiers, 0 otherwise."""
    return [1 if t.kind == "identifier" else 0 for t in tokens]


def _builtin_table_dir():
    return resources.files("codepretrain").joinpath("data/languages")


def builtin_language_tags() -> list[str]:
    """Tags of the rule tables shipped with the package."""
    return sorted(p.name[:-5] for p in _builtin_table_dir().iterdir() if p.name.endswith(".json"))


def load_lexers() -> dict[str, LanguageLexer]:
    """Load the built-in rule tables, keyed by each table's language.  A
    table that is not valid JSON or is malformed raises ValueError naming its
    file and the cause."""
    lexers: dict[str, LanguageLexer] = {}
    for path in _builtin_table_dir().iterdir():
        if not path.name.endswith(".json"):
            continue
        try:
            lexer = LanguageLexer.from_dict(json.loads(path.read_text(encoding="utf-8")))
        except ValueError as exc:
            raise ValueError(f"language table {path}: {exc}") from None
        lexers[lexer.language] = lexer
    return lexers


def get_lexer(language: str, lexers: dict[str, LanguageLexer]) -> LanguageLexer:
    if language not in lexers:
        raise ValueError(f"unsupported language tag: {language}; supported tags are {', '.join(sorted(lexers))}")
    return lexers[language]
