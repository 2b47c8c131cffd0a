"""Rule-table lexer that classifies code tokens and labels identifiers.

Each supported language is described by a small JSON table (keyword set,
identifier pattern, comment and string delimiters).  The lexer is total:
every byte of input ends up in some token, falling back to ``unknown`` for
characters no rule matches.  Identifier labeling is purely lexical: a token
is an identifier iff it matches the language's identifier pattern and is not
a reserved keyword.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

TOKEN_KINDS = ("identifier", "keyword", "literal", "operator", "punctuation", "comment", "unknown")

# Longest-first so that the scanner never splits a compound operator.
_DEFAULT_OPERATORS = [
    ">>>=", "<<<=",
    "===", "!==", ">>>", "<<=", ">>=", "**=", "...", "//=", "<=>",
    "&&", "||", "++", "--", "==", "!=", "<=", ">=", "->", "=>", "::",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "**", "//", "..", "?:", "??",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~", "?",
]

_PUNCTUATION = set("()[]{},;.:")

_NUMBER_RE = re.compile(
    r"0[xX][0-9a-fA-F_]+[a-zA-Z]*"
    r"|0[bB][01_]+[a-zA-Z]*"
    r"|\d[\d_]*(\.[\d_]+)?([eE][+-]?\d+)?[a-zA-Z]*"
)


class UnsupportedLanguageError(ValueError):
    """Raised when no rule table is registered for a language tag."""

    def __str__(self) -> str:
        return f"unsupported language tag: {self.args[0]}"


@dataclass(frozen=True)
class LexToken:
    text: str
    kind: str
    span: tuple[int, int]  # byte offsets into the UTF-8 encoding of the source


@dataclass(frozen=True)
class StringRule:
    delimiter: str
    escape: str | None = "\\"


@dataclass(frozen=True)
class LanguageLexer:
    """Immutable lexing rule table for one language."""

    language: str
    keyword_set: frozenset[str]
    identifier_pattern: str = r"[A-Za-z_][A-Za-z0-9_]*"
    line_comments: tuple[str, ...] = ()
    block_comments: tuple[tuple[str, str], ...] = ()
    strings: tuple[StringRule, ...] = (StringRule('"'), StringRule("'"))
    _ident_re: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.keyword_set:
            raise ValueError(f"language {self.language!r} has an empty keyword set")
        object.__setattr__(self, "_ident_re", re.compile(self.identifier_pattern))

    @classmethod
    def from_dict(cls, table: dict) -> "LanguageLexer":
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

    @classmethod
    def from_file(cls, path: str | Path) -> "LanguageLexer":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


def lex(source: str, lexer: LanguageLexer) -> list[LexToken]:
    """Tokenize ``source`` into classified lexemes covering all non-whitespace input."""
    tokens: list[LexToken] = []
    n = len(source)
    i = 0
    byte_pos = 0

    def _emit(end: int, kind: str):
        nonlocal i, byte_pos
        text = source[i:end]
        nbytes = len(text.encode("utf-8"))
        tokens.append(LexToken(text, kind, (byte_pos, byte_pos + nbytes)))
        i = end
        byte_pos += nbytes

    def _skip(end: int):
        nonlocal i, byte_pos
        byte_pos += len(source[i:end].encode("utf-8"))
        i = end

    # Sort string delimiters longest-first so triple quotes win over single ones.
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
                        break  # unterminated single-line string: stop at newline
                    j += 1
                _emit(j, "literal")
                matched_string = True
                break
        if matched_string:
            continue

        m = lexer._ident_re.match(source, i)
        if m and m.end() > i:
            text = source[i:m.end()]
            _emit(m.end(), "keyword" if text in lexer.keyword_set else "identifier")
            continue

        if ch.isascii() and ch.isdigit():
            m = _NUMBER_RE.match(source, i)
            _emit(m.end(), "literal")
            continue

        if ch in _PUNCTUATION:
            _emit(i + 1, "punctuation")
            continue

        matched_op = False
        for op in _DEFAULT_OPERATORS:
            if source.startswith(op, i):
                _emit(i + len(op), "operator")
                matched_op = True
                break
        if matched_op:
            continue

        # Unmatched symbol characters still count as operators if printable ASCII,
        # otherwise fall through to unknown.
        if ch.isascii() and ch.isprintable():
            _emit(i + 1, "operator")
        else:
            _emit(i + 1, "unknown")

    return tokens


def label_identifiers(tokens: list[LexToken]) -> list[int]:
    """Binary labels aligned to ``tokens``: 1 for identifiers, 0 otherwise."""
    return [1 if t.kind == "identifier" else 0 for t in tokens]


def unique_identifiers(tokens: list[LexToken]) -> list[str]:
    """Distinct identifier lexemes in first-occurrence order."""
    seen: dict[str, None] = {}
    for t in tokens:
        if t.kind == "identifier" and t.text not in seen:
            seen[t.text] = None
    return list(seen)


def _builtin_table_dir():
    return resources.files("codepretrain").joinpath("data/languages")


def builtin_language_tags() -> list[str]:
    """Tags of the rule tables shipped with the package."""
    return sorted(p.name[:-5] for p in _builtin_table_dir().iterdir() if p.name.endswith(".json"))


def load_lexers(config_dir: str | Path | None = None) -> dict[str, LanguageLexer]:
    """Load all rule tables from ``config_dir``, or the built-in set when omitted."""
    lexers: dict[str, LanguageLexer] = {}
    if config_dir is None:
        for entry in _builtin_table_dir().iterdir():
            if entry.name.endswith(".json"):
                table = json.loads(entry.read_text(encoding="utf-8"))
                lexers[table["language"]] = LanguageLexer.from_dict(table)
    else:
        for path in sorted(Path(config_dir).glob("*.json")):
            lx = LanguageLexer.from_file(path)
            lexers[lx.language] = lx
    return lexers


def get_lexer(language: str, lexers: dict[str, LanguageLexer] | None = None) -> LanguageLexer:
    registry = lexers if lexers is not None else load_lexers()
    try:
        return registry[language]
    except KeyError:
        raise UnsupportedLanguageError(language) from None
