"""Seeded generator of the benchmark's corpora.

The benchmark makes every input itself, so a change to the package (its
``synth`` module included) cannot change a workload.  The shape of each
record -- language, number of functions, kind of each statement, docstring
presence and length -- is a fixed function of its index; the seed picks only
the names, constants, comment texts and docstring words.  So every seed yields
the same amount of work, spelled differently, and timings compare across
seeds.

Every identifier a record's code contains is one the generator planted and
returns in ``Record.planted``; comments hold only non-identifier text once
stripped, and nothing else in the code is lexed as an identifier.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

LANGUAGES = ("mini", "java", "python", "go")

# None of these is a keyword in any of the four rule tables.
_STEMS = (
    "count", "total", "item", "index", "result", "buffer", "limit", "offset",
    "size", "name", "flag", "data", "node", "cursor", "temp", "acc", "alpha",
    "beta", "gamma", "delta", "width", "height", "score", "weight", "depth",
    "key", "entry", "slot", "queue", "stack", "head", "tail", "left", "right",
    "lower", "upper", "step", "stride", "block", "chunk", "frame", "packet",
    "token", "window", "bucket", "table", "row", "col", "pivot", "span",
)
_SUFFIXES = ("", "", "", "", "2", "_val", "_max", "_min", "Id", "_len", "Count", "_ptr")
_VERBS = (
    "compute", "update", "scan", "accumulate", "find", "track", "merge",
    "filter", "collect", "return", "check", "count", "shift", "clamp", "fold",
)
_WORDS = (
    "the", "a", "of", "each", "over", "from", "and", "into", "with", "for",
    "total", "sum", "average", "maximum", "minimum", "length", "buffer",
    "index", "offset", "value", "window", "score", "weight", "distance",
    "result", "range", "sequence", "table", "queue", "running", "current",
    "next", "previous", "given", "input", "output", "list", "entries",
)
_COMMENT = {"mini": "//", "java": "//", "go": "//", "python": "#"}
_COMMENT_TEXT = ("TODO: tune", "fast path", "see above", "keep in sync", "edge case: 0")


@dataclass(frozen=True)
class Record:
    code: str
    language: str
    docstring: str | None
    planted: frozenset[str]

    def to_json(self) -> str:
        row = {"code": self.code, "language": self.language}
        if self.docstring is not None:
            row["docstring"] = self.docstring
        return json.dumps(row)


@dataclass(frozen=True)
class Shape:
    """Seed-independent make-up of a corpus: cycles indexed by record number."""

    funcs: tuple[int, ...] = (1,)
    stmts: tuple[int, ...] = (1, 2, 3, 2)
    doc_words: tuple[int, ...] = (6, 9, 7, 12, 8, 10, 5)


SHORT = Shape()
# Multi-function documents: 1 to 9 functions, sources of about 20 to 400 ids.
LONG = Shape(funcs=(3, 1, 5, 2, 7, 4, 9, 3, 6, 2, 4, 5), stmts=(2, 4, 3, 5, 2, 3))


def has_docstring(index: int) -> bool:
    """Exactly 7 of every 10 consecutive records carry a docstring."""
    return (index * 7) % 10 < 7


class _Names:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self) -> str:
        while True:
            name = self.rng.choice(_STEMS) + self.rng.choice(_SUFFIXES)
            if name not in self.used:
                self.used.add(name)
                return name


def _statement(rng: random.Random, lang: str, kind: int, a: str, b: str, c: str, callee: str | None) -> list[str]:
    k = rng.randrange(1, 10)
    end = ";" if lang in ("mini", "java") else ""
    if kind == 0:
        return [f"{c} = {c} + {a}{end}"]
    if kind == 1:
        return [f"{b} = {b} * {k}{end}"]
    if kind == 2:
        if lang == "python":
            return [f"if {a} > {b}:", f"    {c} = {c} - {k}"]
        if lang == "go":
            return [f"if {a} > {b} {{ {c} = {c} - {k} }}"]
        return [f"if ({a} > {b}) {{ {c} = {c} - {k}; }}"]
    if kind == 3:
        if lang == "python":
            return [f"while {a} > {k}:", f"    {a} = {a} - 1"]
        if lang == "go":
            return [f"for {a} > {k} {{ {a} = {a} - 1 }}"]
        return [f"while ({a} > {k}) {{ {a} = {a} - 1; }}"]
    if kind == 4:
        return [f"{_COMMENT[lang]} {rng.choice(_COMMENT_TEXT)}", f"{c} = {c} - {b}{end}"]
    return [f"{c} = {callee}({a}, {b}){end}"]


def _function(rng: random.Random, lang: str, names: _Names, kinds: list[int], callee: str | None):
    fn, a, b, c = (names.fresh() for _ in range(4))
    body: list[str] = []
    for kind in kinds:
        body.extend(_statement(rng, lang, kind, a, b, c, callee))
    k = rng.randrange(10)
    if lang == "python":
        lines = [f"def {fn}({a}, {b}):", f"    {c} = {k}", *("    " + s for s in body), f"    return {c}"]
    elif lang == "go":
        lines = [f"func {fn}({a} int, {b} int) int {{", f"\t{c} := {k}", *("\t" + s for s in body),
                 f"\treturn {c}", "}"]
    else:
        head = "public static int" if lang == "java" else "int"
        lines = [f"{head} {fn}(int {a}, int {b}) {{", f"    int {c} = {k};", *("    " + s for s in body),
                 f"    return {c};", "}"]
    return fn, {fn, a, b, c}, "\n".join(lines)


def _docstring(rng: random.Random, n_words: int) -> str:
    return " ".join([rng.choice(_VERBS), *(rng.choice(_WORDS) for _ in range(n_words - 1))])


def make_record(seed: int, index: int, shape: Shape = SHORT) -> Record:
    rng = random.Random(seed * 1_000_003 + index)
    lang = LANGUAGES[index % len(LANGUAGES)]
    n_funcs = shape.funcs[index % len(shape.funcs)]
    names = _Names(rng)
    planted: set[str] = set()
    parts: list[str] = []
    callee = None
    for f in range(n_funcs):
        n_stmts = shape.stmts[(index + f) % len(shape.stmts)]
        kinds = [(index + 3 * f + 7 * j) % (6 if callee else 5) for j in range(n_stmts)]
        fn, used, text = _function(rng, lang, names, kinds, callee)
        # A call statement is only planted when the callee's name appears.
        planted |= used | ({callee} if callee and callee in text else set())
        parts.append(text)
        callee = fn
    doc = None
    if has_docstring(index):
        doc = _docstring(rng, shape.doc_words[index % len(shape.doc_words)])
    return Record("\n\n".join(parts), lang, doc, frozenset(planted))


def make_corpus(seed: int, size: int, shape: Shape = SHORT, start: int = 0) -> list[Record]:
    """Records ``start`` to ``start + size - 1`` of the seed's corpus."""
    return [make_record(seed, i, shape) for i in range(start, start + size)]


def write_jsonl(records: list[Record], path: Path) -> None:
    path.write_text("".join(r.to_json() + "\n" for r in records), encoding="utf-8")
