"""Artifact files: every stage output is written here, and every JSONL
artifact is parsed here.  A failed or interrupted write leaves the previous
artifact (or none), never a half-written one; a bad JSONL line raises
``ValueError`` naming the file and the line."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")


def write_atomic(path: str | Path, write: Callable[[IO], object], binary: bool = False) -> None:
    """Call ``write(f)`` on ``<path>.tmp`` opened for writing (UTF-8 text, or
    bytes when ``binary``), then rename it to ``path``.  The temporary file is
    removed whatever happens."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as f:
            write(f)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_jsonl(rows: Iterable, path: str | Path) -> int:
    """Write ``row.to_dict()`` of each row as one JSON line; returns the row count."""
    count = 0

    def write(f: IO) -> None:
        nonlocal count
        for row in rows:
            f.write(json.dumps(row.to_dict()) + "\n")
            count += 1

    write_atomic(path, write)
    return count


def read_jsonl(path: str | Path, parse: Callable[[object], T]) -> Iterator[T]:
    """``parse(row)`` for each non-empty line of ``path``, in file order.  A
    line that is not JSON, lacks a key or that ``parse`` rejects with
    ``TypeError`` or ``ValueError`` raises ``ValueError``: ``<path> line N: …``."""
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                item = parse(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} line {n}: not JSON: {exc}") from exc
            except KeyError as exc:
                raise ValueError(f"{path} line {n}: missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path} line {n}: {exc}") from exc
            yield item
