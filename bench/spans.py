"""In-memory spans around the benchmark's calls into the package.

A span has a name, start and end (``perf_counter`` seconds), the id of the
span that encloses it, the id of the operation it belongs to, and counts of
the work it covered.  Spans are kept in memory and written as JSON lines
when the run ends.  With tracing off, ``span`` records nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = 0

    def next_op(self) -> None:
        """Spans recorded from now on belong to the next operation."""
        self._op += 1

    @contextmanager
    def span(self, name: str, **counts):
        if not self.enabled:
            yield counts
            return
        rec = {
            "id": len(self.spans) + 1,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
            "counts": counts,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield counts
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def write(self, path: Path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({**s, "self": own[s["id"]]}) + "\n")
