"""Reference kernels and the host-speed normalisation built on them.

Identical work drifts by far more than a tenth on a small shared host, across
processes and within one.  Each timed block is therefore bracketed by a short
fixed reference kernel, and the block's time is reported at a nominal host
speed:

    normalised = raw * (nominal reference time / reference time measured next to the block)

Two kernels cover the two kinds of work the package does.  ``ref_py`` is
pure Python (regex tokenising, ``Counter`` updates, tuple building), the mix
of the corpus, lexer, BPE and objectives layers.  ``ref_np`` is float64 numpy
(matmuls, ReLU, a softmax over a wide row), the mix of training and decoding.
Neither imports anything from ``codepretrain``, and both allocate little, so
a change to the package cannot move them.
"""

from __future__ import annotations

import re
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# Median kernel times on the reference host (2 vCPU Xeon, Python 3.11,
# numpy 2.4.6, OPENBLAS_NUM_THREADS=1).  Constants of the benchmark: changing
# them rescales every normalised figure.
NOMINAL_MS = {"py": 11.0, "np": 8.5}

_WORD_RE = re.compile(r"[A-Za-z_]+|[0-9]+|\s+|[^A-Za-z0-9_\s]+")
_TEXT = "\n".join(
    f"int f{i}(int a{i % 7}, int b) {{ total_{i % 13} = a{i % 7} * {i % 10} + b; // note {i}\n"
    f"    return total_{i % 13} - {i % 5}; }} compute the running sum of item{i % 11}"
    for i in range(80)
)
_RNG = np.random.default_rng(12345)
_X = _RNG.normal(size=(64, 128))
_W1 = _RNG.normal(size=(128, 512)) * 0.05
_W2 = _RNG.normal(size=(512, 128)) * 0.05
_WL = _RNG.normal(size=(128, 4000)) * 0.05


def ref_py() -> int:
    counts: Counter[str] = Counter()
    pairs: Counter[tuple[str, str]] = Counter()
    for line in _TEXT.split("\n"):
        words = _WORD_RE.findall(line)
        counts.update(words)
        for w in words:
            t = tuple(w)
            pairs.update(zip(t, t[1:]))
    return len(counts) + len(pairs)


def ref_np() -> float:
    total = 0.0
    for _ in range(2):
        h = np.maximum(_X @ _W1, 0.0) @ _W2
        logits = h @ _WL
        logits -= logits.max(axis=-1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=-1, keepdims=True)
        total += float(p[:, 0].sum())
    return total


KERNELS = {"py": ref_py, "np": ref_np}


def measure_ms(kind: str, reps: int = 3) -> float:
    """Median wall time of ``reps`` calls of one reference kernel, in ms."""
    fn = KERNELS[kind]
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


@dataclass
class Block:
    """One timed block: raw seconds and the reference times around it."""

    kind: str
    raw_s: float = 0.0
    ref_ms: list[float] = field(default_factory=list)

    @property
    def factor(self) -> float:
        """Nominal over measured reference time; 1.0 means a nominal-speed host."""
        return NOMINAL_MS[self.kind] / statistics.fmean(self.ref_ms)

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.factor


class Meter:
    """Times blocks between reference measurements and keeps every block.

    Spans recorded during a block get the block's factor, so per-layer
    figures are normalised by the reference measured next to them.
    """

    def __init__(self, tracer):
        self.blocks: list[Block] = []
        self.tracer = tracer

    def time(self, kind: str, fn, *args, **kwargs):
        """Run ``fn`` as one block; returns (fn's result, Block)."""
        outs, blocks = self.series(kind, lambda: fn(*args, **kwargs), [()])
        return outs[0], blocks[0]

    def series(self, kind: str, fn, calls: list[tuple]):
        """Run ``fn(*args)`` for each args tuple as its own block, with one
        reference measurement between neighbouring calls; returns (results, blocks)."""
        outs, blocks = [], []
        ref = measure_ms(kind)
        for args in calls:
            first_span = len(self.tracer.spans)
            block = Block(kind, ref_ms=[ref])
            t0 = time.perf_counter()
            outs.append(fn(*args))
            block.raw_s = time.perf_counter() - t0
            ref = measure_ms(kind)
            block.ref_ms.append(ref)
            blocks.append(block)
            for span in self.tracer.spans[first_span:]:
                span.setdefault("factor", block.factor)
        self.blocks.extend(blocks)
        return outs, blocks

    def ref_summary(self) -> dict[str, float]:
        """Median measured time of each kernel over every block, in ms."""
        out = {}
        for kind in KERNELS:
            vals = [v for b in self.blocks if b.kind == kind for v in b.ref_ms]
            if vals:
                out[kind] = statistics.median(vals)
        return out
