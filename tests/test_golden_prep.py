"""Golden digests of the data-preparation artifacts on the bundled corpus.

The README's preparation commands run through ``cli.dispatch``: ingest (with
and without ``--keep-comments``), train-tokenizer, and build-instances for the
denoise and the dual phase.
Each artifact's sha256 is pinned, so a change to the lexer, the tokenizer or
the instance builders that moves a single byte of output fails here.

A change that means to move an artifact regenerates the pins with

    PYTHONPATH=src python tests/test_golden_prep.py

and says in CHANGES.md which artifacts moved and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from codepretrain import corpus
from codepretrain.cli import dispatch

GOLDEN_SHA256 = {
    "docs.jsonl": "50818b382cd95fb58409bd17821a325d4812a0770265434e10962fab3a647e6e",
    "docs-keep-comments.jsonl": "50818b382cd95fb58409bd17821a325d4812a0770265434e10962fab3a647e6e",
    "tok/vocab.txt": "e9ffce79246143265febac02101e4adcba02983403a23c368cf0c7d1130c132d",
    "tok/merges.txt": "12bc7a1a751f03c8b9f6852b526a0811ecc86286a1b628ecf0d367531baf81e8",
    "denoise.jsonl": "274de59a562a35da576d315408d3a2f40a9d3788ff9534b7aff13be914aa7f91",
    "dual.jsonl": "b8526ce7811ebf7e6d505505a59d632b41a550a4bd67f9702b1546e790a9749d",
}


def prepare(root: Path) -> dict[str, str]:
    """Run the README preparation commands into ``root``; sha256 of each artifact."""
    src = str(corpus.bundled_corpus_path())
    docs, tok = str(root / "docs.jsonl"), str(root / "tok")
    for argv in (
        ["ingest", "--input", src, "--out", docs],
        ["ingest", "--input", src, "--keep-comments", "--out", str(root / "docs-keep-comments.jsonl")],
        ["train-tokenizer", "--input", src, "--vocab-size", "8000", "--min-freq", "3", "--out", tok],
        ["build-instances", "--input", docs, "--tokenizer", tok, "--phase", "denoise",
         "--seed", "0", "--rate", "0.15", "--out", str(root / "denoise.jsonl")],
        ["build-instances", "--input", docs, "--tokenizer", tok, "--phase", "dual",
         "--out", str(root / "dual.jsonl")],
    ):
        assert dispatch(argv) == 0, argv
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}


def test_preparation_artifacts_match_golden(tmp_path):
    assert prepare(tmp_path) == GOLDEN_SHA256


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(prepare(Path(tmp)), sys.stdout, indent=4)
        print()
