"""The quick demos run to completion (each takes about a second)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = ["01_corpus_and_labels.py", "02_tokenizer.py", "03_objectives.py", "04_balanced_sampling.py"]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_quick_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
