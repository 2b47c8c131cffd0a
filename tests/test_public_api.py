"""The names the package exports, and the names its demos, bench and tools use.

Demos 05 and 06 are too slow for the quick demo run and the bench tests are
not part of this suite, so these checks read their sources with ``ast``
instead of running them: a package name they use that no longer resolves
fails here.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import codepretrain

ROOT = Path(__file__).resolve().parents[1]
CALLER_FILES = sorted(p for d in ("demos", "bench", "tools") for p in (ROOT / d).glob("*.py"))


def _is_submodule(module: str, name: str) -> bool:
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def _resolves(module: str, name: str) -> bool:
    return hasattr(importlib.import_module(module), name) or _is_submodule(module, name)


def _package_uses(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every name the file imports from the package and
    every attribute it reads from an imported package module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    uses: set[tuple[str, str]] = set()
    modules: dict[str, str] = {}  # local alias -> package module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "codepretrain":
            for alias in node.names:
                uses.add((node.module, alias.name))
                if _is_submodule(node.module, alias.name):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "codepretrain":
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            uses.add((modules[node.value.id], node.attr))
    return uses


def test_all_entries_resolve():
    missing = [name for name in codepretrain.__all__ if not hasattr(codepretrain, name)]
    assert missing == []


def test_all_is_sorted_and_unique():
    assert list(codepretrain.__all__) == sorted(set(codepretrain.__all__))


def test_scan_sees_module_attribute_reads():
    uses = set().union(*map(_package_uses, CALLER_FILES))
    assert {p.parent.name for p in CALLER_FILES} == {"demos", "bench", "tools"}
    assert {("codepretrain.model", "forward_lm"), ("codepretrain.training", "clip_gradients")} <= uses


@pytest.mark.parametrize("path", CALLER_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_names_used_by_demos_bench_and_tools_resolve(path):
    missing = sorted(f"{module}.{name}" for module, name in _package_uses(path) if not _resolves(module, name))
    assert missing == []
