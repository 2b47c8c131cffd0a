"""The names the package exports, and the names its demos, bench and tools use.

Demos 05 and 06 are too slow for the quick demo run and the bench tests are
not part of this suite, so these checks read their sources with ``ast``
instead of running them: a package name they use that no longer resolves
fails here, and so does an exported name that only the tests use.  The
package defines an exception type only where its own code catches that type;
bad input otherwise raises ``ValueError`` naming its cause.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import codepretrain

ROOT = Path(__file__).resolve().parents[1]
CALLER_FILES = sorted(p for d in ("demos", "bench", "tools") for p in (ROOT / d).glob("*.py"))
PACKAGE_FILES = sorted(p for p in Path(codepretrain.__file__).parent.glob("*.py") if p.name != "__init__.py")

# exported names that only the tests use, each with its reason
TEST_ONLY_EXPORTS = {
    "grad_check": "criterion 4's finite-difference harness, a reference the tests compare gradients against",
}


def _is_submodule(module: str, name: str) -> bool:
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def _resolves(module: str, name: str) -> bool:
    return hasattr(importlib.import_module(module), name) or _is_submodule(module, name)


def _package_uses(path: Path, module: str | None = None) -> set[tuple[str, str]]:
    """(module, name) for every name the file imports from the package and
    every attribute it reads from an imported package module.  For the
    package's own ``module``, relative imports and the names it reads from
    its own namespace count too."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    uses: set[tuple[str, str]] = set()
    modules: dict[str, str] = {}  # local alias -> package module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                source = ".".join([*module.split(".")[: -node.level], *filter(None, [node.module])])
            if source.split(".")[0] != "codepretrain":
                continue
            for alias in node.names:
                uses.add((source, alias.name))
                if _is_submodule(source, alias.name):
                    modules[alias.asname or alias.name] = f"{source}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "codepretrain":
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            uses.add((modules[node.value.id], node.attr))
        elif module and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses.add((module, node.id))
    return uses


def _uses_outside_tests() -> set[tuple[str, str]]:
    """What the package modules (each apart from its own definitions), demos,
    bench and tools use."""
    uses = set().union(*map(_package_uses, CALLER_FILES))
    return uses.union(*(_package_uses(p, f"codepretrain.{p.stem}") for p in PACKAGE_FILES))


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


def test_scan_sees_relative_imports_and_own_names():
    uses = _uses_outside_tests()
    assert {("codepretrain.model", "ModelConfig"), ("codepretrain.training", "generate")} <= uses


def test_no_export_is_used_only_by_tests():
    used = [getattr(importlib.import_module(module), name, None) for module, name in _uses_outside_tests()]
    test_only = [name for name in codepretrain.__all__ if not any(getattr(codepretrain, name) is u for u in used)]
    assert sorted(test_only) == sorted(TEST_ONLY_EXPORTS)


def _defined_exceptions(path: Path) -> set[str]:
    """The exception classes the package module ``path`` defines."""
    module = importlib.import_module(f"codepretrain.{path.stem}")
    classes = [getattr(module, node.name, None) for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)]
    return {c.__name__ for c in classes if isinstance(c, type) and issubclass(c, BaseException)}


def _caught_names(path: Path) -> set[str]:
    """The names of the types the ``except`` clauses of ``path`` catch, bare or
    read from a module (``except lx.Name``)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for t in node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]:
                names.add(t.attr if isinstance(t, ast.Attribute) else getattr(t, "id", None))
    return names


def test_exception_scan_sees_definitions_and_except_clauses():
    caught = {"CommandError", "CorpusFormatError", "EmptyDocumentError", "NoIdentifiersError", "NonFiniteError"}
    assert caught <= set().union(*map(_defined_exceptions, PACKAGE_FILES))
    assert caught | {"ValueError", "OSError", "KeyError"} <= set().union(*map(_caught_names, PACKAGE_FILES))


def test_every_package_exception_type_is_caught_by_the_package():
    """An exception class that no package code catches is test-only API."""
    defined = set().union(*map(_defined_exceptions, PACKAGE_FILES))
    caught = set().union(*map(_caught_names, PACKAGE_FILES))
    assert sorted(defined - caught) == []
