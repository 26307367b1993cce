"""Every public top-level ``def`` / ``class`` in ``src/repro`` has a caller
outside the test suite.

A name counts as used when code outside its own definition refers to it —
as a bare name, an attribute or an imported name — in another top-level
statement of its module, in another module of ``src/`` (the package
``__init__`` re-exports do not count), or in any file under
``benchmarks/`` or ``examples/``.  Code only the tests reach belongs under
``tests/`` (see ``tests/support``) or nowhere.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: ``module:name`` (``module:*`` for a whole module) -> why it has no caller.
ALLOWED = {
    "repro.eval.multiseed:*": "waits for the multi-seed figure reruns",
    "repro.baselines.base:Recommender": (
        "the duck-typed interface Hot, AR, SimHash and rMF satisfy"
    ),
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(tree: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _definitions(tree: ast.Module) -> list[ast.stmt]:
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _unreferenced() -> list[str]:
    modules = {path: _parse(path) for path in sorted(SRC.rglob("*.py"))}
    used_by = {
        path: _references(tree)
        for path, tree in modules.items()
        if path.name != "__init__.py"
    }
    for outside in ("benchmarks", "examples"):
        for path in (ROOT / outside).rglob("*.py"):
            used_by[path] = _references(_parse(path))
    missing = []
    for path, tree in modules.items():
        module = _module_name(path)
        if f"{module}:*" in ALLOWED:
            continue
        for node in _definitions(tree):
            if f"{module}:{node.name}" in ALLOWED:
                continue
            in_module = any(
                node.name in _references(other)
                for other in tree.body
                if other is not node
            )
            elsewhere = any(
                node.name in names
                for where, names in used_by.items()
                if where != path
            )
            if not (in_module or elsewhere):
                missing.append(f"{module}:{node.name}")
    return missing


def test_every_public_definition_has_a_non_test_caller():
    missing = _unreferenced()
    assert not missing, (
        "public names in src/repro reached from tests only — delete them, "
        "move them under tests/, or add them to ALLOWED with a reason:\n  "
        + "\n  ".join(missing)
    )


def test_allow_list_entries_still_exist():
    definitions = {
        _module_name(path): {node.name for node in _definitions(_parse(path))}
        for path in SRC.rglob("*.py")
    }
    for entry in ALLOWED:
        module, name = entry.split(":")
        assert module in definitions, entry
        assert name == "*" or name in definitions[module], entry
