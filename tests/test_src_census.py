"""Every public name in ``src/repro`` has a caller outside the test suite.

Two censuses, one rule: code only the tests reach belongs under ``tests/``
(see ``tests/support``) or nowhere.

*Top-level names.*  A public ``def`` / ``class`` counts as used when code
outside its own definition refers to it — as a bare name, an attribute or
an imported name — in another top-level statement of its module, in
another module of ``src/`` (the package ``__init__`` re-exports do not
count), or in any file under ``benchmarks/`` or ``examples/``.

*Methods and properties of public classes.*  A public method counts as
used when its name appears outside its own body — as an attribute or a
string constant (``getattr``), never as a bare name — anywhere in ``src/``,
``benchmarks/`` or ``examples/``, or when it is the method of a
``module:Class.method`` target in the e2e trace table
(``benchmarks/e2e/trace.py::HOOKS``): the e2e ``trace_missing: 0`` gate
needs every such target to exist.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
OUTSIDE = ("benchmarks", "examples")

#: ``module:name`` (``module:*`` for a whole module) -> why it has no caller.
ALLOWED = {
    "repro.eval.multiseed:*": "waits for the multi-seed figure reruns",
    "repro.baselines.base:Recommender": (
        "the duck-typed interface Hot, AR, SimHash and rMF satisfy"
    ),
}

_TIER = "ROADMAP item 4 decides whether the durable tier exists"
_TRACE = "ROADMAP item 9's /debug/trace serves the Tracer query API"

#: ``module:Class.method`` -> why only tests call it.
ALLOWED_METHODS = {
    "repro.kvstore.cache:ReadThroughCache.invalidate": _TIER,
    "repro.kvstore.cache:ReadThroughCache.hit_rate": _TIER,
    "repro.kvstore.cache:ReadThroughCache.cache_size": _TIER,
    "repro.kvstore.cache:ReadThroughCache.backing": _TIER,
    "repro.reliability.checkpoint:CheckpointInfo.incremental": _TIER,
    "repro.kvstore.durable:DurableKVStore.sync": _TIER,
    "repro.kvstore.durable:CompactionReport.bytes_reclaimed": _TIER,
    "repro.obs.trace:Tracer.span_tree": _TRACE,
    "repro.obs.trace:Tracer.stage_latencies": _TRACE,
    "repro.obs.trace:Tracer.complete_traces": _TRACE,
    "repro.obs.trace:Tracer.active_span_count": _TRACE,
    "repro.clock:VirtualClock.advance": (
        "the fake clock's core step; tests inject VirtualClock via clock="
    ),
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _src_modules() -> dict[Path, ast.Module]:
    return {path: _parse(path) for path in sorted(SRC.rglob("*.py"))}


def _outside_modules() -> dict[Path, ast.Module]:
    return {
        path: _parse(path)
        for outside in OUTSIDE
        for path in sorted((ROOT / outside).rglob("*.py"))
    }


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


def _mentions(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Attribute names and string constants, minus ``skip``'s body.

    A bare name is not a mention: a method is reached through an object,
    and a local variable or parameter that shares its name calls nothing.
    """
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _definitions(tree: ast.Module) -> list[ast.stmt]:
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _methods(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """``(class name, method node)`` for public methods of public classes."""
    return [
        (cls.name, node)
        for cls in _definitions(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]


def _hook_targets() -> list[str]:
    """The ``module:Class.method`` targets of the e2e trace table."""
    path = ROOT / "benchmarks" / "e2e" / "trace.py"
    spec = importlib.util.spec_from_file_location("_e2e_trace", path)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    return [target for target, *_ in trace.HOOKS]


def _unreferenced() -> list[str]:
    modules = _src_modules()
    used_by = {
        path: _references(tree)
        for path, tree in modules.items()
        if path.name != "__init__.py"
    }
    for path, tree in _outside_modules().items():
        used_by[path] = _references(tree)
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


def _unreferenced_methods() -> list[str]:
    modules = _src_modules()
    trees = {**modules, **_outside_modules()}
    others = {path: _mentions(tree) for path, tree in trees.items()}
    hooked = set(_hook_targets())
    missing = []
    for path, tree in modules.items():
        module = _module_name(path)
        if f"{module}:*" in ALLOWED:
            continue
        for cls, node in _methods(tree):
            entry = f"{module}:{cls}.{node.name}"
            if entry in ALLOWED_METHODS or entry in hooked:
                continue
            used = node.name in _mentions(tree, skip=node) or any(
                node.name in names
                for where, names in others.items()
                if where != path
            )
            if not used:
                missing.append(entry)
    return missing


def test_every_public_definition_has_a_non_test_caller():
    missing = _unreferenced()
    assert not missing, (
        "public names in src/repro reached from tests only — delete them, "
        "move them under tests/, or add them to ALLOWED with a reason:\n  "
        + "\n  ".join(missing)
    )


def test_every_public_method_has_a_non_test_caller():
    missing = _unreferenced_methods()
    assert not missing, (
        "public methods in src/repro reached from tests only — delete them, "
        "move them under tests/, or add them to ALLOWED_METHODS with a "
        "reason:\n  " + "\n  ".join(missing)
    )


def test_allow_list_entries_still_exist():
    modules = {_module_name(path): tree for path, tree in _src_modules().items()}
    for entry in ALLOWED:
        module, name = entry.split(":")
        assert module in modules, entry
        names = {node.name for node in _definitions(modules[module])}
        assert name == "*" or name in names, entry
    for entry in ALLOWED_METHODS:
        module, name = entry.split(":")
        assert module in modules, entry
        methods = {f"{cls}.{node.name}" for cls, node in _methods(modules[module])}
        assert name in methods, entry


def test_every_e2e_hook_target_resolves():
    """The tier-1 view of CI's ``trace_missing: 0`` gate."""
    for target in _hook_targets():
        module, qualname = target.split(":")
        cls_name, method = qualname.split(".")
        cls = getattr(importlib.import_module(module), cls_name)
        assert callable(getattr(cls, method, None)), target
