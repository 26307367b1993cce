"""Every public name in ``src/repro`` has a caller outside the test suite.

Two censuses, one rule: code only the tests reach belongs under ``tests/``
(see ``tests/support``) or nowhere.

*Top-level names.*  A public ``def`` / ``class`` counts as used when code
outside its own definition refers to it — as a bare name, an attribute or
an imported name — in another top-level statement of its module, in
another module of ``src/`` (the package ``__init__`` re-exports do not
count), or in any file under ``benchmarks/`` or ``examples/``.  Nothing
under ``if TYPE_CHECKING:`` counts: an import for annotations runs no code.

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

_TRACE = "ROADMAP item 9's /debug/trace serves the Tracer query API"

#: ``module:Class.method`` -> why only tests call it.
ALLOWED_METHODS = {
    "repro.obs.trace:Tracer.span_tree": _TRACE,
    "repro.obs.trace:Tracer.stage_latencies": _TRACE,
    "repro.obs.trace:Tracer.complete_traces": _TRACE,
    "repro.obs.trace:Tracer.active_span_count": _TRACE,
    "repro.clock:VirtualClock.advance": (
        "the fake clock's core step; tests inject VirtualClock via clock="
    ),
}


#: e2e hook targets whose code was deleted: with the log-structured store
#: tier and the write-back cache, with the gateway's request coalescer,
#: with the KV operations and wrappers the system never called, and with
#: the key-value store itself when the model state became typed values;
#: the tracer lists them under ``trace_missing`` until the trace table
#: drops them.
_DELETED_HOOK_TARGETS = {
    "repro.kvstore.cache:ReadThroughCache.get",
    "repro.kvstore.cache:ReadThroughCache.put",
    "repro.kvstore.cache:ReadThroughCache.update",
    "repro.kvstore.cache:ReadThroughCache.mget",
    "repro.kvstore.cache:ReadThroughCache.mput",
    "repro.kvstore.durable:DurableKVStore.get",
    "repro.kvstore.durable:DurableKVStore.put",
    "repro.kvstore.durable:DurableKVStore.update",
    "repro.kvstore.durable:DurableKVStore.mget",
    "repro.kvstore.durable:DurableKVStore.mput",
    "repro.kvstore.durable:DurableKVStore.compact",
    "repro.reliability.checkpoint:CheckpointManager.create_incremental",
    "repro.serving.gateway:RequestCollector.submit",
    "repro.serving.router:RequestRouter.handle_many",
    "repro.kvstore.namespace:Namespace.get",
    "repro.kvstore.namespace:Namespace.put",
    "repro.kvstore.namespace:Namespace.update",
    "repro.kvstore.namespace:Namespace.mget",
    "repro.kvstore.namespace:Namespace.mput",
    "repro.kvstore.sharded:ShardedKVStore.get",
    "repro.kvstore.sharded:ShardedKVStore.put",
    "repro.kvstore.sharded:ShardedKVStore.update",
    "repro.kvstore.sharded:ShardedKVStore.mget",
    "repro.kvstore.sharded:ShardedKVStore.mput",
    "repro.kvstore.store:InMemoryKVStore.get",
    "repro.kvstore.store:InMemoryKVStore.update",
    "repro.kvstore.store:InMemoryKVStore.put",
    "repro.kvstore.store:InMemoryKVStore.mget",
    "repro.kvstore.store:InMemoryKVStore.mput",
    "repro.obs.kv:InstrumentedKVStore.get",
    "repro.obs.kv:InstrumentedKVStore.update",
    "repro.obs.kv:InstrumentedKVStore.put",
    "repro.obs.kv:InstrumentedKVStore.mget",
    "repro.obs.kv:InstrumentedKVStore.mput",
}


def _module_exists(module: str) -> bool:
    """Whether ``module`` can be imported; a module whose package is gone
    cannot."""
    try:
        return importlib.util.find_spec(module) is not None
    except ModuleNotFoundError:
        return False


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


def _is_type_checking(node: ast.AST) -> bool:
    """``if TYPE_CHECKING:`` or ``if typing.TYPE_CHECKING:``."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _references(tree: ast.AST) -> set[str]:
    """Names ``tree`` refers to, outside any ``if TYPE_CHECKING:`` body."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if _is_type_checking(node):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
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


def test_type_checking_imports_are_not_references():
    tree = ast.parse(
        "import typing\n"
        "if TYPE_CHECKING:\n    from a import Hidden\n"
        "else:\n    from a import Shown\n"
        "if typing.TYPE_CHECKING:\n    Annotated = Hidden\n"
    )
    names = _references(tree)
    assert "Shown" in names
    assert "Hidden" not in names and "Annotated" not in names


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
    """The tier-1 view of CI's ``trace_missing: 0`` gate: every target
    resolves except the deleted ones named in ``_DELETED_HOOK_TARGETS``,
    each of which must still be in the table and really be gone."""
    targets = _hook_targets()
    assert _DELETED_HOOK_TARGETS <= set(targets)
    for target in _DELETED_HOOK_TARGETS:
        module, qualname = target.split(":")
        cls_name, method = qualname.split(".")
        if _module_exists(module):
            cls = getattr(importlib.import_module(module), cls_name, None)
            assert getattr(cls, method, None) is None, target
    for target in targets:
        if target in _DELETED_HOOK_TARGETS:
            continue
        module, qualname = target.split(":")
        cls_name, method = qualname.split(".")
        cls = getattr(importlib.import_module(module), cls_name)
        assert callable(getattr(cls, method, None)), target
