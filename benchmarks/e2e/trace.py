"""Per-layer tracing from outside the program: class-level timing hooks.

The benchmark may not edit ``src/``; layers are measured by wrapping the
public methods named in :data:`HOOKS` *on the class* before the system is
composed, so every instance the program later creates is timed without
knowing it.  One row of the table is ``(target, layer, op, items, extra)``:

``target``  ``"module:Class.method"``; a row that no longer resolves is
            skipped and listed under ``missing`` with the reason — a
            later refactor of ``src/`` never turns into a benchmark error.
``layer``   the module-level layer the time is attributed to.
``op``      sub-operation within the layer (``read``/``write``/...); it
            becomes the metric prefix (``core.simtable.read_busy_s``).
``items``   how much work one call carried: ``None``, ``"one"``,
            ``"arg"`` / ``"arg2"`` (``len`` of the first / second argument)
            or ``"result"`` (``len`` of what the call returned).
``extra``   name of an inspector in :data:`_INSPECTORS` that derives
            further counters from the call's result.

Every call records a span (name, start, end, parent, request id).  Spans
nest through a thread-local stack, so a layer's ``self_s`` is its span's
duration minus what its child spans cover; ``total_s`` is inclusive.
Aggregates are kept per thread and merged on :meth:`Tracer.snapshot`; the
raw spans of the first :data:`RAW_REQUESTS` requests are kept in memory
and written by :meth:`Tracer.dump`.

A request crosses threads once: the gateway's ``RequestCollector.submit``
awaits on the event loop while ``RequestRouter.handle`` runs on a worker
thread.  The two are joined by the identity of the ``RecRequest`` object
both receive, so the spans under ``handle`` carry the request id and the
parent of the ``submit`` span that caused them.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
import time
from typing import Any, Callable

#: Raw spans are kept for requests with an id below this.
RAW_REQUESTS = 2000

SPAN_FIELDS = ("name", "start_s", "end_s", "parent", "request")

_KV_OPS = (
    ("get", "one"),
    ("put", "one"),
    ("update", "one"),
    ("mget", "arg"),
    ("mput", "arg"),
)
_KV_LAYERS = (
    ("repro.kvstore.store:InMemoryKVStore", "kvstore.memory"),
    ("repro.kvstore.sharded:ShardedKVStore", "kvstore.sharded"),
    ("repro.kvstore.namespace:Namespace", "kvstore.namespace"),
    ("repro.kvstore.cache:ReadThroughCache", "kvstore.cache"),
    ("repro.kvstore.durable:DurableKVStore", "kvstore.durable"),
    ("repro.obs.kv:InstrumentedKVStore", "kvstore.instrumented"),
)
_BOLTS = (
    ("UserHistoryBolt", "user_history"),
    ("ComputeMFBolt", "compute_mf"),
    ("MFStorageBolt", "mf_storage"),
    ("GetItemPairsBolt", "get_item_pairs"),
    ("ItemPairSimBolt", "item_pair_sim"),
    ("ResultStorageBolt", "result_storage"),
)

#: The hook table.  ``(target, layer, op, items, extra)``.
HOOKS: tuple[tuple[str, str, str, str | None, str | None], ...] = (
    ("repro.serving.gateway:RequestCollector.submit",
     "serving.gateway", "submit", None, None),
    ("repro.serving.router:RequestRouter.handle",
     "serving.router", "", None, "router_outcome"),
    ("repro.serving.router:RequestRouter.handle_many",
     "serving.router", "batch", "arg", None),
    ("repro.core.recommender:RealtimeRecommender.recommend",
     "core.recommender", "recommend", None, None),
    ("repro.core.recommender:RealtimeRecommender.observe",
     "core.recommender", "observe", None, None),
    ("repro.core.candidates:CandidateSelector.select",
     "core.candidates", "", "result", None),
    ("repro.core.simtable:SimilarVideoTable.neighbors_many",
     "core.simtable", "read", None, None),
    ("repro.core.simtable:SimilarVideoTable.neighbors",
     "core.simtable", "read", None, None),
    ("repro.core.simtable:SimilarVideoTable.offer_pair",
     "core.simtable", "write", None, None),
    ("repro.core.mf:MFModel.predict_many",
     "core.mf", "predict", "arg2", None),
    ("repro.core.mf:MFModel.sgd_step", "core.mf", "sgd", None, None),
    ("repro.core.mf:MFModel.batch_session", "core.mf", "sgd", None, None),
    ("repro.core.annindex:AnnIndex.query_user",
     "core.annindex", "query", "result", None),
    ("repro.core.annindex:AnnIndex.query_item",
     "core.annindex", "query", "result", None),
    ("repro.core.annindex:AnnIndex.upsert",
     "core.annindex", "upsert", None, None),
    ("repro.core.annindex:AnnIndex.build_from_model",
     "core.annindex", "build", None, None),
    ("repro.core.online:OnlineTrainer.process",
     "core.online", "", None, "trainer_update"),
    ("repro.core.online:OnlineTrainer.process_batch",
     "core.online", "", None, "trainer_batch"),
    ("repro.core.history:UserHistoryStore.snapshot",
     "core.history", "read", None, None),
    ("repro.core.history:UserHistoryStore.record",
     "core.history", "write", None, None),
    ("repro.core.demographic:DemographicRecommender.recommend_filtered",
     "core.demographic", "read", None, None),
    ("repro.core.demographic:DemographicRecommender.record",
     "core.demographic", "write", None, None),
    *(
        (f"{cls}.{method}", layer, "", items,
         "remember_self" if layer in ("kvstore.cache", "kvstore.durable")
         else None)
        for cls, layer in _KV_LAYERS
        for method, items in _KV_OPS
    ),
    ("repro.kvstore.durable:DurableKVStore.compact",
     "kvstore.durable", "compact", None, None),
    ("repro.reliability.wal:ActionWAL.append",
     "reliability.wal", "append", None, None),
    ("repro.reliability.wal:ActionWAL.replay",
     "reliability.wal", "replay", None, None),
    ("repro.reliability.checkpoint:CheckpointManager.create",
     "reliability.checkpoint", "create", None, None),
    ("repro.reliability.checkpoint:CheckpointManager.create_incremental",
     "reliability.checkpoint", "create", None, None),
    ("repro.reliability.checkpoint:CheckpointManager.restore",
     "reliability.checkpoint", "restore", None, None),
    ("repro.reliability.replay:RecoveryManager.recover",
     "reliability.replay", "recover", None, "recovery_report"),
    ("repro.storm.executor:ThreadedExecutor.run",
     "storm.executor", "run", None, None),
    *(
        (f"repro.topology.bolts:{cls}.process", f"topology.{bolt}", "",
         None, None)
        for cls, bolt in _BOLTS
    ),
)


#: Hooks whose first argument identifies the request that an awaiting
#: coroutine hook (``RequestCollector.submit``) registered: their spans
#: join that request instead of starting one.
_JOINS_REQUEST = frozenset({"repro.serving.router:RequestRouter.handle"})


def _inspect_router(tracer: "Tracer", self: Any, result: Any) -> None:
    if getattr(result, "shed", False):
        tracer.count("serving.router.shed")
    if getattr(result, "error", None) is not None:
        tracer.count("serving.router.errors")


def _inspect_update(tracer: "Tracer", self: Any, result: Any) -> None:
    tracer.count(
        "core.online.skipped" if result is None else "core.online.updated"
    )


def _inspect_batch(tracer: "Tracer", self: Any, result: Any) -> None:
    # process_batch of one delegates to process, which already counted it.
    if len(result) > 1:
        for update in result:
            _inspect_update(tracer, self, update)


def _inspect_recovery(tracer: "Tracer", self: Any, result: Any) -> None:
    tracer.count("reliability.replay.replayed", int(result.replayed))


def _remember_self(tracer: "Tracer", self: Any, result: Any) -> None:
    tracer.instances[id(self)] = self


_INSPECTORS: dict[str, Callable[["Tracer", Any, Any], None]] = {
    "router_outcome": _inspect_router,
    "trainer_update": _inspect_update,
    "trainer_batch": _inspect_batch,
    "recovery_report": _inspect_recovery,
    "remember_self": _remember_self,
}


#: Marks "the wrapped call raised", as opposed to "it returned None".
_FAILED = object()


def _items_of(rule: str | None, args: tuple, result: Any) -> int:
    if rule is None:
        return 0
    if rule == "one":
        return 1
    try:
        if rule == "arg":
            return len(args[1])
        if rule == "arg2":
            return len(args[2])
        return len(result)
    except (TypeError, IndexError):
        return 0


class _ThreadState(threading.local):
    """Per-thread span stack and aggregates (no cross-thread sharing)."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.aggs: dict[str, list] | None = None


class Tracer:
    """Installs the hooks, owns the aggregates, writes the span file."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.missing: list[dict] = []
        self.installed: list[str] = []
        self.instances: dict[int, Any] = {}
        self.spans: list[tuple] = []
        self._patched: list[tuple[type, str, Any]] = []
        self._tls = _ThreadState()
        self._all_aggs: list[dict[str, list]] = []
        self._counters: dict[str, int] = {}
        self._links: dict[int, tuple[int, int]] = {}
        self._lock = threading.Lock()
        self._span_ids = itertools.count()
        self._request_ids = itertools.count()

    # -- installation ----------------------------------------------------

    def install(self, hooks=HOOKS) -> "Tracer":
        for target, layer, op, items, extra in hooks:
            try:
                cls, method, orig = _resolve(target)
            except (ImportError, AttributeError, ValueError) as exc:
                self.missing.append(
                    {"hook": target, "reason": f"{type(exc).__name__}: {exc}"}
                )
                continue
            key = f"{layer}|{op}"
            name = f"{layer}/{cls.__name__}.{method}"
            inspector = _INSPECTORS[extra] if extra else None
            if inspect.iscoroutinefunction(orig):
                wrapper = self._wrap_async(orig, key, name)
            elif inspect.isgeneratorfunction(orig):
                wrapper = self._wrap_generator(orig, key, name)
            else:
                wrapper = self._wrap_sync(
                    orig, key, name, items, inspector,
                    link=target in _JOINS_REQUEST,
                )
            wrapper.__wrapped__ = orig
            wrapper.__name__ = getattr(orig, "__name__", method)
            self._patched.append((cls, method, cls.__dict__.get(method)))
            setattr(cls, method, wrapper)
            self.installed.append(target)
        return self

    def uninstall(self) -> None:
        """Restore every patched method (the self-test cleans up)."""
        for cls, method, previous in reversed(self._patched):
            if previous is None:
                delattr(cls, method)  # was inherited, wrapper shadowed it
            else:
                setattr(cls, method, previous)
        self._patched.clear()

    # -- recording -------------------------------------------------------

    def mark_ready(self) -> dict:
        """End of set-up: restart request numbering, drop boot spans.

        Returns the snapshot so far, so a reader can subtract the boot
        work (training the boot stream) from the serving window.
        """
        self._request_ids = itertools.count()
        self.spans.clear()
        return self.snapshot()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def _aggs(self) -> dict[str, list]:
        aggs = self._tls.aggs
        if aggs is None:
            aggs = self._tls.aggs = {}
            with self._lock:
                self._all_aggs.append(aggs)
        return aggs

    def _record(
        self, key: str, name: str, start: float, end: float,
        child_s: float, items: int, span_id: int, parent: int, request: int,
    ) -> None:
        aggs = self._aggs()
        agg = aggs.get(key)
        if agg is None:
            agg = aggs[key] = [0, 0.0, 0.0, 0]
        agg[0] += 1
        agg[1] += (end - start) - child_s
        agg[2] += end - start
        agg[3] += items
        if request < RAW_REQUESTS:
            self.spans.append(
                (span_id, name, start - self.epoch, end - self.epoch,
                 parent, request)
            )

    def _wrap_sync(self, orig, key, name, items_rule, inspector, link):
        tls = self._tls
        clock = time.perf_counter
        span_ids = self._span_ids
        links = self._links

        def wrapper(*args, **kwargs):
            stack = tls.stack
            span_id = next(span_ids)
            if stack:
                top = stack[-1]
                request, parent = top[1], top[2]
            else:
                top = None
                request, parent = -1, -1
            if link and len(args) > 1:
                linked = links.get(id(args[1]))
                if linked is not None:
                    request, parent = linked
            if request < 0:
                request = next(self._request_ids)
            frame = [0.0, request, span_id]
            stack.append(frame)
            result = _FAILED
            start = clock()
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if top is not None:
                    top[0] += end - start
                self._record(
                    key, name, start, end, frame[0],
                    _items_of(items_rule, args, result),
                    span_id, parent, request,
                )
                if inspector is not None and result is not _FAILED:
                    inspector(self, args[0], result)

        return wrapper

    def _wrap_async(self, orig, key, name):
        """Await time of a coroutine method; a root span per call.

        Coroutines interleave on one thread, so they cannot use the
        thread-local stack; the span is linked to the work it causes on
        other threads through ``self._links`` instead.
        """
        clock = time.perf_counter

        async def wrapper(*args, **kwargs):
            span_id = next(self._span_ids)
            request = next(self._request_ids)
            token = id(args[1]) if len(args) > 1 else None
            if token is not None:
                self._links[token] = (request, span_id)
            start = clock()
            try:
                return await orig(*args, **kwargs)
            finally:
                end = clock()
                if token is not None:
                    self._links.pop(token, None)
                self._record(
                    key, name, start, end, 0.0, 0, span_id, -1, request
                )

        return wrapper

    def _wrap_generator(self, orig, key, name):
        """Time spent producing a generator's items, counted per item."""
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = next(self._span_ids)
            request = next(self._request_ids)
            busy = 0.0
            produced = 0
            first = clock()
            iterator = orig(*args, **kwargs)
            try:
                while True:
                    start = clock()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        busy += clock() - start
                        return
                    busy += clock() - start
                    produced += 1
                    yield item
            finally:
                # The consumer's work between items is not this layer's:
                # report the span as [first, first + busy].
                self._record(
                    key, name, first, first + busy, 0.0, produced,
                    span_id, -1, request,
                )

        return wrapper

    # -- output ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Merged aggregates, counters and per-instance gauges."""
        merged: dict[str, dict] = {}
        with self._lock:
            all_aggs = list(self._all_aggs)
            counters = dict(self._counters)
        for aggs in all_aggs:
            for key, (calls, self_s, total_s, items) in list(aggs.items()):
                into = merged.setdefault(
                    key, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                          "items": 0}
                )
                into["calls"] += calls
                into["self_s"] += self_s
                into["total_s"] += total_s
                into["items"] += items
        gauges: dict[str, float] = {}
        hits = misses = 0
        for instance in list(self.instances.values()):
            if hasattr(instance, "hits") and hasattr(instance, "misses"):
                hits += instance.hits
                misses += instance.misses
            elif hasattr(instance, "stats"):
                stats = instance.stats()
                gauges["kvstore.durable.bytes_written"] = gauges.get(
                    "kvstore.durable.bytes_written", 0
                ) + stats.get("total_bytes", 0)
                gauges["kvstore.durable.segments"] = gauges.get(
                    "kvstore.durable.segments", 0
                ) + stats.get("segments", 0)
        if hits + misses:
            gauges["kvstore.cache.hit_ratio"] = hits / (hits + misses)
        return {
            "aggregates": merged,
            "counters": counters,
            "gauges": gauges,
            "missing": list(self.missing),
            "installed": len(self.installed),
        }

    def dump(self, path: str, extra: dict | None = None) -> dict:
        """Write aggregates + raw spans to ``path``; return the snapshot."""
        doc = self.snapshot()
        doc.update(extra or {})
        doc["span_fields"] = ("id",) + SPAN_FIELDS
        doc["spans"] = sorted(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        del doc["spans"], doc["span_fields"]
        return doc


def _resolve(target: str) -> tuple[type, str, Any]:
    """``"module:Class.method"`` -> ``(class, method name, function)``."""
    module_name, _, qualified = target.partition(":")
    class_name, _, method = qualified.partition(".")
    if not (module_name and class_name and method):
        raise ValueError(f"malformed hook target {target!r}")
    cls = getattr(importlib.import_module(module_name), class_name)
    orig = getattr(cls, method)
    if not callable(orig):
        raise AttributeError(f"{target} is not callable")
    return cls, method, orig


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time per span id of ``(id, name, start, end, parent, request)``.

    A span's self time is its duration minus the part its direct children
    cover — the rule the wrappers apply incrementally, restated over a
    finished span list so the span file can be checked against it.
    """
    out = {span[0]: span[3] - span[2] for span in spans}
    for span_id, _name, start, end, parent, _request in spans:
        if parent in out:
            out[parent] -= end - start
    return out


def layer_metrics(snapshot: dict) -> dict[str, float]:
    """Flatten a tracer snapshot into the named per-layer metrics.

    ``<layer>.<op>_calls`` / ``_busy_s`` (self time) / ``_items`` per
    aggregate; single-shot operations are reported as inclusive seconds
    under the names the README's glossary uses.
    """
    out: dict[str, float] = {}
    for key, agg in snapshot["aggregates"].items():
        layer, _, op = key.partition("|")
        prefix = f"{layer}.{op}_" if op else f"{layer}."
        out[prefix + "calls"] = agg["calls"]
        out[prefix + "busy_s"] = agg["self_s"]
        out[prefix + "total_s"] = agg["total_s"]
        out[prefix + "items"] = agg["items"]
    out.update(snapshot["counters"])
    out.update(snapshot["gauges"])
    renames = {
        "core.annindex.build_total_s": "core.annindex.build_s",
        "core.annindex.query_items": "core.annindex.shortlist_items",
        "reliability.checkpoint.create_total_s":
            "reliability.checkpoint.create_s",
        "reliability.checkpoint.restore_total_s":
            "reliability.checkpoint.restore_s",
        "reliability.replay.recover_total_s": "reliability.replay.recover_s",
        "reliability.wal.replay_items": "reliability.wal.replayed",
        "storm.executor.run_total_s": "storm.executor.run_s",
        "kvstore.durable.compact_calls": "kvstore.durable.compactions",
        "serving.gateway.submit_calls": "serving.gateway.requests",
        "serving.gateway.submit_total_s": "serving.gateway.submit_s",
    }
    for old, new in renames.items():
        if old in out:
            out[new] = out[old]
    for layer in {key.partition("|")[0] for key in snapshot["aggregates"]}:
        if layer.startswith("kvstore."):
            out[f"{layer}.keys"] = out.get(f"{layer}.items", 0)
    return out
