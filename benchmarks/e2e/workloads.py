"""The four workloads: what runs, in which phases, and what is checked.

Each ``run_*`` function boots the real stack in child processes, drives
it, checks its outputs and returns an :class:`Outcome` holding every
number it measured.  Rates are fixed; phase lengths are shares of
``--seconds``.

The three HTTP workloads are a *plan* (:data:`PLANS`) run against every
child the workload boots: the run's ``--seconds`` are split evenly over
the ``setups`` children, each child yields one value per metric — the
plain percentile of the phase's whole sample, the plain rate of the whole
phase — and the run reports the median over its children.  One boot is one
set-up sample, so the children are needed anyway; measuring on all of them
also averages over the mode a Python server process settles into on this
box (the same build serves 8 % faster or slower from one process to the
next), which no statistic inside one process can see.

==========================  ============================================
``serve_while_train``       in-memory table stack; idle reads, then the
                            same reads with ``/ingest`` and freshness
                            probes, then closed-loop reads and ingest
``durable_ingest_recover``  same stack on a ``data_dir``; reads + ingest,
                            closed loops; the child is SIGKILLed,
                            restarted, and must serve 50 users the same
                            top-10; then the known failing restart after
                            concurrent ingest, on a directory of its own
``train_stream``            no HTTP: ``observe_stream`` + the Figure-2
                            topology, in one child
``large_catalog_ann``       ANN retrieval over a 200k-video factor catalog
==========================  ============================================
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from harness import OUT, Child, ChildError, boot, http_json, scratch_dir
from loadgen import LoadGenerator, PhaseLog, void_reason
from stats import percentile, summarise
from trace import layer_metrics
from traffic import (
    MIN_IDS, AnnCatalog, AnnTraffic, Probes, TableTraffic, TableWorld,
    make_validator, recommend_doc, recommend_op,
)

#: Latency limit for the record (from the due time), not a gate.
LATENCY_LIMIT_MS = 25.0
#: Keep-alive connections / closed-loop clients: min(nproc, 4).
CONNECTIONS = max(1, min(os.cpu_count() or 1, 4))
#: Closed-loop reads before anything is timed, on every child.
WARM_UP_S = 1.0

#: The durable workload's measured child keeps at most one ``/ingest`` in
#: flight.  The gateway runs ``observe`` on a thread pool and
#: ``ActionWAL.append`` is unsynchronised: two concurrent ingests can log
#: the same sequence number twice, after which a restart refuses the WAL
#: ("sequence gap").  Found by this workload; README, open questions.  The
#: concurrent case is not avoided, it is run on a directory of its own and
#: reported as a known failing check (:func:`concurrent_ingest_restart`).
SINGLE_WRITER = frozenset({"ingest"})

#: Per-layer names that describe set-up work; taken over a child's whole
#: life, where every other layer metric covers the serving window only.
WHOLE_LIFE = (
    "core.annindex.build_s",
    "reliability.checkpoint.create_s",
    "reliability.checkpoint.restore_s",
    "reliability.replay.recover_s",
    "reliability.replay.replayed",
    "reliability.wal.replayed",
    "kvstore.cache.hit_ratio",
    "kvstore.durable.bytes_written",
    "kvstore.durable.segments",
)


@dataclass(frozen=True)
class Phase:
    """One phase of an HTTP plan.

    ``kind``: ``open`` (absolute schedule of ``reads`` requests/s,
    ``ingest`` actions/s and ``probes`` freshness probes/s), ``reads`` /
    ``ingest`` (closed loop, ``clients`` callers, default one per
    connection) or ``probes`` (freshness probes back to back).
    """

    name: str
    kind: str
    share: float
    reads: float = 0.0
    ingest: float = 0.0
    probes: float = 0.0
    clients: int | None = None


PLANS = {
    "serve_while_train": (
        Phase("idle", "open", 0.25, reads=100.0),
        Phase("train", "open", 0.40, reads=100.0, ingest=200.0, probes=8.0),
        Phase("closed-reads", "reads", 0.175),
        Phase("closed-ingest", "ingest", 0.175),
    ),
    # 75 % of ``--seconds``: the one child also pays a fresh-directory boot
    # and a recovery, both measured, each as long as the plan.
    "durable_ingest_recover": (
        Phase("train", "open", 0.55, reads=20.0, ingest=150.0, probes=5.0),
        Phase("closed-ingest", "ingest", 0.10, clients=1),
        Phase("closed-reads", "reads", 0.10),
    ),
    "large_catalog_ann": (
        Phase("reads", "open", 0.55, reads=50.0),
        Phase("closed-reads", "reads", 0.20),
        # The tail: the only phases in which the trainer (and the index's
        # drift-gated upserts) run on this workload.
        Phase("closed-ingest", "ingest", 0.15),
        Phase("fresh", "probes", 0.10),
    ),
}

#: Sizes.  ``smoke`` shrinks worlds and set-up repeats, never the rates.
#: ``loaded`` names the phase whose reads are ``recommend_p50/p90_ms``;
#: ``scored`` the read-only phases whose answers ``recall_at_10`` scores.
SIZES = {
    "serve_while_train": {
        "full": dict(n_users=20, n_videos=150, setups=2),
        "smoke": dict(n_users=8, n_videos=80, setups=1),
        "loaded": "train", "scored": ("warm-up", "idle"),
    },
    # A durable boot trains ~600 actions/s and a recovery replays ~550/s
    # (README, open questions), ~280 actions per user: 16 users are what
    # one boot plus one recovery leave room for.  The 50 users whose lists
    # must survive the crash are these 16 plus users the run's own probes
    # created, whose state exists nowhere but in the WAL and the store.
    "durable_ingest_recover": {
        "full": dict(n_users=16, n_videos=60, setups=1),
        "smoke": dict(n_users=4, n_videos=40, setups=1),
        "loaded": "train", "scored": ("warm-up",), "recovery_users": 50,
        "concurrent": dict(n_users=3, n_videos=30, seconds=1.0),
    },
    "train_stream": {
        "full": dict(n_users=120, n_videos=200, setups=3,
                     topology_actions=4000, probes=200),
        "smoke": dict(n_users=40, n_videos=80, setups=1,
                      topology_actions=800, probes=40),
        "train_days": 6, "read_share": 0.35,
    },
    "large_catalog_ann": {
        "full": dict(n_videos=200_000, n_users=2000, setups=2),
        "smoke": dict(n_videos=20_000, n_users=500, setups=1),
        "loaded": "reads", "scored": ("warm-up",), "f": 32,
    },
}


@dataclass
class Outcome:
    """Everything one run of one workload measured."""

    workload: str
    seed: int
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


@dataclass
class Options:
    seed: int
    seconds: float
    trace: bool
    smoke: bool


def trace_path(options: Options, workload: str, part: str = "") -> str:
    OUT.mkdir(exist_ok=True)
    return str(OUT / f"trace-{workload}-{options.seed}{part}.json")


def sample_note(values_ms) -> dict:
    """The pooled sample behind a timing: count, p95, p99, and the highest
    percentile the count supports (ten samples beyond it)."""
    summary = summarise(values_ms)
    return {"n": summary["n"], "p95_ms": summary["p95"],
            "p99_ms": summary["p99"], "top_percentile": summary["top"]}


# ----------------------------------------------------------------------
# One child of an HTTP workload
# ----------------------------------------------------------------------


@dataclass
class Served:
    """What one child contributed: its phase logs and per-child values."""

    setup_s: float
    trace_file: str | None
    logs: dict[str, PhaseLog]
    probes: Probes
    values: dict[str, float]
    client_service_s: float
    snapshot: dict
    extra: object = None


async def drive(port, traffic, plan, seconds, tag, single_writer, after=None):
    """Run ``plan`` against the child on ``port``; everything it logged."""
    gen = LoadGenerator(
        "127.0.0.1", port, CONNECTIONS,
        make_validator(traffic.world.catalog),
        single_writer=SINGLE_WRITER if single_writer else frozenset(),
    )
    await gen.open()
    try:
        probes = Probes(gen, traffic, tag)
        logs = {
            "warm-up": await gen.closed_loop("warm-up", traffic.warm, WARM_UP_S)
        }
        for phase in plan:
            span = phase.share * seconds
            if phase.kind == "open":
                side = (
                    [probes.scheduled(phase.probes, span)]
                    if phase.probes else []
                )
                logs[phase.name] = await gen.open_loop(
                    phase.name,
                    traffic.schedule(span, phase.reads, phase.ingest),
                    span, side,
                )
            elif phase.kind == "probes":
                await probes.back_to_back(span)
            else:
                logs[phase.name] = await gen.closed_loop(
                    phase.name,
                    traffic.read if phase.kind == "reads" else traffic.ingest,
                    span, phase.clients,
                )
        extra = await after(gen, probes) if after is not None else None
    finally:
        await gen.close()
    return gen, logs, probes, extra


def serve_child(
    name: str, spec: dict, traffic, options: Options, seconds: float,
    index: int, traced: bool, after=None,
) -> tuple[Served, Child]:
    """Boot one child and run the workload's plan on it (still running)."""
    trace_file = trace_path(options, name, f"-{index}") if traced else None
    child, port, setup_s = boot(
        dict(spec, trace=traced, trace_path=trace_file)
    )
    gen, logs, probes, extra = asyncio.run(drive(
        port, traffic, PLANS[name], seconds, f"{options.seed}-{index}",
        single_writer=(name == "durable_ingest_recover"), after=after,
    ))
    _, snapshot = http_json(port, "GET", "/snapshot")
    reads = logs[SIZES[name]["loaded"]].latencies_ms("recommend")
    visible = probes.visible_ms
    values = {
        "recommend_p50_ms": percentile(reads, 50.0),
        "recommend_p90_ms": percentile(reads, 90.0),
        "recommend_capacity_rps": logs["closed-reads"].rate("recommend"),
        "ingest_capacity_aps": logs["closed-ingest"].rate("ingest"),
        "update_visible_p50_ms": percentile(visible, 50.0) if visible else 0.0,
    }
    if "idle" in logs:
        idle = logs["idle"].latencies_ms("recommend")
        values["recommend_idle_p50_ms"] = percentile(idle, 50.0)
        values["recommend_idle_p90_ms"] = percentile(idle, 90.0)
    served = Served(
        setup_s=setup_s, trace_file=trace_file, logs=logs, probes=probes,
        values=values, snapshot=snapshot, extra=extra,
        client_service_s=sum(
            gen.service_s.get(kind, 0.0)
            for kind in ("recommend", "poll", "baseline", "record")
        ),
    )
    return served, child


def plan_on_children(name, spec_for, traffic, options: Options, setups: int,
                     after_last=None):
    """Boot ``setups`` children one after the other, the plan on each.

    Each gets an equal share of ``--seconds``.  In a traced run the first
    child runs untraced — one more child than ``setups`` when that is one:
    its ``recommend_p50_ms`` is what the tracing overhead is taken against.
    The last child is returned still running (the durable workload kills
    it); the others are stopped as soon as they are measured.
    """
    seconds = options.seconds / setups
    if options.trace and setups == 1 and not options.smoke:
        setups = 2
    served, rss = [], []
    for index in range(setups):
        last = index == setups - 1
        traced = options.trace and (index > 0 or setups == 1)
        one, child = serve_child(
            name, spec_for(index), traffic, options, seconds, index, traced,
            after=after_last if last else None,
        )
        served.append(one)
        if not last:
            rss.append(child.stop())
    return served, rss, child


def fold(outcome: Outcome, name: str, served: list[Served], rss, traffic,
         options: Options, extra_dumps=()) -> None:
    """Children → the run's numbers: medians, checks, per-layer metrics."""
    sizes = SIZES[name]
    traced = [s for s in served if s.trace_file]
    # A traced run reports its traced children; the untraced one is the
    # reference for the overhead.
    measured = traced or served
    for metric in measured[0].values:
        outcome.e2e[metric] = statistics.median(
            s.values[metric] for s in measured
        )
    outcome.e2e["setup_s"] = statistics.median(s.setup_s for s in served)
    outcome.e2e["peak_rss_mb"] = max(rss)
    outcome.e2e["recall_at_10"], lists = traffic.recall([
        result
        for s in served for phase in sizes["scored"]
        for result in s.logs[phase].of("recommend")
    ])

    open_phases = [p.name for p in PLANS[name] if p.kind == "open"]
    errors: Counter = Counter()
    for s in served:
        for log in s.logs.values():
            outcome.attempted += log.attempted()
            outcome.failed += log.failed()
            errors.update(r.error for r in log.results if not r.ok)
        outcome.attempted += s.probes.attempted
        outcome.failed += s.probes.failed
        void = void_reason(s.logs[phase] for phase in open_phases)
        if void:
            outcome.problems.append("void run: " + void)

    for label, phase in (("recommend", sizes["loaded"]),
                         ("recommend_idle", "idle")):
        pooled = [
            ms for s in measured if phase in s.logs
            for ms in s.logs[phase].latencies_ms("recommend")
        ]
        if pooled:
            outcome.detail[f"{label}_samples"] = sample_note(pooled)
    if errors:
        outcome.detail["errors"] = dict(errors.most_common(3))
    outcome.detail.update(
        children=len(served),
        setup_samples_s=[round(s.setup_s, 4) for s in served],
        recall_lists=lists,
        probes=sum(len(s.probes.visible_ms) for s in measured),
    )
    outcome.layers.update(loadgen_layer(
        [s.logs[p] for s in measured for p in open_phases],
        [s.logs[sizes["loaded"]] for s in measured],
    ))
    if not traced:
        return
    paths = [s.trace_file for s in traced] + list(extra_dumps)
    layers, missing = window_metrics([load_dump(path) for path in paths])
    client = sum(s.client_service_s for s in traced)
    submit_s = layers.get("serving.gateway.submit_s", 0.0)
    handle_s = layers.get("serving.router.total_s", 0.0)
    # What lies between the client and the router: ``http_s`` is the
    # client's service time not spent inside RequestCollector.submit
    # (socket, parse, JSON, the generator's own read); ``coalesce_wait_s``
    # the part of submit not spent inside RequestRouter.handle (the
    # batching window and the hop to the worker thread).
    layers["serving.gateway.http_s"] = client - submit_s
    layers["serving.gateway.coalesce_wait_s"] = submit_s - handle_s
    layers["serving.gateway.batch_mean"] = (
        traced[-1].snapshot.get("coalescing", {}).get("mean_batch_size", 0.0)
    )
    if client:
        outcome.detail["attribution"] = {
            "client_service_s": client,
            "inside_submit_share": submit_s / client,
            "inside_handle_share": handle_s / client,
        }
    if len(traced) < len(served):
        reference = served[0].values["recommend_p50_ms"]
        layers["bench.trace_overhead_share"] = (
            (outcome.e2e["recommend_p50_ms"] - reference) / reference
            if reference else 0.0
        )
        outcome.detail["untraced_reference_p50_ms"] = reference
    outcome.layers.update(layers)
    outcome.detail["trace_missing"] = missing
    outcome.detail["trace_files"] = paths


def loadgen_layer(open_logs, loaded_logs) -> dict[str, float]:
    """The generator's own layer metrics (from the open-loop phases)."""
    late = [ms for log in open_logs for ms in log.sched_late_ms()]
    wait = [ms for log in open_logs for ms in log.conn_wait_ms()]
    reads = [r for log in loaded_logs for r in log.of("recommend")]
    lat = [ms for log in loaded_logs for ms in log.latencies_ms("recommend")]
    ingest = [ms for log in loaded_logs for ms in log.latencies_ms("ingest")]
    slow = sum(
        1 for r in reads if not r.ok or r.latency * 1e3 > LATENCY_LIMIT_MS
    )
    return {
        "loadgen.sched_late_p99_ms": percentile(late, 99.0) if late else 0.0,
        "loadgen.conn_wait_p99_ms": percentile(wait, 99.0) if wait else 0.0,
        "loadgen.recommend_p99_ms": percentile(lat, 99.0) if lat else 0.0,
        "loadgen.recommend_over_25ms_share":
            slow / len(reads) if reads else 0.0,
        "loadgen.ingest_p50_ms": percentile(ingest, 50.0) if ingest else 0.0,
        "loadgen.ingest_p95_ms": percentile(ingest, 95.0) if ingest else 0.0,
    }


def load_dump(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        dump = json.load(handle)
    dump.pop("spans", None)
    return dump


def window_metrics(dumps: list[dict]) -> tuple[dict[str, float], list]:
    """Per-layer metrics over the serving windows of ``dumps``.

    A dump covers one child's whole life and carries the snapshot taken
    when set-up ended (``boot``); the difference is the serving window.
    Names in :data:`WHOLE_LIFE` describe set-up work and keep the whole.
    """
    out: dict[str, float] = {}
    missing: list = []
    for dump in dumps:
        whole = layer_metrics(dump)
        before = layer_metrics(dump["boot"]) if dump.get("boot") else {}
        for name, value in whole.items():
            if name == "kvstore.cache.hit_ratio":
                out[name] = value
            elif name in WHOLE_LIFE:
                out[name] = out.get(name, 0.0) + value
            else:
                out[name] = out.get(name, 0.0) + value - before.get(name, 0.0)
        for entry in dump["missing"]:
            if entry not in missing:
                missing.append(entry)
    return out, missing


# ----------------------------------------------------------------------
# The HTTP workloads
# ----------------------------------------------------------------------


def run_serve_while_train(options: Options) -> Outcome:
    name = "serve_while_train"
    size = SIZES[name]["smoke" if options.smoke else "full"]
    outcome = Outcome(name, options.seed)
    world = TableWorld(size["n_users"], size["n_videos"],
                       need=int(options.seconds * 1000))
    traffic = TableTraffic(world, options.seed)
    spec = dict(mode="table", n_users=size["n_users"],
                n_videos=size["n_videos"])
    served, rss, child = plan_on_children(
        name, lambda index: spec, traffic, options, size["setups"]
    )
    rss.append(child.stop())
    fold(outcome, name, served, rss, traffic, options)
    return outcome


def run_large_catalog_ann(options: Options) -> Outcome:
    name = "large_catalog_ann"
    size = SIZES[name]["smoke" if options.smoke else "full"]
    outcome = Outcome(name, options.seed)
    catalog = AnnCatalog(size["n_videos"], size["n_users"], SIZES[name]["f"])
    traffic = AnnTraffic(catalog, options.seed)
    with scratch_dir("ann-") as scratch:
        path = scratch / "catalog.npz"
        catalog.save(path)
        spec = dict(mode="ann", catalog=str(path))
        served, rss, child = plan_on_children(
            name, lambda index: spec, traffic, options, size["setups"]
        )
        rss.append(child.stop())
    fold(outcome, name, served, rss, traffic, options)
    return outcome


def run_durable_ingest_recover(options: Options) -> Outcome:
    name = "durable_ingest_recover"
    sizes = SIZES[name]
    size = sizes["smoke" if options.smoke else "full"]
    outcome = Outcome(name, options.seed)
    world = TableWorld(size["n_users"], size["n_videos"],
                       need=int(options.seconds * 600))
    traffic = TableTraffic(world, options.seed)
    pick = random.Random(options.seed + 1)
    fixed: list[tuple] = []

    async def ask(gen: LoadGenerator):
        return [
            await gen.call(recommend_op(user, traffic.now, current,
                                        kind="record", least=least))
            for user, current, least in fixed
        ]

    async def record(gen: LoadGenerator, probes: Probes):
        """Choose the ``recovery_users`` distinct users whose top-10 must
        survive the crash, and record it: every user of the world (home
        page or a related-video page), then users this child's probes
        created by ingesting one action each."""
        fixed.extend(
            (user,
             pick.choice(world.videos) if pick.random() < 0.5 else None,
             MIN_IDS)
            for user in world.users
        )
        room = max(0, sizes["recovery_users"] - len(fixed))
        fixed.extend((user, None, 1) for user in probes.users[:room])
        return await ask(gen)

    with scratch_dir("durable-") as scratch:
        def spec_for(index: int) -> dict:
            return dict(
                mode="table", n_users=size["n_users"],
                n_videos=size["n_videos"], fsync="interval",
                data_dir=str(scratch / f"data-{index}"),
            )

        served, rss, child = plan_on_children(
            name, spec_for, traffic, options, size["setups"],
            after_last=record,
        )
        before = served[-1].extra
        traced = served[-1].trace_file is not None

        # The crash.  A traced child is asked for its numbers first: a
        # SIGKILL leaves it no chance to write them.
        if traced:
            child.signal(signal.SIGUSR1)
            child.expect("dumped", 30.0)
        killed_at = time.perf_counter()
        rss.append(child.kill())

        recovered_trace = (
            trace_path(options, name, "-recovered") if traced else None
        )
        child = Child(dict(child.spec, trace_path=recovered_trace))
        port = child.expect("ready", 150.0)["port"]
        first_user, first_current, _least = fixed[0]
        while True:
            try:
                status, _ = http_json(
                    port, "POST", "/recommend",
                    recommend_doc(first_user, traffic.now, first_current),
                )
            except OSError:
                status = 0
            if status == 200:
                break
            if time.perf_counter() - killed_at > 150.0:
                raise ChildError("restarted child never served /recommend")
            time.sleep(0.005)
        recovery_s = time.perf_counter() - killed_at

        async def verify():
            gen = LoadGenerator("127.0.0.1", port, CONNECTIONS,
                                make_validator(world.catalog))
            await gen.open()
            try:
                return await ask(gen)
            finally:
                await gen.close()

        after = asyncio.run(verify())
        rss.append(child.stop())
        known_failing = concurrent_ingest_restart(
            scratch / "data-concurrent", sizes["concurrent"], options.seed
        )

    fold(outcome, name, served, rss, traffic, options,
         extra_dumps=[recovered_trace] if traced else [])
    outcome.e2e["recovery_s"] = recovery_s
    outcome.attempted += 2 * len(fixed)
    outcome.failed += sum(1 for r in before + after if not r.ok)
    mismatched = sum(
        1 for a, b in zip(before, after)
        if a.ok and b.ok and a.doc["video_ids"] != b.doc["video_ids"]
    )
    if mismatched:
        outcome.failed += mismatched
        outcome.problems.append(
            f"{mismatched} of {len(fixed)} top-10 lists differ after recovery"
        )
    outcome.detail["recovery_users"] = len(fixed)
    outcome.detail["known_failing"] = known_failing
    return outcome


def concurrent_ingest_restart(data_dir, size: dict, seed: int) -> dict | None:
    """The known failing check: restart after *concurrent* ``/ingest``.

    A small durable child of its own takes ``/ingest`` from every
    connection at once — what the gateway really serves — for a second,
    is killed and restarted on its directory.  Today the restart is
    refused (:data:`SINGLE_WRITER`); the outcome is reported with the run
    and counted neither as attempted nor as failed, so that the measured
    child's crash-safety check stays a check that can pass.  Returns
    ``None`` where one connection leaves nothing concurrent to send.
    """
    if CONNECTIONS < 2:
        return None
    world = TableWorld(size["n_users"], size["n_videos"], need=2000)
    traffic = TableTraffic(world, seed)
    spec = dict(mode="table", n_users=size["n_users"],
                n_videos=size["n_videos"], fsync="interval",
                data_dir=str(data_dir))
    child, port, _ = boot(spec)

    async def ingest():
        gen = LoadGenerator("127.0.0.1", port, CONNECTIONS,
                            make_validator(world.catalog))
        await gen.open()
        try:
            return await gen.closed_loop(
                "concurrent-ingest", traffic.ingest, size["seconds"]
            )
        finally:
            await gen.close()

    log = asyncio.run(ingest())
    child.kill()
    child = Child(spec, quiet=True)
    try:
        child.expect("ready", 60.0)
        restarted = True
    except ChildError:
        restarted = False
    child.kill()
    return {
        "check": "restart after concurrent /ingest",
        "clients": CONNECTIONS,
        "ingested": log.attempted() - log.failed(),
        "rejected": log.failed(),
        "restarted": restarted,
    }


# ----------------------------------------------------------------------
# train_stream
# ----------------------------------------------------------------------


def run_train_stream(options: Options) -> Outcome:
    name = "train_stream"
    sizes = SIZES[name]
    size = sizes["smoke" if options.smoke else "full"]
    outcome = Outcome(name, options.seed)
    scale = min(1.0, options.seconds / 14.0)
    world = TableWorld(size["n_users"], size["n_videos"], need=0)
    rng = random.Random(options.seed)
    cpus = sorted(os.sched_getaffinity(0))
    spec = dict(
        mode="train",
        n_users=size["n_users"],
        n_videos=size["n_videos"],
        train_days=sizes["train_days"],
        setups=size["setups"],
        fraction=scale,
        sample_seed=options.seed,
        read_seconds=sizes["read_share"] * options.seconds,
        probe_videos=[
            rng.choice(world.popular) for _ in range(size["probes"])
        ],
        topology_actions=int(size["topology_actions"] * scale),
        # The topology's 13 threads stay on one CPU: roaming two, they
        # hand the interpreter lock across cores and the same 4,000
        # actions take anything from 1 s to 6 s.
        topology_cpu=cpus[-1] if len(cpus) > 1 else None,
    )

    def once(spec: dict) -> tuple[dict, float]:
        child = Child(spec)
        try:
            result = child.expect("result", 170.0)
        finally:
            rss = child.reap(timeout=20.0)
        return result, rss

    reference = None
    if options.trace:
        # Untraced read path at the same model state, for the overhead.
        quick, _ = once(dict(spec, topology_actions=0, probe_videos=[],
                             setups=1))
        reference = percentile(quick["read_latencies_ms"], 50.0)
        outcome.attempted += quick["attempted"]
        outcome.failed += quick["failed"]
    trace_file = trace_path(options, name) if options.trace else None
    result, rss = once(dict(spec, trace=options.trace, trace_path=trace_file))

    outcome.attempted += result["attempted"]
    outcome.failed += result["failed"]
    reads, visible = result["read_latencies_ms"], result["visible_ms"]
    outcome.e2e.update({
        "setup_s": statistics.median(result["setup_samples_s"]),
        "recommend_p50_ms": percentile(reads, 50.0),
        "recommend_p90_ms": percentile(reads, 90.0),
        "recommend_capacity_rps": result["read_rate"],
        "ingest_capacity_aps": result["trained"] / result["train_seconds"],
        "update_visible_p50_ms":
            percentile(visible, 50.0) if visible else 0.0,
        "recall_at_10": result["recall_at_10"],
        "peak_rss_mb": rss,
        "topology_actions_per_s":
            result["topology_actions"] / result["topology_seconds"]
            if result["topology_actions"] else 0.0,
    })
    outcome.detail.update(
        recommend_samples=sample_note(reads),
        setup_samples_s=result["setup_samples_s"],
        trained=result["trained"], eval_users=result["eval_users"],
        probes=len(visible), topology_actions=result["topology_actions"],
    )
    if options.trace:
        layers, missing = window_metrics([result["trace"]])
        layers["bench.trace_overhead_share"] = (
            (outcome.e2e["recommend_p50_ms"] - reference) / reference
            if reference else 0.0
        )
        outcome.detail["untraced_reference_p50_ms"] = reference
        outcome.layers.update(layers)
        outcome.detail["trace_missing"] = missing
        outcome.detail["trace_files"] = [trace_file]
    return outcome


RUNNERS = {
    "serve_while_train": run_serve_while_train,
    "durable_ingest_recover": run_durable_ingest_recover,
    "train_stream": run_train_stream,
    "large_catalog_ann": run_large_catalog_ann,
}
