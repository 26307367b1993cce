"""Paired, same-process A/B timing of one set-up path: a base revision
against the working tree.

    python3 benchmarks/paired.py --base HEAD~1 --workload worldgen
    python3 benchmarks/paired.py --base HEAD --rounds 2 --smoke   # A/A

``git archive <base> src/repro`` is unpacked into a temporary directory as
the package ``repro_base``; the working tree's ``src/repro`` is imported as
``repro``.  That works because ``src/`` imports itself only relatively, so
the tool refuses to run if either tree has an absolute ``repro`` import.
Each round times both packages once, alternating which goes first, after
one untimed warm-up run each.  Workloads (the set-up paths of the
end-to-end benchmark's worlds):

* ``worldgen``  — build the 120 x 200 paper world, generate and split its
  stream (``train_stream``'s ``setup_s``); smoke: 40 x 80;
* ``boot``      — ``build_demo_gateway`` on the 20 x 150 world
  (``serve_while_train``'s boot); smoke: 8 x 80;
* ``bulk_load`` — 200,000 ``Video`` records, their 32 factors loaded
  with ``put_params_many`` and the ANN mirror built (``large_catalog_ann``'s
  catalog boot at its full size); smoke: 20,000;
* ``observe``   — ``observe_stream`` of the 20 x 150 world's stream by a
  recommender with an ``Observability`` bundle, as served; smoke: 8 x 80;
* ``topology``  — the Figure-2 topology under ``ThreadedExecutor`` over
  its default state, pinned to one CPU, on the first 800 training
  actions of the 40 x 80 world (``train_stream``'s topology run at its
  smoke size); smoke: 200 actions.

The report gives each side's median and quartiles, the median paired
ratio (working tree / base) and the working tree's wins, and applies the
gain rule of a paired sandbox measurement: wins in at least nine tenths
of the rounds, and a median gap wider than the base's interquartile
range.  Each round also checks that both sides produced the same output
(the stream's full-precision digest, the served lists, a SHA-256 of the
loaded factors and of the mirror's ids, matrix and biases, the learned
model read through public calls, the topology's deterministic counts).  This is supporting evidence; ``benchmarks/e2e`` stays the
end-to-end judge.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import importlib
import io
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parent.parent
SEED = 2016

#: A workload times one side: ``(package name, smoke) -> (seconds,
#: fingerprint)``; the fingerprint is computed outside the timed region.
Workload = Callable[[str, bool], tuple[float, str]]


def _mod(pkg: str, name: str):
    return importlib.import_module(f"{pkg}.{name}")


def worldgen(pkg: str, smoke: bool) -> tuple[float, str]:
    synthetic, stream = _mod(pkg, "data.synthetic"), _mod(pkg, "data.stream")
    n_users, n_videos = (40, 80) if smoke else (120, 200)
    started = time.perf_counter()
    world = synthetic.SyntheticWorld(
        synthetic.paper_world_config(
            seed=SEED, n_users=n_users, n_videos=n_videos
        )
    )
    split = stream.split_by_day(world.generate_actions(), train_days=6)
    seconds = time.perf_counter() - started
    digest = hashlib.sha256()
    for part in (split.train, split.test):
        for a in part:
            digest.update(
                f"{a.timestamp!r}\t{a.user_id}\t{a.video_id}\t"
                f"{a.action.value}\t{a.view_time!r}\n".encode()
            )
    return seconds, digest.hexdigest()


def boot(pkg: str, smoke: bool) -> tuple[float, str]:
    cli, gateway = _mod(pkg, "serving.cli"), _mod(pkg, "serving.gateway")
    n_users, n_videos = (8, 80) if smoke else (20, 150)
    started = time.perf_counter()
    built = cli.build_demo_gateway(
        gateway.GatewayConfig(port=0),
        rate=None,
        max_concurrency=None,
        n_users=n_users,
        n_videos=n_videos,
        seed=SEED,
    )
    seconds = time.perf_counter() - started
    recommender = built.router.recommender
    lists = [
        recommender.recommend_ids(f"u{i}", n=10, now=7 * 86400.0)
        for i in range(n_users)
    ]
    return seconds, repr(lists)


def bulk_load(pkg: str, smoke: bool) -> tuple[float, str]:
    import numpy as np

    config, core = _mod(pkg, "config"), _mod(pkg, "core")
    schema = _mod(pkg, "data.schema")
    n_videos, f = (20_000, 32) if smoke else (200_000, 32)
    rng = np.random.default_rng(SEED)
    vectors = rng.normal(scale=0.1, size=(n_videos, f))
    biases = rng.normal(scale=0.1, size=n_videos).tolist()
    ids = [f"v{i:07d}" for i in range(n_videos)]
    started = time.perf_counter()
    videos = {vid: schema.Video(vid, "film", 300.0) for vid in ids}
    recommender = core.RealtimeRecommender(
        videos,
        config=config.ReproConfig(
            mf=config.MFConfig(f=f),
            retrieval=config.RetrievalConfig(mode="ann"),
        ),
    )
    recommender.model.put_params_many(
        [
            ("video", vid, vector, bias)
            for vid, vector, bias in zip(ids, vectors, biases)
        ]
    )
    recommender.rebuild_index()
    seconds = time.perf_counter() - started
    digest = hashlib.sha256()
    ids, vectors, biases = recommender.model.video_rows()
    digest.update(repr(ids).encode())
    digest.update(vectors.tobytes())
    digest.update(biases.tobytes())
    # The mirror's own rows: both trees keep them in these attributes.
    index, n = recommender.index, len(recommender.index)
    digest.update(repr(list(index._ids[:n])).encode())
    digest.update(index._matrix[:n].tobytes())
    digest.update(index._bias[:n].tobytes())
    return seconds, digest.hexdigest()


def observe(pkg: str, smoke: bool) -> tuple[float, str]:
    core, obs = _mod(pkg, "core"), _mod(pkg, "obs")
    synthetic, schema = _mod(pkg, "data.synthetic"), _mod(pkg, "data.schema")
    n_users, n_videos = (8, 80) if smoke else (20, 150)
    world = synthetic.SyntheticWorld(
        synthetic.paper_world_config(
            seed=SEED, n_users=n_users, n_videos=n_videos
        )
    )
    actions = world.generate_actions()
    started = time.perf_counter()
    recommender = core.RealtimeRecommender(
        world.videos, users=world.users, obs=obs.Observability.create()
    )
    recommender.observe_stream(actions)
    seconds = time.perf_counter() - started
    return seconds, _model_digest(recommender, world, schema.GLOBAL_GROUP)


def _model_digest(recommender, world, global_group: str) -> str:
    """SHA-256 of everything ``observe`` learned, read through calls both
    trees have: factors and biases, ``mu``, every similar list (damped at
    one read time, every entry), every history and every hot table."""
    model, now = recommender.model, 7 * 86400.0
    digest = hashlib.sha256()

    def feed(value) -> None:
        digest.update(repr(value).encode())

    ids, vectors, biases = model.video_rows()
    feed(ids)
    digest.update(vectors.tobytes())
    digest.update(biases.tobytes())
    for user in sorted(world.users):
        vector = model.user_vector(user)
        history = recommender.history.snapshot(user)
        feed((user, model.user_bias(user), history.recent, history.last_active))
        digest.update(b"-" if vector is None else vector.tobytes())
    feed(model.mu.hex())
    for video in sorted(recommender.table.tracked_videos()):
        feed((video, recommender.table.neighbors(video, k=10**6, now=now)))
    tracker = recommender.demographic.tracker
    groups = {user.demographic_group for user in world.users.values()}
    for group in sorted(groups | {global_group}):
        feed((group, tracker.hot(group, k=10**6, now=now)))
    return digest.hexdigest()


#: ``(source, subscriber)`` edges of the Figure-2 topology.
_EDGES = (
    ("spout", "user_history"),
    ("spout", "compute_mf"),
    ("spout", "get_item_pairs"),
    ("compute_mf", "mf_storage"),
    ("get_item_pairs", "item_pair_sim"),
    ("item_pair_sim", "result_storage"),
)
#: Components whose counts do not depend on thread timing: the pairs
#: ``get_item_pairs`` emits depend on how far ``user_history`` has got.
_STEADY = ("spout", "user_history", "compute_mf", "mf_storage")


def topology(pkg: str, smoke: bool) -> tuple[float, str]:
    import os

    synthetic, stream = _mod(pkg, "data.synthetic"), _mod(pkg, "data.stream")
    storm, figure2 = _mod(pkg, "storm"), _mod(pkg, "topology")
    world = synthetic.SyntheticWorld(
        synthetic.paper_world_config(seed=SEED, n_users=40, n_videos=80)
    )
    train = stream.split_by_day(world.generate_actions(), train_days=6).train
    head = list(train[: 200 if smoke else 800])
    pinned = hasattr(os, "sched_setaffinity")
    if pinned:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(cpus)})
    try:
        started = time.perf_counter()
        built, _ = figure2.build_recommendation_topology(
            head, world.videos, users=world.users
        )
        snapshot = storm.ThreadedExecutor(built).run(timeout=150.0).snapshot()
        seconds = time.perf_counter() - started
    finally:
        if pinned:
            os.sched_setaffinity(0, cpus)
    counts = {
        name: [int(snapshot[name][k]) for k in ("emitted", "processed", "failed")]
        for name in _STEADY
    }
    balanced = all(
        snapshot[src]["emitted"] == snapshot[dst]["processed"]
        for src, dst in _EDGES
    )
    failed = sum(int(row["failed"]) for row in snapshot.values())
    return seconds, repr((counts, balanced, failed))


WORKLOADS: dict[str, Workload] = {
    "worldgen": worldgen,
    "boot": boot,
    "bulk_load": bulk_load,
    "observe": observe,
    "topology": topology,
}


def absolute_repro_imports(root: Path) -> list[str]:
    """``file:line`` of every absolute ``repro`` import under ``root``
    (docstrings and comments are not imports)."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(n == "repro" or n.startswith("repro.") for n in names):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    return found


def unpack_base(rev: str, into: Path) -> Path:
    """``src/repro`` at ``rev`` as ``into/repro_base``."""
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", rev, "src/repro"],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    package = into / "repro_base"
    shutil.move(str(into / "src" / "repro"), str(package))
    return package


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base: list[float], change: list[float]) -> dict:
    """The paired gain rule: the change wins at least nine tenths of the
    rounds (ties count for neither side) and its median is lower than the
    base's by more than the base's interquartile range."""
    ratios = [c / b for b, c in zip(base, change)]
    wins = sum(c < b for b, c in zip(base, change))
    q1, base_median, q3 = quartiles(base)
    gap = base_median - statistics.median(change)
    return {
        "median_ratio": statistics.median(ratios),
        "wins": wins,
        "rounds": len(base),
        "gap": gap,
        "base_iqr": q3 - q1,
        "gain": wins >= 0.9 * len(base) and gap > q3 - q1,
    }


def run(workload: Workload, rounds: int, smoke: bool) -> dict:
    sides = ("repro_base", "repro")
    for pkg in sides:  # warm-up: imports, lazy set-up
        workload(pkg, smoke)
    times: dict[str, list[float]] = {pkg: [] for pkg in sides}
    outputs_match = True
    for i in range(rounds):
        prints = {}
        for pkg in sides if i % 2 == 0 else sides[::-1]:
            seconds, prints[pkg] = workload(pkg, smoke)
            times[pkg].append(seconds)
        outputs_match &= prints["repro"] == prints["repro_base"]
    return {
        "base": times["repro_base"],
        "change": times["repro"],
        "outputs_match": outputs_match,
    }


def report(name: str, base_rev: str, result: dict) -> str:
    base, change = result["base"], result["change"]
    v = verdict(base, change)
    lines = [f"workload {name}: base {base_rev} vs working tree, "
             f"{v['rounds']} rounds"]
    for label, values in (("base", base), ("change", change)):
        q1, q2, q3 = quartiles(values)
        raw = ", ".join(f"{x:.4f}" for x in values)
        lines.append(
            f"  {label:6s} median {q2:.4f} s (quartiles {q1:.4f}-{q3:.4f})"
            f"  [{raw}]"
        )
    lines += [
        f"  median paired ratio {v['median_ratio']:.3f}, change faster in "
        f"{v['wins']}/{v['rounds']}",
        f"  median gap {v['gap']:.4f} s vs base IQR {v['base_iqr']:.4f} s: "
        f"{'gain' if v['gain'] else 'no gain'} by the paired rule",
        f"  outputs identical every round: {result['outputs_match']}",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision")
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), action="append",
        help="repeatable; default: every workload",
    )
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--smoke", action="store_true", help="small sizes")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be >= 2")

    with tempfile.TemporaryDirectory(prefix="paired-") as tmp:
        base_pkg = unpack_base(args.base, Path(tmp))
        for root in (base_pkg, REPO / "src" / "repro"):
            bad = absolute_repro_imports(root)
            if bad:
                print(
                    f"refusing: absolute repro imports under {root}: "
                    + ", ".join(bad),
                    file=sys.stderr,
                )
                return 2
        sys.path[:0] = [str(REPO / "src"), tmp]
        mismatched = False
        for name in args.workload or sorted(WORKLOADS):
            result = run(WORKLOADS[name], args.rounds, args.smoke)
            print(report(name, args.base, result), flush=True)
            mismatched |= not result["outputs_match"]
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
