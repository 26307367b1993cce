"""Golden snapshot of ``MetricsRegistry.to_json()``.

A fully deterministic observability bundle (every clock is one shared
``VirtualClock``) drives a small topology whose bolt advances that clock
by a fixed amount per tuple — so every counter, gauge, histogram bucket,
and percentile in the exported document is exact, and the JSON can be
diffed byte-for-byte against a committed golden file.

The golden file pins the export *schema*: field names, series structure,
bucket layout, sort order.  To regenerate after an intentional schema
change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/obs/test_golden_snapshot.py
"""

import os
from pathlib import Path

from repro.storm import Bolt, LocalExecutor, Spout, StreamTuple, TopologyBuilder
from tests.support.obs import deterministic_obs

GOLDEN = Path(__file__).parent / "golden" / "registry_snapshot.json"

N_TUPLES = 6


class _FixedSpout(Spout):
    def __init__(self) -> None:
        self._i = 0

    def next_tuple(self) -> StreamTuple | None:
        if self._i >= N_TUPLES:
            return None
        tup = StreamTuple({"k": self._i % 2, "v": self._i})
        self._i += 1
        return tup


class _WorkBolt(Bolt):
    """Simulates 1 ms of work on the shared virtual clock, then writes
    into a shared table."""

    def __init__(self, clock, table) -> None:
        self._clock = clock
        self._table = table

    def process(self, tup, collector):
        self._clock.advance(0.001)
        self._table[f"count:{tup['k']}"] = tup["v"]


def _deterministic_registry_json() -> str:
    obs = deterministic_obs()
    clock = obs.perf_clock  # the one VirtualClock behind everything
    table: dict = {}
    builder = TopologyBuilder()
    builder.set_spout("spout", _FixedSpout)
    builder.set_bolt(
        "work", lambda: _WorkBolt(clock, table), parallelism=2
    ).fields_grouping("spout", ["k"])
    LocalExecutor(builder.build(), obs=obs).run()
    return obs.registry.to_json()


def test_deterministic_bundle_is_reproducible():
    assert _deterministic_registry_json() == _deterministic_registry_json()


def test_registry_to_json_matches_golden():
    document = _deterministic_registry_json() + "\n"
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(document)
    assert GOLDEN.exists(), (
        "golden file missing - regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    assert document == GOLDEN.read_text(), (
        "registry JSON diverged from the golden snapshot; if the schema "
        "change is intentional, regenerate with REPRO_UPDATE_GOLDEN=1"
    )
