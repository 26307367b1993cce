"""Tests for the log-structured durable KV tier.

Covers the KVStore contract on disk, persistence across reopen, segment
rotation, torn-tail truncation (with metrics), sealed-segment corruption,
compaction invariants (including tombstone retention), the incremental-
checkpoint segment handshake, and fsync policies.
"""

import pytest

from repro.errors import CorruptSegmentError, DurableStoreError
from repro.kvstore import (
    DurableKVStore,
    InMemoryKVStore,
    ReadThroughCache,
    drop_caches,
    unwrap_durable,
)
from repro.obs import MetricsRegistry


def metric(registry, name):
    doc = registry.snapshot()[name]
    return doc["series"][0]["value"] if doc["series"] else 0.0


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def now(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture()
def store(tmp_path):
    with DurableKVStore(tmp_path / "kv", fsync="never") as s:
        yield s


class TestKVContract:
    def test_put_get_roundtrip(self, store):
        store.put("k", {"a": [1, 2]})
        assert store.get("k") == {"a": [1, 2]}
        assert store.get("absent") is None
        assert store.get("absent", "dflt") == "dflt"

    def test_delete(self, store):
        store.put("k", 1)
        assert store.delete("k") is True
        assert store.delete("k") is False
        assert store.get("k") is None

    def test_update(self, store):
        assert store.update("n", lambda x: x + 1, default=0) == 1
        assert store.update("n", lambda x: x + 1, default=0) == 2

    def test_contains_len_keys(self, store):
        store.put("a", 1)
        store.put("b", 2)
        assert "a" in store
        assert "nope" not in store
        assert len(store) == 2
        assert sorted(store.keys()) == ["a", "b"]

    def test_mget_mput(self, store):
        store.mput([("a", 1), ("b", 2), ("a", 3)])
        assert store.mget(["a", "b", "zz"], default=-1) == [3, 2, -1]

    def test_values_are_fresh_objects(self, store):
        store.put("k", [1, 2])
        first = store.get("k")
        first.append(3)
        assert store.get("k") == [1, 2]

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError):
            DurableKVStore(tmp_path / "a", segment_max_bytes=1)
        with pytest.raises(ValueError):
            DurableKVStore(tmp_path / "b", fsync="sometimes")
        with pytest.raises(ValueError):
            DurableKVStore(tmp_path / "c", compact_min_dead_ratio=0.0)

    def test_matches_in_memory_reference(self, store):
        """Interleaved ops agree with the in-memory store, op for op."""
        reference = InMemoryKVStore()
        ops = [
            ("put", "a", 1), ("put", "b", 2), ("put", "a", 3),
            ("delete", "b"), ("put", "b", 9), ("update", "a"),
            ("delete", "zz"), ("put", "c", [1, 2]),
        ]
        for op in ops:
            if op[0] == "put":
                assert store.put(op[1], op[2]) == reference.put(op[1], op[2])
            elif op[0] == "delete":
                assert store.delete(op[1]) == reference.delete(op[1])
            else:
                bump = lambda x: (x or 0) + 10
                assert store.update(op[1], bump) == reference.update(op[1], bump)
        assert dict(zip(store.keys(), store.mget(store.keys()))) == dict(
            reference.items()
        )


class TestPersistence:
    def test_reopen_sees_everything(self, tmp_path):
        with DurableKVStore(tmp_path / "kv", fsync="never") as store:
            for i in range(100):
                store.put(f"k{i}", {"i": i})
            store.put("k0", "rewritten")
            store.delete("k1")

        with DurableKVStore(tmp_path / "kv", fsync="never") as reopened:
            assert len(reopened) == 99
            assert reopened.get("k0") == "rewritten"
            assert reopened.get("k1") is None
            assert reopened.get("k42") == {"i": 42}

    def test_tombstone_survives_reopen(self, tmp_path):
        with DurableKVStore(tmp_path / "kv", fsync="never") as store:
            store.put("k", "v")
            store.delete("k")
        with DurableKVStore(tmp_path / "kv", fsync="never") as reopened:
            assert reopened.get("k") is None
            reopened.put("k", "again")
            assert reopened.get("k") == "again"

    def test_segment_rotation(self, tmp_path):
        store = DurableKVStore(
            tmp_path / "kv", fsync="never", segment_max_bytes=256,
            auto_compact=False,
        )
        for i in range(60):
            store.put(f"key-{i:04d}", "x" * 40)
        assert store.stats()["segments"] > 1
        # every key still readable across segments, before and after reopen
        assert store.get("key-0000") == "x" * 40
        store.close()
        with DurableKVStore(tmp_path / "kv", fsync="never") as reopened:
            assert len(reopened) == 60
            assert reopened.get("key-0059") == "x" * 40

    def test_clear_removes_files(self, tmp_path):
        store = DurableKVStore(tmp_path / "kv", fsync="never")
        store.put("k", "v")
        store.clear()
        assert len(store) == 0
        assert list((tmp_path / "kv").glob("seg-*")) == []
        # still usable after clear
        store.put("k2", "v2")
        assert store.get("k2") == "v2"
        store.close()


class TestTornTail:
    def _newest_segment(self, root):
        return sorted(root.glob("seg-*.log"))[-1]

    def test_torn_tail_truncated_with_metric(self, tmp_path):
        with DurableKVStore(tmp_path / "kv", fsync="never") as store:
            store.put("a", "first")
            store.put("b", "second")
        seg = self._newest_segment(tmp_path / "kv")
        good = seg.read_bytes()
        seg.write_bytes(good + b"\x13\x37partial-record")

        registry = MetricsRegistry()
        with DurableKVStore(
            tmp_path / "kv", fsync="never", registry=registry
        ) as reopened:
            assert reopened.get("a") == "first"
            assert reopened.get("b") == "second"
        assert metric(registry, "durable_kv_torn_tail_truncations_total") == 1.0
        assert metric(registry, "durable_kv_truncated_bytes_total") == float(
            len(b"\x13\x37partial-record")
        )
        assert seg.read_bytes() == good  # file physically truncated

    def test_torn_record_mid_write_drops_only_the_tail(self, tmp_path):
        with DurableKVStore(tmp_path / "kv", fsync="never") as store:
            store.put("a", 1)
        seg = self._newest_segment(tmp_path / "kv")
        data = seg.read_bytes()
        seg.write_bytes(data + data[: len(data) // 2])  # half a record

        with DurableKVStore(tmp_path / "kv", fsync="never") as reopened:
            assert reopened.get("a") == 1
            assert len(reopened) == 1

    def test_corrupt_sealed_segment_raises(self, tmp_path):
        store = DurableKVStore(
            tmp_path / "kv", fsync="never", segment_max_bytes=128,
            auto_compact=False,
        )
        for i in range(20):
            store.put(f"k{i}", "x" * 30)
        store.close()
        segments = sorted((tmp_path / "kv").glob("seg-*.log"))
        assert len(segments) > 1
        # flip one payload byte in the OLDEST (sealed) segment
        data = bytearray(segments[0].read_bytes())
        data[-1] ^= 0xFF
        segments[0].write_bytes(bytes(data))

        with pytest.raises(CorruptSegmentError) as exc:
            DurableKVStore(tmp_path / "kv", fsync="never")
        assert exc.value.segment == segments[0].name

    def test_checksum_reverified_on_read(self, tmp_path):
        """Corruption that lands after open is still caught at read time."""
        store = DurableKVStore(tmp_path / "kv", fsync="never")
        store.put("k", "value")
        store.sync()
        seg = self._newest_segment(tmp_path / "kv")
        data = bytearray(seg.read_bytes())
        data[-1] ^= 0xFF
        with open(seg, "r+b") as fh:
            fh.write(bytes(data))
        with pytest.raises(CorruptSegmentError):
            store.get("k")
        store.close()


class TestCompaction:
    def _store(self, tmp_path, **kw):
        kw.setdefault("fsync", "never")
        kw.setdefault("auto_compact", False)
        return DurableKVStore(tmp_path / "kv", **kw)

    def test_compact_reclaims_dead_bytes(self, tmp_path):
        store = self._store(tmp_path, segment_max_bytes=512)
        for round_ in range(10):
            for i in range(20):
                store.put(f"k{i}", f"round-{round_}" * 4)
        before = store.stats()
        report = store.compact()
        after = store.stats()
        assert report.segments_merged > 1
        assert report.live_records == 20
        assert report.bytes_reclaimed > 0
        assert after["total_bytes"] < before["total_bytes"]
        assert after["dead_bytes"] == 0
        for i in range(20):
            assert store.get(f"k{i}") == "round-9" * 4
        store.close()

    def test_tombstones_survive_compaction(self, tmp_path):
        store = self._store(tmp_path)
        store.put("dead", "x")
        store.delete("dead")
        store.put("live", "y")
        report = store.compact()
        assert report.tombstones_kept == 1
        store.close()
        with DurableKVStore(tmp_path / "kv", fsync="never") as reopened:
            assert reopened.get("dead") is None
            assert reopened.get("live") == "y"

    def test_partial_compaction_discarded_on_open(self, tmp_path):
        store = self._store(tmp_path)
        store.put("k", "v")
        store.close()
        # a crashed compaction leaves a tmp file with arbitrary content
        stray = tmp_path / "kv" / "compact-tmp-000000000099.log"
        stray.write_bytes(b"half-written garbage")

        registry = MetricsRegistry()
        with DurableKVStore(
            tmp_path / "kv", fsync="never", registry=registry
        ) as reopened:
            assert reopened.get("k") == "v"
        assert not stray.exists()
        assert (
            metric(registry, "durable_kv_partial_compactions_discarded_total")
            == 1.0
        )

    def test_stale_source_segment_cannot_resurrect_deletes(self, tmp_path):
        """Crash between compaction rename and source unlink: the stale
        source segment holds the deleted key's old record, but the
        compacted (higher-id) segment holds its tombstone — scan order
        keeps the key dead."""
        store = self._store(tmp_path)
        store.put("zombie", "braaains")
        store.delete("zombie")
        store.put("live", 1)
        store.seal_active()
        source = sorted((tmp_path / "kv").glob("seg-*.log"))[0]
        stale_copy = source.read_bytes()
        store.compact()
        # resurrect the pre-compaction segment file, as a crash would
        source.write_bytes(stale_copy)
        store.close()
        with DurableKVStore(tmp_path / "kv", fsync="never") as reopened:
            assert reopened.get("zombie") is None
            assert reopened.get("live") == 1

    def test_auto_compact_triggers_on_rotation(self, tmp_path):
        registry = MetricsRegistry()
        store = DurableKVStore(
            tmp_path / "kv",
            fsync="never",
            segment_max_bytes=256,
            compact_min_bytes=512,
            compact_min_dead_ratio=0.5,
            registry=registry,
        )
        for _ in range(100):
            store.put("hot", "x" * 40)  # one key rewritten: ~all bytes dead
        assert metric(registry, "durable_kv_compactions_total") >= 1.0
        assert store.get("hot") == "x" * 40
        store.close()


class TestSegmentHandshake:
    def test_seal_then_restore_to_segments(self, tmp_path):
        store = DurableKVStore(
            tmp_path / "kv", fsync="never", segment_max_bytes=256,
            auto_compact=False,
        )
        for i in range(20):
            store.put(f"k{i}", "x" * 30)
        store.seal_active()
        sealed = store.sealed_segments()
        assert sealed and all(size > 0 for _, size in sealed)

        for i in range(20, 40):
            store.put(f"k{i}", "y" * 30)
        store.put("k0", "rewritten-after-seal")

        live = store.restore_to_segments([name for name, _ in sealed])
        assert live == 20
        assert store.get("k0") == "x" * 30
        assert store.get("k25") is None
        store.close()

    def test_restore_to_missing_segment_raises(self, tmp_path):
        store = DurableKVStore(tmp_path / "kv", fsync="never")
        store.put("k", "v")
        store.seal_active()
        with pytest.raises(DurableStoreError):
            store.restore_to_segments(["seg-000000009999.log"])
        # untouched on failure
        assert store.get("k") == "v"
        store.close()

    def test_restore_rejects_non_segment_names(self, tmp_path):
        store = DurableKVStore(tmp_path / "kv", fsync="never")
        with pytest.raises(DurableStoreError):
            store.restore_to_segments(["../../etc/passwd"])
        store.close()


class TestFsyncPolicies:
    def test_always_fsyncs_every_put(self, tmp_path):
        registry = MetricsRegistry()
        store = DurableKVStore(
            tmp_path / "kv", fsync="always", registry=registry
        )
        for i in range(5):
            store.put(f"k{i}", i)
        assert metric(registry, "durable_kv_fsyncs_total") == 5.0
        store.close()

    def test_mput_is_one_group_commit(self, tmp_path):
        registry = MetricsRegistry()
        store = DurableKVStore(
            tmp_path / "kv", fsync="always", registry=registry
        )
        store.mput([(f"k{i}", i) for i in range(50)])
        assert metric(registry, "durable_kv_fsyncs_total") == 1.0
        store.close()

    def test_interval_policy_batches_fsyncs(self, tmp_path):
        clock = FakeClock()
        registry = MetricsRegistry()
        store = DurableKVStore(
            tmp_path / "kv",
            fsync="interval",
            fsync_interval_s=1.0,
            clock=clock,
            registry=registry,
        )
        for i in range(10):
            store.put(f"k{i}", i)
        assert metric(registry, "durable_kv_fsyncs_total") == 0.0
        clock.advance(1.5)
        store.put("late", 1)
        assert metric(registry, "durable_kv_fsyncs_total") == 1.0
        store.close()

    def test_never_policy_still_durable_after_close(self, tmp_path):
        with DurableKVStore(tmp_path / "kv", fsync="never") as store:
            store.put("k", "v")
        with DurableKVStore(tmp_path / "kv", fsync="never") as reopened:
            assert reopened.get("k") == "v"


class TestTierHelpers:
    def test_unwrap_durable_through_cache(self, tmp_path):
        durable = DurableKVStore(tmp_path / "kv", fsync="never")
        tier = ReadThroughCache(durable, capacity=8)
        assert unwrap_durable(tier) is durable
        assert unwrap_durable(durable) is durable
        assert unwrap_durable(InMemoryKVStore()) is None
        durable.close()

    def test_drop_caches_forces_reread(self, tmp_path):
        durable = DurableKVStore(tmp_path / "kv", fsync="never")
        tier = ReadThroughCache(durable, capacity=8)
        tier.put("k", "cached")
        durable.put("k", "changed-underneath")
        assert tier.get("k") == "cached"  # stale by design
        drop_caches(tier)
        assert tier.get("k") == "changed-underneath"
        durable.close()

    def test_cache_over_durable_serves_hot_set_from_memory(self, tmp_path):
        registry = MetricsRegistry()
        durable = DurableKVStore(
            tmp_path / "kv", fsync="never", registry=registry
        )
        tier = ReadThroughCache(durable, capacity=64)
        tier.put("k", "v")
        disk_reads = metric(registry, "durable_kv_reads_total")
        for _ in range(100):
            assert tier.get("k") == "v"
        assert metric(registry, "durable_kv_reads_total") == disk_reads
        assert len(tier) == 1  # KVStore contract: backing-store size
        durable.close()

    def test_snapshot_restore_roundtrip_through_tier(self, tmp_path):
        durable = DurableKVStore(tmp_path / "kv", fsync="never")
        tier = ReadThroughCache(durable, capacity=8)
        tier.put("a", 1)
        tier.put("a", 2)
        tier.put("b", [3])
        entries = tier.snapshot_entries()

        other = InMemoryKVStore()
        other.restore_entries(entries)
        assert other.get("a") == 2
        assert other.get("b") == [3]
        durable.close()
