"""Unit tests for the contiguous factor arena."""

import pickle
import threading

import numpy as np
import pytest

from repro.core.arena import FactorArena


def _vec(f, fill):
    return np.full(f, float(fill))


class TestBasics:
    def test_empty(self):
        arena = FactorArena(4)
        assert len(arena) == 0
        assert arena.vector("u") is None
        assert arena.bias("u") == 0.0
        assert "u" not in arena

    def test_put_and_read_back(self):
        arena = FactorArena(4)
        arena.put("u", _vec(4, 1.5), 0.25)
        assert len(arena) == 1
        assert "u" in arena
        np.testing.assert_array_equal(arena.vector("u"), _vec(4, 1.5))
        assert arena.bias("u") == 0.25

    def test_vector_returns_a_copy(self):
        arena = FactorArena(4)
        arena.put("u", _vec(4, 1.0), 0.0)
        held = arena.vector("u")
        arena.put("u", _vec(4, 9.0), 0.0)
        np.testing.assert_array_equal(held, _vec(4, 1.0))

    def test_dimension_mismatch_rejected(self):
        arena = FactorArena(4)
        with pytest.raises(ValueError):
            arena.put("u", _vec(3, 1.0), 0.0)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            FactorArena(0)
        with pytest.raises(ValueError):
            FactorArena(4, initial_capacity=0)


class TestGrowth:
    def test_grows_past_initial_capacity(self):
        arena = FactorArena(3, initial_capacity=2)
        for i in range(50):
            arena.put(f"e{i}", _vec(3, i), float(i))
        assert len(arena) == 50
        for i in range(50):
            np.testing.assert_array_equal(arena.vector(f"e{i}"), _vec(3, i))
            assert arena.bias(f"e{i}") == float(i)

    def test_ids_in_first_touch_order(self):
        arena = FactorArena(2, initial_capacity=1)
        for name in ("c", "a", "b"):
            arena.put(name, _vec(2, 0.0), 0.0)
        assert arena.__getstate__()["ids"] == ["c", "a", "b"]


class TestBatchReads:
    def test_vectors_matrix_gathers_with_zero_rows(self):
        arena = FactorArena(2)
        arena.put("a", np.array([1.0, 2.0]), 0.0)
        arena.put("b", np.array([3.0, 4.0]), 0.0)
        matrix = arena.vectors_matrix(["b", "missing", "a"])
        np.testing.assert_array_equal(
            matrix, np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 2.0]])
        )

    def test_matrix_is_a_copy(self):
        arena = FactorArena(2)
        arena.put("a", np.array([1.0, 2.0]), 0.0)
        matrix = arena.vectors_matrix(["a"])
        matrix[0, 0] = 99.0
        np.testing.assert_array_equal(arena.vector("a"), [1.0, 2.0])

    def test_biases_array(self):
        arena = FactorArena(2)
        arena.put("a", _vec(2, 0.0), 0.5)
        arena.put("b", _vec(2, 0.0), -0.25)
        np.testing.assert_array_equal(
            arena.biases_array(["b", "nope", "a"]), [-0.25, 0.0, 0.5]
        )

    def test_vectors_many_mixes_hits_and_misses(self):
        arena = FactorArena(2)
        arena.put("a", np.array([1.0, 1.0]), 0.0)
        out = arena.vectors_many(["missing", "a"])
        assert out[0] is None
        np.testing.assert_array_equal(out[1], [1.0, 1.0])

    def test_row_is_a_copy_with_its_bias(self):
        arena = FactorArena(2)
        arena.put("a", np.array([1.0, 2.0]), 0.5)
        vector, bias = arena.row("a")
        vector[0] = 9.0
        np.testing.assert_array_equal(arena.vector("a"), [1.0, 2.0])
        assert bias == 0.5 and type(bias) is float
        assert arena.row("missing") is None

    def test_row_views_are_read_only_rows(self):
        arena = FactorArena(2, initial_capacity=1)
        arena.put("a", np.array([1.0, 2.0]), 0.0)
        missing, view = arena.row_views(["missing", "a"])
        assert missing is None
        np.testing.assert_array_equal(view, [1.0, 2.0])
        with pytest.raises(ValueError):
            view[0] = 9.0
        arena.put("a", np.array([3.0, 4.0]), 0.0)
        np.testing.assert_array_equal(view, [3.0, 4.0])  # a view, not a copy
        arena.put("b", np.array([5.0, 6.0]), 0.0)  # grows: a new buffer
        [grown] = arena.row_views(["a"])
        assert not grown.flags.writeable
        np.testing.assert_array_equal(grown, [3.0, 4.0])


class TestSetdefaultDelete:
    def test_setdefault_installs_once(self):
        arena = FactorArena(2)
        calls = []

        def factory():
            calls.append(1)
            return np.array([5.0, 5.0])

        first = arena.setdefault_vector("u", factory)
        second = arena.setdefault_vector("u", factory)
        np.testing.assert_array_equal(first, second)
        assert len(calls) == 1

    def test_setstate_drops_rows_an_older_state_marked_deleted(self):
        # States pickled while arenas could delete carry ``has_vec``; a
        # deleted row held a zero vector and zero bias, so dropping it
        # reads back exactly as the old arena answered.
        state = {
            "f": 2,
            "ids": ["a", "gone", "b"],
            "vecs": np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]]),
            "biases": np.array([0.5, 0.0, -0.5]),
            "has_vec": np.array([True, False, True]),
        }
        arena = FactorArena(2)
        arena.__setstate__(state)
        assert len(arena) == 2
        assert "gone" not in arena and arena.vector("gone") is None
        assert arena.bias("gone") == 0.0
        np.testing.assert_array_equal(arena.vector("b"), [3.0, 4.0])
        assert arena.bias("b") == -0.5
        arena.put("c", _vec(2, 7.0), 1.0)
        assert arena.__getstate__()["ids"] == ["a", "b", "c"]


class TestPickle:
    def test_roundtrip(self):
        arena = FactorArena(3, initial_capacity=2)
        for i in range(10):
            arena.put(f"e{i}", _vec(3, i), float(i) / 2)
        clone = pickle.loads(pickle.dumps(arena))
        assert len(clone) == 10
        assert clone.__getstate__()["ids"] == arena.__getstate__()["ids"]
        for i in range(10):
            np.testing.assert_array_equal(clone.vector(f"e{i}"), _vec(3, i))
            assert clone.bias(f"e{i}") == float(i) / 2
        # The clone is independently mutable (fresh lock, fresh arrays).
        clone.put("new", _vec(3, 42.0), 0.0)
        assert arena.vector("new") is None


class TestThreadSafety:
    def test_concurrent_writers_land_all_rows(self):
        arena = FactorArena(4)
        errors = []

        def writer(offset):
            try:
                for i in range(200):
                    arena.put(f"w{offset}-{i}", _vec(4, i), float(i))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(arena) == 800
