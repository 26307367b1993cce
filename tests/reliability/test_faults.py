"""Fault-injection harness tests: the state's fault schedule must be
deterministic."""

import pytest

from repro.core import MFModel, UserHistoryStore
from tests.support.faults import FlakyState, TransientStateError


class TestFlakyState:
    def test_error_schedule_is_periodic(self):
        state = FlakyState(error_every=3)
        model = MFModel(state=state)
        outcomes = []
        for i in range(9):
            try:
                model.observe_rating(float(i))
                outcomes.append("ok")
            except TransientStateError:
                outcomes.append("err")
        assert outcomes == ["ok", "ok", "err"] * 3
        assert state.errors_raised == 3

    def test_failed_operation_leaves_state_untouched(self):
        state = FlakyState()
        history = UserHistoryStore(state)
        history.add("u1", "v1", 1.0)
        state.fail_next()
        with pytest.raises(TransientStateError):
            history.add("u1", "v2", 2.0)
        assert history.recent("u1") == ["v1"]

    def test_fail_next_forces_errors(self):
        state = FlakyState()
        model = MFModel(state=state)
        state.fail_next(2)
        with pytest.raises(TransientStateError):
            model.user_vector("u1")
        with pytest.raises(TransientStateError):
            model.observe_rating(1.0)
        assert model.mu == 0.0  # schedule exhausted
