"""Property: production in arbitrary micro-batch splits equals the oracle.

Random short streams over a handful of users and videos — all seven action
types, IMPRESS (zero evidence) and PLAYTIME on a video the catalogue does
not know (invalid) included, keys repeated freely — go through
``OnlineTrainer.process_batch`` cut at random points and through the
scalar reference of ``tests/reference`` one action at a time.  Skipped and
updated counts, ``mu``, every factor and bias, and the top-N order must
agree (see ``tests.reference.RTOL`` for the tolerance).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MFModel, OnlineTrainer
from repro.core.variants import ALL_VARIANTS
from repro.data import ActionType, UserAction, Video
from tests.reference import ReferenceModel, assert_matches_oracle

VIDEOS = {f"v{i}": Video(f"v{i}", "t", duration=1000.0) for i in range(6)}

actions = st.builds(
    lambda ts, user, video, kind, vt: UserAction(
        ts,
        f"u{user}",
        f"v{video}",
        kind,
        view_time=(vt if kind is ActionType.PLAYTIME else 0.0),
    ),
    ts=st.floats(min_value=0, max_value=1e6),
    user=st.integers(0, 5),
    video=st.integers(0, 7),  # ids 6-7 are unknown to the catalogue
    kind=st.sampled_from(list(ActionType)),
    # Below the 0.1 floor, inside the log curve, and past the full length.
    vt=st.floats(min_value=1.0, max_value=2000.0),
)


@settings(max_examples=60, deadline=None)
@given(
    stream=st.lists(actions, max_size=60),
    cuts=st.sets(st.integers(1, 59)),
    variant=st.sampled_from(ALL_VARIANTS),
)
def test_batched_production_equals_oracle(stream, cuts, variant):
    model = MFModel()
    trainer = OnlineTrainer(model, videos=VIDEOS, variant=variant)
    bounds = [0, *sorted(cut for cut in cuts if cut < len(stream)), len(stream)]
    for start, stop in zip(bounds, bounds[1:]):
        trainer.process_batch(stream[start:stop])

    oracle = ReferenceModel(model._init_vector, VIDEOS, variant.name)
    for action in stream:
        oracle.process(action)
    assert trainer.seen == len(stream)
    assert_matches_oracle(model, trainer, oracle, n=8)
