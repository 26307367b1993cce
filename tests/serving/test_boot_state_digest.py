"""Byte-identity golden of the served boot's whole model state.

``build_demo_gateway`` on the 20 x 150 seed-2016 world (no data dir, so
the boot trains on the world's whole stream) leaves one ``ModelState``
holding the two factor arenas, every similar-video list, every history,
every hot table and ``mu``.  Its values, in ``VALUES`` order and each
after its name, and the top-10 served to every user with and without a
current video, are digested canonically: keys and strings by their text, floats by ``float.hex()``, float64 arrays by
``tobytes()``, and ``SimilarLists`` / ``FactorArena`` through
``__getstate__``.  Pickle bytes are not digested: they differ across the
numpy and Python versions the suite runs on.

A change to how ``observe`` does its arithmetic must leave both digests
where they are; a digest that moves means the model changed.  Never
re-capture one to make it pass.
"""

import hashlib

import numpy as np

from repro.core.arena import FactorArena
from repro.core.simtable import SimilarLists
from repro.core.state import VALUES
from repro.serving import GatewayConfig
from repro.serving.cli import build_demo_gateway

#: Digest of the state's values after the boot.  The same per-value
#: enumeration over the key-value store the state replaced (its arena,
#: ``mu``, list, history and hot-table entries gathered by value) gives
#: this digest too.
STATE_DIGEST = (
    "7332f1d929472671d1e64a2a78839818e9029c8030b2b9daa043e5fef29d54a0"
)
#: Digest of every user's top-10, without and with a current video.
SERVED_DIGEST = (
    "81c87a1ba745eb3a54dbd5bb706151c32c37066d3eba10c051ca08d96226933b"
)

#: Read time of the served lists: the end of the world's seven days.
NOW = 7 * 86400.0


def _feed(h, value) -> None:
    """Feed one value's canonical encoding: a type tag, then a length or
    the exact bits, so no two distinct values encode alike."""
    if isinstance(value, (SimilarLists, FactorArena)):
        h.update(type(value).__name__.encode())
        _feed(h, value.__getstate__())
    elif isinstance(value, np.ndarray):
        assert value.dtype == np.float64, value.dtype
        h.update(b"A%r" % (value.shape,))
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, float):
        h.update(b"F" + value.hex().encode())
    elif isinstance(value, int):
        h.update(b"I%d;" % value)
    elif isinstance(value, str):
        data = value.encode()
        h.update(b"S%d:" % len(data) + data)
    elif value is None:
        h.update(b"N")
    elif isinstance(value, (tuple, list)):
        h.update(b"T" if isinstance(value, tuple) else b"L")
        h.update(b"%d:" % len(value))
        for item in value:
            _feed(h, item)
    elif isinstance(value, dict):
        h.update(b"D%d:" % len(value))
        for key, item in value.items():
            _feed(h, key)
            _feed(h, item)
    else:
        raise TypeError(f"no canonical encoding for {type(value).__name__}")


def test_served_boot_state_is_byte_identical():
    gateway = build_demo_gateway(
        GatewayConfig(port=0), rate=None, n_users=20, n_videos=150, seed=2016
    )
    recommender = gateway.router.recommender

    state = hashlib.sha256()
    for name in VALUES:
        _feed(state, name)
        _feed(state, getattr(recommender.state, name))

    served = hashlib.sha256()
    for user_id in sorted(recommender.users):
        recent = recommender.history.recent(user_id, 1)
        for current in (None, *recent):
            top = recommender.recommend(user_id, current, n=10, now=NOW)
            _feed(served, [(r.video_id, r.score) for r in top])

    assert (state.hexdigest(), served.hexdigest()) == (
        STATE_DIGEST,
        SERVED_DIGEST,
    )
