"""Stable hashing helpers.

Python's built-in ``hash`` is salted per process for strings, which would
make Storm fields-grouping and A/B arm assignment non-deterministic across
runs.  Everything in this library that routes by key uses
:func:`stable_hash` instead, so a given key always lands on the same
worker or arm regardless of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import zlib
from typing import Iterable


def stable_hash(key: object) -> int:
    """Return a deterministic 32-bit hash of ``key``.

    Keys are rendered with ``repr`` (so ``1`` and ``"1"`` hash differently)
    and digested with CRC32.  This is *not* cryptographic — it only needs to
    spread keys evenly and be stable across processes.
    """
    return zlib.crc32(repr(key).encode("utf-8"))


def stable_bucket(key: object, buckets: int) -> int:
    """Map ``key`` onto one of ``buckets`` slots deterministically."""
    if buckets <= 0:
        raise ValueError(f"buckets must be positive, got {buckets}")
    return stable_hash(key) % buckets


def combined_hash(parts: Iterable[object]) -> int:
    """Hash a sequence of parts order-sensitively into 32 bits."""
    acc = 0
    for part in parts:
        acc = zlib.crc32(repr(part).encode("utf-8"), acc)
    return acc
