"""``ServingGateway.stop()`` returns only when every connection handler has.

A handler that has answered and half-closed its connection lingers in
``_close`` until the client closes too.  If ``stop()`` returned while one
still lingered, ``asyncio.run`` would cancel it on the way out, and on
Python 3.11 the stream protocol's done-callback then logs a
``CancelledError`` through the ``asyncio`` logger.
"""

import asyncio
import logging

from repro.obs import Observability
from repro.serving import RequestRouter, ServingGateway


class _Backend:
    def recommend_ids(self, user_id, current_video=None, n=None, now=None):
        return []


def _gateway() -> ServingGateway:
    obs = Observability.create()
    router = RequestRouter(_Backend(), obs=obs)
    return ServingGateway(router, observe=lambda action: None, obs=obs)


async def _stop_after_one_request(close_request: bool) -> list[asyncio.Task]:
    gateway = _gateway()
    await gateway.start()
    reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
    connection = "close" if close_request else "keep-alive"
    writer.write(
        b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
        b"Connection: " + connection.encode() + b"\r\n\r\n"
    )
    await writer.drain()
    await reader.readuntil(b'"status"')  # the reply's body has arrived
    try:
        await gateway.stop()
        return [
            task
            for task in asyncio.all_tasks()
            if task is not asyncio.current_task() and not task.done()
        ]
    finally:
        writer.close()


def test_stop_awaits_a_lingering_handler(caplog):
    """The client keeps its end open after a ``Connection: close`` reply,
    so the handler is lingering in ``_close`` when ``stop()`` is called."""
    with caplog.at_level(logging.DEBUG, logger="asyncio"):
        pending = asyncio.run(_stop_after_one_request(close_request=True))
    assert pending == []
    assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []


def test_stop_awaits_a_keep_alive_handler(caplog):
    with caplog.at_level(logging.DEBUG, logger="asyncio"):
        pending = asyncio.run(_stop_after_one_request(close_request=False))
    assert pending == []
    assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []
