"""A :class:`~repro.serving.ServingGateway` on a background event loop,
for tests that talk to it over real sockets."""

from __future__ import annotations

import asyncio
import threading

from repro.serving import ServingGateway


class GatewayThread:
    """Run a :class:`ServingGateway` on a background event loop.

    The HTTP tests are synchronous; this context manager owns a daemon thread with its own
    asyncio loop, starts the gateway, exposes the bound ``port``, and
    tears everything down on exit::

        with GatewayThread(gateway) as running:
            resp = http.client.HTTPConnection("127.0.0.1", running.port)
    """

    def __init__(self, gateway: ServingGateway, startup_timeout: float = 10.0):
        self.gateway = gateway
        self.startup_timeout = startup_timeout
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.gateway.port

    @property
    def host(self) -> str:
        return self.gateway.config.host

    def __enter__(self) -> "GatewayThread":
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="gateway-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(self.startup_timeout):
            raise RuntimeError("gateway failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("gateway failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            try:
                await self.gateway.start()
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                self._startup_error = exc
                raise
            finally:
                self._started.set()

        try:
            self._loop.run_until_complete(main())
            self._loop.run_forever()
        except BaseException:  # noqa: BLE001 - loop thread must not crash silently
            pass
        finally:
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self._loop.close()

    def __exit__(self, *exc_info) -> None:
        assert self._loop is not None and self._thread is not None
        stopping = asyncio.run_coroutine_threadsafe(
            self.gateway.stop(), self._loop
        )
        try:
            stopping.result(timeout=self.startup_timeout)
        except Exception:  # noqa: BLE001 - best-effort shutdown
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=self.startup_timeout)
