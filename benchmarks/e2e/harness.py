"""Process plumbing for the runner: children, scratch space, blocking HTTP.

Everything the benchmark starts is a :class:`Child`; every child is in
:data:`_LIVE` until it has been reaped, and :func:`kill_all` — called on
every exit path of the runner — kills and waits for whatever is left.
Scratch files (the durable workload's ``data_dir``, the ANN catalog) live
under ``benchmarks/e2e/out/`` inside the checkout and are removed by the
context manager that made them.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
OUT = HERE / "out"

#: Longest a child may take from spawn to its ``ready`` line.
BOOT_TIMEOUT_S = 150.0


class ChildError(RuntimeError):
    """The child died, hung, or answered something other than expected."""


_LIVE: set["Child"] = set()


def child_env() -> dict[str, str]:
    """The runner's environment plus what a clean checkout needs."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{inherited}" if inherited else str(SRC)
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # One hash seed for every child: string hashing (dict and set layout,
    # set iteration order) otherwise differs from process to process and
    # gives each run a slightly different speed.
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """One ``server_child.py`` process and its protocol stream."""

    def __init__(self, spec: dict, quiet: bool = False) -> None:
        """``quiet`` drops the child's stderr: for a child that is expected
        to die with a traceback (the known failing restart)."""
        self.spec = spec
        self.peak_rss_mb = 0.0
        self._messages: queue.Queue = queue.Queue()
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server_child.py"), json.dumps(spec)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL if quiet else None,
            env=child_env(),
            cwd=str(HERE),
            text=True,
        )
        _LIVE.add(self)
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            if line.startswith("@@ "):
                self._messages.put(json.loads(line[3:]))
        self._messages.put({"event": "eof"})

    def expect(self, event: str, timeout: float) -> dict:
        """The next protocol message of type ``event``."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                message = self._messages.get(
                    timeout=max(0.01, deadline - time.monotonic())
                )
            except queue.Empty:
                raise ChildError(
                    f"child sent no {event!r} within {timeout:.0f}s"
                ) from None
            if message["event"] == event:
                return message
            if message["event"] == "eof":
                raise ChildError(f"child exited before sending {event!r}")

    def signal(self, signum: int) -> None:
        # Not ``Popen.send_signal``: that polls first and would reap an
        # exited child behind ``reap``'s back, losing its ``ru_maxrss``.
        # The pid stays ours (a zombie at worst) until ``reap`` waits.
        os.kill(self.proc.pid, signum)

    def reap(self, timeout: float = 30.0) -> float:
        """Wait for the process to end; return its peak RSS in MB.

        ``os.wait4`` is what reports ``ru_maxrss`` for this one child —
        also when it was killed.  A child that outlives ``timeout`` is
        killed and then waited for.
        """
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.signal(signal.SIGKILL)
                deadline = float("inf")
            time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._reader.join(timeout=5.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        _LIVE.discard(self)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        return self.peak_rss_mb

    def stop(self) -> float:
        """Graceful stop (SIGTERM: trace written, gateway closed)."""
        self.signal(signal.SIGTERM)
        return self.reap()

    def kill(self) -> float:
        """The crash: SIGKILL, no chance to flush anything."""
        self.signal(signal.SIGKILL)
        return self.reap()


def kill_all() -> None:
    """Kill and reap every child still alive (every exit path calls this)."""
    for child in list(_LIVE):
        try:
            child.kill()
        except (OSError, ChildProcessError):
            _LIVE.discard(child)


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A temporary directory under ``out/``, removed on exit."""
    OUT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=OUT)
    try:
        yield Path(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


def http_json(
    port: int, method: str, path: str, doc: dict | None = None,
    timeout: float = 10.0,
) -> tuple[int, dict]:
    """One blocking request against the child (set-up, snapshots, the
    first answer after a recovery) — never inside a timed phase."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            method, path, body=None if doc is None else json.dumps(doc)
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def boot(spec: dict) -> tuple[Child, int, float]:
    """Spawn a serving child; ``(child, port, seconds to first OK healthz)``."""
    child = Child(spec)
    port = child.expect("ready", BOOT_TIMEOUT_S)["port"]
    deadline = time.monotonic() + 10.0
    while True:
        try:
            status, _ = http_json(port, "GET", "/healthz")
        except OSError:
            status = 0
        if status == 200:
            return child, port, time.perf_counter() - child.spawned_at
        if time.monotonic() > deadline:
            raise ChildError("child never answered /healthz with 200")
        time.sleep(0.005)
