"""One ``repro serve`` process: start, talk to, measure and stop it."""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

clock = time.monotonic

#: Longest wait for the listening banner or a clean shutdown.
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_traced.py")


class Server:
    """A single-worker ``repro serve`` subprocess over a shared cache.

    With ``trace_out`` it runs under ``serve_traced.py``, which wraps
    the layers before handing over to ``repro.cli.main`` and writes its
    spans to ``trace_out`` when the server exits.
    """

    def __init__(
        self,
        root: str,
        cache_dir: str,
        pool_size: int,
        log_path: str,
        trace_out: Optional[str] = None,
    ) -> None:
        self.root = root
        self.cache_dir = cache_dir
        self.pool_size = pool_size
        self.log_path = log_path
        self.trace_out = trace_out
        self.process: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def command(self) -> List[str]:
        serve = [
            "serve", "--host", self.host, "--port", "0",
            "--pool-size", str(self.pool_size),
            "--cache", "--cache-dir", self.cache_dir,
        ]
        if self.trace_out is None:
            return [sys.executable, "-m", "repro", *serve]
        return [sys.executable, LAUNCHER, "--trace-out", self.trace_out, *serve]

    def start(self) -> float:
        """Spawn and wait until the port answers; returns the seconds taken."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        started = clock()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                self.command(), cwd=self.root, env=env,
                stdout=subprocess.PIPE, stderr=log,
            )
        try:
            line = self._read_banner(started + START_TIMEOUT_S)
        except BaseException:
            self.process.kill()
            self.process.wait()
            self.process.stdout.close()
            self.process = None
            raise
        # "repro service listening on http://HOST:PORT"
        self.port = int(line.rsplit(":", 1)[1])
        return clock() - started

    def _read_banner(self, deadline: float) -> str:
        stream = self.process.stdout
        buffer = b""
        while b"\n" not in buffer:
            remaining = deadline - clock()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError(
                    f"server did not start; see {self.log_path}"
                )
            ready, _, _ = select.select([stream], [], [], min(remaining, 1.0))
            if ready:
                chunk = os.read(stream.fileno(), 4096)
                if not chunk:
                    continue
                buffer += chunk
        return buffer.split(b"\n", 1)[0].decode().strip()

    def request(
        self, method: str, path: str, payload: Any = None
    ) -> Tuple[int, bytes, float]:
        """One blocking request; returns status, body and milliseconds."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=600)
        try:
            body = None if payload is None else json.dumps(payload).encode()
            headers = {"Content-Type": "application/json"} if body else {}
            started = clock()
            conn.request(method, path, body=body, headers=headers)
            reply = conn.getresponse()
            data = reply.read()
            return reply.status, data, (clock() - started) * 1000.0
        finally:
            conn.close()

    def metrics(self) -> Dict[str, Any]:
        status, body, _ = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        """SIGTERM (the service drains and exits 0), then wait for it."""
        process = self.process
        if process is None:
            return
        self.process = None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()
        if process.returncode != 0:
            raise RuntimeError(
                f"server exited with {process.returncode}; see {self.log_path}"
            )
