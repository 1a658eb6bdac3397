"""Closed-loop HTTP/1.1 clients in one asyncio process.

Each client holds one keep-alive connection and sends its next request
only when the previous reply has arrived, like the service's own
callers (``ServiceClient``).  Requests are prebuilt bytes, so the timed
loop does no JSON encoding; replies are kept for later checking only
where the plan asks for it, so checking costs nothing inside the loop.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from perfbench.speed import gc_paused

clock = time.monotonic


@dataclass(frozen=True)
class Request:
    kind: str
    raw: bytes
    #: Whatever the checker needs to build the expected reply.
    key: Any = None
    keep: bool = False


@dataclass
class Sample:
    kind: str
    start: float
    latency_ms: float
    status: int
    request: Request
    body: Optional[bytes]


def get(path: str, kind: str, key: Any = None, keep: bool = False) -> Request:
    raw = f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")
    return Request(kind, raw, key, keep)


def post(path: str, payload: Any, kind: str, key: Any = None, keep: bool = False) -> Request:
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")
    return Request(kind, head + body, key, keep)


async def _read_reply(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    line = await reader.readline()
    if not line:
        raise ConnectionResetError("server closed the connection")
    status = int(line.split()[1])
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


async def closed_loop(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    plan: Callable[[int], Request],
    index: int,
    deadline: float,
    samples: List[Sample],
) -> int:
    """Send ``plan(index), plan(index + 1), ...`` back to back until
    ``deadline``; returns the next index."""
    while clock() < deadline:
        request = plan(index)
        index += 1
        start = clock()
        writer.write(request.raw)
        await writer.drain()
        status, body = await _read_reply(reader)
        elapsed = clock() - start
        samples.append(Sample(
            request.kind, start, elapsed * 1000.0, status, request,
            body if request.keep else None,
        ))
    return index


def run_clients(
    host: str,
    port: int,
    plans: Sequence[Callable[[int], Request]],
    seconds: float,
    slices: int = 1,
    between: Optional[Callable[[], None]] = None,
) -> Tuple[List[List[Sample]], List[Tuple[float, float]]]:
    """One closed-loop client per plan, for ``seconds`` split in ``slices``.

    After each slice every client has its reply and the loop calls
    ``between()`` (a calibration point) before the next slice starts.
    Returns the samples of each client and the ``(start, end)`` of each
    slice.  The cyclic collector is off throughout: its pauses over the
    growing sample lists would otherwise show up as server latency.  A
    connection error ends the run and propagates.
    """

    async def main() -> Tuple[List[List[Sample]], List[Tuple[float, float]]]:
        connections = [await asyncio.open_connection(host, port) for _ in plans]
        samples: List[List[Sample]] = [[] for _ in plans]
        indices = [0] * len(plans)
        windows = []
        try:
            for _ in range(slices):
                start = clock()
                deadline = start + seconds / slices
                indices = await asyncio.gather(*(
                    closed_loop(reader, writer, plan, index, deadline, out)
                    for (reader, writer), plan, index, out
                    in zip(connections, plans, indices, samples)
                ))
                windows.append((start, clock()))
                if between is not None:
                    between()
        finally:
            for _, writer in connections:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
        return samples, windows

    with gc_paused():
        return asyncio.run(main())
