"""Open-loop HTTP load from one asyncio process, one connection per lane.

Request ``i`` of a lane is due at ``t0 + i/rate`` and goes out at the
later of its due time and the moment the lane's previous reply arrived
(the server closes every connection, so a lane holds at most one).
Latency runs from the due time to the end of the reply, so a stall is
charged to every request queued behind it; lateness is send − due.
A request fails on a non-2xx status, a connection error or 5 s.
"""

from __future__ import annotations

import asyncio
import math
import re
import socket
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, List, Optional, Sequence, Tuple

TIMEOUT_S = 5.0
#: An ingest lane polls the applied-event count this often while batches
#: are unconfirmed (the resolution of ingest lag); a saturating lane
#: polls every ``SATURATE_POLL_S``.
POLL_S = 0.002
SATURATE_POLL_S = 0.010
#: A lane this far behind its step's end stops sending; the rest fail.
GRACE_S = 1.0

clock = time.perf_counter


async def http(
    host: str, port: int, method: str, path: str, body: bytes = b""
) -> Tuple[int, bytes]:
    """One request on a fresh connection; ``(status, payload)``.

    It drives a bare non-blocking socket through the loop's ``sock_*``
    calls: asyncio streams cost the generator 0.45 ms of CPU per query,
    about as much as the server spent answering it, so query saturation
    measured the generator's CPU as much as the server's.  Bare sockets
    halve that and leave the server the busy side.
    """
    loop = asyncio.get_running_loop()
    request = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode()
        + body
    )

    async def exchange() -> bytes:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setblocking(False)
            await loop.sock_connect(sock, (host, port))
            await loop.sock_sendall(sock, request)
            chunks = []
            while True:  # the server closes the connection after its reply
                chunk = await loop.sock_recv(sock, 65536)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)
        finally:
            sock.close()

    data = await asyncio.wait_for(exchange(), TIMEOUT_S)
    head, _, payload = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), payload


async def status_of(host: str, port: int, method: str, path: str, body: bytes = b"") -> int:
    """The reply status, or 0 on a connection error, timeout or garbage."""
    try:
        status, _ = await http(host, port, method, path, body)
    except (OSError, asyncio.TimeoutError, ValueError, IndexError):
        return 0
    return status


@dataclass(frozen=True)
class Sample:
    """One due request; ``sent`` is ``None`` when the lane gave up on it."""

    due: float
    sent: Optional[float]
    done: float
    ok: bool

    @property
    def latency(self) -> float:
        return self.done - self.due if self.ok else math.inf

    @property
    def attempted(self) -> bool:
        return self.sent is not None

    @property
    def failed(self) -> bool:
        return self.sent is not None and not self.ok


async def sleep_until(when: float) -> None:
    delay = when - clock()
    if delay > 0:
        await asyncio.sleep(delay)


async def open_loop(
    t0: float,
    rate: float,
    duration: float,
    send: Callable[[float], Awaitable[bool]],
    wait_until: Callable[[float], Awaitable[None]] = sleep_until,
) -> List[Sample]:
    """Run one lane for one step; one sample per request due in the step.

    ``send(due)`` sends a request and says whether it succeeded;
    ``wait_until(due)`` runs before every send, even a late one, and
    returns at once when ``due`` has passed.  A lane more than
    ``GRACE_S`` behind the step's end stops; the requests it never sent
    miss every latency limit but are not attempts.
    """
    samples: List[Sample] = []
    end = t0 + duration
    total = math.ceil(duration * rate)
    for i in range(total):
        due = t0 + i / rate
        await wait_until(due)
        sent = clock()
        if sent > end + GRACE_S:
            samples.extend(
                Sample(t0 + j / rate, None, sent, False) for j in range(i, total)
            )
            break
        ok = await send(due)
        samples.append(Sample(due, sent, clock(), ok))
    return samples


class QueryLane:
    """Cycles through pre-built GET paths."""

    def __init__(self, host: str, port: int, paths: Sequence[str]) -> None:
        self.host, self.port, self.paths = host, port, paths
        self.next = 0

    async def send(self, due: float) -> bool:
        path = self.paths[self.next % len(self.paths)]
        self.next += 1
        return 200 <= await status_of(self.host, self.port, "GET", path) < 300

    async def step(self, rate: float, t0: float, duration: float) -> List[Sample]:
        return await open_loop(t0, rate, duration, self.send)

    async def saturate(
        self, t0: float, count: int, connections: int = 2
    ) -> Tuple[List[Sample], int, float]:
        """Closed loop: send the next ``count`` queries on ``connections``
        connections, each sending its next query when its last one returns.

        Returns the samples, the queries answered and the seconds taken.
        """
        await sleep_until(t0)
        samples: List[Sample] = []
        last = self.next + count

        async def loop() -> None:
            while self.next < last:
                sent = clock()
                ok = await self.send(sent)
                samples.append(Sample(sent, sent, clock(), ok))

        await asyncio.gather(*(loop() for _ in range(connections)))
        answered = sum(s.ok for s in samples)
        return samples, answered, max(s.done for s in samples) - t0


_APPLIED = re.compile(rb"^serve_ingest_events_total (\S+)$", re.M)


class IngestLane:
    """POSTs pre-encoded bodies and times when the server has applied them.

    ``accepted`` lists the body indices the server acknowledged, in send
    order, which is the order it applies them.  A batch's lag runs from
    its due time to the first poll showing the events applied; the lane
    polls every ``POLL_S`` while a batch is unconfirmed.  It polls
    ``GET /metrics`` (``serve_ingest_events_total``) rather than ``GET
    /stats``, because ``/stats`` repairs the serving index and polling it
    hundreds of times a second would add that work to every run.
    """

    def __init__(
        self, host: str, port: int, bodies: Sequence[bytes], body_events: int
    ) -> None:
        self.host, self.port = host, port
        self.bodies, self.body_events = bodies, body_events
        self.next = 0
        self.accepted: List[int] = []
        self._offset = 0
        self._pending: List[Tuple[int, float]] = []  # (end offset, due)
        self._lags: List[float] = []
        self._last_poll = -math.inf
        self._last_poll_done = -math.inf
        #: Events the server reported applied at the last poll.
        self.applied = 0

    async def poll(self) -> None:
        self._last_poll = clock()
        try:
            status, payload = await http(self.host, self.port, "GET", "/metrics")
        except (OSError, asyncio.TimeoutError, ValueError, IndexError):
            return
        match = _APPLIED.search(payload)
        if status != 200 or match is None:
            return
        now = self._last_poll_done = clock()
        self.applied = int(float(match.group(1)))
        while self._pending and self._pending[0][0] <= self.applied:
            self._lags.append(now - self._pending.pop(0)[1])

    def _poll_due(self) -> bool:
        return bool(self._pending) and clock() - self._last_poll >= POLL_S

    async def wait_until(self, when: float) -> None:
        """Poll as due until ``when``; a late lane still polls once."""
        if self._poll_due():
            await self.poll()
        while clock() < when:
            if self._poll_due():
                await self.poll()
            else:
                nxt = self._last_poll + POLL_S if self._pending else when
                await sleep_until(min(when, nxt))

    async def send(self, due: float) -> bool:
        """POST the next body; the sample ends with the reply, not a poll."""
        index = self.next % len(self.bodies)
        self.next += 1
        status = await status_of(
            self.host, self.port, "POST", "/ingest", self.bodies[index]
        )
        ok = 200 <= status < 300
        if ok:
            self.accepted.append(index)
            self._offset += self.body_events
            self._pending.append((self._offset, due))
        return ok

    async def step(
        self, rate: float, t0: float, duration: float
    ) -> Tuple[List[Sample], List[float]]:
        """Offer ``rate`` events/s; return POST samples and per-batch lags.

        Failed POSTs and batches not applied within 5 s of the step's end
        enter the lags as ``inf``.
        """
        self._lags = []
        samples = await open_loop(
            t0, rate / self.body_events, duration, self.send, self.wait_until
        )
        await self.settle()
        lags = self._lags + [math.inf] * (len(samples) - len(self._lags))
        return samples, lags

    async def saturate(
        self, t0: float, batches: int, window: int = 8
    ) -> Tuple[List[Sample], int, float]:
        """Closed loop: send the next ``batches`` bodies, keeping at most
        ``window`` of them unapplied at the server.

        While the window is full the lane polls every ``SATURATE_POLL_S``;
        ``window`` batches outlast that, so the server never runs dry and
        its backlog stays bounded.  Returns the POST samples, the events
        applied and the seconds from the first send to the poll that saw
        the last batch applied.
        """
        await sleep_until(t0)
        await self.poll()
        first, started = self.applied, clock()
        samples: List[Sample] = []
        while len(samples) < batches:
            if self._offset - self.applied < window * self.body_events:
                sent = clock()
                ok = await self.send(sent)
                samples.append(Sample(sent, sent, clock(), ok))
            else:
                await sleep_until(self._last_poll + SATURATE_POLL_S)
                await self.poll()
        await self.settle()
        return samples, self.applied - first, self._last_poll_done - started

    async def settle(self) -> None:
        """Poll until every accepted batch is applied (at most 5 s)."""
        deadline = clock() + TIMEOUT_S
        while self._pending and clock() < deadline:
            await sleep_until(self._last_poll + POLL_S)
            await self.poll()
        self._pending.clear()
