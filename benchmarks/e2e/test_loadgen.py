"""Due-time latency, generator lateness, the lane's give-up rule and
fixed-work saturation."""

from __future__ import annotations

import asyncio
import math

from benchmarks.e2e import loadgen, serving


def _run(rate, duration, stall_on, stall_s):
    calls = []

    async def send(due):
        calls.append(due)
        if len(calls) == stall_on:
            await asyncio.sleep(stall_s)
        return True

    async def go():
        t0 = loadgen.clock() + 0.01
        return t0, await loadgen.open_loop(t0, rate, duration, send)

    return asyncio.run(go())


def test_requests_are_due_on_schedule_and_sent_no_earlier():
    t0, samples = _run(rate=100.0, duration=0.2, stall_on=0, stall_s=0.0)
    assert len(samples) == 20
    for i, s in enumerate(samples):
        assert s.due == t0 + i / 100.0
        assert s.sent >= s.due
        assert s.latency == s.done - s.due


def test_a_stall_is_charged_to_the_requests_queued_behind_it():
    _, samples = _run(rate=100.0, duration=0.3, stall_on=3, stall_s=0.08)
    stalled = samples[2]
    assert stalled.latency >= 0.08
    # The next request was due 10 ms after the stalled one and went out
    # late; its latency counts from its due time, not its send time.
    behind = samples[3]
    assert behind.sent - behind.due >= 0.06
    assert behind.latency >= behind.sent - behind.due
    assert all(s.attempted and s.ok for s in samples)


def test_wait_until_runs_before_every_send_even_when_late():
    waits = []

    async def wait_until(due):
        waits.append(due)

    async def send(due):
        await asyncio.sleep(0.03)  # every reply makes the lane late
        return True

    async def go():
        return await loadgen.open_loop(loadgen.clock(), 100.0, 0.05, send, wait_until)

    samples = asyncio.run(go())
    assert len(waits) == len(samples) == 5
    assert all(s.sent - s.due > 0.01 for s in samples[1:])


def test_a_lane_far_behind_gives_up_and_the_rest_are_not_attempts(monkeypatch):
    monkeypatch.setattr(loadgen, "GRACE_S", 0.05)
    _, samples = _run(rate=50.0, duration=0.2, stall_on=1, stall_s=0.4)
    assert len(samples) == 10
    assert samples[0].attempted and samples[0].ok
    unsent = [s for s in samples if not s.attempted]
    assert len(unsent) == 9
    assert all(math.isinf(s.latency) and not s.failed for s in unsent)


async def _reply(reader, writer, status=b"200 OK"):
    await reader.readline()
    writer.write(b"HTTP/1.1 " + status + b"\r\nContent-Length: 2\r\n\r\nok")
    await writer.drain()
    writer.close()


def test_http_parses_status_and_payload():
    async def go():
        server = await asyncio.start_server(
            lambda r, w: _reply(r, w, b"201 Created"), "127.0.0.1", 0
        )
        port = server.sockets[0].getsockname()[1]
        try:
            ok = await loadgen.http("127.0.0.1", port, "GET", "/x")
            refused = await loadgen.status_of("127.0.0.1", 1, "GET", "/x")
        finally:
            server.close()
            await server.wait_closed()
        return ok, refused

    (status, payload), refused = asyncio.run(go())
    assert (status, payload) == (201, b"ok")
    assert refused == 0


def test_query_saturation_sends_exactly_its_fixed_work():
    async def go():
        server = await asyncio.start_server(_reply, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        lane = loadgen.QueryLane("127.0.0.1", port, ["/a", "/b", "/c"])
        try:
            first = await lane.saturate(loadgen.clock(), 7, connections=2)
            second = await lane.saturate(loadgen.clock(), 5, connections=2)
        finally:
            server.close()
            await server.wait_closed()
        return lane, first, second

    lane, (s1, a1, t1), (s2, a2, t2) = asyncio.run(go())
    assert (len(s1), a1, len(s2), a2, lane.next) == (7, 7, 5, 5, 12)
    assert t1 > 0 and t2 > 0


def test_saturation_work_is_fixed_by_the_run_length_not_the_run_speed():
    wl = {"cycles": 10, "body_events": 2048,
          "saturation": {"lane": "ingest", "share": 0.5, "nominal_rate": 409600}}
    assert serving.saturation_work(wl, 20.0) == 200  # batches per segment
    wl["saturation"] = {"lane": "query", "share": 0.5, "nominal_rate": 2000}
    assert serving.saturation_work(wl, 20.0) == 2000  # queries per segment
    assert serving.saturation_work(wl, 0.001) == 1
