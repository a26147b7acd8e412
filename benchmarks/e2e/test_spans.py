"""Span self time, coroutine step accounting, threads and attribution."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from benchmarks.e2e import spans


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Toy:
    def outer(self):
        _spin(0.01)
        self.inner()
        self.inner()
        for _ in range(3):
            self.tick()

    def inner(self):
        _spin(0.01)

    def tick(self):
        _spin(0.002)


def _recorded():
    rec = spans.Recorder()
    spans.wrap(rec, Toy, "outer", "toy.outer")
    spans.wrap(rec, Toy, "inner", "toy.inner")
    spans.wrap_leaf(rec, Toy, "tick", "toy.tick")
    return rec


@pytest.fixture(autouse=True)
def _restore_toy():
    saved = dict(Toy.__dict__)
    yield
    for name in ("outer", "inner", "tick"):
        setattr(Toy, name, saved[name])


def test_self_time_is_busy_minus_direct_children():
    rec = _recorded()
    Toy().outer()
    outer, first, second = rec.spans
    assert outer[spans.NAME] == "toy.outer" and outer[spans.PARENT] == -1
    assert first[spans.PARENT] == second[spans.PARENT] == 0
    assert first[spans.TRACE] == outer[spans.TRACE]
    leaf_ns = rec.leaves[("toy.tick", "toy.outer")][1]
    assert rec.leaves[("toy.tick", "toy.outer")][0] == 3
    children = first[spans.BUSY] + second[spans.BUSY] + leaf_ns
    assert outer[spans.CHILD] == children
    assert spans.self_ns(outer) == outer[spans.BUSY] - children
    assert 0.008 < spans.self_ns(outer) / 1e9 < 0.05


def test_totals_and_attribution_count_each_interval_once():
    rec = _recorded()
    Toy().outer()
    doc = {"spans": rec.spans, "leaves": [[n, p, *v] for (n, p), v in rec.leaves.items()],
           "counts": {}}
    t = spans.totals([doc])
    assert t["toy.inner"]["calls"] == 2 and t["toy.tick"]["calls"] == 3
    assert spans.top_level_s(doc) == pytest.approx(rec.spans[0][spans.BUSY] / 1e9)
    total_self = sum(v["self_s"] for v in t.values())
    assert total_self == pytest.approx(spans.top_level_s(doc))


def test_bench_spans_are_not_the_programs():
    rec = _recorded()
    index = rec.open("bench.pass", 7)
    Toy().outer()
    _spin(0.01)
    rec.close(index)
    doc = {"spans": rec.spans, "leaves": [], "counts": {}}
    assert spans.top_level_s(doc) == pytest.approx(rec.spans[1][spans.BUSY] / 1e9)
    assert rec.spans[1][spans.TRACE] == 7


def test_a_coroutine_is_charged_only_for_its_own_steps():
    rec = spans.Recorder()

    async def handler():
        _spin(0.01)
        await asyncio.sleep(0.05)
        _spin(0.01)
        return "done"

    async def main():
        return await spans._Awaitable(rec.stepped("toy.http", handler(), 42))

    assert asyncio.run(main()) == "done"
    (span,) = rec.spans
    wall = (span[spans.END] - span[spans.START]) / 1e9
    busy = span[spans.BUSY] / 1e9
    assert wall >= 0.07 and 0.02 <= busy < 0.04
    assert span[spans.TRACE] == 42 and rec.stack == []


def test_threads_keep_their_own_stacks_and_waiting_is_not_busy():
    rec = spans.Recorder()
    opened = threading.Event()

    def worker():
        index = rec.open("toy.worker")
        opened.set()
        time.sleep(0.05)
        rec.close(index)

    outer = rec.open("toy.main")
    thread = threading.Thread(target=worker)
    thread.start()
    opened.wait()
    inner = rec.open("toy.inner")
    _spin(0.01)
    rec.close(inner)
    thread.join()
    rec.close(outer)
    by_name = {s[spans.NAME]: s for s in rec.spans}
    assert by_name["toy.worker"][spans.PARENT] == -1
    assert by_name["toy.inner"][spans.PARENT] == outer
    assert by_name["toy.worker"][spans.BUSY] / 1e9 < 0.02
    assert rec.stack == []


def test_queue_clock_measures_submit_to_first_covering_insert():
    queue = spans.QueueClock()
    queue.submitted(100, trace=1, t=spans.ns())
    queue.submitted(100, trace=2, t=spans.ns())
    assert queue.starting(60) == 1
    queue.applied += 60
    assert queue.starting(40) == 1 and len(queue.waits) == 1
    queue.applied += 40
    assert queue.starting(100) == 2 and len(queue.waits) == 2
    assert queue.depth_max == 200
