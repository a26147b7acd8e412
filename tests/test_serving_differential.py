"""Acceptance differential: every served answer byte-equal to a full scan.

The serving index answers from a numpy scan of the table's columns
and the kernel's own point lookups; the oracle walks every cell.  For
both kernels, across evictions / Significance Decrementing / Long-tail
Replacement (tiny tables force all of them), with ingestion running
concurrently on the asyncio loop, every
``top_k`` / point-query / ``significant`` response must be **byte**
equal to the oracle's canonical encoding — values, ordering and
tie-breaking included.
"""

from __future__ import annotations

import asyncio
import random
import zlib

import pytest

from repro.core.config import LTCConfig
from repro.core.kernels import KERNELS, build_ltc
from repro.serve.oracle import (
    canonical_json,
    oracle_query,
    oracle_significant,
    oracle_top_k,
    query_payload,
    reports_payload,
)
from repro.serve.index import ServingIndex
from repro.serve.server import ServingApp

KERNEL_NAMES = sorted(KERNELS)


def _probe(idx: ServingIndex, ltc, rng: random.Random) -> None:
    """One round of all three query shapes, asserted byte-equal."""
    k = rng.randrange(0, 12)
    served = canonical_json({"k": k, "results": reports_payload(idx.top_k(k))})
    assert served == canonical_json(oracle_top_k(ltc, k))

    item = rng.randrange(0, 60)
    tracked, sig, f, p = idx.query(item)
    served = canonical_json(query_payload(item, tracked, sig, f, p))
    assert served == canonical_json(oracle_query(ltc, item))

    threshold = rng.choice([0.0, 1.0, 3.0, 10.0, 100.0])
    served = canonical_json(
        {"threshold": threshold, "results": reports_payload(idx.significant(threshold))}
    )
    assert served == canonical_json(oracle_significant(ltc, threshold))


class TestServedAnswersByteEqualOracle:
    """Index vs full scan over adversarially small tables."""

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @pytest.mark.parametrize(
        "policy", ["longtail", "one", "space-saving"], ids=["longtail", "one", "ss"]
    )
    def test_mixed_stream(self, kernel, policy):
        # 8 cells, 50 distinct items: constant evictions + decrements;
        # the longtail policy also exercises Long-tail Replacement.
        cfg = LTCConfig(
            num_buckets=4,
            bucket_width=2,
            items_per_period=16,
            kernel=kernel,
            replacement_policy=policy,
        )
        ltc = build_ltc(cfg)
        idx = ServingIndex(ltc)
        # crc32, not hash(): a str's hash is salted per process, and a
        # failing stream must replay.
        rng = random.Random(zlib.crc32(f"{kernel}/{policy}".encode()))
        pos, stream = 0, [rng.randrange(50) for _ in range(4000)]
        while pos < len(stream):
            n = rng.randrange(1, 64)
            ltc.insert_many(stream[pos : pos + n])
            pos += n
            if pos // 300 != (pos - n) // 300:
                ltc.end_period()
            _probe(idx, ltc, rng)
        ltc.end_period()
        ltc.finalize()
        _probe(idx, ltc, rng)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_deviation_eliminator_off(self, kernel):
        cfg = LTCConfig(
            num_buckets=2,
            bucket_width=2,
            items_per_period=8,
            kernel=kernel,
            deviation_eliminator=False,
        )
        ltc = build_ltc(cfg)
        idx = ServingIndex(ltc)
        rng = random.Random(99)
        for _ in range(150):
            ltc.insert_many([rng.randrange(30) for _ in range(rng.randrange(1, 20))])
            _probe(idx, ltc, rng)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_hit_heavy_vectorized_path(self, kernel):
        # Few distinct items on a roomy table: the columnar kernel stays
        # on its all-hit bincount path and slice harvesting.
        cfg = LTCConfig(
            num_buckets=32, bucket_width=4, items_per_period=512, kernel=kernel
        )
        ltc = build_ltc(cfg)
        idx = ServingIndex(ltc)
        rng = random.Random(5)
        hot = list(range(12))
        for _ in range(20):
            ltc.insert_many([rng.choice(hot) for _ in range(2000)])
            _probe(idx, ltc, rng)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_per_event_insert_path(self, kernel):
        cfg = LTCConfig(
            num_buckets=2, bucket_width=2, items_per_period=8, kernel=kernel
        )
        ltc = build_ltc(cfg)
        idx = ServingIndex(ltc)
        rng = random.Random(17)
        for i in range(600):
            ltc.insert(rng.randrange(25))
            if i % 37 == 0:
                _probe(idx, ltc, rng)


class TestConcurrentIngest:
    """The acceptance shape: queries race live ingestion on the loop."""

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_served_bytes_equal_oracle_under_ingest(self, kernel):
        async def scenario() -> None:
            cfg = LTCConfig(
                num_buckets=4,
                bucket_width=2,
                items_per_period=64,
                kernel=kernel,
            )
            ltc = build_ltc(cfg)
            # check_oracle=True makes the app itself raise OracleMismatch
            # on any divergence, for every request answered.
            app = ServingApp(ltc, check_oracle=True, ingest_chunk=32)
            app.start()
            rng = random.Random(kernel)
            for _ in range(30):
                items = [rng.randrange(60) for _ in range(rng.randrange(50, 400))]
                app.submit(items)
            probes = 0
            while app.queued or probes < 50:
                status, _, _ = app.respond("GET", f"/top_k?k={rng.randrange(0, 9)}")
                assert status == 200
                status, _, _ = app.respond("GET", f"/query/{rng.randrange(70)}")
                assert status == 200
                status, _, _ = app.respond(
                    "GET", f"/significant?threshold={rng.choice([0, 2, 20])}"
                )
                assert status == 200
                probes += 1
                await asyncio.sleep(0)
            await app.shutdown()
            assert app.queued == 0
            assert app.oracle_checks >= 3 * probes
            stats = app.stats()
            assert stats["ingested"] == stats["periods"] * 64 + ltc.period_fill

        asyncio.run(scenario())

    @staticmethod
    async def _settled_app() -> ServingApp:
        ltc = build_ltc(
            LTCConfig(num_buckets=8, bucket_width=2, items_per_period=16)
        )
        app = ServingApp(ltc, check_oracle=True)
        app.submit([i % 10 for i in range(40)] + [3, 3, 7])
        app.start()
        await app._queue.join()
        app.respond("GET", "/top_k?k=5")  # honest answer passes
        return app

    def test_oracle_mismatch_detected(self):
        # The self-check must actually be able to fail.  Within an epoch
        # answers come from the ranked prefix, so corrupt a prefix report
        # the app has not rendered yet and watch the gate trip.
        from repro.serve.server import OracleMismatch

        async def scenario() -> None:
            app = await self._settled_app()
            assert len(app.index.top_k(8)) == 8
            item, sig, f, p = app.index._reports[6]
            app.index._reports[6] = (item, sig, f + 1, p)  # lie about f
            with pytest.raises(OracleMismatch):
                app.respond("GET", "/top_k?k=8")
            await app.shutdown()

        asyncio.run(scenario())

    def test_oracle_mismatch_detected_after_new_epoch(self):
        # A corrupt scan input is read only when an epoch starts: hand the
        # index a copy of the table whose top cell over-reports its
        # frequency, force a new epoch through an unrelated slot, and the
        # rebuilt answer must trip the gate.
        from repro.core.serialize import from_bytes, to_bytes
        from repro.serve.server import OracleMismatch

        async def scenario() -> None:
            app = await self._settled_app()
            index = app.index
            top_item = index.top_k(1)[0][0]
            twin = from_bytes(to_bytes(app.ltc), cls=type(app.ltc))
            victim = twin._slot(top_item)
            twin._freqs[victim] += 1  # lie about f in the scan's input
            index._ltc = twin
            epoch = index.epoch
            index.cell_touched((victim + 1) % app.ltc.total_cells)
            with pytest.raises(OracleMismatch):
                app.respond("GET", "/top_k?k=5")
            assert index.epoch == epoch + 1
            await app.shutdown()

        asyncio.run(scenario())
