"""ColumnarLTC ≡ LTC differential tests.

The columnar kernel runs every update in compiled code over numpy
columns — per-event and batched inserts through one loop, timed inserts
and ``end_period`` through its place and sweep steps — so these tests
pin all of them against the reference: every observable — cells, CLOCK
phase, parity, estimates, top-k, checkpoint bytes, counters — must
match a per-event replay exactly, across policies, DE on/off, batch
fragmentation, period boundaries and timed driving.  Keys that are not
ints in ``[0, MAX_KEY]`` are refused before any write, and the kernel's
build is pinned too.
"""

from __future__ import annotations

import operator
import random
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs, sanitize
from repro.core import ckernel
from repro.core.columnar import ColumnarLTC
from repro.core.config import LTCConfig
from repro.core.keyed import KeyedSummary
from repro.core.kernels import KERNELS, build_ltc
from repro.core.ltc import LTC
from repro.core.merge import merge
from repro.core.serialize import EMPTY_KEY, MAX_KEY, from_bytes, to_bytes
from repro.hashing.family import splitmix64
from repro.metrics.throughput import run_per_event
from repro.obs.registry import MetricsRegistry
from tests.conftest import make_stream

def run_pair(events, num_periods, *, batch=None, per_event=False, **cfg):
    """Drive LTC / ColumnarLTC over the same stream.

    The reference copy ingests per event through ``run_per_event``;
    the columnar copy ingests through ``insert_many`` in batches of
    ``batch`` (whole periods when ``None``) with ``end_period`` at every
    boundary — the exact call pattern whose reordering is under test —
    or, with ``per_event``, per event too.
    """
    num_periods = max(1, min(num_periods, len(events) or 1))
    defaults = dict(
        num_buckets=2,
        bucket_width=4,
        alpha=1.0,
        beta=1.0,
        items_per_period=max(1, len(events) // num_periods),
    )
    defaults.update(cfg)
    config = LTCConfig(**defaults)
    slow, col = LTC(config), ColumnarLTC(config)
    if events:
        stream = make_stream(events, num_periods=num_periods)
        run_per_event(stream, slow)
        if per_event:
            run_per_event(stream, col)
            return slow, col
        for period in stream.iter_periods():
            if batch is None:
                col.insert_many(period)
            else:
                for i in range(0, len(period), batch):
                    col.insert_many(period[i : i + batch])
            col.end_period()
        col.finalize()
    return slow, col


def assert_identical(a: LTC, b: LTC) -> None:
    assert list(a.cells()) == list(b.cells())
    assert a._clock.hand == b._clock.hand
    assert a._clock._acc == b._clock._acc
    assert a._clock.scanned_in_period == b._clock.scanned_in_period
    assert a._parity == b._parity


def _counters(registry):
    """The five ``ltc_*`` counters as ``(type, value)``: a numpy scalar
    leaking into a counter would compare equal but break JSON export."""
    values = {m["name"]: m.get("value") for m in registry.snapshot()["metrics"]}
    return {
        key: (type(values[key]), values[key])
        for key in (
            "ltc_inserts_total",
            "ltc_significance_decrements_total",
            "ltc_evictions_total",
            "ltc_longtail_replacements_total",
            "ltc_harvests_total",
        )
    }


def metered_pair(config):
    """A reference LTC and a ColumnarLTC, each counting into its own
    registry."""
    registries, built = [], []
    try:
        for cls in (LTC, ColumnarLTC):
            registries.append(obs.enable(MetricsRegistry()))
            built.append(cls(config))
    finally:
        obs.disable()
    return built, registries


class TestEquivalence:
    @given(
        st.lists(st.integers(0, 25), max_size=300),
        st.integers(1, 6),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_identical_cells(self, events, periods, ltr, de):
        slow, col = run_pair(
            events,
            periods,
            replacement_policy="longtail" if ltr else "one",
            deviation_eliminator=de,
        )
        assert_identical(slow, col)

    @given(
        st.lists(st.integers(0, 40), max_size=300),
        st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_fragmentation_immaterial(self, events, batch):
        """Splitting one period's arrivals across many insert_many calls
        cannot change the result."""
        slow, col = run_pair(events, 3, batch=batch)
        assert_identical(slow, col)

    @given(st.lists(st.integers(0, 40), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_identical_estimates(self, events):
        slow, col = run_pair(events, 4)
        for item in set(events) | {99999}:
            assert slow.estimate(item) == col.estimate(item)

    @pytest.mark.parametrize("policy", ["longtail", "one", "space-saving"])
    def test_replacement_policies_identical(self, policy):
        rng = random.Random(11)
        events = [rng.randrange(400) for _ in range(4_000)]
        slow, col = run_pair(
            events, 8, num_buckets=4, replacement_policy=policy
        )
        assert_identical(slow, col)

    def test_zipf_workload_identical(self, small_zipf):
        config = LTCConfig(
            num_buckets=32,
            bucket_width=8,
            alpha=1.0,
            beta=1.0,
            items_per_period=small_zipf.period_length,
        )
        ref, col = LTC(config), ColumnarLTC(config)
        small_zipf.run(ref)
        small_zipf.run(col)
        assert_identical(ref, col)
        assert ref.top_k(50) == col.top_k(50)

    def test_mid_period_state_identical(self):
        """Equality must hold at arbitrary points, not just boundaries."""
        rng = random.Random(3)
        config = LTCConfig(
            num_buckets=4, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=100,
        )
        ref, col = LTC(config), ColumnarLTC(config)
        cursor = 0
        while cursor < 1_000:
            step = rng.randrange(1, 90)
            chunk = [rng.randrange(150) for _ in range(step)]
            ref.insert_many(chunk)
            col.insert_many(chunk)
            cursor += step
            assert_identical(ref, col)
            if rng.random() < 0.3:
                ref.end_period()
                col.end_period()
                assert_identical(ref, col)

    def test_sanitized_run_identical(self):
        """The column invariant checks pass live on a churny stream."""
        rng = random.Random(5)
        events = [rng.randrange(300) for _ in range(2_000)]
        config = LTCConfig(
            num_buckets=4, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=200,
        )
        plain = ColumnarLTC(config)
        checked = ColumnarLTC(config)
        sanitize.install_ltc(checked)
        stream = make_stream(events, num_periods=10)
        stream.run(plain)
        stream.run(checked)
        assert_identical(plain, checked)

    def test_query_paths_return_python_scalars(self):
        """The numpy columns must not leak ``np.int64``/``np.float64``
        through the read APIs (that would break e.g. json.dumps of a
        report)."""
        config = LTCConfig(
            num_buckets=2, bucket_width=4, alpha=0.5, beta=2.0,
            items_per_period=20,
        )
        col = ColumnarLTC(config)
        col.insert_many([1, 2, 1, 3, 1, 2] * 10)
        col.end_period()
        f, p = col.estimate(1)
        assert type(f) is int and type(p) is int
        assert type(col.query(1)) is float
        for r in col.top_k(3):
            assert type(r.significance) is float
        for cv in col.cells():
            assert type(cv.frequency) is int
            assert type(cv.persistency) is int


def colliding_keys(ltc, bucket: int, count: int) -> "list[int]":
    """``count`` distinct keys that all map to ``bucket`` of ``ltc``."""
    keys = []
    candidate = 0
    while len(keys) < count:
        if splitmix64(candidate ^ ltc._seed) % ltc._w == bucket:
            keys.append(candidate)
        candidate += 1
    return keys


class TestAdversarialMissHeavy:
    """Miss-heavy streams: batches where (almost) every event is a claim,
    a Significance Decrement or an eviction."""

    @given(
        st.integers(20, 400),
        st.integers(0, 2**32),
        st.integers(1, 5),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_miss_chunks(self, n, seed, periods, ltr):
        """All-distinct keys over a tiny table: every chunk is one long
        dirty tail of claims and evictions."""
        rng = random.Random(seed)
        events = rng.sample(range(10 * n), n)
        slow, col = run_pair(
            events, periods, num_buckets=2,
            replacement_policy="longtail" if ltr else "one",
        )
        assert_identical(slow, col)

    @pytest.mark.parametrize("policy", ["longtail", "one", "space-saving"])
    def test_single_bucket_collision_storm(self, policy):
        """Every event lands in one bucket of a wide table."""
        config = LTCConfig(
            num_buckets=8, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=500, replacement_policy=policy,
        )
        ref, col = LTC(config), ColumnarLTC(config)
        probe = ColumnarLTC(config)
        keys = colliding_keys(probe, bucket=3, count=24)
        rng = random.Random(17)
        events = [rng.choice(keys) for _ in range(5_000)]
        stream = make_stream(events, num_periods=10)
        stream.run(ref)
        stream.run(col)
        assert_identical(ref, col)
        assert {cv.bucket for cv in col.cells() if not cv.empty} == {3}

    @given(
        st.lists(st.integers(0, 60), min_size=1, max_size=200),
        st.integers(0, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_oversized_key_mid_chunk(self, events, position):
        """A key outside uint64 anywhere in a batch refuses the whole
        batch with the table untouched; later batches run as before."""
        position = min(position, len(events))
        poisoned = events[:position] + [1 << 70] + events[position:]
        config = LTCConfig(
            num_buckets=2, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=50,
        )
        ref, col = LTC(config), ColumnarLTC(config)
        with pytest.raises(ValueError, match=str(1 << 70)):
            col.insert_many(poisoned)
        assert_identical(ref, col)
        assert to_bytes(ref) == to_bytes(col)
        ref.insert_many(events)
        col.insert_many(events)
        ref.end_period()
        col.end_period()
        assert_identical(ref, col)

    def test_eviction_storm_against_reference(self):
        """Distinct keys cycling through a saturated table churn every
        cell repeatedly; pin against the reference LTC too."""
        rng = random.Random(31)
        events = [rng.randrange(100_000) for _ in range(3_000)]
        slow, col = run_pair(
            events, 6, num_buckets=4, replacement_policy="space-saving"
        )
        assert_identical(slow, col)


def bursty_churn(num_events, num_distinct, seed):
    """Zipf-ish keys with repeats in bursts: heavy churn on a small table
    plus long same-key runs, so claims, decrements, evictions and later
    events of an evicted or newly installed key all occur in one batch."""
    rng = random.Random(seed)
    events = []
    while len(events) < num_events:
        key = int(rng.paretovariate(0.2)) % num_distinct
        events.extend([key] * (rng.randrange(1, 12) if rng.random() < 0.3 else 1))
    return events[:num_events]


class TestPaperGeometry:
    """The paper's 8 KB point, w=85 d=8: a non-power-of-two bucket count
    (the kernel's ``hash % w`` path, not the mask) on a churny stream."""

    @pytest.mark.parametrize(
        "policy", ["longtail", "one", "space-saving"],
    )
    def test_matches_reference_with_counters(self, policy):
        config = LTCConfig(
            num_buckets=85, bucket_width=8, alpha=1.0, beta=1.0,
            items_per_period=3000, replacement_policy=policy,
        )
        events = bursty_churn(24_000, 6_000, seed=85)
        (ref, col), registries = metered_pair(config)
        for start in range(0, len(events), 3000):
            period = events[start : start + 3000]
            for item in period:
                ref.insert(item)
            col.insert_many(period)
            ref.end_period()
            col.end_period()
        assert _counters(registries[1])["ltc_evictions_total"][1] > 0
        assert_identical(ref, col)
        assert _counters(registries[0]) == _counters(registries[1])
        assert to_bytes(ref) == to_bytes(col)


#: Buckets in the crafted-table tests: each plays the same script.
RUN_LANES = 16


def crafted_pair(config, rows):
    """A reference LTC and a ColumnarLTC holding the same crafted cells.

    ``rows[b]`` lists bucket ``b``'s cells as ``(key, f, p, flags)``,
    written straight into the cell arrays (the columnar kernel's key list
    is a view of its key column, so nothing is left to rebuild).
    """
    built = []
    for cls in (LTC, ColumnarLTC):
        ltc = cls(config)
        d = config.bucket_width
        for b, row in enumerate(rows):
            for j, (key, f, p, flags) in enumerate(row):
                ltc._keys[b * d + j] = key
                ltc._freqs[b * d + j] = f
                ltc._counters[b * d + j] = p
                ltc._flags[b * d + j] = flags
        built.append(ltc)
    return built


def round_robin(per_bucket):
    """Interleave per-bucket event lists (bucket 0's first, bucket 1's
    first, ...), keeping each bucket's own order."""
    longest = max(len(events) for events in per_bucket)
    return [
        events[r] for r in range(longest) for events in per_bucket
        if r < len(events)
    ]


class TestDecrementRuns:
    """Pinned runs of Significance Decrements on one cell.

    Each test crafts a full table of ``RUN_LANES`` buckets, an incumbent
    ``A`` and the least significant cell ``B`` per bucket (plus fresh
    colliding keys ``X``), and sends one batch in which every bucket
    plays the same script: misses that decrement ``B``, broken by a hit
    on it, its CLOCK sweep, or its death.  The reference LTC replays it
    per event, and ``B`` (or its replacement) must end the same.
    """

    def _setup(self, *, width=2, fresh=6, **cfg):
        defaults = dict(
            num_buckets=RUN_LANES, bucket_width=width, alpha=1.0, beta=1.0,
            items_per_period=1 << 20,
        )
        defaults.update(cfg)
        config = LTCConfig(**defaults)
        probe = ColumnarLTC(config)
        keys = [colliding_keys(probe, b, width + fresh) for b in range(RUN_LANES)]
        return config, keys

    def _assert_same(self, ref, col):
        assert_identical(ref, col)
        assert to_bytes(ref) == to_bytes(col)

    def test_run_ends_at_hit_on_cell(self):
        config, keys = self._setup()
        ref, col = crafted_pair(
            config, [[(k[0], 20, 0, 0), (k[1], 5, 0, 0)] for k in keys]
        )
        # X1 X2 B X3 X4 X5: the hit on B ends the first run at two misses.
        # Five misses in a row would kill B (f = 5).
        batch = round_robin([[k[2], k[3], k[1], k[4], k[5], k[6]] for k in keys])
        ref.insert_many(batch)
        col.insert_many(batch)
        self._assert_same(ref, col)
        assert col.estimate(keys[0][1]) == (1, 0)

    def test_run_ends_at_cell_sweep(self):
        # 32 cells, one sweep per arrival: slot j is swept after arrival j,
        # so B's sweep (slot 2b + 1, harvest flag pending) lands between
        # its bucket's first and second miss (arrivals b and 16 + b).
        config, keys = self._setup(items_per_period=2 * RUN_LANES)
        ref, col = crafted_pair(
            config, [[(k[0], 20, 0, 2), (k[1], 8, 0, 2)] for k in keys]
        )
        batch = round_robin([k[2:8] for k in keys])
        ref.insert_many(batch)
        col.insert_many(batch)
        self._assert_same(ref, col)
        # 8 - 1, the sweep's p = 1 absorbs the second miss, 4 more: f = 2.
        assert col.estimate(keys[0][1]) == (2, 0)

    def test_death_mid_run_longtail_reads_inner_hit(self):
        config, keys = self._setup(replacement_policy="longtail")
        ref, col = crafted_pair(
            config, [[(k[0], 10, 0, 0), (k[1], 3, 0, 0)] for k in keys]
        )
        # X1 A X2 X3 X4: the run kills B at X3; Long-tail Replacement must
        # see A's hit from inside the run (f2 = 11, so X3 starts at 10).
        batch = round_robin([[k[2], k[0], k[3], k[4], k[5]] for k in keys])
        ref.insert_many(batch)
        col.insert_many(batch)
        self._assert_same(ref, col)
        assert col.estimate(keys[0][0]) == (11, 0)
        assert col.estimate(keys[0][4]) == (9, 0)

    def test_flag_charge_when_p_empties_mid_run(self):
        config, keys = self._setup()
        # B: f = 4, p = 1, both flags pending.  Three misses: p empties at
        # the first, and the third starts at f = 2 with two pending flags
        # covering it, so it charges the oldest (the harvest flag).
        ref, col = crafted_pair(
            config, [[(k[0], 20, 0, 0), (k[1], 4, 1, 3)] for k in keys]
        )
        # X1 A X2 A X3: the hits on A sit inside B's run without ending
        # it.
        batch = round_robin([[k[2], k[0], k[3], k[0], k[4]] for k in keys])
        ref.insert_many(batch)
        col.insert_many(batch)
        self._assert_same(ref, col)
        assert col.estimate(keys[0][1]) == (1, 0)
        assert int(col._flags[1]) == col._set_bit

    @pytest.mark.parametrize(
        "alpha, beta, b_cell",
        [
            # alpha = 0: only p counts, so B dies at its third miss
            # although f is still 6.
            (0.0, 1.0, (9, 3, 0)),
            # beta = 0: only f counts, so B dies at its third miss
            # although p is still 6.
            (1.0, 0.0, (3, 9, 0)),
        ],
        ids=["alpha0", "beta0"],
    )
    def test_single_weight_death_step(self, alpha, beta, b_cell):
        config, keys = self._setup(alpha=alpha, beta=beta, replacement_policy="one")
        ref, col = crafted_pair(
            config, [[(k[0], 10, 10, 0), (k[1], *b_cell)] for k in keys]
        )
        batch = round_robin([k[2:7] for k in keys])
        ref.insert_many(batch)
        col.insert_many(batch)
        self._assert_same(ref, col)
        # X3 replaced B; X4 and X5 then replaced each fresh cell in turn.
        assert col.estimate(keys[0][1]) == (0, 0)
        assert col.estimate(keys[0][6]) == (1, 0)

    def test_space_saving_takes_no_runs(self):
        config, keys = self._setup(replacement_policy="space-saving")
        ref, col = crafted_pair(
            config, [[(k[0], 20, 0, 0), (k[1], 5, 0, 0)] for k in keys]
        )
        batch = round_robin([[k[2], k[3], k[1], k[4], k[5], k[6]] for k in keys])
        ref.insert_many(batch)
        col.insert_many(batch)
        self._assert_same(ref, col)

    def test_single_cell_buckets(self):
        config, keys = self._setup(width=1, fresh=7)
        ref, col = crafted_pair(config, [[(k[0], 6, 0, 0)] for k in keys])
        # X1 X2 A X3 .. X7: a run of two, the hit, then a run that kills A
        # (f = 5) at X7 — d = 1 has no Long-tail Replacement.
        batch = round_robin([[k[1], k[2], k[0]] + k[3:8] for k in keys])
        ref.insert_many(batch)
        col.insert_many(batch)
        self._assert_same(ref, col)
        assert col.estimate(keys[0][7]) == (1, 0)


def assert_lookups_match_cells(ltc: LTC) -> None:
    """Point lookups agree with the cells: every occupied cell's key is
    tracked and estimates to that cell's counts, once."""
    held = [cv for cv in ltc.cells() if not cv.empty]
    assert len({cv.key for cv in held}) == len(held) == len(ltc)
    for cv in held:
        assert cv.key in ltc
        assert ltc.estimate(cv.key) == (cv.frequency, cv.persistency)
    assert sorted(ltc.items()) == sorted(cv.key for cv in held)


class TestIndex:
    """The key-column lookups behind the point queries, driven per
    event."""

    def test_index_consistency_after_heavy_churn(self):
        rng = random.Random(17)
        events = [rng.randrange(2_000) for _ in range(5_000)]
        slow, col = run_pair(
            events, 10, per_event=True, num_buckets=4, bucket_width=2
        )
        assert_identical(slow, col)
        assert_lookups_match_cells(col)
        for item in set(events):
            assert col.estimate(item) == slow.estimate(item)
            assert (item in col) == (item in slow)

    @given(st.lists(st.integers(0, 25), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_space_saving_policy_identical(self, events):
        slow, col = run_pair(
            events, 2, per_event=True, replacement_policy="space-saving"
        )
        assert_identical(slow, col)

    def test_contains_uses_index(self):
        config = LTCConfig(
            num_buckets=2, bucket_width=4, alpha=1.0, beta=0.0,
            items_per_period=10,
        )
        col = ColumnarLTC(config)
        col.insert(1)
        assert 1 in col
        assert 99 not in col

    def test_clear_resets_index(self):
        config = LTCConfig(
            num_buckets=2, bucket_width=4, alpha=1.0, beta=0.0,
            items_per_period=10,
        )
        col = ColumnarLTC(config)
        col.insert(1)
        col.clear()
        assert 1 not in col
        assert len(col) == 0 and list(col.items()) == []
        col.insert(2)
        assert col.estimate(2) == (1, 0)


class TestKernelDifferential:
    """``insert_many`` against the reference LTC's per-event ``insert``
    on random configurations: both weights, DE on (both parities) and
    off, every replacement policy (Long-tail Replacement on and off),
    d = 1 and non-power-of-two widths, with random batch splits, some
    batches fed per event, and ``end_period`` calls at random points.
    Cells, CLOCK state, checkpoint bytes and the five kernel counters
    (values and ``int`` type) must equal the reference's."""

    @given(
        w=st.sampled_from([1, 2, 3, 5, 8, 16, 85]),
        d=st.sampled_from([1, 2, 4, 8]),
        weights=st.sampled_from(
            [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.5, 2.0), (3.0, 0.25)]
        ),
        policy=st.sampled_from(["longtail", "one", "space-saving"]),
        de=st.booleans(),
        period=st.integers(1, 300),
        spread=st.sampled_from([2, 6, 24]),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(
        self, w, d, weights, policy, de, period, spread, seed, data
    ):
        alpha, beta = weights
        config = LTCConfig(
            num_buckets=w, bucket_width=d, alpha=alpha, beta=beta,
            items_per_period=period, replacement_policy=policy,
            deviation_eliminator=de,
        )
        (ref, col), registries = metered_pair(config)
        events = bursty_churn(600, spread * w * d, seed)
        # The top of the key range and the high bit, beside small keys.
        for at, key in zip((7, 99, 300), (MAX_KEY, 2**63, 2**63 + 1)):
            events[at:at] = [key] * 3
        cursor = 0
        while cursor < len(events):
            step = data.draw(st.integers(1, 160), label="batch")
            batch = events[cursor : cursor + step]
            cursor += step
            for item in batch:
                ref.insert(item)
            if data.draw(st.integers(0, 5), label="per-event") == 0:
                for item in batch:
                    col.insert(item)
            else:
                col.insert_many(batch)
            if data.draw(st.integers(0, 3), label="end-period") == 0:
                ref.end_period()
                col.end_period()
        assert_identical(ref, col)
        assert to_bytes(ref) == to_bytes(col)
        assert _counters(registries[0]) == _counters(registries[1])


class TestDegradedMode:
    """An unstorable key cannot put the kernel into a degraded mode.

    A batch (or a per-event insert) holding a key outside ``[0,
    MAX_KEY]`` is refused whole with ``ValueError`` before any write —
    cells, CLOCK and counters as they were — and the instance carries on
    through the compiled kernel, equal to the reference LTC fed the
    stream without the key in cells, CLOCK state, the five kernel
    counters and the answers a listening ServingIndex serves."""

    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "per-event"])
    @pytest.mark.parametrize(
        "bad", [-5, 1 << 70, EMPTY_KEY], ids=["negative", "2**70", "empty-key"]
    )
    def test_matches_reference(self, bad, batched):
        from repro.serve.index import ServingIndex

        config = LTCConfig(
            num_buckets=32, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=1024,
        )
        (ref, col), registries = metered_pair(config)
        indexes = [ServingIndex(ltc) for ltc in (ref, col)]
        events = bursty_churn(6 * 1024, 24 * 32 * 4, seed=7)
        for start in range(0, len(events), 1024):
            chunk = events[start : start + 1024]
            ref.insert_many(chunk)
            # Mid-period and mid-batch, once the table is full.
            poisoned = chunk[:500] + [bad] * 3 + chunk[500:]
            before = to_bytes(col), _counters(registries[1])
            if batched:
                with pytest.raises(ValueError, match=str(bad)):
                    col.insert_many(poisoned)
                assert (to_bytes(col), _counters(registries[1])) == before
                col.insert_many(chunk)
            else:
                for item in poisoned:
                    if item != bad:
                        col.insert(item)
                        continue
                    before = to_bytes(col), _counters(registries[1])
                    with pytest.raises(ValueError, match=str(bad)):
                        col.insert(item)
                    assert (to_bytes(col), _counters(registries[1])) == before
            ref.end_period()
            col.end_period()
        assert bad not in col
        assert_identical(ref, col)
        assert _counters(registries[0]) == _counters(registries[1])
        assert indexes[0].top_k(20) == indexes[1].top_k(20)


class TestTimedDifferential:
    """Timed driving runs on the kernel's place and sweep steps:
    ``insert_timed``, ``end_period`` at every boundary the timestamps
    cross, a checkpoint split and restore in the middle, and
    ``finalize`` must leave the same cells, CLOCK state (time
    accumulator and last timestamp included), checkpoint bytes and
    counters as the reference."""

    @staticmethod
    def _restore(ltc, registry):
        obs.enable(registry)
        try:
            return from_bytes(to_bytes(ltc), cls=type(ltc))
        finally:
            obs.disable()

    @given(
        w=st.sampled_from([1, 3, 8, 85]),
        d=st.sampled_from([1, 2, 4, 8]),
        policy=st.sampled_from(["longtail", "one", "space-saving"]),
        de=st.booleans(),
        rate=st.sampled_from([3.0, 40.0, 400.0]),
        seed=st.integers(0, 2**32),
        split=st.integers(0, 600),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_across_split_restore(
        self, w, d, policy, de, rate, seed, split
    ):
        config = LTCConfig(
            num_buckets=w, bucket_width=d, alpha=1.0, beta=1.0,
            items_per_period=100, replacement_policy=policy,
            deviation_eliminator=de,
        )
        (ref, col), registries = metered_pair(config)
        rng = random.Random(seed)
        now, boundary = 0.0, 1.0
        for i, item in enumerate(bursty_churn(600, 4 * w * d, seed)):
            if i == split:
                ref, col = (
                    self._restore(ltc, registry)
                    for ltc, registry in zip((ref, col), registries)
                )
                assert type(col) is ColumnarLTC
            now += rng.expovariate(rate)
            while now >= boundary:
                ref.end_period()
                col.end_period()
                boundary += 1.0
            ref.insert_timed(item, now, 1.0)
            col.insert_timed(item, now, 1.0)
        ref.finalize()
        col.finalize()
        assert_identical(ref, col)
        assert ref._clock._tacc == col._clock._tacc
        assert ref._last_timestamp == col._last_timestamp == now
        assert to_bytes(ref) == to_bytes(col)
        assert _counters(registries[0]) == _counters(registries[1])


    def test_time_jump_past_int64_steps_matches_reference(self):
        """A timestamp jump whose slot count overflows an int64 sweeps a
        whole period, as the reference's Python ints do; the kernel used
        to refuse it after the place had already run."""
        config = LTCConfig(num_buckets=4, bucket_width=2, items_per_period=8)
        ref, col = LTC(config), ColumnarLTC(config)
        for item, now in ((1, 0.0), (2, 0.5), (1, 0.75), (3, 1e250)):
            ref.insert_timed(item, now, 1.0)
            col.insert_timed(item, now, 1.0)
        assert_identical(ref, col)
        assert to_bytes(ref) == to_bytes(col)


#: The paper's 8 KB point with a period short enough for four boundaries.
PAPER_PERIOD = 1500
PAPER_CONFIG = LTCConfig(
    num_buckets=85, bucket_width=8, alpha=1.0, beta=1.0,
    items_per_period=PAPER_PERIOD,
)


class TestPerEventPaperGeometry:
    """``ColumnarLTC.insert`` is one kernel call; at w=85, d=8 and across
    four period boundaries it must leave what the reference's per-event
    ``insert`` leaves: counters, served answers and checkpoint bytes."""

    EVENTS = bursty_churn(4 * PAPER_PERIOD, 3_000, seed=24)

    def periods(self):
        for start in range(0, len(self.EVENTS), PAPER_PERIOD):
            yield self.EVENTS[start : start + PAPER_PERIOD]

    def test_counters_equal(self):
        (ref, col), registries = metered_pair(PAPER_CONFIG)
        for period in self.periods():
            for item in period:
                ref.insert(item)
                col.insert(item)
            ref.end_period()
            col.end_period()
            assert _counters(registries[0]) == _counters(registries[1])
        assert_identical(ref, col)
        counts = _counters(registries[1])
        assert all(
            counts[name][1] > 0
            for name in ("ltc_evictions_total", "ltc_longtail_replacements_total",
                         "ltc_harvests_total")
        )

    def test_served_answers_equal_oracle(self):
        from repro.serve.index import ServingIndex
        from repro.serve.oracle import (
            canonical_json,
            oracle_query,
            oracle_top_k,
            query_payload,
            reports_payload,
        )

        pair = [LTC(PAPER_CONFIG), ColumnarLTC(PAPER_CONFIG)]
        indexes = [ServingIndex(ltc) for ltc in pair]

        def answers(ltc, index):
            served = [canonical_json(reports_payload(index.top_k(40)))]
            assert served[0] == canonical_json(oracle_top_k(ltc, 40)["results"])
            for item in self.EVENTS[:: PAPER_PERIOD // 4]:
                got = canonical_json(query_payload(item, *index.query(item)))
                assert got == canonical_json(oracle_query(ltc, item))
                served.append(got)
            return served

        for period in self.periods():
            for start in range(0, len(period), 500):
                for item in period[start : start + 500]:
                    for ltc in pair:
                        ltc.insert(item)
                assert answers(pair[0], indexes[0]) == answers(pair[1], indexes[1])
            for ltc in pair:
                ltc.end_period()
            assert answers(pair[0], indexes[0]) == answers(pair[1], indexes[1])

    def test_mid_period_checkpoint_matches_and_continues(self):
        ref, col = LTC(PAPER_CONFIG), ColumnarLTC(PAPER_CONFIG)
        cut = 2 * PAPER_PERIOD + PAPER_PERIOD // 3
        for i, item in enumerate(self.EVENTS):
            if i == cut:
                blob = to_bytes(col)
                assert blob == to_bytes(ref)
                col = from_bytes(blob, cls=ColumnarLTC)
                assert col.period_fill == ref.period_fill == PAPER_PERIOD // 3
            ref.insert(item)
            col.insert(item)
            if (i + 1) % PAPER_PERIOD == 0:
                ref.end_period()
                col.end_period()
        assert_identical(ref, col)
        assert to_bytes(ref) == to_bytes(col)

    def test_insert_is_one_kernel_call(self):
        """``insert`` is the kernel's own bound method: one C call and no
        Python frame (with metrics off and no listener, no watch runs)."""
        col = ColumnarLTC(PAPER_CONFIG)
        seen = []

        def profile(frame, event, arg):
            if event in ("call", "c_call"):
                seen.append((event, getattr(arg, "__qualname__", frame.f_code.co_name)))

        sys.setprofile(profile)
        try:
            col.insert(7)
        finally:
            sys.setprofile(None)
        assert seen == [("c_call", "Kernel.insert"), ("c_call", "setprofile")]
        assert col.estimate(7) == (1, 0)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize(
        "field, bad",
        [("hand", 680), ("hand", -1), ("scanned_in_period", 681),
         ("acc", PAPER_PERIOD), ("acc", -1)],
    )
    def test_out_of_range_clock_refused_at_restore(self, kernel, field, bad):
        """The restore refuses a bad CLOCK before it writes any of it; the
        compiled kernel's own fields refuse it too."""
        ltc = build_ltc(PAPER_CONFIG.with_options(kernel=kernel))
        ltc.insert_many(self.EVENTS[:100])
        # The image's header holds hand and scanned_in_period as uint32s
        # at offsets 40 and 44 (-1 lands as 2**32 - 1) and acc as an
        # int64 at 48.
        offset, fmt = {
            "hand": (40, "<i"), "scanned_in_period": (44, "<i"), "acc": (48, "<q")
        }[field]
        blob = bytearray(to_bytes(ltc))
        struct.pack_into(fmt, blob, offset, bad)
        with pytest.raises(ValueError, match="corrupt LTC image"):
            from_bytes(bytes(blob), cls=KERNELS[kernel])
        if kernel == "columnar":
            before = to_bytes(ltc)
            with pytest.raises(ValueError, match="CLOCK state out of range"):
                setattr(ltc._clock, {"acc": "_acc"}.get(field, field), bad)
            assert to_bytes(ltc) == before


class TestPerEventDispatch:
    """``ColumnarLTC.insert`` is bound to the kernel's ``insert``, whose
    watch folds metrics and notifies the listener, so a bound insert is
    a whole insert on both kernels; an override of ``insert`` and the
    sanitizer's wrapper are never bypassed."""

    EVENTS = bursty_churn(3 * PAPER_PERIOD, 3_000, seed=7)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_hoisted_insert_notifies_a_later_listener(self, kernel):
        ltc = build_ltc(PAPER_CONFIG.with_options(kernel=kernel))
        insert = ltc.insert
        mirror = SynchronousMirror(ltc)
        ltc.attach_cell_listener(mirror)
        for item in self.EVENTS[:PAPER_PERIOD]:
            insert(item)
        occupied = {
            slot for slot in range(ltc.total_cells)
            if ltc.cell_state(slot)[0] is not None
        }
        assert occupied and occupied <= mirror.state.keys()
        for slot, seen in mirror.state.items():
            assert seen == ltc.cell_state(slot), f"slot {slot}"

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_run_per_event_counters_match_reference(self, kernel):
        registries, built = [], []
        try:
            for config in (
                PAPER_CONFIG.with_options(kernel="reference"),
                PAPER_CONFIG.with_options(kernel=kernel),
            ):
                registries.append(obs.enable(MetricsRegistry()))
                built.append(build_ltc(config))
        finally:
            obs.disable()
        stream = make_stream(self.EVENTS, num_periods=3)
        for ltc in built:
            run_per_event(stream, ltc)
        assert_identical(*built)
        assert _counters(registries[0]) == _counters(registries[1])
        assert _counters(registries[1])["ltc_inserts_total"][1] == len(self.EVENTS)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_overriding_insert_is_not_bypassed(self, kernel, monkeypatch):
        seen = []

        class Spy(KERNELS[kernel]):
            def insert(self, item):
                seen.append(item)
                super().insert(item)

        spy = Spy(PAPER_CONFIG)
        spy.insert(3)
        assert seen == [3] and spy.estimate(3) == (1, 0)
        # A class-level wrapper, as a tracer installs one.
        forward = KERNELS[kernel].insert

        def traced(self, item):
            seen.append(-item)
            forward(self, item)

        monkeypatch.setattr(KERNELS[kernel], "insert", traced)
        ltc = build_ltc(PAPER_CONFIG.with_options(kernel=kernel))
        ltc.insert(4)
        assert seen == [3, -4] and ltc.estimate(4) == (1, 0)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_sanitized_instance_keeps_its_checking_wrapper(self, kernel, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        checked = []
        check = sanitize.check_ltc_bucket
        monkeypatch.setattr(
            sanitize, "check_ltc_bucket",
            lambda ltc, item: checked.append(item) or check(ltc, item),
        )
        ltc = build_ltc(PAPER_CONFIG.with_options(kernel=kernel))
        assert "install_ltc" in ltc.insert.__qualname__
        ltc.insert(9)
        assert checked == [9] and ltc.estimate(9) == (1, 0)


#: One step of an interleaved drive: (operation, key or keys, time step).
OPS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 60)),
    st.tuples(st.just("insert_many"), st.lists(st.integers(0, 60), max_size=40)),
    st.tuples(st.just("insert_timed"), st.integers(0, 60),
              st.floats(0.0, 0.4, allow_nan=False)),
    st.tuples(st.just("end_period")),
    st.tuples(st.just("clear")),
    st.tuples(st.just("restore")),
)


class TestInterleavedDifferential:
    """Every mutator, interleaved at random, checkpoint restores and
    ``clear`` included: both kernels end in the same state."""

    @given(
        w=st.sampled_from([1, 3, 85]),
        d=st.sampled_from([1, 2, 8]),
        period=st.integers(1, 40),
        policy=st.sampled_from(["longtail", "one", "space-saving"]),
        de=st.booleans(),
        ops=st.lists(OPS, max_size=60),
    )
    @settings(max_examples=120, deadline=None)
    def test_same_state_on_both_kernels(self, w, d, period, policy, de, ops):
        config = LTCConfig(
            num_buckets=w, bucket_width=d, alpha=1.0, beta=1.0,
            items_per_period=period, replacement_policy=policy,
            deviation_eliminator=de,
        )
        pair, registries = metered_pair(config)
        now = 0.0
        for op in ops:
            if op[0] == "restore":
                pair = [
                    TestTimedDifferential._restore(ltc, registry)
                    for ltc, registry in zip(pair, registries)
                ]
                continue
            if op[0] == "insert_timed":
                now += op[2]
            for ltc in pair:
                if op[0] == "insert_timed":
                    ltc.insert_timed(op[1], now, 1.0)
                else:
                    getattr(ltc, op[0])(*op[1:])
        ref, col = pair
        assert type(col) is ColumnarLTC
        assert_identical(ref, col)
        assert ref._clock._tacc == col._clock._tacc
        assert ref._last_timestamp == col._last_timestamp
        assert to_bytes(ref) == to_bytes(col)
        assert _counters(registries[0]) == _counters(registries[1])


class TestKeyDomain:
    @pytest.mark.parametrize(
        "batch",
        [[1.5, 2], ["7"], np.array([1.5])],
        ids=["float", "numeric-string", "float-array"],
    )
    def test_non_int_keys_refused(self, batch):
        """A key that is not an int raises ``TypeError`` before any write,
        batched or per event; the key column never truncates 1.5 to 1 or
        parses '7'."""
        config = LTCConfig(num_buckets=4, bucket_width=2, items_per_period=16)
        (_, col), registries = metered_pair(config)
        col.insert_many([3, 4, 3])
        before = to_bytes(col), _counters(registries[1])
        with pytest.raises(TypeError):
            col.insert_many(batch)
        with pytest.raises(TypeError):
            col.insert(list(batch)[0])
        assert (to_bytes(col), _counters(registries[1])) == before
        assert 1 not in col and 7 not in col

    def test_uint64_buffer_read_in_place(self):
        """A ``uint64`` array, ``pack_keys``' memoryview and a strided
        ``uint64`` view leave the cells the same keys as a list leave,
        and ``EMPTY_KEY`` anywhere in a buffer refuses the batch before
        any write."""
        keys = [MAX_KEY, 2**63 + 7, 5, MAX_KEY, 9, 5, 2**40] * 30
        array = np.array(keys, dtype=np.uint64)
        config = LTCConfig(num_buckets=4, bucket_width=2, items_per_period=16)
        images = set()
        for batch in (keys, array, ckernel.load().pack_keys(keys),
                      np.repeat(array, 2)[::2]):
            col = ColumnarLTC(config)
            col.insert_many(batch)
            col.end_period()
            images.add(to_bytes(col))
        assert len(images) == 1
        before = to_bytes(col)
        bad = np.array([1, EMPTY_KEY, 2], dtype=np.uint64)
        for batch in (bad, memoryview(bad)):
            with pytest.raises(ValueError, match=str(EMPTY_KEY)):
                col.insert_many(batch)
        assert to_bytes(col) == before

    def test_int64_clock_bound_rejected_at_construction(self):
        """The compiled CLOCK accumulator is an int64: ``acc + m`` must
        fit, so ``items_per_period + m`` above int64 is refused."""
        too_long = LTCConfig(
            num_buckets=2, bucket_width=4, items_per_period=2**63 - 8,
            kernel="columnar",
        )
        with pytest.raises(ValueError, match="int64"):
            build_ltc(too_long)
        assert type(build_ltc(too_long.with_options(kernel="reference"))) is LTC
        longest = too_long.with_options(items_per_period=2**63 - 9)
        col = build_ltc(longest)
        col.insert_many([1, 2, 1])
        assert col.estimate(1) == (2, 0)

    def test_keyed_summary_int_keys_checkpoint(self):
        """``canonical_key`` folds int keys into ``[0, MAX_KEY]``, so
        -1 and 2**64 - 1 (the empty-cell value) can go through a keyed
        columnar LTC and the table still checkpoints."""
        config = LTCConfig(
            num_buckets=4, bucket_width=4, items_per_period=16,
            kernel="columnar",
        )
        keyed = KeyedSummary(build_ltc(config))
        keyed.insert_many([-1, 2**64 - 1, 7, -1])
        keyed.insert(2**64 - 1)
        restored = from_bytes(to_bytes(keyed.inner), cls=ColumnarLTC)
        assert list(restored.cells()) == list(keyed.inner.cells())
        assert keyed.query(-1) == keyed.query(2**64 - 1) > 0


#: Keys that index to plain ints: numpy integers of both signs and a bool.
INDEX_KEYS = [np.int64(5), np.uint64(2**63 + 7), True, np.int64(5),
              np.uint64(9), True, np.int32(5), np.uint64(2**63 + 7)]


class TestKeyNormalisation:
    """Both kernels take a key that is an int by ``__index__`` as that
    int: a numpy integer never reaches the hash or a cell, per event,
    batched or timed."""

    @staticmethod
    def _drive(ltc, keys, mode):
        if mode == "batch":
            ltc.insert_many(keys)
        for i, key in enumerate(keys):
            if mode == "per-event":
                ltc.insert(key)
            elif mode == "timed":
                ltc.insert_timed(key, 0.3 * i, 1.0)
        ltc.end_period()
        return ltc

    @pytest.mark.parametrize("mode", ["per-event", "batch", "timed"])
    def test_index_keys_match_plain_ints(self, mode):
        config = LTCConfig(num_buckets=4, bucket_width=2, items_per_period=4)
        plain = self._drive(
            LTC(config), [operator.index(k) for k in INDEX_KEYS], mode
        )
        for cls in (LTC, ColumnarLTC):
            fed = self._drive(cls(config), INDEX_KEYS, mode)
            assert list(fed.cells()) == list(plain.cells())
            assert {type(cv.key) for cv in fed.cells() if not cv.empty} == {int}
            assert all(type(r.item) is int for r in fed.top_k(8))
            assert to_bytes(fed) == to_bytes(plain)
        assert plain.estimate(2**63 + 7) == (2, 0)

    @pytest.mark.parametrize("kernel", [LTC, ColumnarLTC], ids=["reference", "columnar"])
    def test_non_int_keys_refused_by_both_kernels(self, kernel):
        config = LTCConfig(num_buckets=4, bucket_width=2, items_per_period=16)
        ltc = kernel(config)
        ltc.insert_many([3, 4, 3])
        before = to_bytes(ltc)
        for bad in (1.5, "7", np.float64(2.0)):
            with pytest.raises(TypeError):
                ltc.insert(bad)
            with pytest.raises(TypeError):
                ltc.insert_timed(bad, 1.0, 1.0)
            with pytest.raises(TypeError):
                ltc.insert_many([1, bad])
        assert to_bytes(ltc) == before

    @pytest.mark.parametrize("kernel", [LTC, ColumnarLTC], ids=["reference", "columnar"])
    @pytest.mark.parametrize(
        "batch, error",
        [
            ([-5, 1.5], ValueError),
            ([1.5, -5], TypeError),
            ([2, 2**64, "7"], ValueError),
            ([2, "7", 2**64], TypeError),
            ([1, np.int64(-1), np.float64(2.0)], ValueError),
        ],
        ids=["range-first", "type-first", "over-max-first", "str-first", "numpy"],
    )
    def test_first_bad_key_in_a_batch_decides_the_error(self, kernel, batch, error):
        """Both kernels check a batch's keys in arrival order, so the
        first bad key picks ``ValueError`` (out of range) or ``TypeError``
        (not an int), and the table is left untouched."""
        ltc = kernel(LTCConfig(num_buckets=4, bucket_width=2, items_per_period=16))
        ltc.insert_many([3, 4, 3])
        before = to_bytes(ltc)
        with pytest.raises(error):
            ltc.insert_many(batch)
        with pytest.raises(error):
            ltc.insert_many(iter(batch))
        assert to_bytes(ltc) == before


class TestBuild:
    """The compiled kernel's loader (``repro.core.ckernel``)."""

    def test_cold_cache_builds_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        ckernel.load.cache_clear()
        try:
            ckernel.load()
            built = sorted(p.name for p in (tmp_path / "repro").iterdir())
            assert len(built) == 1 and built[0].endswith(".so")
            ckernel.load.cache_clear()
            ckernel.load()  # warm: loads the cached library
            assert sorted(p.name for p in (tmp_path / "repro").iterdir()) == built
        finally:
            ckernel.load.cache_clear()

    def test_no_compiler_is_a_clear_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(ckernel, "compiler", lambda: None)
        ckernel.load.cache_clear()
        try:
            config = LTCConfig(num_buckets=2, bucket_width=4)
            with pytest.raises(RuntimeError, match="C compiler") as exc:
                build_ltc(config)
            message = str(exc.value)
            assert message.startswith("every default LTC construction")
            assert 'LTCConfig(kernel="reference") needs no compiler' in message
            ref = build_ltc(config.with_options(kernel="reference"))
            ref.insert_many([1, 2, 1])
            assert ref.estimate(1) == (2, 0)
            assert not (tmp_path / "repro").exists() or not any(
                (tmp_path / "repro").iterdir()
            )
        finally:
            ckernel.load.cache_clear()

    def test_no_python_headers_is_a_clear_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(ckernel, "include_dir", lambda: tmp_path / "include")
        ckernel.load.cache_clear()
        try:
            config = LTCConfig(num_buckets=2, bucket_width=4)
            with pytest.raises(RuntimeError, match="Python.h") as exc:
                build_ltc(config)
            message = str(exc.value)
            assert message.startswith("every default LTC construction")
            assert 'LTCConfig(kernel="reference") needs no compiler' in message
            ref = build_ltc(config.with_options(kernel="reference"))
            ref.insert_many([1, 2, 1])
            assert ref.estimate(1) == (2, 0)
            assert not (tmp_path / "repro").exists() or not any(
                (tmp_path / "repro").iterdir()
            )
        finally:
            ckernel.load.cache_clear()

    def test_interpreter_abi_keys_the_cache(self, tmp_path, monkeypatch):
        """Interpreters sharing a cache never load each other's module:
        the extension suffix and the SOABI both change the name."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        suffix, soabi = ckernel.abi()
        built = []
        try:
            for abi in (
                (suffix, soabi),
                (suffix, soabi + "-other"),
                (".cpython-399-other.so", soabi),
            ):
                monkeypatch.setattr(ckernel, "abi", lambda abi=abi: abi)
                ckernel.load.cache_clear()
                module = ckernel.load()
                names = {p.name for p in (tmp_path / "repro").iterdir()}
                (new,) = names - set(built)
                assert new.endswith(abi[0])
                assert module.__file__ == str(tmp_path / "repro" / new)
                built.append(new)
        finally:
            ckernel.load.cache_clear()


class TestLifecycle:
    def make_pair(self):
        config = LTCConfig(
            num_buckets=4, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=100,
        )
        rng = random.Random(21)
        events = [rng.randrange(200) for _ in range(1_500)]
        ref, col = LTC(config), ColumnarLTC(config)
        stream = make_stream(events, num_periods=5)
        stream.run(ref)
        stream.run(col)
        return ref, col

    def test_checkpoint_roundtrip_continues_identically(self):
        ref, col = self.make_pair()
        restored = from_bytes(to_bytes(col), cls=ColumnarLTC)
        assert type(restored) is ColumnarLTC
        tail = [random.Random(6).randrange(200) for _ in range(500)]
        ref.insert_many(tail)
        restored.insert_many(tail)
        assert_identical(ref, restored)

    def test_checkpoint_bytes_match_reference(self):
        """Same logical structure → byte-identical checkpoint."""
        ref, col = self.make_pair()
        assert to_bytes(col) == to_bytes(ref)

    def test_clear_rebuilds_columns(self):
        _, col = self.make_pair()
        col.clear()
        assert (col._kcol == EMPTY_KEY).all()
        assert all(cv.empty for cv in col.cells())
        col.insert_many([1, 2, 1])
        assert col.estimate(1) == (2, 0)

    def test_merge_accepts_columnar_sites(self):
        """Merging columnar sites equals merging equivalent reference sites."""
        config = LTCConfig(
            num_buckets=2, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=10,
        )

        def sites(cls):
            built = []
            for offset in range(3):
                site = cls(config)
                site.insert_many([offset * 100 + j for j in range(8)] * 2)
                site.end_period()
                built.append(site)
            return built

        via_col = merge(sites(ColumnarLTC), num_periods=1)
        via_ref = merge(sites(LTC), num_periods=1)
        assert list(via_col.cells()) == list(via_ref.cells())

    def test_merge_of_columnar_sites_stays_columnar(self):
        """A merge builds the first input's class: columnar sites give a
        ColumnarLTC whose cells, ranking and checkpoint equal the
        reference merge's, and which keeps ingesting in step with it."""
        config = LTCConfig(
            num_buckets=4, bucket_width=4, alpha=1.0, beta=2.0,
            items_per_period=40,
        )
        rng = random.Random(7)
        shards = [[rng.randrange(60) for _ in range(120)] for _ in range(3)]

        def merged(cls):
            sites = []
            for shard in shards:
                site = cls(config)
                for start in range(0, len(shard), 40):
                    site.insert_many(shard[start:start + 40])
                    site.end_period()
                site.finalize()
                sites.append(site)
            return merge(sites, num_periods=3)

        via_col, via_ref = merged(ColumnarLTC), merged(LTC)
        assert type(via_col) is ColumnarLTC and type(via_ref) is LTC
        assert list(via_col.cells()) == list(via_ref.cells())
        assert via_col.top_k(8) == via_ref.top_k(8)
        assert to_bytes(via_col) == to_bytes(via_ref)
        more = [rng.randrange(80) for _ in range(80)]
        via_col.insert_many(more)
        via_ref.insert_many(more)
        assert list(via_col.cells()) == list(via_ref.cells())


class TestKernelSelection:
    def test_columnar_is_the_default_kernel(self):
        config = LTCConfig(num_buckets=1)
        assert config.kernel == "columnar"
        assert type(build_ltc(config)) is ColumnarLTC

    def test_build_ltc_honours_kernel(self):
        for name, cls in KERNELS.items():
            config = LTCConfig(
                num_buckets=2, bucket_width=4, alpha=1.0, beta=1.0,
                items_per_period=10, kernel=name,
            )
            assert type(build_ltc(config)) is cls

    def test_invalid_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            LTCConfig(
                num_buckets=2, bucket_width=4, alpha=1.0, beta=1.0,
                items_per_period=10, kernel="gpu",
            )

    def test_auto_kernel_rejected(self):
        """``kernel="auto"`` was removed; the error names the survivors."""
        assert set(KERNELS) == {"reference", "columnar"}
        with pytest.raises(ValueError) as excinfo:
            LTCConfig(num_buckets=2, kernel="auto")
        message = str(excinfo.value)
        assert all(name in message for name in KERNELS)
        assert "auto" not in message


class SynchronousMirror:
    """The strictest legal CellListener: it re-reads every touched cell
    *inside the callback*.  The hooks contract (core/hooks.py) says a
    notification fires after the mutation in the same call, so at any
    point the mirror's last reading of a slot must equal the cell's
    settled state — deferred-repair listeners (ServingIndex) cannot see
    a notify-before-write ordering bug, this one can."""

    def __init__(self, ltc):
        self._ltc = ltc
        self.state = {}

    def cell_touched(self, slot):
        self.state[slot] = self._ltc.cell_state(slot)

    def cells_touched(self, slots):
        state, ltc = self.state, self._ltc
        for slot in slots:
            state[slot] = ltc.cell_state(slot)

    def cells_reset(self):
        self.state.clear()


class TestHooksContractSynchronousListener:
    """A synchronous listener reads settled cells: a batch notifies only
    after every write, the key column included, so it never sees a
    replaced key it was not told about."""

    def _assert_mirror_settled(self, mirror, ltc):
        for slot, seen in mirror.state.items():
            assert seen == ltc.cell_state(slot), f"slot {slot}"

    def test_segmented_eviction_notifies_after_writes(self):
        # 32 buckets and 128-event batches of near-distinct keys: the
        # full table forces Significance Decrement deaths and evictions
        # on many buckets in every batch.
        config = LTCConfig(
            num_buckets=32, bucket_width=2, alpha=1.0, beta=1.0,
            items_per_period=256,
        )
        col = ColumnarLTC(config)
        mirror = SynchronousMirror(col)
        col.attach_cell_listener(mirror)
        rng = random.Random(4242)
        for _ in range(40):
            col.insert_many([rng.randrange(5000) for _ in range(128)])
            self._assert_mirror_settled(mirror, col)
        col.end_period()
        self._assert_mirror_settled(mirror, col)

    @pytest.mark.parametrize("policy", ["longtail", "one", "space-saving"])
    def test_mirror_settled_across_policies(self, policy):
        config = LTCConfig(
            num_buckets=16, bucket_width=2, alpha=1.0, beta=1.0,
            items_per_period=128, replacement_policy=policy,
        )
        col = ColumnarLTC(config)
        mirror = SynchronousMirror(col)
        col.attach_cell_listener(mirror)
        rng = random.Random(policy)
        for _ in range(30):
            col.insert_many([rng.randrange(1200) for _ in range(96)])
            self._assert_mirror_settled(mirror, col)
            if rng.random() < 0.2:
                col.end_period()
                self._assert_mirror_settled(mirror, col)

    def test_each_call_reports_only_the_cells_it_changed(self):
        """The touched mask is cleared after every call, per event or
        batched, and a call that changes no cell notifies nobody."""
        config = LTCConfig(num_buckets=8, bucket_width=2, items_per_period=1000)
        col = ColumnarLTC(config)
        (a,), (b,) = colliding_keys(col, 0, 1), colliding_keys(col, 5, 1)
        seen = []

        class Recorder:
            def cells_touched(self, slots):
                seen.append(sorted(slots))

            def cells_reset(self):
                seen.append("reset")

        col.attach_cell_listener(Recorder())
        col.insert(a)
        col.insert(b)
        col.insert_many([b, b])
        col.insert_timed(a, 0.0, 1.0)
        col.end_period()  # harvests nothing: no flag is a harvest flag yet
        col.clear()
        assert seen == [[0], [10], [10], [0], "reset"]
