"""ColumnarLTC ≡ FastLTC ≡ LTC differential tests.

The columnar kernel reorders work inside ``insert_many`` (clean hits are
bincount-aggregated, CLOCK harvests run as array slices), so these tests
pin the commutation argument empirically: every observable — cells, CLOCK
phase, parity, estimates, top-k — must match a per-event replay exactly,
across policies, DE on/off, batch fragmentation, and period boundaries.
The numpy-free fallback and the vectorization bail-outs (oversized keys)
are exercised explicitly.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import columnar
from repro.core.columnar import ColumnarLTC
from repro.core.config import LTCConfig
from repro.core.fast_ltc import FastLTC
from repro.core.kernels import KERNELS, build_ltc
from repro.core.ltc import LTC
from repro.core.merge import merge
from repro.core.serialize import from_bytes, to_bytes
from repro.hashing.family import splitmix64
from repro.obs.registry import MetricsRegistry
from tests.conftest import make_stream

pytestmark = pytest.mark.skipif(
    columnar._np is None, reason="numpy unavailable"
)


def run_trio(events, num_periods, *, batch=None, **cfg):
    """Drive LTC / FastLTC / ColumnarLTC over the same stream.

    The reference copies ingest per event through ``PeriodicStream.run``;
    the columnar copy ingests through ``insert_many`` in batches of
    ``batch`` (whole periods when ``None``) with ``end_period`` at every
    boundary — the exact call pattern whose reordering is under test.
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
    slow, fast, col = LTC(config), FastLTC(config), ColumnarLTC(config)
    if events:
        stream = make_stream(events, num_periods=num_periods)
        stream.run(slow)
        stream.run(fast, batched=True)
        for period in stream.period_batches():
            if batch is None:
                col.insert_many(period)
            else:
                for i in range(0, len(period), batch):
                    col.insert_many(period[i : i + batch])
            col.end_period()
        col.finalize()
    return slow, fast, col


def assert_identical(a: LTC, b: LTC) -> None:
    assert list(a.cells()) == list(b.cells())
    assert a._clock.hand == b._clock.hand
    assert a._clock._acc == b._clock._acc
    assert a._clock.scanned_in_period == b._clock.scanned_in_period
    assert a._parity == b._parity


class TestEquivalence:
    @given(
        st.lists(st.integers(0, 25), max_size=300),
        st.integers(1, 6),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_identical_cells(self, events, periods, ltr, de):
        slow, fast, col = run_trio(
            events,
            periods,
            longtail_replacement=ltr,
            deviation_eliminator=de,
        )
        assert_identical(slow, col)
        assert_identical(fast, col)

    @given(
        st.lists(st.integers(0, 40), max_size=300),
        st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_fragmentation_immaterial(self, events, batch):
        """Splitting one period's arrivals across many insert_many calls
        cannot change the result."""
        _, fast, col = run_trio(events, 3, batch=batch)
        assert_identical(fast, col)

    @given(st.lists(st.integers(0, 40), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_identical_estimates(self, events):
        slow, _, col = run_trio(events, 4)
        for item in set(events) | {99999}:
            assert slow.estimate(item) == col.estimate(item)

    @pytest.mark.parametrize("policy", ["longtail", "one", "space-saving"])
    def test_replacement_policies_identical(self, policy):
        rng = random.Random(11)
        events = [rng.randrange(400) for _ in range(4_000)]
        slow, fast, col = run_trio(
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
        fast, col = FastLTC(config), ColumnarLTC(config)
        small_zipf.run(fast, batched=True)
        small_zipf.run(col, batched=True)
        assert_identical(fast, col)
        assert fast.top_k(50) == col.top_k(50)

    def test_mid_period_state_identical(self):
        """Equality must hold at arbitrary points, not just boundaries."""
        rng = random.Random(3)
        config = LTCConfig(
            num_buckets=4, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=100,
        )
        fast, col = FastLTC(config), ColumnarLTC(config)
        cursor = 0
        while cursor < 1_000:
            step = rng.randrange(1, 90)
            chunk = [rng.randrange(150) for _ in range(step)]
            fast.insert_many(chunk)
            col.insert_many(chunk)
            cursor += step
            assert_identical(fast, col)
            if rng.random() < 0.3:
                fast.end_period()
                col.end_period()
                assert_identical(fast, col)

    def test_sanitized_run_identical(self):
        """The column invariant checks pass live on a churny stream."""
        rng = random.Random(5)
        events = [rng.randrange(300) for _ in range(2_000)]
        config = LTCConfig(
            num_buckets=4, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=200, sanitize=True,
        )
        plain = ColumnarLTC(config.with_options(sanitize=False))
        checked = ColumnarLTC(config)
        stream = make_stream(events, num_periods=10)
        stream.run(plain, batched=True)
        stream.run(checked, batched=True)
        assert_identical(plain, checked)

    def test_counts_form_matches_expansion(self):
        config = LTCConfig(
            num_buckets=2, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=50,
        )
        a, b = ColumnarLTC(config), ColumnarLTC(config)
        a.insert_many([1, 2, 3], counts=[5, 1, 3])
        b.insert_many([1] * 5 + [2] + [3] * 3)
        assert_identical(a, b)

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
    """The segmented replay's worst cases: chunks where (almost) every
    event is a miss, so the peeling kernel does all the work and the
    clean-hit aggregation none of it."""

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
        slow, fast, col = run_trio(
            events, periods, num_buckets=2, longtail_replacement=ltr
        )
        assert_identical(slow, col)
        assert_identical(fast, col)

    @pytest.mark.parametrize("policy", ["longtail", "one", "space-saving"])
    def test_single_bucket_collision_storm(self, policy):
        """Every event lands in one bucket of a wide table — the peel
        loop degenerates to a single queue of maximal depth."""
        config = LTCConfig(
            num_buckets=8, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=500, replacement_policy=policy,
        )
        fast, col = FastLTC(config), ColumnarLTC(config)
        probe = ColumnarLTC(config)
        keys = colliding_keys(probe, bucket=3, count=24)
        rng = random.Random(17)
        events = [rng.choice(keys) for _ in range(5_000)]
        stream = make_stream(events, num_periods=10)
        stream.run(fast, batched=True)
        stream.run(col, batched=True)
        assert_identical(fast, col)
        assert {cv.bucket for cv in col.cells() if not cv.empty} == {3}

    @given(
        st.lists(st.integers(0, 60), min_size=1, max_size=200),
        st.integers(0, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_oversized_key_mid_chunk(self, events, position):
        """A key outside uint64 arriving mid-chunk drops the rest of the
        stream to the scalar path without losing a single event."""
        position = min(position, len(events))
        poisoned = events[:position] + [1 << 70] + events[position:]
        config = LTCConfig(
            num_buckets=2, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=50,
        )
        fast, col = FastLTC(config), ColumnarLTC(config)
        fast.insert_many(poisoned)
        col.insert_many(poisoned)
        assert not col._vec
        assert_identical(fast, col)
        # The instance stays consistent for later (vector-eligible) batches.
        fast.insert_many(events)
        col.insert_many(events)
        fast.end_period()
        col.end_period()
        assert_identical(fast, col)

    def test_eviction_storm_against_reference(self):
        """Distinct keys cycling through a saturated table churn every
        cell repeatedly; pin against the reference LTC too."""
        rng = random.Random(31)
        events = [rng.randrange(100_000) for _ in range(3_000)]
        slow, fast, col = run_trio(
            events, 6, num_buckets=4, replacement_policy="space-saving"
        )
        assert_identical(slow, col)
        assert_identical(fast, col)


def bursty_churn(num_events, num_distinct, seed):
    """Zipf-ish keys with repeats in bursts: heavy churn on a small table
    plus long same-key runs, so claims, decrements, evictions and the
    reclassification of later same-key events all occur in one chunk."""
    rng = random.Random(seed)
    events = []
    while len(events) < num_events:
        key = int(rng.paretovariate(0.2)) % num_distinct
        events.extend([key] * (rng.randrange(1, 12) if rng.random() < 0.3 else 1))
    return events[:num_events]


class TestPaperGeometry:
    """The paper's 8 KB point, w=85 d=8: a non-power-of-two bucket count
    (the vectorized ``hashed % w`` path, not the mask) and enough lanes
    for wide segmented rounds and the scalar drain."""

    @pytest.mark.parametrize(
        "policy", ["longtail", "one", "space-saving"],
    )
    def test_matches_fast_and_reference_with_counters(self, policy, monkeypatch):
        lanes = []
        drained = []
        decrement_lanes = ColumnarLTC._decrement_lanes
        drain_lanes = ColumnarLTC._drain_lanes

        def spy_decrement(self, seq, start, koff, kval, fbk):
            lanes.append(len(fbk))
            return decrement_lanes(self, seq, start, koff, kval, fbk)

        def spy_drain(self, seq, start, offset, opclass, cur, end):
            drained.append(len(cur))
            return drain_lanes(self, seq, start, offset, opclass, cur, end)

        monkeypatch.setattr(ColumnarLTC, "_decrement_lanes", spy_decrement)
        monkeypatch.setattr(ColumnarLTC, "_drain_lanes", spy_drain)
        config = LTCConfig(
            num_buckets=85, bucket_width=8, alpha=1.0, beta=1.0,
            items_per_period=3000, replacement_policy=policy,
        )
        events = bursty_churn(24_000, 6_000, seed=85)
        built = {}
        registries = {}
        try:
            for name, cls in (("ltc", LTC), ("fast", FastLTC), ("col", ColumnarLTC)):
                registries[name] = obs.enable(MetricsRegistry())
                built[name] = cls(config)
        finally:
            obs.disable()
        for start in range(0, len(events), 3000):
            period = events[start : start + 3000]
            for item in period:
                built["ltc"].insert(item)
            built["fast"].insert_many(period)
            built["col"].insert_many(period)
            for ltc in built.values():
                ltc.end_period()
        assert max(lanes) >= 16 and any(drained)
        counted = (
            "ltc_significance_decrements_total",
            "ltc_evictions_total",
            "ltc_longtail_replacements_total",
            "ltc_harvests_total",
        )

        def counters(name):
            # (type, value): a numpy scalar leaking into a counter would
            # compare equal but break JSON export of the registry.
            values = {
                m["name"]: m.get("value")
                for m in registries[name].snapshot()["metrics"]
            }
            return {key: (type(values[key]), values[key]) for key in counted}

        assert counters("col")["ltc_evictions_total"][1] > 0
        for name in ("ltc", "fast"):
            assert_identical(built[name], built["col"])
            assert counters(name) == counters("col")
        assert to_bytes(built["fast"]) == to_bytes(built["col"])


class TestFallbacks:
    def test_runs_without_numpy(self, monkeypatch):
        """With numpy absent the class degrades to FastLTC behaviour."""
        monkeypatch.setattr(columnar, "_np", None)
        config = LTCConfig(
            num_buckets=2, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=20,
        )
        fast, col = FastLTC(config), ColumnarLTC(config)
        assert not col._vec
        events = [random.Random(9).randrange(30) for _ in range(200)]
        fast.insert_many(events)
        col.insert_many(events)
        assert_identical(fast, col)

    def test_de_off_uses_scalar_path(self):
        """Without the Deviation Eliminator the harvest bit equals the
        set bit, so the batch reordering is unsound and the kernel must
        delegate; results still match."""
        _, fast, col = run_trio(
            [random.Random(2).randrange(50) for _ in range(800)],
            4,
            deviation_eliminator=False,
        )
        assert_identical(fast, col)

    def test_oversized_key_disables_vectorization(self):
        """Keys outside uint64 fall back to scalar ingestion for good."""
        config = LTCConfig(
            num_buckets=2, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=20,
        )
        fast, col = FastLTC(config), ColumnarLTC(config)
        events = [1, 2, 1 << 80, 2, 1, 1 << 80, 3]
        fast.insert_many(events)
        col.insert_many(events)
        assert not col._vec
        assert_identical(fast, col)
        # And it keeps working scalar afterwards.
        fast.insert_many([4, 5, 4])
        col.insert_many([4, 5, 4])
        assert_identical(fast, col)


class TestLifecycle:
    def make_pair(self):
        config = LTCConfig(
            num_buckets=4, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=100,
        )
        rng = random.Random(21)
        events = [rng.randrange(200) for _ in range(1_500)]
        fast, col = FastLTC(config), ColumnarLTC(config)
        stream = make_stream(events, num_periods=5)
        stream.run(fast, batched=True)
        stream.run(col, batched=True)
        return fast, col

    def test_checkpoint_roundtrip_continues_identically(self):
        fast, col = self.make_pair()
        restored = from_bytes(to_bytes(col), cls=ColumnarLTC)
        assert type(restored) is ColumnarLTC
        assert restored._vec
        tail = [random.Random(6).randrange(200) for _ in range(500)]
        fast.insert_many(tail)
        restored.insert_many(tail)
        assert_identical(fast, restored)

    def test_checkpoint_bytes_match_fast_ltc(self):
        """Same logical structure → byte-identical checkpoint."""
        fast, col = self.make_pair()
        assert to_bytes(col) == to_bytes(fast)

    def test_clear_rebuilds_columns(self):
        _, col = self.make_pair()
        col.clear()
        assert col._vec
        assert not col._occ.any()
        col.insert_many([1, 2, 1])
        assert col.estimate(1) == (2, 0)

    def test_merge_accepts_columnar_sites(self):
        """Merging columnar sites equals merging equivalent fast sites."""
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
        via_fast = merge(sites(FastLTC), num_periods=1)
        assert list(via_col.cells()) == list(via_fast.cells())


class TestKernelSelection:
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
    """Regression: the segmented replay's eviction pass used to notify
    *before* rewriting the evicted cells' columns, so a synchronous
    listener saw pre-eviction keys it was never told were replaced."""

    def _assert_mirror_settled(self, mirror, ltc):
        for slot, seen in mirror.state.items():
            assert seen == ltc.cell_state(slot), f"slot {slot}"

    def test_segmented_eviction_notifies_after_writes(self):
        # 32 dirty buckets and 128-event batches of near-distinct keys:
        # every chunk carries a >=64-event dirty tail (the segmented
        # kernel's entry gate) and the full table forces SD deaths and
        # evictions through _apply_misses on many buckets at once.
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
