"""ColumnarLTC ≡ LTC differential tests.

The columnar kernel reorders work inside ``insert_many`` (clean hits are
bincount-aggregated, CLOCK harvests run as array slices), so these tests
pin the commutation argument empirically: every observable — cells, CLOCK
phase, parity, estimates, top-k — must match a per-event replay exactly,
across policies, DE on/off, batch fragmentation, and period boundaries.
The whole-batch scalar replay (Deviation Eliminator off, keys the key
column cannot hold) and the per-event paths are exercised explicitly.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.columnar import ColumnarLTC, _RunIndex
from repro.core.config import LTCConfig
from repro.core.kernels import KERNELS, build_ltc
from repro.core.ltc import LTC
from repro.core.merge import merge
from repro.core.serialize import EMPTY_KEY, from_bytes, to_bytes
from repro.hashing.family import splitmix64
from repro.obs.registry import MetricsRegistry
from tests.conftest import make_stream

def run_pair(events, num_periods, *, batch=None, per_event=False, **cfg):
    """Drive LTC / ColumnarLTC over the same stream.

    The reference copy ingests per event through ``PeriodicStream.run``;
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
        stream.run(slow)
        if per_event:
            stream.run(col)
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
            longtail_replacement=ltr,
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
        small_zipf.run(ref, batched=True)
        small_zipf.run(col, batched=True)
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
        slow, col = run_pair(
            events, periods, num_buckets=2, longtail_replacement=ltr
        )
        assert_identical(slow, col)

    @pytest.mark.parametrize("policy", ["longtail", "one", "space-saving"])
    def test_single_bucket_collision_storm(self, policy):
        """Every event lands in one bucket of a wide table — the peel
        loop degenerates to a single queue of maximal depth."""
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
        stream.run(ref, batched=True)
        stream.run(col, batched=True)
        assert_identical(ref, col)
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
        ref, col = LTC(config), ColumnarLTC(config)
        ref.insert_many(poisoned)
        col.insert_many(poisoned)
        assert not col._vec
        assert_identical(ref, col)
        # The instance stays consistent for later (vector-eligible) batches.
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
    def test_matches_reference_with_counters(self, policy, monkeypatch):
        lanes = []
        multi = []
        drained = []
        decrement_lanes = ColumnarLTC._decrement_lanes
        drain_lanes = ColumnarLTC._drain_lanes

        def spy_decrement(self, seq, start, offset, okey, opclass, at, *rest):
            lanes.append(len(at))
            drow, dslot, last = decrement_lanes(
                self, seq, start, offset, okey, opclass, at, *rest
            )
            # A lane whose last applied miss lies past its first took a
            # run of two or more misses in this one round.
            multi.append(last is not None and bool((last > at).any()))
            return drow, dslot, last

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
            for name, cls in (("ltc", LTC), ("col", ColumnarLTC)):
                registries[name] = obs.enable(MetricsRegistry())
                built[name] = cls(config)
        finally:
            obs.disable()
        for start in range(0, len(events), 3000):
            period = events[start : start + 3000]
            for item in period:
                built["ltc"].insert(item)
            built["col"].insert_many(period)
            for ltc in built.values():
                ltc.end_period()
        assert max(lanes) >= 16 and any(drained)
        # Space-Saving evicts on every miss, so it has no runs.
        assert any(multi) == (policy != "space-saving")
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
        assert_identical(built["ltc"], built["col"])
        assert counters("ltc") == counters("col")
        assert to_bytes(built["ltc"]) == to_bytes(built["col"])


#: Buckets in the crafted-table tests: exactly ``_SEG_MIN_ACTIVE`` lanes,
#: so every crafted batch runs through the round loop, not the drain.
RUN_LANES = 16


def crafted_pair(config, rows):
    """A reference LTC and a ColumnarLTC holding the same crafted cells.

    ``rows[b]`` lists bucket ``b``'s cells as ``(key, f, p, flags)``.
    ``_reindex`` (the restore hook) rebuilds the columnar kernel's derived
    state from the written cells.
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
        ltc._reindex()
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


@pytest.fixture
def run_lengths(monkeypatch):
    """Every per-lane step length the round kernel's run search returns."""
    seen = []
    extent = _RunIndex.extent

    def spy(self, *args):
        k, last = extent(self, *args)
        seen.extend(k.tolist())
        return k, last

    monkeypatch.setattr(_RunIndex, "extent", spy)
    return seen


class TestDecrementRuns:
    """Pinned boundaries of the columnar round's decrement runs.

    Each test crafts a full table of ``RUN_LANES`` buckets, an incumbent
    ``A`` and the least significant cell ``B`` per bucket (plus fresh
    colliding keys ``X``), and sends one batch in which every bucket
    plays the same script.  The reference LTC replays it per event; the columnar
    round applies each lane's run in one step, so a run boundary the
    kernel ignored would leave ``B`` (or its replacement) different.
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

    def test_run_ends_at_hit_on_cell(self, run_lengths):
        config, keys = self._setup()
        ref, col = crafted_pair(
            config, [[(k[0], 20, 0, 0), (k[1], 5, 0, 0)] for k in keys]
        )
        # X1 X2 B X3 X4 X5: the hit on B ends the first run at two misses.
        # Taken as one run, five misses would kill B (f = 5).
        batch = round_robin([[k[2], k[3], k[1], k[4], k[5], k[6]] for k in keys])
        ref.insert_many(batch)
        col.insert_many(batch)
        self._assert_same(ref, col)
        assert col.estimate(keys[0][1]) == (1, 0)
        assert max(run_lengths) == 3

    def test_run_ends_at_cell_sweep(self, run_lengths):
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
        assert max(run_lengths) >= 4

    def test_death_mid_run_longtail_reads_inner_hit(self, run_lengths):
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
        assert 3 in run_lengths

    def test_flag_charge_when_p_empties_mid_run(self, run_lengths):
        config, keys = self._setup()
        # B: f = 4, p = 1, both flags pending.  Three misses: p empties at
        # the first, and the third starts at f = 2 with two pending flags
        # covering it, so it charges the oldest (the harvest flag).
        ref, col = crafted_pair(
            config, [[(k[0], 20, 0, 0), (k[1], 4, 1, 3)] for k in keys]
        )
        # X1 A X2 A X3: the hits on A (enough events for the round loop)
        # sit inside B's run without ending it.
        batch = round_robin([[k[2], k[0], k[3], k[0], k[4]] for k in keys])
        ref.insert_many(batch)
        col.insert_many(batch)
        self._assert_same(ref, col)
        assert col.estimate(keys[0][1]) == (1, 0)
        assert int(col._flags[1]) == col._set_bit
        assert max(run_lengths) == 3

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
    def test_single_weight_death_step(self, run_lengths, alpha, beta, b_cell):
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
        assert 3 in run_lengths

    def test_space_saving_takes_no_runs(self, run_lengths):
        config, keys = self._setup(replacement_policy="space-saving")
        ref, col = crafted_pair(
            config, [[(k[0], 20, 0, 0), (k[1], 5, 0, 0)] for k in keys]
        )
        batch = round_robin([[k[2], k[3], k[1], k[4], k[5], k[6]] for k in keys])
        ref.insert_many(batch)
        col.insert_many(batch)
        self._assert_same(ref, col)
        assert run_lengths == []

    def test_single_cell_buckets(self, run_lengths):
        config, keys = self._setup(width=1, fresh=7)
        ref, col = crafted_pair(config, [[(k[0], 6, 0, 0)] for k in keys])
        # X1 X2 A X3 .. X7: a run of two, the hit, then a run that kills A
        # (f = 5) at X7 — d = 1 has no Long-tail Replacement.
        batch = round_robin([[k[1], k[2], k[0]] + k[3:8] for k in keys])
        ref.insert_many(batch)
        col.insert_many(batch)
        self._assert_same(ref, col)
        assert col.estimate(keys[0][7]) == (1, 0)
        assert max(run_lengths) >= 2


class TestRoundKernelDifferential:
    """Random configurations wide enough (w >= 16 lanes) for the round
    loop, with both weights, every replacement policy, the period and
    the batch split drawn at random; cells, CLOCK state and the four
    kernel counters (values and ``int`` type) must equal the reference
    LTC's."""

    @given(
        w=st.integers(16, 128),
        d=st.sampled_from([1, 2, 4, 8]),
        weights=st.sampled_from(
            [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.5, 2.0), (3.0, 0.25)]
        ),
        policy=st.sampled_from(["longtail", "one", "space-saving"]),
        period_factor=st.sampled_from([1, 3]),
        batch=st.sampled_from([None, 600, 2500]),
        spread=st.sampled_from([12, 24]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_reference(
        self, w, d, weights, policy, period_factor, batch, spread, seed
    ):
        rounds = []
        apply_misses = ColumnarLTC._apply_misses

        def spy(self, seq, start, offset, okey, opclass, at, *rest):
            rounds.append(len(at))
            return apply_misses(self, seq, start, offset, okey, opclass, at, *rest)

        alpha, beta = weights
        # Periods of at least 1024 events keep each call's dirty tail
        # above the segmented replay's entry size.
        period = max(1024, w * d * period_factor)
        config = LTCConfig(
            num_buckets=w, bucket_width=d, alpha=alpha, beta=beta,
            items_per_period=period, replacement_policy=policy,
        )
        events = bursty_churn(5 * period, spread * w * d, seed)
        registries = {}
        built = {}
        try:
            for name, cls in (("ltc", LTC), ("col", ColumnarLTC)):
                registries[name] = obs.enable(MetricsRegistry())
                built[name] = cls(config)
        finally:
            obs.disable()
        with mock.patch.object(ColumnarLTC, "_apply_misses", spy):
            for start in range(0, len(events), period):
                chunk = events[start : start + period]
                built["ltc"].insert_many(chunk)
                step = batch or len(chunk)
                for i in range(0, len(chunk), step):
                    built["col"].insert_many(chunk[i : i + step])
                for ltc in built.values():
                    ltc.end_period()
        assert rounds, "no round of the segmented replay ran"
        assert_identical(built["ltc"], built["col"])

        def counters(name):
            values = {
                m["name"]: m.get("value")
                for m in registries[name].snapshot()["metrics"]
            }
            return {
                key: (type(values[key]), values[key])
                for key in (
                    "ltc_significance_decrements_total",
                    "ltc_evictions_total",
                    "ltc_longtail_replacements_total",
                    "ltc_harvests_total",
                )
            }

        assert counters("ltc") == counters("col")


class TestFallbacks:
    def test_de_off_uses_scalar_path(self):
        """Without the Deviation Eliminator the harvest bit equals the
        set bit, so the batch reordering is unsound and the kernel must
        replay the whole batch scalar; results still match."""
        slow, col = run_pair(
            [random.Random(2).randrange(50) for _ in range(800)],
            4,
            deviation_eliminator=False,
        )
        assert col._vec
        assert_identical(slow, col)

    def test_oversized_key_disables_vectorization(self):
        """Keys outside uint64 fall back to scalar ingestion for good."""
        config = LTCConfig(
            num_buckets=2, bucket_width=4, alpha=1.0, beta=1.0,
            items_per_period=20,
        )
        ref, col = LTC(config), ColumnarLTC(config)
        events = [1, 2, 1 << 80, 2, 1, 1 << 80, 3]
        ref.insert_many(events)
        col.insert_many(events)
        assert not col._vec
        assert_identical(ref, col)
        # And it keeps working scalar afterwards.
        ref.insert_many([4, 5, 4])
        col.insert_many([4, 5, 4])
        assert_identical(ref, col)


class TestIndex:
    """The item→slot index behind the scalar paths, driven per event."""

    def test_index_consistency_after_heavy_churn(self):
        rng = random.Random(17)
        events = [rng.randrange(2_000) for _ in range(5_000)]
        _, col = run_pair(
            events, 10, per_event=True, num_buckets=4, bucket_width=2
        )
        # Every indexed slot really holds its item, and every occupied
        # cell is indexed.
        for item, slot in col._slot_of.items():
            assert col._keys[slot] == item
        occupied = {j for j, key in enumerate(col._keys) if key is not None}
        assert occupied == set(col._slot_of.values())

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
        assert len(col._slot_of) == 0
        col.insert(2)
        assert col.estimate(2) == (1, 0)


class TestDegradedMode:
    """A key the key column cannot hold, stored after the round kernel
    has run: the instance drops the column and replays scalar from then
    on, still equal to the reference LTC in cells, CLOCK state, the four
    kernel counters and the answers a listening ServingIndex serves."""

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
        registries = {}
        built = {}
        try:
            for name, cls in (("ltc", LTC), ("col", ColumnarLTC)):
                registries[name] = obs.enable(MetricsRegistry())
                built[name] = cls(config)
        finally:
            obs.disable()
        ref, col = built["ltc"], built["col"]
        indexes = {name: ServingIndex(ltc) for name, ltc in built.items()}
        rounds = []
        apply_misses = ColumnarLTC._apply_misses

        def spy(self, *args):
            rounds.append(1)
            return apply_misses(self, *args)

        events = bursty_churn(6 * 1024, 24 * 32 * 4, seed=7)
        # Enough repeats to kill the incumbent of the key's bucket, so the
        # key is stored mid-period.
        poisoned = events[: 3 * 1024] + [bad] * 40 + events[3 * 1024 :]
        with mock.patch.object(ColumnarLTC, "_apply_misses", spy):
            for start in range(0, len(poisoned), 1024):
                chunk = poisoned[start : start + 1024]
                ref.insert_many(chunk)
                if batched:
                    if bad in chunk:
                        # The round kernel ran before the bad key came.
                        assert rounds and col._vec
                    col.insert_many(chunk)
                else:
                    for item in chunk:
                        col.insert(item)
                ref.end_period()
                col.end_period()
        assert bad in col and not col._vec
        assert_identical(ref, col)

        def counters(name):
            values = {
                m["name"]: m.get("value")
                for m in registries[name].snapshot()["metrics"]
            }
            return {
                key: (type(values[key]), values[key])
                for key in (
                    "ltc_significance_decrements_total",
                    "ltc_evictions_total",
                    "ltc_longtail_replacements_total",
                    "ltc_harvests_total",
                )
            }

        assert counters("ltc") == counters("col")
        assert indexes["ltc"].top_k(20) == indexes["col"].top_k(20)
        assert indexes["col"].query(bad) == indexes["ltc"].query(bad)


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
        stream.run(ref, batched=True)
        stream.run(col, batched=True)
        return ref, col

    def test_checkpoint_roundtrip_continues_identically(self):
        ref, col = self.make_pair()
        restored = from_bytes(to_bytes(col), cls=ColumnarLTC)
        assert type(restored) is ColumnarLTC
        assert restored._vec
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
        assert col._vec
        assert (col._kcol == EMPTY_KEY).all()
        assert col._slot_of == {}
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
