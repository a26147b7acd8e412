"""Tests for :mod:`repro.sanitize`, the opt-in runtime invariant checker.

Three claims are pinned here:

1. **Detection** — deliberately corrupting each structure raises
   :class:`SanitizeError` naming the violated invariant, and the checker
   would have caught the historical ``persistency > frequency`` decrement
   bug *at the mutation site* (replayed via a subclass that restores the
   old decrement logic).
2. **Transparency** — a sanitized structure computes exactly the same
   states and estimates as an unsanitized one.
3. **Zero cost when off** — with sanitization disabled nothing is
   installed on the instance; the hot paths stay the plain class
   functions.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sanitize
from repro.core.columnar import ColumnarLTC
from repro.core.config import LTCConfig
from repro.core.ltc import EMPTY_KEY, LTC
from repro.core.windowed import WindowedLTC
from repro.sanitize import SanitizeError
from repro.summaries.heap import TopKHeap
from repro.summaries.space_saving import SpaceSaving
from tests.conftest import make_stream


def small_config(**kw) -> LTCConfig:
    kw.setdefault("num_buckets", 2)
    kw.setdefault("bucket_width", 4)
    return LTCConfig(**kw)


def filled_ltc(**kw) -> LTC:
    ltc = LTC(small_config(**kw))
    for item in [1, 2, 3, 1, 1, 2, 9, 9]:
        ltc.insert(item)
    ltc.end_period()
    return ltc


# ----------------------------------------------------------- enablement
def test_env_enabled_parsing(monkeypatch):
    for value in ("1", "true", "YES", " On "):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert sanitize.env_enabled(), value
    for value in ("", "0", "no", "off", "2"):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert not sanitize.env_enabled(), value
    monkeypatch.delenv("REPRO_SANITIZE")
    assert not sanitize.env_enabled()


def test_disabled_leaves_hot_paths_untouched():
    """Zero-cost-off: no wrapper, not even a flag branch, is installed."""
    ltc = LTC(small_config())
    for name in ("insert", "insert_many", "insert_timed", "end_period", "finalize"):
        assert name not in ltc.__dict__, name
    assert not hasattr(ltc, "_sanitize_installed")
    wltc = WindowedLTC(num_buckets=2, window=4)
    assert "insert" not in wltc.__dict__
    ss = SpaceSaving(capacity=4)
    assert "insert" not in ss.__dict__
    heap = TopKHeap(capacity=4)
    assert "offer" not in heap.__dict__


def test_install_ltc_installs_wrappers():
    ltc = LTC(small_config())
    sanitize.install_ltc(ltc)
    for name in ("insert", "insert_many", "insert_timed", "end_period", "finalize"):
        assert name in ltc.__dict__, name
    # Installation is idempotent: a second call must not re-wrap.
    wrapped = ltc.insert
    sanitize.install_ltc(ltc)
    assert ltc.insert is wrapped


def test_env_flag_installs_everywhere(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert "insert" in LTC(small_config()).__dict__
    assert "insert" in ColumnarLTC(small_config()).__dict__
    assert "insert" in WindowedLTC(num_buckets=2, window=4).__dict__
    assert "insert" in SpaceSaving(capacity=4).__dict__
    assert "offer" in TopKHeap(capacity=4).__dict__


# -------------------------------------------------- corruption detection
def invariant_of(excinfo) -> str:
    err = excinfo.value
    assert isinstance(err, SanitizeError)
    assert err.structure and err.invariant and err.detail
    assert err.invariant in str(err)
    return err.invariant


def tracked_slot(ltc: LTC) -> int:
    return next(cv.bucket * ltc._d + cv.slot for cv in ltc.cells() if not cv.empty)


def test_detects_persistency_exceeding_frequency():
    ltc = filled_ltc()
    j = tracked_slot(ltc)
    ltc._counters[j] = ltc._freqs[j] + 1
    with pytest.raises(SanitizeError) as excinfo:
        sanitize.check_ltc(ltc)
    assert invariant_of(excinfo) == "persistency_le_frequency"
    assert f"cell {j}" in excinfo.value.detail


def test_detects_pending_flag_credit():
    """The strong check counts un-harvested flags, so stranded credit is
    caught before the harvest that would materialise it."""
    ltc = filled_ltc(deviation_eliminator=True)
    j = tracked_slot(ltc)
    ltc._freqs[j] = 1
    ltc._counters[j] = 0
    ltc._flags[j] = 0b11
    with pytest.raises(SanitizeError) as excinfo:
        sanitize.check_ltc(ltc)
    assert invariant_of(excinfo) == "persistency_le_frequency"
    assert "pending" in excinfo.value.detail


def test_detects_flag_domain_violation():
    ltc = filled_ltc()
    ltc._flags[tracked_slot(ltc)] = 0b100
    with pytest.raises(SanitizeError) as excinfo:
        sanitize.check_ltc(ltc)
    assert invariant_of(excinfo) == "flag_domain"


def test_detects_dirty_empty_cell():
    ltc = filled_ltc()
    j = tracked_slot(ltc)
    ltc._keys[j] = EMPTY_KEY
    with pytest.raises(SanitizeError) as excinfo:
        sanitize.check_ltc(ltc)
    assert invariant_of(excinfo) == "empty_cell_zeroed"


def test_detects_clock_corruption():
    ltc = filled_ltc()
    ltc._clock.hand = ltc.total_cells + 5
    with pytest.raises(SanitizeError) as excinfo:
        sanitize.check_ltc(ltc)
    assert invariant_of(excinfo) == "clock_hand_in_range"


def test_detects_columnar_index_divergence():
    """A key moved out of its home bucket could never be found by a
    lookup: ``key_in_home_bucket`` names the cell."""
    col = ColumnarLTC(small_config())
    for item in [1, 2, 3, 1, 1]:
        col.insert(item)
    sanitize.check_ltc(col)  # healthy
    j = next(j for j, key in enumerate(col._keys) if key == 1)
    d = col._d
    other = (j // d + 1) % col._w * d  # a cell of the other bucket
    for cells in (col._keys, col._freqs, col._counters, col._flags):
        cells[j], cells[other] = cells[other], cells[j]
    with pytest.raises(SanitizeError) as excinfo:
        sanitize.check_ltc(col)
    assert invariant_of(excinfo) == "key_in_home_bucket"
    assert f"cell {other}" in excinfo.value.detail


@pytest.mark.parametrize("cell", ["occupied", "empty"])
def test_detects_columnar_key_column_divergence(cell):
    """A key written twice into its bucket's key column, over an
    occupied cell or into a free one, trips ``key_in_home_bucket``."""
    col = ColumnarLTC(small_config())
    for item in [1, 2, 3, 1, 1] if cell == "empty" else range(1, 20):
        col.insert(item)
    sanitize.check_ltc(col)  # healthy
    if cell == "occupied":
        key, j = col._keys[0], 1  # bucket 0 is full
        assert col._keys[j] != EMPTY_KEY
    else:
        key, home = next((k, j) for j, k in enumerate(col._keys) if k == 1)
        base = home - home % col._d
        j = next(j for j in range(base, base + col._d) if col._keys[j] == EMPTY_KEY)
        col._freqs[j] = 1
    col._keys[j] = key
    with pytest.raises(SanitizeError) as excinfo:
        sanitize.check_ltc(col)
    assert invariant_of(excinfo) == "key_in_home_bucket"
    assert "twice" in excinfo.value.detail


@pytest.mark.parametrize("kernel", [LTC, ColumnarLTC])
def test_home_bucket_invariant_holds_for_both_kernels(kernel):
    """The same check runs on the reference's key list and the columnar
    key column, on full-table and per-bucket scans."""
    ltc = kernel(small_config(num_buckets=8, bucket_width=2))
    ltc.insert_many(range(64))
    sanitize.check_ltc(ltc)
    j = next(j for j, key in enumerate(ltc._keys) if key != EMPTY_KEY)
    key = ltc._keys[j]
    other = (j // 2 + 1) % 8 * 2
    ltc._keys[j], ltc._keys[other] = ltc._keys[other], key
    with pytest.raises(SanitizeError) as excinfo:
        sanitize.check_ltc(ltc)
    assert invariant_of(excinfo) == "key_in_home_bucket"


@settings(max_examples=200, deadline=None)
@given(
    kernel=st.sampled_from([LTC, ColumnarLTC]),
    de=st.booleans(),
    persistency=st.booleans(),
    writes=st.lists(
        st.tuples(
            st.sampled_from(["_keys", "_freqs", "_counters", "_flags", "twin"]),
            st.integers(0, 15),
            st.integers(-2, 40),
        ),
        max_size=4,
    ),
)
def test_whole_table_scan_fails_as_the_per_cell_scan(kernel, de, persistency, writes):
    """The whole-table check runs in numpy, then re-runs the per-cell
    check where it found a fault: it must raise exactly what a per-cell
    scan of every cell raises, or nothing when that passes."""
    ltc = kernel(small_config(num_buckets=4, deviation_eliminator=de))
    ltc.insert_many([1, 2, 3, 1, 1, 2, 9, 9, *range(20, 40)])
    d = ltc._d
    for column, j, value in writes:
        if column == "twin":  # a key of the same bucket, held twice
            column, value = "_keys", ltc._keys[j - j % d + value % d]
        elif column == "_keys" and value < 0:
            value = EMPTY_KEY
        getattr(ltc, column)[j] = value % 256 if column == "_flags" else value

    def failure(**kw):
        try:
            sanitize.check_ltc(ltc, persistency=persistency, **kw)
        except SanitizeError as exc:
            return str(exc)
        return None

    assert failure() == failure(cells=range(ltc.total_cells))


def test_detects_windowed_ring_escape():
    wltc = WindowedLTC(num_buckets=2, window=4)
    for item in [1, 2, 1]:
        wltc.insert(item)
    sanitize.check_windowed(wltc)  # healthy
    j = next(j for j, key in enumerate(wltc._keys) if key is not None)
    wltc._rings[j] |= 1 << wltc.window  # bit outside the window mask
    with pytest.raises(SanitizeError) as excinfo:
        sanitize.check_windowed(wltc)
    assert invariant_of(excinfo) == "ring_in_window"


def test_detects_heap_property_violation():
    heap = TopKHeap(capacity=8)
    for item, value in enumerate([5.0, 3.0, 8.0, 1.0, 9.0, 2.0]):
        heap.offer(item, value)
    sanitize.check_heap(heap)  # healthy
    heap._values[0], heap._values[-1] = heap._values[-1], heap._values[0]
    with pytest.raises(SanitizeError) as excinfo:
        sanitize.check_heap(heap)
    assert invariant_of(excinfo) == "heap_property"


def test_detects_heap_position_map_drift():
    heap = TopKHeap(capacity=8)
    for item, value in enumerate([5.0, 3.0, 8.0]):
        heap.offer(item, value)
    heap._pos[0], heap._pos[1] = heap._pos[1], heap._pos[0]
    with pytest.raises(SanitizeError) as excinfo:
        sanitize.check_heap(heap)
    assert invariant_of(excinfo) == "position_map_matches"


def test_detects_stream_summary_corruption():
    ss = SpaceSaving(capacity=3)
    for item in [1, 2, 3, 1, 1, 4, 5, 2]:
        ss.insert(item)
    sanitize.check_space_saving(ss)  # healthy
    node = next(iter(ss._summary._nodes.values()))
    node.count += 1  # now disagrees with its bucket
    with pytest.raises(SanitizeError) as excinfo:
        sanitize.check_space_saving(ss)
    assert invariant_of(excinfo) == "node_in_count_bucket"


def test_checkpoint_round_trip_check_passes_on_healthy_ltc():
    sanitize.check_ltc_checkpoint(filled_ltc())
    sanitize.check_ltc_checkpoint(filled_ltc(deviation_eliminator=False))


# ------------------------------------------- the historical decrement bug
class OldDecrementLTC(LTC):
    """LTC with the pre-fix Significance Decrementing logic: the decrement
    charges frequency without reconciling pending (un-harvested) flag
    credit, which strands persistency credit the next harvest turns into
    ``persistency > frequency``."""

    def _decrement_smallest(self, item: int, base: int) -> None:
        d = self._d
        alpha, beta = self._alpha, self._beta
        freqs, counters = self._freqs, self._counters
        jmin = base
        smin = alpha * freqs[base] + beta * counters[base]
        for j in range(base + 1, base + d):
            s = alpha * freqs[j] + beta * counters[j]
            if s < smin:
                smin, jmin = s, j
        if counters[jmin] > 0:
            counters[jmin] -= 1
        if freqs[jmin] > 0:
            freqs[jmin] -= 1
        if alpha * freqs[jmin] + beta * counters[jmin] > 0:
            return
        self._keys[jmin] = item
        freqs[jmin] = 1
        counters[jmin] = 0
        self._flags[jmin] = self._set_bit


ROADMAP_EVENTS = [0, 0, 0, 4, 6, 8, 0, 0, 0, 1, 1, 4]


def test_sanitizer_catches_old_decrement_bug():
    """Replaying the ROADMAP repro against the old decrement logic with
    sanitization enabled fails at the mutation site — the sanitizer would
    have caught the historical bug long before the final estimates."""
    stream = make_stream(ROADMAP_EVENTS, num_periods=6)
    ltc = OldDecrementLTC(
        small_config(
            num_buckets=2,
            bucket_width=4,
            items_per_period=stream.period_length,
            replacement_policy="one",
        )
    )
    sanitize.install_ltc(ltc)
    with pytest.raises(SanitizeError) as excinfo:
        stream.run(ltc)
    assert invariant_of(excinfo) == "persistency_le_frequency"


def test_fixed_decrement_passes_same_stream():
    """The same stream through the fixed LTC sanitizes cleanly end to end."""
    stream = make_stream(ROADMAP_EVENTS, num_periods=6)
    ltc = LTC(
        small_config(
            num_buckets=2,
            bucket_width=4,
            items_per_period=stream.period_length,
            replacement_policy="one",
        )
    )
    sanitize.install_ltc(ltc)
    stream.run(ltc)
    assert ltc.estimate(1) == (1, 1)


# ------------------------------------------------------------ transparency
def test_sanitized_run_is_bit_identical_to_plain_run():
    rng = random.Random(0x5A17)
    for trial in range(25):
        events = [rng.randrange(10) for _ in range(rng.randrange(5, 80))]
        cfg = dict(
            num_buckets=2,
            bucket_width=4,
            items_per_period=max(1, len(events) // 4),
            replacement_policy="longtail" if trial % 2 else "one",
            deviation_eliminator=bool((trial // 2) % 2),
            seed=trial,
        )
        plain = LTC(small_config(**cfg))
        checked = LTC(small_config(**cfg))
        sanitize.install_ltc(checked)
        for event in events:
            plain.insert(event)
            checked.insert(event)
        plain.end_period()
        checked.end_period()
        assert list(plain.cells()) == list(checked.cells()), trial
        for item in set(events):
            assert plain.estimate(item) == checked.estimate(item)


def test_sanitized_batched_run_matches_plain():
    events = [3, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5] * 4
    plain = ColumnarLTC(small_config(items_per_period=8))
    checked = ColumnarLTC(small_config(items_per_period=8))
    sanitize.install_ltc(checked)
    plain.insert_many(events)
    checked.insert_many(events)
    plain.finalize()
    checked.finalize()
    assert list(plain.cells()) == list(checked.cells())


def test_sanitized_space_saving_matches_plain(monkeypatch):
    events = [1, 2, 3, 1, 1, 4, 5, 2, 6, 1, 7, 2] * 3
    plain = SpaceSaving(capacity=4)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    checked = SpaceSaving(capacity=4)
    assert "insert" in checked.__dict__
    for event in events:
        plain.insert(event)
        checked.insert(event)
    assert plain._summary.top(4) == checked._summary.top(4)
