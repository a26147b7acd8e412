"""CU sketch: conservative update dominates Count-Min.

The batch paths (``update_many`` / ``update_and_query_many``) run the
sort-and-segment fixpoint kernel from ``_vectorized.py``; every test in
:class:`TestBatchKernel` pins them table-for-table (and answer-for-
answer) against a per-event replay, including the regimes the kernel
finds hardest: duplicate-heavy batches, width-1 total collision,
``delta`` > 1, and the forced non-convergence bail-out.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches import cu as cu_module
from repro.sketches.count_min import CountMinSketch
from repro.sketches.cu import CUSketch


class TestGuarantees:
    def test_never_underestimates(self, small_zipf, small_zipf_truth):
        sketch = CUSketch(width=256, rows=3)
        for item in small_zipf.events:
            sketch.update(item)
        for item in small_zipf_truth.items()[:400]:
            assert sketch.query(item) >= small_zipf_truth.frequency(item)

    def test_estimates_never_above_cm(self, small_zipf):
        """CU's estimate is pointwise ≤ CM's under identical hashing."""
        cm = CountMinSketch(width=128, rows=3, seed=7)
        cu = CUSketch(width=128, rows=3, seed=7)
        for item in small_zipf.events:
            cm.update(item)
            cu.update(item)
        for item in set(small_zipf.events[:1000]):
            assert cu.query(item) <= cm.query(item)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_sandwich_property(self, events):
        """true ≤ CU ≤ CM on any insert-only stream."""
        cm = CountMinSketch(width=16, rows=2, seed=3)
        cu = CUSketch(width=16, rows=2, seed=3)
        for item in events:
            cm.update(item)
            cu.update(item)
        for item, real in Counter(events).items():
            assert real <= cu.query(item) <= cm.query(item)


class TestBehaviour:
    def test_rejects_decrement(self):
        with pytest.raises(ValueError):
            CUSketch(width=8).update(1, delta=-1)

    def test_zero_delta_noop(self):
        sketch = CUSketch(width=8)
        sketch.update(1, delta=0)
        assert sketch.query(1) == 0

    def test_update_and_query(self):
        sketch = CUSketch(width=64)
        assert sketch.update_and_query(4) == 1
        assert sketch.update_and_query(4) == 2

    def test_delta_update(self):
        sketch = CUSketch(width=64)
        sketch.update(1, delta=5)
        assert sketch.query(1) == 5


def replay_pair(width=8, rows=2, seed=5):
    """Two identically-hashed sketches: one for the batch path, one for
    the per-event reference replay."""
    return (
        CUSketch(width=width, rows=rows, seed=seed),
        CUSketch(width=width, rows=rows, seed=seed),
    )


def assert_tables_equal(batched: CUSketch, scalar: CUSketch) -> None:
    assert [list(t) for t in batched._tables] == [
        list(t) for t in scalar._tables
    ]


class TestBatchKernel:
    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=300),
        st.integers(1, 3),
        st.integers(2, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_duplicate_heavy_batches_replay_identical(
        self, keys, rows, width
    ):
        """A 7-key universe over a tiny table maximises both same-key
        chains and cross-key collisions."""
        batched, scalar = replay_pair(width=width, rows=rows)
        batched.update_many(keys)
        for key in keys:
            scalar.update(key)
        assert_tables_equal(batched, scalar)

    @given(st.lists(st.integers(0, 10), min_size=1, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_width_one_total_collision(self, keys):
        """Width 1: every event chains on every other."""
        batched, scalar = replay_pair(width=1, rows=2)
        batched.update_many(keys)
        for key in keys:
            scalar.update(key)
        assert_tables_equal(batched, scalar)

    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=100),
        st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_update_and_query_many_answers(self, keys, delta):
        batched, scalar = replay_pair()
        got = batched.update_and_query_many(keys, delta=delta)
        expected = [scalar.update_and_query(key, delta) for key in keys]
        assert got == expected
        assert_tables_equal(batched, scalar)

    def test_chunk_boundary_replay_identical(self):
        """Batches larger than the kernel chunk commit chunk by chunk;
        the sequencing across the boundary must stay exact."""
        import random

        rng = random.Random(23)
        keys = [rng.randrange(9) for _ in range(2 * cu_module._CHUNK + 123)]
        batched, scalar = replay_pair(width=8, rows=2)
        answers = batched.update_and_query_many(keys)
        expected = [scalar.update_and_query(key) for key in keys]
        assert answers == expected
        assert_tables_equal(batched, scalar)

    def test_counts_with_delta(self):
        """Runs of one key (as an expanded count would give) at delta 3."""
        batched, scalar = replay_pair()
        keys = [1, 1, 2, 1, 1]
        batched.update_many(keys, delta=3)
        for key in keys:
            scalar.update(key, 3)
        assert_tables_equal(batched, scalar)

    def test_batch_rejects_negative_delta(self):
        sketch = CUSketch(width=8)
        with pytest.raises(ValueError):
            sketch.update_many([1], delta=-1)
        with pytest.raises(ValueError):
            sketch.update_and_query_many([1], delta=-1)

    def test_zero_delta_batch_is_query_only(self):
        sketch = CUSketch(width=8)
        sketch.update_many([1, 1, 2])
        before = [list(t) for t in sketch._tables]
        sketch.update_many([1, 2, 3], delta=0)
        answers = sketch.update_and_query_many([1, 2, 3], delta=0)
        assert answers == [sketch.query(k) for k in [1, 2, 3]]
        assert [list(t) for t in sketch._tables] == before

    def test_empty_batch(self):
        sketch = CUSketch(width=8)
        sketch.update_many([])
        assert sketch.update_and_query_many([]) == []

    def test_nonconvergence_falls_back_to_scalar(self, monkeypatch):
        """With the pass budget forced to zero the kernel must return
        None without touching the tables; the scalar replay then
        produces the exact sequential result anyway."""
        monkeypatch.setattr(cu_module, "_MAX_PASSES", 0)
        batched, scalar = replay_pair(width=4, rows=2)
        keys = [1, 2, 3, 1, 2, 3, 1, 2, 3, 4, 4, 4]
        assert batched._batch_targets(
            cu_module.as_key_array(keys),
            cu_module._np.ones(len(keys), dtype=cu_module._np.int64),
        ) is None
        assert all(not any(t) for t in batched._tables)
        batched.update_many(keys)
        answers = batched.update_and_query_many(keys)
        for key in keys:
            scalar.update(key)
        expected = [scalar.update_and_query(key) for key in keys]
        assert answers == expected
        assert_tables_equal(batched, scalar)
