"""``POST /ingest`` checks and packs its keys once, in C.

The compiled module's ``pack_keys`` replaced two Python passes over the
decoded lists (exact types, then the key range) and the expansion of
``counts`` into arrivals in Python.  The oracle below is those passes as
they were; for any decoded body the served answer must be the same 400
or 413 text, or the same queued keys.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ckernel
from repro.core.config import LTCConfig
from repro.core.kernels import KERNELS, build_ltc
from repro.core.serialize import MAX_KEY
from repro.serve import server
from repro.serve.server import ServingApp

#: Small enough that an accepted body's expansion stays small.
CAP = 64

HUGE = 10**4999  # 5000 digits


def old_checks(items, counts, cap):
    """The ingest checks before ``pack_keys``: ``(status, error)`` for a
    refused body, else ``(200, keys)`` with ``counts`` expanded."""
    if not set(map(type, items)) <= {int}:
        return 400, "items must be integers"
    if items and (min(items) < 0 or max(items) > MAX_KEY):
        return 400, f"items must lie in [0, {MAX_KEY}]"
    if counts is not None and not (
        set(map(type, counts)) <= {int} and min(counts, default=0) >= 0
    ):
        return 400, "counts must be non-negative integers"
    if counts is not None and sum(counts) > cap:
        return 413, "too many events"
    if counts is None:
        return 200, items
    return 200, [item for item, count in zip(items, counts) for _ in range(count)]


@contextmanager
def any_int_digits():
    """Lift the int/str digit limit, so 5000-digit ints round-trip JSON."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def served(kernel, doc, cap=CAP):
    """``(status, error)`` or ``(200, queued keys)`` from a fresh app."""
    app = ServingApp(build_ltc(LTCConfig(num_buckets=4, bucket_width=2,
                                         items_per_period=16, kernel=kernel)))
    with mock.patch.object(server, "_MAX_EVENTS", cap), any_int_digits():
        status, _, payload = app.respond("POST", "/ingest", json.dumps(doc).encode())
    answer = json.loads(payload)
    if status != 200:
        assert app.queued == 0 and app._queue.empty()
        return status, answer["error"]
    keys = np.asarray(app._queue.get_nowait()).tolist()
    assert app._queue.empty()
    assert answer == {"queued": len(keys), "pending": len(keys)}
    return status, keys


non_ints = st.one_of(
    st.booleans(), st.none(), st.floats(allow_nan=False), st.text(max_size=2)
)
keys = st.one_of(
    st.integers(0, 40),
    st.integers(0, 2**64),
    st.integers(-(2**70), 2**70),
    st.sampled_from([-1, MAX_KEY, MAX_KEY + 1, 2**63, 2**64, HUGE, -HUGE]),
    non_ints,
)
counts = st.one_of(
    st.integers(0, 4),
    st.sampled_from([
        -1, CAP, CAP + 1, CAP // 2 + 1, 2**63, MAX_KEY, MAX_KEY + 1, 2**64, HUGE,
    ]),
    non_ints,
)


@st.composite
def bodies(draw):
    items = draw(st.lists(keys, max_size=6))
    doc = {"items": items}
    if draw(st.booleans()):
        doc["counts"] = draw(st.lists(counts, min_size=len(items), max_size=len(items)))
    return doc


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@given(doc=bodies())
@settings(max_examples=300, deadline=None)
def test_ingest_matches_the_python_checks(kernel, doc):
    assert served(kernel, doc) == old_checks(doc["items"], doc.get("counts"), CAP)


@given(items=st.lists(keys, max_size=8))
@settings(max_examples=300, deadline=None)
def test_pack_keys_matches_the_python_checks(items):
    status, expect = old_checks(items, None, CAP)
    pack_keys = ckernel.load().pack_keys
    if status == 200:
        packed = pack_keys(items)
        assert packed.format == "Q" and packed.tolist() == expect
    else:
        error = TypeError if expect == "items must be integers" else ValueError
        with pytest.raises(error):
            pack_keys(items)


@pytest.mark.parametrize(
    "counts",
    [
        [server._MAX_EVENTS // 2 + 1] * 2 + [0],  # each fits, the sum does not
        [2**63, 2**63, 0],  # a uint64 sum would wrap to 0
        [MAX_KEY] * 3,
        [MAX_KEY + 1, 0, 0],
        [0, 2**64, 1],
        [HUGE, 1, 1],
    ],
    ids=["sum", "wrap", "max-key", "past-max-key", "2**64", "5000-digits"],
)
def test_counts_past_a_maximal_body_are_413_before_expanding(counts, monkeypatch):
    expanded = []
    monkeypatch.setattr(np, "repeat", lambda *a: expanded.append(a))
    items = [1, 2, 3]
    assert served("columnar", {"items": items, "counts": counts},
                  cap=server._MAX_EVENTS) == (413, "too many events")
    assert old_checks(items, counts, server._MAX_EVENTS)[0] == 413
    assert not expanded


def test_a_type_error_wins_over_a_range_error():
    # As the old passes: every item's type is checked before any range.
    for items in ([-1, True], [2**64, 1.5], [HUGE, None]):
        assert served("columnar", {"items": items}) == (400, "items must be integers")
    doc = {"items": [1, 2], "counts": [2**64, "x"]}
    assert served("columnar", doc) == (400, "counts must be non-negative integers")
    doc = {"items": [1, 2], "counts": [2**64, -1]}
    assert served("columnar", doc) == (400, "counts must be non-negative integers")
