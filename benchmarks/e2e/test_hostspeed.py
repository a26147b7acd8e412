"""Host speed factors from the sentinel's probes."""

from __future__ import annotations

import time

import pytest

from benchmarks.e2e import hostspeed

REF = hostspeed.REFERENCE_S


def _log(pairs):
    return hostspeed.ProbeLog([(t, f * REF) for t, f in pairs])


def test_an_interval_takes_the_median_probe_inside_it_plus_the_padding():
    pad = hostspeed.PAD_S
    log = _log([(10.0, 1.0), (10.5, 1.4), (10.6, 1.5), (10.7, 1.2), (11.0 + pad / 2, 9.0),
                (20.0, 1.0)])
    assert log.factor(10.4, 10.8) == pytest.approx(1.4)
    assert log.factor(10.4, 11.0) == pytest.approx(1.45)  # the padded probe counts
    assert log.scaled(10.4, 10.8) == pytest.approx(0.4 / 1.4)
    assert log.overall() == pytest.approx(1.3)


def test_an_interval_with_no_probe_near_takes_the_nearest():
    log = _log([(1.0, 1.1), (5.0, 1.6)])
    assert log.factor(1.5, 1.6) == pytest.approx(1.1)
    assert log.factor(4.0, 4.5) == pytest.approx(1.6)
    assert log.factor(9.0, 9.5) == pytest.approx(1.6)
    assert log.factor(0.0, 0.1) == pytest.approx(1.1)


def test_a_slow_host_scales_times_down_and_rates_up():
    log = _log([(t / 100, 1.5) for t in range(100)])
    took = 0.3
    assert log.scaled(0.2, 0.2 + took) == pytest.approx(took / 1.5)
    assert (1000 / took) * log.factor(0.2, 0.5) == pytest.approx(1000 / (took / 1.5))


def test_the_sentinel_probes_until_stopped():
    sentinel = hostspeed.Sentinel(None)
    began = time.perf_counter()
    time.sleep(0.2)
    log = sentinel.stop()
    assert sentinel.proc.returncode == 0
    assert len(log.times) >= 3
    assert all(t >= began - 1.0 for t in log.times)
    assert 0.1 < log.overall() < 10.0


def test_nothing_is_pinned_without_a_cpu():
    assert hostspeed.pin_to(None) is None
    with pytest.raises(ValueError):
        hostspeed.ProbeLog([])
