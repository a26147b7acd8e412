"""Smoke test for ``benchmarks/profile_hotspots.py``.

The script times the columnar ingest phases by wrapping ColumnarLTC
methods by name, so a rename in the kernel would silently report an
empty phase.  A tiny batched sweep must give every phase some calls.
"""

from __future__ import annotations

import re

from benchmarks import profile_hotspots
from repro.core import columnar


def test_columnar_phases_all_report_calls(capsys):
    argv = ["--batched", "--kernel", "columnar", "--events", "20000", "--top", "1"]
    assert profile_hotspots.main(argv) == 0
    out = capsys.readouterr().out
    calls = {}
    for phase, _ in profile_hotspots._PHASES:
        row = re.search(rf"^\s+{re.escape(phase)}\s+(\d+)\s", out, re.MULTILINE)
        assert row is not None, f"phase {phase} missing from the report"
        calls[phase] = int(row.group(1))
    assert all(calls.values()), calls
    # The wrappers are removed again after the run.
    for _, methods in profile_hotspots._PHASES:
        for method in methods:
            assert getattr(columnar.ColumnarLTC, method).__qualname__.startswith(
                "ColumnarLTC."
            )
