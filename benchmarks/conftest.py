"""Shared benchmark fixtures: scaled paper workloads and reporting.

Every benchmark regenerates one figure of the paper's evaluation (see
DESIGN.md §5): it runs the same sweep the figure plots, prints the series
as an ASCII table, writes it to ``benchmarks/results/``, asserts the
paper's qualitative shape, and is timed end-to-end by pytest-benchmark
(``pedantic`` with a single round — an experiment is its own unit of work).

Scale: streams are ~25–60k events (paper: 1.5–10M) and memory budgets are
scaled by the same factor, which preserves the cells-per-distinct-item
operating points that determine who wins (DESIGN.md §3).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.plotting import series_grid
from repro.experiments.report import format_table
from repro.streams.datasets import caida_like, network_like, social_like
from repro.streams.ground_truth import GroundTruth

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Figures already written this session: a figure's first write truncates
#: its file and later ones append, so a rerun reproduces the file exactly.
_WRITTEN: set[str] = set()


@pytest.fixture(scope="session")
def bench_caida():
    stream = caida_like(num_events=40_000, num_distinct=10_000, num_periods=40)
    return stream, GroundTruth(stream)


@pytest.fixture(scope="session")
def bench_network():
    stream = network_like(num_events=40_000, num_distinct=12_000, num_periods=50)
    return stream, GroundTruth(stream)


@pytest.fixture(scope="session")
def bench_social():
    stream = social_like(num_events=25_000, num_distinct=5_000, num_periods=25)
    return stream, GroundTruth(stream)


@pytest.fixture(scope="session")
def datasets(bench_caida, bench_network, bench_social):
    return {
        "caida": bench_caida,
        "network": bench_network,
        "social": bench_social,
    }


def _write(figure: str, text: str) -> None:
    """Persist ``text`` under benchmarks/results/: afresh on the figure's
    first write in this session, appended after that."""
    RESULTS_DIR.mkdir(exist_ok=True)
    mode = "a" if figure in _WRITTEN else "w"
    _WRITTEN.add(figure)
    with (RESULTS_DIR / f"{figure}.txt").open(mode) as fh:
        fh.write(text + "\n\n")


def emit(figure: str, headers, rows, title: str) -> str:
    """Print a figure's series and persist it under benchmarks/results/."""
    table = format_table(headers, rows, title=title)
    print(f"\n{table}")
    _write(figure, table)
    return table


def emit_chart(figure, x_labels, series, title, log_scale=False) -> str:
    """Render a sweep as a text chart next to its table (shape at a
    glance in CI logs)."""
    chart = series_grid(
        x_labels, series, height=8, title=title, log_scale=log_scale
    )
    print(f"\n{chart}")
    _write(figure, chart)
    return chart


def once(benchmark, func, *args, **kwargs):
    """Time ``func`` exactly once (an experiment run is the unit)."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
