"""Run summaries over periodic streams and score them against the oracle."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

from repro import obs
from repro.metrics.accuracy import (
    average_absolute_error,
    average_relative_error,
    precision,
)
from repro.streams.ground_truth import GroundTruth
from repro.streams.model import PeriodicStream


@dataclass(frozen=True)
class EvalResult:
    """Accuracy of one summary on one workload."""

    name: str
    k: int
    precision: float
    are: float
    aae: float

    def row(self) -> "tuple[str, str, str, str]":
        """The result formatted as table cells."""
        return (
            self.name,
            f"{self.precision:.3f}",
            f"{self.are:.3g}",
            f"{self.aae:.3g}",
        )


def evaluate(
    summary: Any,
    truth: GroundTruth,
    k: int,
    alpha: float,
    beta: float,
    name: str = "summary",
) -> EvalResult:
    """Score an already-populated summary against the exact oracle.

    Precision follows the paper's definition |φ∩ψ|/k; ARE/AAE are computed
    over the reported items against their *real* significance.
    """
    exact = truth.top_k_items(k, alpha, beta)
    reported = summary.reported_pairs(k)

    def true_sig(item: int) -> float:
        return truth.significance(item, alpha, beta)

    return EvalResult(
        name=name,
        k=k,
        precision=precision((item for item, _ in reported), exact),
        are=average_relative_error(reported, true_sig),
        aae=average_absolute_error(reported, true_sig),
    )


def _run_metered(
    summary: Any,
    stream: PeriodicStream,
    truth: GroundTruth,
    k: int,
    alpha: float,
    beta: float,
    name: str,
) -> None:
    """Drive ``summary`` period by period, recording recall/ARE series.

    Call for call this is ``stream.run(summary)`` (``insert_many`` per
    period, ``end_period`` at each boundary, ``finalize`` at the end),
    so the final report is identical to the unmetered path — the extra
    work is only the per-boundary top-k probe.  After every boundary the
    current report is scored against the *final* oracle: recall
    (|reported ∩ exact|/k, the paper's precision) lands in the
    ``runner_period_recall`` histogram and the running ARE in
    ``runner_period_are``, both labelled with the summary's name, giving
    exporters the convergence series FDCMSS/BPTree-style evaluations
    plot.
    """
    reg = obs.registry()
    labels = {"summary": name}
    recall_series = reg.histogram(
        "runner_period_recall",
        "Recall of the final top-k oracle achieved at each period boundary",
        buckets=obs.DEFAULT_RATIO_BUCKETS,
        labels=labels,
    )
    are_series = reg.histogram(
        "runner_period_are",
        "Average relative error of the report at each period boundary",
        buckets=obs.DEFAULT_RATIO_BUCKETS,
        labels=labels,
    )
    recall_gauge = reg.gauge(
        "runner_last_recall", "Recall at the most recent boundary", labels=labels
    )
    are_gauge = reg.gauge(
        "runner_last_are", "ARE at the most recent boundary", labels=labels
    )
    exact = truth.top_k_items(k, alpha, beta)
    insert_many = summary.insert_many
    end_period = getattr(summary, "end_period", None)
    for period in stream.iter_periods():
        insert_many(period)
        if end_period is not None:
            end_period()
        reported = summary.reported_pairs(k)
        recall = precision((item for item, _ in reported), exact)
        are = average_relative_error(
            reported, lambda item: truth.significance(item, alpha, beta)
        )
        recall_series.observe(recall)
        are_series.observe(are)
        recall_gauge.set(recall)
        are_gauge.set(are)
    finalize = getattr(summary, "finalize", None)
    if finalize is not None:
        finalize()


def run_and_evaluate(
    factories: Dict[str, Callable[[], object]],
    stream: PeriodicStream,
    k: int,
    alpha: float,
    beta: float,
    truth: GroundTruth | None = None,
) -> "list[EvalResult]":
    """Build, run and score every summary in ``factories``.

    With observability on (:func:`repro.obs.enable`), each summary is
    additionally scored at every period boundary and the per-period
    recall/ARE series land in the active registry (see
    :func:`_run_metered`); the returned results are identical either way.

    Args:
        factories: ``name -> zero-arg factory`` map; each factory builds a
            fresh summary that the stream is then driven through.
        stream: The workload.
        k: Top-k size.
        alpha: Frequency weight of the significance target.
        beta: Persistency weight.
        truth: Pre-computed oracle (recomputed when omitted — pass it when
            sweeping many configurations over one stream).
    """
    truth = truth or GroundTruth(stream)
    results = []
    for name, factory in factories.items():
        summary = factory()
        if obs.is_enabled():
            _run_metered(summary, stream, truth, k, alpha, beta, name)
        else:
            stream.run(summary)
        results.append(evaluate(summary, truth, k, alpha, beta, name=name))
    return results
