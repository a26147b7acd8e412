"""Multi-core sharded ingestion (extension; scales the merging coordinator).

:class:`~repro.distributed.coordinator.MergingCoordinator` drives every
site sequentially in one process, so ingestion caps out at a single core
no matter how many sites the partition has.  This module adds the
process-parallel counterpart, built on **fork-inherited sites**:

* ``run(site_streams, k)`` already holds every site's events, so the
  workers are forked *after* the sites exist and read them from
  inherited memory — no batch crosses a pipe.  Worker *i* owns sites
  ``range(i, num_sites, num_workers)`` (on item-sharded partitions, a
  disjoint hash range of the key space), runs the sequential per-site
  loop on each, and sends back one ``{shard: to_bytes payload}``
  message.  Because shards are item-disjoint, the final
  :func:`repro.core.merge.merge` is a trivial concatenation of
  non-overlapping tables rather than a cell-wise reconciliation.
* On a platform without ``fork`` the same ``Process`` arguments are
  pickled to the child instead; there is one code path either way.

Each worker performs *exactly* the sequential per-site loop
(``PeriodicStream.run(ltc, batched=True)``), so the parallel answer is
differentially testable against the sequential coordinator — item for
item on item-sharded partitions (``tests/test_parallel.py``), crash
injection included.

Robustness: a worker death shows as end-of-file on its result pipe
before any payload arrived.  Only the dead worker is forked again, and
it reruns all of *its* shards; other workers never notice.  A worker
that keeps dying past ``max_retries`` re-forks raises
:class:`WorkerCrashError` naming its owned shards, and
``coordinator_worker_crashes_total`` counts exactly one increment per
actual death.  When ``max_workers=1`` (or the platform cannot host
worker processes at all) ingestion runs the same per-shard loop
in-process — bit-identical results, no processes.

``communication_bytes`` counts the summaries shipped back, as in the
sequential coordinator.
"""

from __future__ import annotations

import os
import time
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.context import BaseContext
    from multiprocessing.process import BaseProcess

from repro import obs
from repro.core.config import LTCConfig
from repro.core.kernels import build_ltc
from repro.core.ltc import LTC
from repro.core.merge import merge
from repro.core.serialize import from_bytes, to_bytes
from repro.distributed.coordinator import CoordinatorReport, _coordinator_timers
from repro.distributed.partition import partition_sharded
from repro.streams.model import PeriodicStream


class WorkerCrashError(RuntimeError):
    """Raised when a worker still crashes after every re-fork attempt.

    Args:
        shards: Indices of the shards owned by the repeatedly-dying
            worker (only these were affected; sibling workers' shards
            completed normally).
        max_retries: The re-fork budget that was exhausted.
        last_error: The final exception observed (kept as ``__cause__``
            context for debugging).
    """

    def __init__(
        self,
        shards: Sequence[int],
        max_retries: int,
        last_error: Optional[BaseException] = None,
    ) -> None:
        detail = f": {last_error}" if last_error is not None else ""
        super().__init__(
            f"shards {sorted(shards)} still failing after "
            f"{max_retries} retries{detail}"
        )
        self.shards = sorted(shards)
        self.max_retries = max_retries
        self.last_error = last_error


def worker_processes_available() -> bool:
    """Whether this platform can host worker processes at all."""
    try:
        import multiprocessing

        return bool(multiprocessing.get_all_start_methods())
    except (ImportError, NotImplementedError):  # pragma: no cover
        return False


class _Counts(Protocol):
    """Anything inc()-able: a live counter or the null metric."""

    def inc(self, amount: float = 1) -> None: ...


def _mp_context() -> "BaseContext":
    """Prefer fork: workers then inherit the sites instead of unpickling them."""
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()  # pragma: no cover - non-fork


def ingest_shard(
    config: LTCConfig,
    stream: PeriodicStream,
    crash_after: Optional[int] = None,
) -> bytes:
    """Run one shard's stream through a fresh LTC and serialize it.

    Exactly the sequential coordinator's per-site loop
    (``stream.run(ltc, batched=True)``), so the returned :func:`to_bytes`
    payload is bit-identical to the summary the sequential path builds.

    Args:
        config: The per-site configuration (``items_per_period`` already
            set to the shard's period length).
        stream: The shard's periodic stream.
        crash_after: Fault-injection hook for the retry tests — the
            worker hard-exits (as if killed) after ingesting this many
            periods.  ``None`` disables injection.
    """
    ltc = build_ltc(config)
    for index, period in enumerate(stream.iter_periods()):
        if index == crash_after:
            os._exit(13)  # simulate a hard worker death mid-run
        ltc.insert_many(period)
        ltc.end_period()
    ltc.finalize()
    return to_bytes(ltc)


def _worker_main(
    conn: "Connection",
    jobs: Sequence[Tuple[int, LTCConfig, PeriodicStream]],
    crash_spec: Dict[int, int],
) -> None:  # pragma: no cover - runs in the worker process
    """Worker process entry point: ingest every owned shard, send once."""
    conn.send(
        {
            shard: ingest_shard(config, stream, crash_spec.get(shard))
            for shard, config, stream in jobs
        }
    )
    conn.close()


class _ShardWorker:
    """Parent-side handle for one worker: its shards, process and pipe."""

    def __init__(
        self,
        worker_id: int,
        jobs: Sequence[Tuple[int, LTCConfig, PeriodicStream]],
        ctx: "BaseContext",
    ) -> None:
        self.worker_id = worker_id
        self.jobs = list(jobs)
        self.shards = [shard for shard, _, _ in self.jobs]
        self.attempts = 0
        self._ctx = ctx
        self.proc: Optional["BaseProcess"] = None
        self.conn: Optional["Connection"] = None

    def fork(self, crash_spec: Dict[int, int]) -> None:
        """(Re)start the worker process on all of its shards."""
        self.shutdown()
        reader, writer = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(writer, self.jobs, crash_spec),
            name=f"repro-shard-worker-{self.worker_id}",
            daemon=True,
        )
        proc.start()
        # Only the child may hold the write end, so its death is EOF here.
        writer.close()
        self.proc = proc
        self.conn = reader

    def receive(self) -> Dict[int, bytes]:
        """Read the worker's payloads, then reap it; ``EOFError`` if it died."""
        assert self.conn is not None and self.proc is not None
        try:
            payloads: Dict[int, bytes] = self.conn.recv()
        except EOFError:
            self.proc.join()
            raise EOFError(
                f"worker {self.worker_id} exited with code "
                f"{self.proc.exitcode}"
            ) from None
        self.proc.join()
        return payloads

    def shutdown(self) -> None:
        """Reap the process and close the pipe (parent ``finally``)."""
        if self.proc is not None:
            if self.proc.is_alive():
                self.proc.terminate()
            self.proc.join(timeout=10)
            self.proc = None
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class ParallelMergingCoordinator:
    """Drive the merging coordinator's sites in forked worker processes.

    Drop-in alongside :class:`~repro.distributed.coordinator.MergingCoordinator`:
    same constructor shape, same ``run(site_streams, k)`` signature, and —
    by construction — the same report for the same inputs (workers run the
    identical batched per-site loop; merging is unchanged).  The report
    additionally carries ``worker_crashes``.

    Args:
        config: The LTC configuration every site instantiates
            (``items_per_period`` is overridden per site, as in the
            sequential coordinator).
        max_workers: Worker process count; ``None`` means
            ``os.cpu_count()``.  ``1`` skips processes entirely and
            ingests in-process.
        max_retries: Re-fork budget per worker.  A worker that dies is
            forked again and reruns all of its shards, up to this many
            times; exhaustion raises :class:`WorkerCrashError`.
    """

    def __init__(
        self,
        config: LTCConfig,
        max_workers: Optional[int] = None,
        max_retries: int = 2,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.config = config
        self.max_workers = max_workers
        self.max_retries = max_retries
        # Fault-injection plan (testing hook): shard index -> number of
        # owning-worker forks that crash after ingesting half the
        # shard's periods.
        self._crash_plan: Dict[int, int] = {}
        self._worker_crashes = 0

    def run(
        self, site_streams: Sequence[PeriodicStream], k: int
    ) -> CoordinatorReport:
        """Drive every site in parallel and produce the merged answer."""
        if not site_streams:
            raise ValueError("no site streams to run")
        num_periods = max(s.num_periods for s in site_streams)
        site_timer, merge_timer = _coordinator_timers()
        payloads = self._ingest(site_streams)
        summaries: List[LTC] = []
        for payload in payloads:
            started = time.perf_counter()
            summaries.append(from_bytes(payload))
            if site_timer is not None:
                # Parallel sites build concurrently in workers; the
                # parent-side cost per site is the restore, so that is
                # what this engine contributes to the shared series.
                site_timer.observe(time.perf_counter() - started)
        communication = sum(len(payload) for payload in payloads)
        started = time.perf_counter()
        merged = merge(summaries, num_periods=num_periods, check_period=False)
        if merge_timer is not None:
            merge_timer.observe(time.perf_counter() - started)
        return CoordinatorReport(
            top_k=[(r.item, r.significance) for r in merged.top_k(k)],
            communication_bytes=communication,
            num_sites=len(site_streams),
            worker_crashes=self._worker_crashes,
        )

    # ------------------------------------------------------------ ingestion
    def _ingest(self, site_streams: Sequence[PeriodicStream]) -> List[bytes]:
        jobs = [
            (
                shard,
                self.config.with_options(items_per_period=stream.period_length),
                stream,
            )
            for shard, stream in enumerate(site_streams)
        ]
        self._worker_crashes = 0
        workers = self.max_workers or os.cpu_count() or 1
        if workers == 1 or not worker_processes_available():
            # Same per-shard loop, no processes.  Fault injection is
            # process-only — it would kill the parent here.
            return [ingest_shard(config, stream) for _, config, stream in jobs]
        return self._run_workers(jobs, min(workers, len(jobs)))

    def _run_workers(
        self,
        jobs: List[Tuple[int, LTCConfig, PeriodicStream]],
        num_workers: int,
    ) -> List[bytes]:
        from multiprocessing.connection import wait

        crash_counter: Optional[_Counts] = None
        retry_counter: Optional[_Counts] = None
        if obs.is_enabled():
            reg = obs.registry()
            crash_counter = reg.counter(
                "coordinator_worker_crashes_total",
                "Worker processes that died mid-run (one increment per "
                "actual death)",
            )
            retry_counter = reg.counter(
                "coordinator_worker_retries_total",
                "Shard ingestions rerun by a re-forked worker",
            )

        def crash_spec(worker: _ShardWorker) -> Dict[int, int]:
            return {
                shard: jobs[shard][2].num_periods // 2
                for shard in worker.shards
                if worker.attempts < self._crash_plan.get(shard, 0)
            }

        ctx = _mp_context()
        workers = [
            _ShardWorker(worker_id, jobs[worker_id::num_workers], ctx)
            for worker_id in range(num_workers)
        ]
        payloads: Dict[int, bytes] = {}
        try:
            for worker in workers:
                worker.fork(crash_spec(worker))
            # Keyed by result pipe; ``wait`` returns the readable ones.
            pending: Dict[Any, _ShardWorker] = {
                worker.conn: worker for worker in workers
            }
            while pending:
                for conn in wait(list(pending)):
                    worker = pending.pop(conn)
                    try:
                        payloads.update(worker.receive())
                    except EOFError as death:
                        self._worker_crashes += 1
                        if crash_counter is not None:
                            crash_counter.inc()
                        worker.attempts += 1
                        if worker.attempts > self.max_retries:
                            raise WorkerCrashError(
                                worker.shards, self.max_retries, death
                            ) from death
                        if retry_counter is not None:
                            retry_counter.inc(len(worker.shards))
                        worker.fork(crash_spec(worker))
                        pending[worker.conn] = worker
        finally:
            for worker in workers:
                worker.shutdown()
        return [payloads[shard] for shard in range(len(jobs))]


class ShardedPipeline:
    """Single-stream multi-core ingestion: hash-shard, ingest, merge.

    Hash-partitions one logical stream into item-sharded per-worker
    streams (all of an item's arrivals land on one shard, the regime
    where merging is exact) and drives them through a
    :class:`ParallelMergingCoordinator` — each worker owns a fixed slice
    of the key space for the whole run.

    Args:
        config: The LTC configuration each shard instantiates
            (``items_per_period`` is overridden per shard).
        num_shards: Shard count; defaults to ``max_workers`` (or the CPU
            count when that is also unset).
        max_workers: Worker process count; ``None`` means ``os.cpu_count()``.
        max_retries: Crash re-fork budget, as in the coordinator.
        seed: Item-shard hash seed (must be shared to reproduce a split).
    """

    def __init__(
        self,
        config: LTCConfig,
        num_shards: Optional[int] = None,
        max_workers: Optional[int] = None,
        max_retries: int = 2,
        seed: int = 0xD15C,
    ) -> None:
        if num_shards is not None and num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        workers = max_workers or os.cpu_count() or 1
        self.num_shards = num_shards if num_shards is not None else workers
        self.seed = seed
        self.coordinator = ParallelMergingCoordinator(
            config, max_workers=max_workers, max_retries=max_retries
        )

    def run(self, stream: PeriodicStream, k: int) -> CoordinatorReport:
        """Shard ``stream``, ingest every shard in parallel, and merge."""
        shards = partition_sharded(stream, self.num_shards, seed=self.seed)
        return self.coordinator.run(shards, k)
