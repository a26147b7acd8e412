"""Multi-core sharded ingestion (extension; scales the merging coordinator).

:class:`~repro.distributed.coordinator.MergingCoordinator` drives every
site sequentially in one process, so ingestion caps out at a single core
no matter how many sites the partition has.  This module adds the
process-parallel counterpart, built around **persistent key-space-sharded
workers**:

* Each worker process is spawned **once per run** and owns a disjoint
  subset of the shards (and therefore — on item-sharded partitions — a
  disjoint hash range of the key space) for the whole run.  The parent
  streams period batches to the owners period-by-period and collects each
  worker's finished :func:`repro.core.serialize.to_bytes` summaries once
  at the end.  Because shards are item-disjoint, the final
  :func:`repro.core.merge.merge` is a trivial concatenation of
  non-overlapping tables rather than a cell-wise reconciliation.
* Batches travel through a :class:`~repro.distributed.transport.ShmRing`
  — a shared-memory ring of ``int64`` slots the worker inherited via
  ``fork`` — so the pipe carries only tiny control tuples and
  ``ingest_ipc_bytes`` drops to near zero.  When shm/fork is
  unavailable (or ``transport="pickle"`` is forced), batches fall back to
  pickled chunks over the pipe, acknowledged in lockstep so a dead reader
  can never wedge the parent mid-``send``.  Oversized batches spill to
  the same pickle path per batch.

Each worker performs *exactly* the sequential per-site loop
(``insert_many`` + ``end_period`` per period, ``finalize`` at the end),
so the parallel answer is differentially testable against the sequential
coordinator — item for item on item-sharded partitions
(``tests/test_parallel.py``), crash injection included.

Robustness: worker deaths are detected per process via its ``sentinel``
(not via pool teardown, which used to blame every in-flight shard for one
crash).  Only the dead worker is respawned, and only *its* shards are
replayed from period zero; other workers never notice.  A worker that
keeps dying past ``max_retries`` respawns raises
:class:`WorkerCrashError` naming its owned shards, and
``coordinator_worker_crashes_total`` counts exactly one increment per
actual death.  When ``max_workers=1`` (or the platform cannot host
worker processes at all) ingestion gracefully falls back to in-process
execution of the same per-shard loop — bit-identical results, no
processes, no IPC.

Communication accounting covers both directions:
``communication_bytes`` (summaries shipped back, as in the sequential
coordinator) and ``ingest_ipc_bytes`` (bytes the parent actually wrote
to worker pipes).  Every outbound message is serialised exactly once by
:func:`dumps_ipc` and that same payload is both shipped and counted.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Deque,
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
from repro.distributed.transport import ShmRing, shm_available
from repro.streams.model import PeriodicStream

# Pickle-path chunk size: small enough that one chunk (the only
# unacknowledged message in flight on that path) always fits in the OS
# pipe buffer, so `send_bytes` never blocks against a dead reader.
_PICKLE_CHUNK_ITEMS = 2048

_TRANSPORTS = ("auto", "shm", "pickle")


class WorkerCrashError(RuntimeError):
    """Raised when a worker still crashes after every respawn attempt.

    Args:
        shards: Indices of the shards owned by the repeatedly-dying
            worker (only these were affected; sibling workers' shards
            completed normally).
        max_retries: The respawn budget that was exhausted.
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


# Backwards-compatible alias from the pool-based implementation.
process_pool_available = worker_processes_available


def dumps_ipc(message: object) -> bytes:
    """Serialise one coordinator→worker message — exactly once.

    The single chokepoint for parent→worker bytes: callers ship the
    returned payload verbatim *and* add its length to
    ``ingest_ipc_bytes``, so nothing is ever pickled a second time just
    for accounting (the pool-based implementation re-pickled every job
    purely to measure it).
    """
    return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


class _Counts(Protocol):
    """Anything inc()-able: a live counter or the null metric."""

    def inc(self, amount: float = 1) -> None: ...


class _WorkerDied(RuntimeError):
    """Internal: a worker process died mid-conversation."""

    def __init__(self, worker_id: int, cause: BaseException) -> None:
        super().__init__(f"worker {worker_id} died: {cause}")
        self.worker_id = worker_id
        self.cause = cause


def _mp_context() -> "BaseContext":
    """Prefer fork (cheap on Linux, required for shm inheritance)."""
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()  # pragma: no cover - non-fork


def ingest_shard(
    config: LTCConfig,
    batches: Sequence[Sequence[int]],
    crash_after: Optional[int] = None,
) -> bytes:
    """Replay one shard's period batches into a fresh LTC.

    Performs exactly the sequential coordinator's per-site loop
    (``PeriodicStream.run(ltc, batched=True)`` unrolled over the
    batches), so the returned :func:`to_bytes` payload is bit-identical
    to the summary the sequential path would have built.  Used directly
    by the in-process fallback; the persistent workers run the same loop
    incrementally as batches arrive.

    Args:
        config: The per-site configuration (``items_per_period`` already
            set to the shard's period length).
        batches: One list of arrivals per period, in period order.
        crash_after: Fault-injection hook for the retry tests — the
            worker hard-exits (as if killed) after ingesting this many
            periods.  ``None`` disables injection.
    """
    ltc = build_ltc(config)
    insert_many = ltc.insert_many
    end_period = ltc.end_period
    for index, batch in enumerate(batches):
        if crash_after is not None and index >= crash_after:
            os._exit(13)  # simulate a hard worker death mid-run
        insert_many(batch)
        end_period()
    ltc.finalize()
    return to_bytes(ltc)


class _WorkerState:
    """Worker-side shard sessions (the logic inside ``_worker_main``).

    Factored out of the process entry point so the message protocol is
    unit-testable in-process: feed it parent messages, check the replies.
    One LTC per owned shard; batches arrive either as ring slots
    (``"b"``) or pickled chunks (``"c"``), and ``"f"`` finalizes every
    shard and returns the serialized summaries.
    """

    def __init__(
        self,
        jobs: Sequence[Tuple[int, LTCConfig]],
        ring: Optional[ShmRing],
        crash_spec: Dict[int, int],
    ) -> None:
        self._ltcs: Dict[int, LTC] = {
            shard: build_ltc(config) for shard, config in jobs
        }
        self._periods: Dict[int, int] = {shard: 0 for shard, _ in jobs}
        self._pending: Dict[int, List[int]] = {shard: [] for shard, _ in jobs}
        self._ring = ring
        self._crash_spec = crash_spec

    def handle(self, message: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """Process one parent message and return the reply to send."""
        kind = message[0]
        if kind == "b":  # ring batch: (kind, shard, slot, length)
            _, shard, slot, length = message
            if self._ring is None:
                raise RuntimeError("ring batch received without a ring")
            items = self._ring.read_list(slot, length)
            self._ingest(shard, items)
            return ("a", slot)
        if kind == "c":  # pickled chunk: (kind, shard, items, final)
            _, shard, items, final = message
            self._pending[shard].extend(items)
            if final:
                batch = self._pending[shard]
                self._pending[shard] = []
                self._ingest(shard, batch)
            return ("a", None)
        if kind == "f":  # finish: finalize and return all summaries
            payloads: Dict[int, bytes] = {}
            for shard in sorted(self._ltcs):
                ltc = self._ltcs[shard]
                ltc.finalize()
                payloads[shard] = to_bytes(ltc)
            return ("s", payloads)
        raise RuntimeError(f"unknown worker message kind: {kind!r}")

    def _ingest(self, shard: int, items: List[int]) -> None:
        crash_after = self._crash_spec.get(shard)
        if crash_after is not None and self._periods[shard] >= crash_after:
            os._exit(13)  # pragma: no cover - simulated death, child only
        ltc = self._ltcs[shard]
        ltc.insert_many(items)
        ltc.end_period()
        self._periods[shard] += 1


def _worker_main(
    conn: "Connection",
    jobs: Sequence[Tuple[int, LTCConfig]],
    ring: Optional[ShmRing],
    crash_spec: Dict[int, int],
) -> None:  # pragma: no cover - runs in the worker process
    """Worker process entry point: serve messages until the summaries go out."""
    state = _WorkerState(jobs, ring, crash_spec)
    while True:
        try:
            message = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            os._exit(1)
        reply = state.handle(message)
        conn.send_bytes(pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL))
        if reply[0] == "s":
            break
    conn.close()
    # Hard exit skips interpreter teardown so the fork-inherited ring
    # mapping (owned and unlinked by the parent) is never double-closed.
    os._exit(0)


class _ShardWorker:
    """Parent-side handle for one persistent worker process.

    Owns the worker's shard list, its control pipe, its shm ring (if
    any), the per-shard count of batches handed off (``sent`` — the
    replay cursor after a respawn), and the outbound byte count.  Crash
    detection is per process: every receive waits on the pipe *and* the
    process sentinel, so a death is noticed even while acks are pending,
    and sends translate a broken pipe into :class:`_WorkerDied`.
    """

    def __init__(
        self,
        worker_id: int,
        jobs: Sequence[Tuple[int, LTCConfig]],
        ctx: "BaseContext",
        ring: Optional[ShmRing],
    ) -> None:
        self.worker_id = worker_id
        self.jobs = list(jobs)
        self.shards = [shard for shard, _ in self.jobs]
        self.sent: Dict[int, int] = {shard: 0 for shard in self.shards}
        self.attempts = 0
        self.ipc_bytes = 0
        self.ring = ring
        self._ctx = ctx
        self._free: Deque[int] = deque()
        self.proc: Optional["BaseProcess"] = None
        self.conn: Optional["Connection"] = None

    def spawn(self, crash_spec: Dict[int, int]) -> None:
        """(Re)start the worker process; resets the in-flight window."""
        if self.conn is not None:
            self.conn.close()
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.jobs, self.ring, crash_spec),
            name=f"repro-shard-worker-{self.worker_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self.proc = proc
        self.conn = parent_conn
        self._free = (
            deque(range(self.ring.slots)) if self.ring is not None else deque()
        )

    # ------------------------------------------------------------- plumbing
    def _send(self, message: Tuple[Any, ...]) -> None:
        payload = dumps_ipc(message)
        self.ipc_bytes += len(payload)
        assert self.conn is not None
        try:
            self.conn.send_bytes(payload)
        except (BrokenPipeError, ConnectionError, OSError) as exc:
            raise _WorkerDied(self.worker_id, exc) from exc

    def _recv(self) -> Tuple[Any, ...]:
        """Receive one worker reply, or raise :class:`_WorkerDied`.

        Waits on the pipe *and* the process sentinel; buffered replies
        are drained before a death is declared (acks sent just before a
        crash are still honoured).
        """
        from multiprocessing.connection import wait as _wait

        assert self.conn is not None and self.proc is not None
        while True:
            _wait([self.conn, self.proc.sentinel])
            if self.conn.poll(0):
                try:
                    reply: Tuple[Any, ...] = pickle.loads(
                        self.conn.recv_bytes()
                    )
                    return reply
                except (EOFError, OSError) as exc:
                    raise _WorkerDied(self.worker_id, exc) from exc
            if not self.proc.is_alive():
                raise _WorkerDied(
                    self.worker_id,
                    RuntimeError(
                        f"worker {self.worker_id} exited with "
                        f"code {self.proc.exitcode}"
                    ),
                )

    def _note_ack(self, reply: Tuple[Any, ...]) -> None:
        if reply[0] != "a":
            raise RuntimeError(f"expected ack, got {reply[0]!r}")
        if reply[1] is not None:
            self._free.append(reply[1])

    def _acquire_slot(self) -> int:
        assert self.conn is not None
        while self.conn.poll(0):  # opportunistically drain pending acks
            self._note_ack(self._recv())
        while not self._free:
            self._note_ack(self._recv())
        return self._free.popleft()

    # ------------------------------------------------------------ transport
    def send_batch(
        self, shard: int, array: Any, items: Optional[Sequence[int]]
    ) -> None:
        """Hand one period batch to the worker.

        ``array`` is an ``int64`` numpy view (or ``None``); ``items`` is
        the list fallback.  Batches that have an array and fit a ring
        slot go zero-copy; everything else — no ring, no array (oversized
        keys), or batch larger than a slot — spills to lockstep pickled
        chunks.
        """
        if (
            self.ring is not None
            and array is not None
            and len(array) <= self.ring.slot_items
        ):
            slot = self._acquire_slot()
            self.ring.write(slot, array)
            self._send(("b", shard, slot, len(array)))
            return
        data: Sequence[int] = (
            array.tolist() if items is None else list(items)
        )
        if not data:
            self._send(("c", shard, [], True))
            self._await_chunk_ack()
            return
        for start in range(0, len(data), _PICKLE_CHUNK_ITEMS):
            chunk = list(data[start : start + _PICKLE_CHUNK_ITEMS])
            final = start + _PICKLE_CHUNK_ITEMS >= len(data)
            self._send(("c", shard, chunk, final))
            self._await_chunk_ack()

    def _await_chunk_ack(self) -> None:
        # Ring acks may be interleaved ahead of the chunk ack; replies
        # are FIFO, so consume until the chunk's own (slotless) ack.
        while True:
            reply = self._recv()
            self._note_ack(reply)
            if reply[1] is None:
                return

    def collect(self) -> Dict[int, bytes]:
        """Ask for the finished summaries of every owned shard."""
        self._send(("f",))
        while True:
            reply = self._recv()
            if reply[0] == "a":
                self._note_ack(reply)
                continue
            if reply[0] == "s":
                payloads: Dict[int, bytes] = reply[1]
                return payloads
            raise RuntimeError(f"unexpected worker reply: {reply[0]!r}")

    def shutdown(self) -> None:
        """Reap the process and destroy the ring (parent ``finally``)."""
        if self.proc is not None:
            if self.proc.is_alive():
                self.proc.terminate()
            self.proc.join(timeout=10)
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.ring is not None:
            self.ring.destroy()
            self.ring = None


class ParallelMergingCoordinator:
    """Drive the merging coordinator's sites in persistent worker processes.

    Drop-in alongside :class:`~repro.distributed.coordinator.MergingCoordinator`:
    same constructor shape, same ``run(site_streams, k)`` signature, and —
    by construction — the same report for the same inputs (workers run the
    identical batched per-site loop; merging is unchanged).  The report
    additionally carries ``ingest_ipc_bytes`` and ``worker_crashes``.

    Args:
        config: The LTC configuration every site instantiates
            (``items_per_period`` is overridden per site, as in the
            sequential coordinator).
        max_workers: Worker process count; ``None`` means
            ``os.cpu_count()``.  ``1`` skips processes entirely and
            ingests in-process (override with ``use_processes=True``).
        max_retries: Respawn budget per worker.  A worker that dies gets
            respawned and its shards replayed from period zero, up to
            this many times; exhaustion raises :class:`WorkerCrashError`.
        transport: ``"auto"`` (shared memory when available, else
            pickled chunks), ``"shm"`` (require shared memory), or
            ``"pickle"`` (force the fallback — the benchmark baseline).
        ring_slots: Ring slots per worker — the zero-copy in-flight
            window.
        slot_items: Ring slot capacity in items; ``None`` sizes slots to
            the largest period batch.  Small values force the oversized-
            batch spill path (testing hook).
        use_processes: ``None`` auto (processes iff ``max_workers > 1``),
            ``True``/``False`` force.  Platforms without multiprocessing
            always fall back in-process.
    """

    def __init__(
        self,
        config: LTCConfig,
        max_workers: Optional[int] = None,
        max_retries: int = 2,
        transport: str = "auto",
        ring_slots: int = 4,
        slot_items: Optional[int] = None,
        use_processes: Optional[bool] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if transport not in _TRANSPORTS:
            raise ValueError(f"transport must be one of {_TRANSPORTS}")
        if ring_slots < 1:
            raise ValueError("ring_slots must be >= 1")
        if slot_items is not None and slot_items < 1:
            raise ValueError("slot_items must be >= 1")
        self.config = config
        self.max_workers = max_workers
        self.max_retries = max_retries
        self.transport = transport
        self.ring_slots = ring_slots
        self.slot_items = slot_items
        self.use_processes = use_processes
        # Fault-injection plan (testing hook): shard index -> number of
        # owning-worker spawns that crash after ingesting half the
        # shard's periods.
        self._crash_plan: Dict[int, int] = {}
        self._ingest_ipc_bytes = 0
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
            ingest_ipc_bytes=self._ingest_ipc_bytes,
            worker_crashes=self._worker_crashes,
        )

    # ------------------------------------------------------------ ingestion
    def _resolve_transport(self) -> str:
        if self.transport == "pickle":
            return "pickle"
        if self.transport == "shm":
            if not shm_available():
                raise RuntimeError(
                    "shm transport requested but shared_memory/fork "
                    "is unavailable"
                )
            return "shm"
        return "shm" if shm_available() else "pickle"

    def _site_configs(
        self, site_streams: Sequence[PeriodicStream]
    ) -> List[LTCConfig]:
        return [
            self.config.with_options(items_per_period=stream.period_length)
            for stream in site_streams
        ]

    def _set_ipc_gauge(self) -> None:
        if obs.is_enabled():
            obs.registry().gauge(
                "ingest_ipc_bytes",
                "Bytes shipped coordinator -> workers in the most recent "
                "run (control messages and pickled batches; zero-copy "
                "ring traffic is free)",
            ).set(self._ingest_ipc_bytes)

    def _ingest(self, site_streams: Sequence[PeriodicStream]) -> List[bytes]:
        configs = self._site_configs(site_streams)
        workers = self.max_workers or os.cpu_count() or 1
        in_process = (
            self.use_processes is False
            or (self.use_processes is None and workers == 1)
            or not worker_processes_available()
        )
        if in_process:
            # Graceful fallback: same per-shard loop, no processes, no
            # IPC.  Fault injection is process-only — it would kill the
            # parent here.
            self._ingest_ipc_bytes = 0
            self._worker_crashes = 0
            self._set_ipc_gauge()
            return [
                ingest_shard(config, stream.period_batches())
                for config, stream in zip(configs, site_streams)
            ]
        return self._run_workers(
            site_streams, configs, min(workers, len(site_streams))
        )

    def _run_workers(
        self,
        sites: Sequence[PeriodicStream],
        configs: List[LTCConfig],
        num_workers: int,
    ) -> List[bytes]:
        use_shm = self._resolve_transport() == "shm"
        slices = [stream.period_slices() for stream in sites]
        arrays = [
            stream.events_array() if use_shm else None for stream in sites
        ]
        slot_items = self.slot_items or max(
            [end - start for site in slices for start, end in site] + [1]
        )
        ctx = _mp_context()

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
                "Shard ingestions replayed into a respawned worker",
            )

        workers: List[_ShardWorker] = []

        def crash_spec(worker: _ShardWorker) -> Dict[int, int]:
            return {
                shard: len(slices[shard]) // 2
                for shard in worker.shards
                if worker.attempts < self._crash_plan.get(shard, 0)
            }

        def send_one(worker: _ShardWorker, shard: int, period: int) -> None:
            start, end = slices[shard][period]
            array = arrays[shard]
            if array is not None:
                worker.send_batch(shard, array[start:end], None)
            else:
                worker.send_batch(shard, None, sites[shard].events[start:end])

        def recover(worker: _ShardWorker, death: _WorkerDied) -> None:
            """Respawn ``worker`` and replay its handed-off batches."""
            exc: BaseException = death
            while True:
                self._worker_crashes += 1
                if crash_counter is not None:
                    crash_counter.inc()
                worker.attempts += 1
                if worker.attempts > self.max_retries:
                    raise WorkerCrashError(
                        worker.shards, self.max_retries, exc
                    ) from exc
                if retry_counter is not None:
                    retry_counter.inc(len(worker.shards))
                worker.spawn(crash_spec(worker))
                try:
                    for shard in worker.shards:
                        for period in range(worker.sent[shard]):
                            send_one(worker, shard, period)
                    return
                except _WorkerDied as next_death:
                    exc = next_death

        def feed(worker: _ShardWorker, shard: int, period: int) -> None:
            while True:
                try:
                    send_one(worker, shard, period)
                except _WorkerDied as death:
                    recover(worker, death)
                    continue
                worker.sent[shard] = period + 1
                return

        def collect(worker: _ShardWorker) -> Dict[int, bytes]:
            while True:
                try:
                    return worker.collect()
                except _WorkerDied as death:
                    recover(worker, death)

        self._worker_crashes = 0
        payloads: Dict[int, bytes] = {}
        try:
            # Rings are created inside the try so a failure partway
            # through construction still unlinks the earlier segments.
            for worker_id in range(num_workers):
                workers.append(
                    _ShardWorker(
                        worker_id,
                        [
                            (shard, configs[shard])
                            for shard in range(
                                worker_id, len(sites), num_workers
                            )
                        ],
                        ctx,
                        ShmRing(self.ring_slots, slot_items)
                        if use_shm
                        else None,
                    )
                )
            for worker in workers:
                worker.spawn(crash_spec(worker))
            for period in range(max(len(site) for site in slices)):
                for worker in workers:
                    for shard in worker.shards:
                        if period < len(slices[shard]):
                            feed(worker, shard, period)
            for worker in workers:
                payloads.update(collect(worker))
        finally:
            for worker in workers:
                worker.shutdown()
        self._ingest_ipc_bytes = sum(worker.ipc_bytes for worker in workers)
        self._set_ipc_gauge()
        return [payloads[shard] for shard in range(len(sites))]


class ShardedPipeline:
    """Single-stream multi-core ingestion: hash-shard, ingest, merge.

    Hash-partitions one logical stream into item-sharded per-worker
    streams (all of an item's arrivals land on one shard, the regime
    where merging is exact) and drives them through a
    :class:`ParallelMergingCoordinator` — each persistent worker ends up
    owning a fixed slice of the key space for the whole run.

    Args:
        config: The LTC configuration each shard instantiates
            (``items_per_period`` is overridden per shard).
        num_shards: Shard count; defaults to ``max_workers`` (or the CPU
            count when that is also unset).
        max_workers: Worker process count; ``None`` means ``os.cpu_count()``.
        max_retries: Crash-respawn budget, as in the coordinator.
        seed: Item-shard hash seed (must be shared to reproduce a split).
        transport: Batch transport, as in the coordinator.
    """

    def __init__(
        self,
        config: LTCConfig,
        num_shards: Optional[int] = None,
        max_workers: Optional[int] = None,
        max_retries: int = 2,
        seed: int = 0xD15C,
        transport: str = "auto",
    ) -> None:
        if num_shards is not None and num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        workers = max_workers or os.cpu_count() or 1
        self.num_shards = num_shards if num_shards is not None else workers
        self.seed = seed
        self.coordinator = ParallelMergingCoordinator(
            config,
            max_workers=max_workers,
            max_retries=max_retries,
            transport=transport,
        )

    def run(self, stream: PeriodicStream, k: int) -> CoordinatorReport:
        """Shard ``stream``, ingest every shard in parallel, and merge."""
        shards = partition_sharded(stream, self.num_shards, seed=self.seed)
        return self.coordinator.run(shards, k)
