"""Serving tier: concurrent ingestion plus a point and ranked query path.

The batch experiments answer "which items are significant?" by walking
the whole LTC table after the run.  This package turns the structure
into a long-running service: an asyncio HTTP server
(:mod:`repro.serve.server`) ingests batches through ``insert_many`` on a
background task while queries are answered by :mod:`repro.serve.index`:
point queries from the kernel's own lookup, ranked ones from a prefix
built by one numpy scan of the table's columns per table change (a
notification of :mod:`repro.core.hooks` marks the prefix stale).
Snapshot rotation (:mod:`repro.serve.snapshots`) checkpoints the
structure with the v3 binary format so a killed server restarts from
the newest intact snapshot, and every served answer can be pinned
byte-equal to the full-scan oracle in :mod:`repro.serve.oracle`.

Start one from the command line with ``repro-ltc serve``.
"""

from repro.serve.index import ServingIndex
from repro.serve.oracle import (
    canonical_json,
    oracle_query,
    oracle_significant,
    oracle_top_k,
    query_payload,
    reports_payload,
    scan_reports,
)
from repro.serve.server import ServingApp, run_app
from repro.serve.snapshots import SnapshotStore

__all__ = [
    "ServingApp",
    "ServingIndex",
    "SnapshotStore",
    "canonical_json",
    "oracle_query",
    "oracle_significant",
    "oracle_top_k",
    "query_payload",
    "reports_payload",
    "run_app",
    "scan_reports",
]
