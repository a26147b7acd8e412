"""Run ``repro serve`` through its CLI with spans installed.

Usage: ``python benchmarks/e2e/traced_serve.py SPANS.json [serve args...]``.
The spans are written after SIGTERM has drained the server, together
with the server's CPU and wall time between ``ServingApp.start`` and the
end of ``ServingApp.shutdown`` and the ingest queue waits.
"""

from __future__ import annotations

import functools
import os
import pathlib
import sys
import time
from typing import Any, Dict, List

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]


def _cpu() -> float:
    t = os.times()
    return t.user + t.system


def main(argv: List[str]) -> int:
    from benchmarks.e2e import spans
    from repro.cli import main as cli_main
    from repro.core.config import LTCConfig
    from repro.core.kernels import build_ltc
    from repro.serve.server import ServingApp

    rec = spans.Recorder()
    queue = spans.QueueClock()
    spans.install_core(rec, type(build_ltc(LTCConfig(num_buckets=1, kernel="columnar"))), queue)
    spans.install_serve(rec, queue)
    window: Dict[str, float] = {}

    start = ServingApp.start

    @functools.wraps(start)
    def stamped_start(self: Any) -> None:
        window["cpu0"], window["wall0"] = _cpu(), time.perf_counter()
        start(self)

    shutdown = ServingApp.shutdown

    @functools.wraps(shutdown)
    async def stamped_shutdown(self: Any) -> None:
        await shutdown(self)
        window["cpu1"], window["wall1"] = _cpu(), time.perf_counter()

    ServingApp.start = stamped_start  # type: ignore[method-assign]
    ServingApp.shutdown = stamped_shutdown  # type: ignore[method-assign]
    code = cli_main(["serve", *argv[1:]])
    rec.dump(
        argv[0],
        cpu_s=window["cpu1"] - window["cpu0"],
        wall_s=window["wall1"] - window["wall0"],
        queue_waits_ns=queue.waits,
        queue_depth_max=queue.depth_max,
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
