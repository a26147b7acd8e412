"""Entry point named in BENCHMARK.json: ``python3 benchmarks/e2e/run.py``.

Puts the checkout root and its ``src`` on the import path (so it needs
no environment) and runs the same command line as ``python -m
benchmarks.e2e``.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
