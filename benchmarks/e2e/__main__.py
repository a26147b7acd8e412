"""``python -m benchmarks.e2e`` — see cli.py."""

import sys

from benchmarks.e2e.cli import main

sys.exit(main())
