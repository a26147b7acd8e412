"""Kernel selection: build the LTC implementation a config asks for.

Two interchangeable kernels implement the same observable structure
(differential-tested cell-for-cell against each other):

* ``"columnar"`` (default) — :class:`repro.core.columnar.ColumnarLTC`,
  the production kernel: numpy struct-of-arrays storage and an update
  compiled from C on first use (needs a C compiler).
* ``"reference"`` — :class:`repro.core.ltc.LTC`, the paper-faithful
  implementation whose per-cell layout matches the 12-byte accounting;
  the differential oracle, and the one path that needs no compiler.

Both hold keys in ``[0, MAX_KEY]``.

Call sites that build an LTC from a config (CLI, serve, experiment
factories, distributed coordinators) go through :func:`build_ltc` so the
``LTCConfig.kernel`` field selects the implementation everywhere.
"""

from __future__ import annotations

from typing import Dict, Type

from repro.core.columnar import ColumnarLTC
from repro.core.config import LTCConfig
from repro.core.ltc import LTC

KERNELS: Dict[str, Type[LTC]] = {
    "reference": LTC,
    "columnar": ColumnarLTC,
}


def build_ltc(config: LTCConfig) -> LTC:
    """Construct the LTC kernel selected by ``config.kernel``."""
    return KERNELS[config.kernel](config)
