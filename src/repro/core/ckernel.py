"""Build and load the compiled LTC kernel (``_ltc_kernel.c``).

The kernel ships as C source inside the package.  The first process that
needs it compiles it with the system C compiler (``cc``) into
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``), under a name
keyed by the hash of the source and the compiler flags; later processes
only load the cached library through :mod:`ctypes`.  The build writes a
temporary file next to the target and renames it into place, so
processes racing on a cold cache each load a complete library.  Without
a compiler :func:`load` raises :class:`RuntimeError`; only
``kernel="columnar"`` needs the kernel.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Any, Optional

SOURCE = Path(__file__).with_name("_ltc_kernel.c")

#: ``-ffp-contract=off``: no fused multiply-add, so ``alpha*f + beta*p``
#: rounds twice, exactly as Python evaluates it.
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

#: ``KernelState.policy`` codes, as the C enum numbers them.
POLICIES = {"longtail": 0, "one": 1, "space-saving": 2}


class KernelState(ctypes.Structure):
    """Mirror of the C ``ltc_state`` struct, field for field."""

    _fields_ = [(name, ctypes.c_int64) for name in ("w", "d", "m", "n")] + [
        ("seed", ctypes.c_uint64),
        ("alpha", ctypes.c_double),
        ("beta", ctypes.c_double),
    ] + [
        (name, ctypes.c_int64)
        for name in (
            "policy", "acc", "hand", "scanned", "set_bit", "harvest_bit",
            "decrements", "evictions", "longtail", "harvests",
        )
    ] + [
        (name, ctypes.c_void_p)
        for name in ("keys", "freqs", "counters", "flags", "touched")
    ]


def compiler() -> Optional[str]:
    """The C compiler the build uses, or ``None`` when there is none."""
    return shutil.which("cc")


def cache_dir() -> Path:
    """Where built kernels are kept (the XDG base-directory cache)."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "repro"


def _build(target: Path) -> None:
    cc = compiler()
    if cc is None:
        raise RuntimeError(
            'kernel="columnar" needs a C compiler ("cc" on PATH) to build '
            f'its update loop from {SOURCE.name}; kernel="reference" needs none'
        )
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run(
            [cc, *FLAGS, "-o", tmp, str(SOURCE)], capture_output=True, text=True
        )
        if done.returncode:
            raise RuntimeError(f"building {SOURCE.name} failed:\n{done.stderr}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@lru_cache(maxsize=None)
def load() -> Any:
    """The kernel library, built on first use.  Its entry points take a
    :class:`KernelState` first:

    * ``ltc_insert_many(state, items, count)``: ``count`` count-based
      arrivals from a ``uint64`` buffer, CLOCK steps included;
    * ``ltc_place(state, item)``: one arrival's lossy-table update;
    * ``ltc_sweep(state, start, count)``: harvest ``count`` slots from
      ``start`` on (the CLOCK position stays the caller's).

    Loaded with :class:`ctypes.PyDLL`, so a call holds the GIL: no other
    thread sees the columns mid-call.
    """
    key = SOURCE.read_bytes() + " ".join(FLAGS).encode() + platform.machine().encode()
    target = cache_dir() / f"ltc_kernel-{hashlib.sha256(key).hexdigest()[:16]}.so"
    if not target.exists():
        _build(target)
    lib = ctypes.PyDLL(str(target))
    state = ctypes.POINTER(KernelState)
    signatures = {
        "ltc_insert_many": [ctypes.c_void_p, ctypes.c_int64],
        "ltc_place": [ctypes.c_uint64],
        "ltc_sweep": [ctypes.c_int64, ctypes.c_int64],
    }
    for name, args in signatures.items():
        fn = getattr(lib, name)
        fn.argtypes = [state, *args]
        fn.restype = None
    return lib
