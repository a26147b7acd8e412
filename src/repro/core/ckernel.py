"""Build and load the compiled LTC kernel (``_ltc_kernel.c``).

The kernel is a CPython extension module that ships as C source inside
the package.  The first process that needs it compiles it with the
system C compiler (``cc``) against the interpreter's headers into
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``), under a name
keyed by the hash of the source, the compiler flags, the machine and the
interpreter ABI (``EXT_SUFFIX`` and ``SOABI``), so interpreters sharing
a cache never load each other's module.  Later processes only import
the cached module.  The build writes a temporary file next to the target
and renames it into place, so processes racing on a cold cache each load
a complete module.  Without a compiler or without ``Python.h``,
:func:`load` raises :class:`RuntimeError`.  Every default construction
needs the module (``LTCConfig.kernel`` defaults to ``"columnar"``), and
so does ``repro serve``, whose ``POST /ingest`` packs its keys with
``pack_keys``; ``LTCConfig(kernel="reference")`` is the path that needs
no compiler.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import platform
import shutil
import subprocess
import sysconfig
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Any, Optional, Tuple

SOURCE = Path(__file__).with_name("_ltc_kernel.c")

#: ``-ffp-contract=off``: no fused multiply-add, so ``alpha*f + beta*p``
#: rounds twice, exactly as Python evaluates it.
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

#: What needs the module, for the build's error messages.
_NEEDS = "every default LTC construction and repro serve need"
_SPARED = 'LTCConfig(kernel="reference") needs no compiler'

#: The ``policy`` codes of the kernel's constructor, as the C enum
#: numbers them.
POLICIES = {"longtail": 0, "one": 1, "space-saving": 2}


def compiler() -> Optional[str]:
    """The C compiler the build uses, or ``None`` when there is none."""
    return shutil.which("cc")


def include_dir() -> Path:
    """Where this interpreter's ``Python.h`` should be."""
    return Path(sysconfig.get_paths()["include"])


def abi() -> Tuple[str, str]:
    """This interpreter's extension-module ABI: ``(EXT_SUFFIX, SOABI)``."""
    return (
        sysconfig.get_config_var("EXT_SUFFIX") or ".so",
        sysconfig.get_config_var("SOABI") or "",
    )


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
            f'{_NEEDS} a C compiler ("cc" on PATH) to build the compiled '
            f"module from {SOURCE.name}; {_SPARED}"
        )
    include = include_dir()
    if not (include / "Python.h").is_file():
        raise RuntimeError(
            f"{_NEEDS} {SOURCE.name} built as a CPython extension, which "
            f"needs the interpreter's headers, but there is no Python.h "
            f"in {include}; {_SPARED}"
        )
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run(
            [cc, *FLAGS, f"-I{include}", "-o", tmp, str(SOURCE)],
            capture_output=True,
            text=True,
        )
        if done.returncode:
            raise RuntimeError(f"building {SOURCE.name} failed:\n{done.stderr}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@lru_cache(maxsize=None)
def load() -> Any:
    """The kernel module, built on first use.  Its one type,
    ``Kernel(keys, freqs, counters, flags, w, d, n, seed, alpha, beta,
    policy)``, holds a table's four columns and CLOCK state and has:

    * ``insert(key)``: one count-based arrival, CLOCK step included;
    * ``insert_many(keys)``: a sequence's arrivals, every key checked
      first; returns their number.  A C-contiguous buffer of uint64
      (struct format ``Q``, or ``L`` where a long is 64 bits, as a numpy
      ``uint64`` array exports) is read in place, after a scan that
      refuses ``EMPTY_KEY``;
    * ``place(key)``: one arrival's lossy-table update;
    * ``sweep(steps, arrivals=0)``: harvest up to ``steps`` slots from
      the hand (``arrivals`` is 1 when it completes a timed arrival);
    * ``take_counts()``: the ``ltc_*`` counter deltas since the last call;
    * the fields ``hand``, ``acc``, ``scanned``, ``set_bit`` and
      ``harvest_bit``, whose setters refuse values outside the CLOCK
      invariants, ``touched``, an optional byte-per-cell change mask,
      and ``watch``, a callable or ``None``: after each of ``insert``,
      ``insert_many`` and ``sweep`` the kernel calls it with that call's
      number of arrivals, so a bound ``insert`` is a whole insert
      (``ColumnarLTC`` folds metrics and notifies its listener there).
      ``place`` does not: the sweep that completes its timed arrival
      reports it, so the watch runs once per arrival.

    The module function ``pack_keys(list)`` checks a list of keys, as
    ``POST /ingest`` decodes them, and packs it into a read-only uint64
    memoryview (format ``Q``): ``TypeError`` for any item that is not
    exactly an int (``bool`` included), wherever it is, else
    ``ValueError`` for a key out of range.

    A key is an int in ``[0, MAX_KEY]`` (``TypeError`` otherwise,
    ``ValueError`` out of range).  Every call holds the GIL, so no other
    thread sees the columns mid-call.
    """
    suffix, soabi = abi()
    key = b"\0".join(
        [
            SOURCE.read_bytes(),
            " ".join(FLAGS).encode(),
            platform.machine().encode(),
            suffix.encode(),
            soabi.encode(),
        ]
    )
    target = cache_dir() / f"ltc_kernel-{hashlib.sha256(key).hexdigest()[:16]}{suffix}"
    if not target.exists():
        _build(target)
    loader = importlib.machinery.ExtensionFileLoader(
        "repro.core._ltc_kernel", str(target)
    )
    spec = importlib.util.spec_from_file_location(loader.name, target, loader=loader)
    assert spec is not None
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module
