"""Diagnostics and the waiver protocol shared by every reprolint rule.

A :class:`Diagnostic` points at ``file:line:col`` and carries the rule id
plus a human-readable message — exactly what the text renderer prints and
what the JSON/SARIF formatters serialise.

Waivers
-------

The dataflow rules (R006, R007, R009) check invariants that have legitimate,
*documented* exceptions — a restore path that rebuilds cells before any
listener can attach, a snapshot write that is blocking by design.  Those
sites carry an inline waiver comment::

    # reprolint: detached — restore precedes listener attach (hooks.py:
    # attaching does not replay history)

The grammar is ``# reprolint: <tag>`` followed by a justification after
``—``, ``-`` or ``:``.  A waiver **must** include the justification —
a bare tag still fails the build (with a dedicated message), so blanket
suppressions cannot creep in.  Each rule names the tag it honours and
where it may appear (the flagged line, the line above it, or the ``def``
line of the enclosing function for function-scoped exemptions).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

_WAIVER_RE = re.compile(
    r"#\s*reprolint:\s*(?P<tag>[a-z][a-z0-9-]*)\s*(?:[-—:]\s*(?P<why>\S.*))?"
)


@dataclass(frozen=True)
class Diagnostic:
    """One rule violation, pointing at file:line:col."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class Waivers:
    """Per-file index of ``# reprolint: <tag>`` comments.

    Built once per file from the raw source lines (comments are invisible
    to ``ast``); rules query it by line number.
    """

    def __init__(self, source: str) -> None:
        self._by_line: Dict[int, Tuple[str, str]] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _WAIVER_RE.search(text)
            if match:
                self._by_line[lineno] = (
                    match.group("tag"),
                    (match.group("why") or "").strip(),
                )

    def at(self, line: int) -> Optional[Tuple[str, str]]:
        """The ``(tag, justification)`` waiver on ``line``, if any."""
        return self._by_line.get(line)

    def lookup(
        self, tag: str, lines: Sequence[int]
    ) -> Tuple[bool, Optional[int]]:
        """Search ``lines`` (in order) for a waiver with ``tag``.

        Returns ``(waived, bare_line)``: ``waived`` is true when a tagged
        waiver *with a justification* was found; ``bare_line`` names the
        first line carrying the tag without one (so the rule can demand
        the missing justification instead of silently honouring it).
        """
        bare: Optional[int] = None
        for line in lines:
            found = self._by_line.get(line)
            if found is None or found[0] != tag:
                continue
            if found[1]:
                return True, None
            if bare is None:
                bare = line
        return False, bare
