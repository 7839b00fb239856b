"""In-process span recorder: exclusive host seconds and calls per span.

A *span* is a named stretch of host time at one choke point of a layer:
a function decorated with :func:`span` (named after its module and
qualified name, so a renamed function renames its span) or a block
inside ``with`` a :class:`Span`. Every span is declared when its module
is imported and listed in :data:`DECLARED`.

Recording is on only inside ``with record() as rec:``. Each span then
adds to ``rec`` under its *call path*, the names of the spans open
around it, outermost first, ending with its own:

- ``rec.seconds[path]``: exclusive host seconds, its own time with the
  time of every span it opened taken out (each second is charged once);
- ``rec.calls[path]``: how often it ran (or, for :meth:`Span.count`,
  the work it counted).

Off, a span is one module-global check and a call through; it builds
no record. A span sits on a function run once per pass, wave, launch or
stage, never on one run per apply, vertex or path.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

#: Every declared span name, in declaration order.
DECLARED: Dict[str, None] = {}

#: The recording ``record()`` has open, or ``None``: recording is off.
_recording = None


class Recording:
    """What the spans of one :func:`record` block measured."""

    def __init__(self) -> None:
        self.seconds: Dict[Tuple[str, ...], float] = defaultdict(float)
        self.calls: Dict[Tuple[str, ...], int] = defaultdict(int)
        # One [path, started, seconds of spans opened inside] per open span.
        self._open: List[list] = []

    def enter(self, name: str) -> None:
        path = self._open[-1][0] + (name,) if self._open else (name,)
        self._open.append([path, time.perf_counter(), 0.0])

    def exit(self) -> None:
        if not self._open:
            return  # opened before recording began
        path, started, inner = self._open.pop()
        elapsed = time.perf_counter() - started
        self.seconds[path] += elapsed - inner
        self.calls[path] += 1
        if self._open:
            self._open[-1][2] += elapsed

    def count(self, name: str, calls: int) -> None:
        path = self._open[-1][0] + (name,) if self._open else (name,)
        self.calls[path] += calls


@contextmanager
def record() -> Iterator[Recording]:
    """Record every span run inside the block."""
    global _recording
    outer, _recording = _recording, Recording()
    try:
        yield _recording
    finally:
        _recording = outer


def _declare(name: str) -> str:
    DECLARED[name] = None
    return name


def span(fn):
    """Decorate ``fn`` as the span ``<module>.<qualname>`` (without the
    ``repro.`` prefix)."""
    name = _declare(
        f"{fn.__module__.removeprefix('repro.')}.{fn.__qualname__}"
    )

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        recording = _recording
        if recording is None:
            return fn(*args, **kwargs)
        recording.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recording.exit()

    return spanned


class Span:
    """A span around a block: ``with SPAN:``, declared where it is built
    (at module level, so importing the module declares it)."""

    def __init__(self, name: str) -> None:
        self.name = _declare(name)

    def __enter__(self) -> None:
        if _recording is not None:
            _recording.enter(self.name)

    def __exit__(self, *exc) -> None:
        if _recording is not None:
            _recording.exit()

    def count(self, calls: int) -> None:
        """Add ``calls`` runs of this span, untimed: work counted below
        a span's grain, such as the applies of a run."""
        if _recording is not None:
            _recording.count(self.name, calls)
