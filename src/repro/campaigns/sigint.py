"""Deferred SIGINT for campaign loops: interrupt at seed boundaries only.

A Ctrl-C that lands mid-seed can tear state the campaign was about to
checkpoint — the byte-input fuzzer already defers the signal to its
iteration boundary and flushes before raising (ISSUE 5); this context
manager gives the campaign kernel's seed loop and the shard supervisor
the same behavior without each reimplementing the handler dance.

Usage::

    with DeferredInterrupt(enabled=...) as intr:
        for offset in ...:
            if intr.pending:
                save(done)
                raise KeyboardInterrupt("campaign interrupted; checkpoint flushed")
            ...

The previous handler is restored on exit.  Installation is skipped off
the main thread (``signal.signal`` raises ``ValueError`` there, and
CPython only delivers SIGINT to the main thread anyway) and when
*enabled* is False — shard worker processes run with it disabled so the
supervising runtime, not each worker, owns interrupt semantics.
"""

from __future__ import annotations

import signal


class DeferredInterrupt:
    """Swallow SIGINT into a :attr:`pending` flag for the enclosed loop."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._pending = False
        self._previous = None
        self._installed = False

    @property
    def pending(self) -> bool:
        """True once a SIGINT arrived inside the context."""
        return self._pending

    def __enter__(self) -> "DeferredInterrupt":
        if self.enabled:
            try:
                self._previous = signal.signal(signal.SIGINT, self._handle)
                self._installed = True
            except ValueError:
                # Not the main thread: SIGINT is never delivered here, so
                # there is nothing to defer.
                pass
        return self

    def __exit__(self, *exc_info) -> None:
        if self._installed:
            signal.signal(signal.SIGINT, self._previous)
            self._installed = False

    def _handle(self, signum, frame) -> None:
        self._pending = True
