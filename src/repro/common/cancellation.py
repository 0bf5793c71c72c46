"""Cooperative per-query cancellation.

A :class:`CancellationToken` carries a query's deadline plus an explicit
cancel flag.  The scheduler creates one per submitted query and installs
it in an ambient thread-local scope; engines, the morsel executor and the
chunked CAST pipeline call :func:`check_cancelled` at batch/chunk
boundaries, so a timed-out or client-abandoned query stops mid-scan
instead of running to completion and being discarded.

The ambient scope composes with the tracing context: ``capture_context``
snapshots the active token together with the active span/tracer, and
``with_context`` re-installs all three, so the token crosses the runtime
worker pool, plan-wave threads and morsel workers exactly the way trace
context already does.

When no token is active (library used without the runtime, or tracing a
bare island call) every check is a near-free ``None`` test — the same
cost profile the tracing-overhead CI guard already bounds.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.common.errors import DeadlineExceededError, QueryCancelledError

__all__ = [
    "CancellationToken",
    "cancel_scope",
    "check_cancelled",
    "current_token",
]


class CancellationToken:
    """A cancel flag plus an optional deadline on an injectable clock.

    ``check()`` is the single polling point: it raises
    :class:`QueryCancelledError` if the client cancelled, or
    :class:`DeadlineExceededError` if the deadline (a timestamp on
    ``clock``'s timeline, matching the scheduler's deadlines) has passed.
    Thread-safe: many worker threads may poll one token.
    """

    __slots__ = ("deadline", "_clock", "_cancelled", "_reason", "_lock")

    def __init__(self, deadline: float | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.deadline = deadline
        self._clock = clock
        self._cancelled = False
        self._reason: str | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ state
    def cancel(self, reason: str | None = None) -> None:
        """Request cancellation; idempotent, first reason wins."""
        with self._lock:
            if not self._cancelled:
                self._cancelled = True
                self._reason = reason

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called (deadline not considered)."""
        return self._cancelled

    @property
    def reason(self) -> str | None:
        return self._reason

    # ------------------------------------------------------------------ check
    def check(self) -> None:
        """Raise if the query should stop; otherwise return immediately."""
        if self._cancelled:
            raise QueryCancelledError(
                self._reason or "query cancelled by client"
            )
        if self.deadline is not None and self._clock() >= self.deadline:
            raise DeadlineExceededError(
                "query exceeded its deadline mid-execution"
            )


_ACTIVE = threading.local()


def current_token() -> CancellationToken | None:
    """The token installed in this thread's ambient scope, if any."""
    return getattr(_ACTIVE, "token", None)


def _install(token: CancellationToken | None) -> CancellationToken | None:
    previous = getattr(_ACTIVE, "token", None)
    _ACTIVE.token = token
    return previous


class cancel_scope:
    """Install ``token`` as the ambient token for the duration of the block."""

    __slots__ = ("_token", "_previous")

    def __init__(self, token: CancellationToken | None) -> None:
        self._token = token

    def __enter__(self) -> CancellationToken | None:
        self._previous = _install(self._token)
        return self._token

    def __exit__(self, *exc_info: object) -> bool:
        _install(self._previous)
        return False


def check_cancelled() -> None:
    """Poll the ambient token; no-op (one attribute read) when none is set."""
    token = getattr(_ACTIVE, "token", None)
    if token is not None:
        token.check()
