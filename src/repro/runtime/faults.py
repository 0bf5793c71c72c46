"""Deterministic fault injection for any engine in the polystore.

A federated system's defining failure mode is *partial* failure: one engine
dies, stalls or drops a connection mid-stream while the rest keep serving.
:class:`FaultInjector` makes every one of those failure modes reproducible in
tests by instrumenting an engine *instance* in place:

* **error-on-Nth-call / error-every-N** — the Nth (or every Nth) call to a
  chosen method raises :class:`InjectedFault`;
* **error rate** — a seeded RNG fails a fraction of calls, deterministically
  for a given seed;
* **added latency** — calls sleep before delegating, modelling a slow or
  congested engine;
* **flaky chunk streams** — ``export_chunks`` iterators that die after N
  chunks, and ``import_chunks`` whose *input* stream dies mid-consumption,
  the exact shapes a transactional CAST has to survive;
* **outage** — every instrumented call raises
  :class:`~repro.common.errors.EngineUnavailableError` until
  :meth:`FaultInjector.restore` is called, modelling an engine that is down
  and then comes back.

Instrumentation is per-instance monkeypatching rather than a wrapper object
on purpose: islands and shims route by ``isinstance(engine, RelationalEngine)``
and the scheduler pushes knobs (``parallelism``, ``task_credits``) straight
onto engine attributes, so a proxy class would either break routing or have
to forward every attribute both ways.  Installing bound closures on the
instance keeps the engine's identity, class and attributes intact, and
:meth:`~FaultInjector.uninstall` restores the original methods exactly.

All faults raise *before* the underlying engine method runs, so a retried
call never double-applies an effect — matching the connection-shaped
failures the runtime's retry policy is allowed to retry.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.common.errors import (
    EngineUnavailableError,
    SimulatedCrashError,
    TransientEngineError,
)

__all__ = [
    "DEFAULT_FAULTABLE_METHODS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
]


class InjectedFault(TransientEngineError):
    """A failure raised by the fault-injection harness (always retryable)."""


#: Methods instrumented by default when present on the engine: the engine
#: interface the runtime and CAST pipeline drive, plus the native ``execute``
#: entry point every island calls.  ``export_relation`` / ``import_relation``
#: run through ``export_chunks`` / ``import_chunks``, so a fault planned for
#: the data path fires on a shim read too, and only once per call.
DEFAULT_FAULTABLE_METHODS = (
    "execute",
    "export_schema",
    "export_chunks",
    "import_chunks",
    "drop_object",
    "rename_object",
)


@dataclass
class FaultSpec:
    """One configured fault: where it applies and how it fires.

    ``methods=None`` applies to every instrumented method.  Counters are
    per-spec and per-method, so ``fail_nth("execute", 3)`` means the third
    *execute* call, regardless of traffic on other methods.
    """

    methods: tuple[str, ...] | None = None
    #: Fail the Nth matching call (1-based), once.
    nth: int | None = None
    #: Fail every Nth matching call (the Nth, 2Nth, ...).
    every: int | None = None
    #: Fail each matching call with this probability (seeded RNG).
    rate: float = 0.0
    #: Sleep this long before delegating (latency injection, never raises).
    latency_s: float = 0.0
    #: For chunk streams: raise after yielding/consuming this many chunks.
    after_chunks: int | None = None
    #: Exception type raised when the fault fires.
    error: type = InjectedFault
    #: Per-method call counts for this spec (internal).
    calls: dict = field(default_factory=dict)

    def matches(self, method: str) -> bool:
        return self.methods is None or method in self.methods


class FaultInjector:
    """Installable, deterministic fault plans for one engine instance.

    Typical use::

        injector = FaultInjector(seed=7)
        injector.fail_nth("execute", 3)           # 3rd execute raises
        injector.fail_mid_stream("export_chunks", after_chunks=2)
        injector.install(engine)
        try:
            ...  # run the workload
        finally:
            injector.uninstall()

    ``injected`` counts faults actually raised per method; ``calls`` counts
    every instrumented call, so tests can assert both "it fired" and "the
    retry went back through the engine".
    """

    def __init__(self, seed: int = 0,
                 methods: Iterable[str] = DEFAULT_FAULTABLE_METHODS,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._methods = tuple(methods)
        self._specs: list[FaultSpec] = []
        self._engine: Any = None
        self._originals: dict[str, Any] = {}
        self._clock = clock
        #: Clock instant the current outage ends (inf = until restore()).
        self._outage_until: float | None = None
        #: Instrumented calls per method (including ones that then failed).
        self.calls: dict[str, int] = {}
        #: Faults raised per method.
        self.injected: dict[str, int] = {}
        #: Armed crash points (journal boundaries), each fires at most once.
        self._crash_points: set[str] = set()
        #: Journals this injector's crash hook is installed on.
        self._journals: list[Any] = []

    # -------------------------------------------------------------- fault plans
    def add(self, spec: FaultSpec) -> "FaultInjector":
        with self._lock:
            self._specs.append(spec)
        return self

    def fail_nth(self, method: str, nth: int,
                 error: type = InjectedFault) -> "FaultInjector":
        """Fail the Nth call to ``method`` (1-based), exactly once."""
        return self.add(FaultSpec(methods=(method,), nth=nth, error=error))

    def fail_every(self, method: str, every: int,
                   error: type = InjectedFault) -> "FaultInjector":
        """Fail every ``every``-th call to ``method``."""
        return self.add(FaultSpec(methods=(method,), every=every, error=error))

    def fail_rate(self, method: str | None, rate: float,
                  error: type = InjectedFault) -> "FaultInjector":
        """Fail a seeded-random fraction of calls (``method=None`` = all)."""
        methods = None if method is None else (method,)
        return self.add(FaultSpec(methods=methods, rate=rate, error=error))

    def add_latency(self, method: str | None, seconds: float) -> "FaultInjector":
        """Sleep before delegating (``method=None`` = every instrumented call)."""
        methods = None if method is None else (method,)
        return self.add(FaultSpec(methods=methods, latency_s=seconds))

    def fail_mid_stream(self, method: str, after_chunks: int,
                        error: type = InjectedFault) -> "FaultInjector":
        """Make a chunk stream die after ``after_chunks`` chunks.

        For ``export_chunks`` the *returned* iterator raises after yielding
        that many chunks; for ``import_chunks`` the *consumed* input stream
        raises once the engine has pulled that many chunks — the partial-
        import shape transactional CAST recovery must clean up.
        """
        if method not in ("export_chunks", "import_chunks"):
            raise ValueError(
                f"mid-stream faults apply to chunk methods, not {method!r}"
            )
        return self.add(
            FaultSpec(methods=(method,), after_chunks=after_chunks, error=error)
        )

    def outage(self, duration_s: float | None = None) -> "FaultInjector":
        """Simulate the engine going down: every call raises while it's out.

        With ``duration_s`` the outage auto-restores once that much time has
        passed on the injector's clock (injectable, so chaos tests can step
        through an outage window without sleeping); without it, the engine
        stays down until :meth:`restore`.
        """
        with self._lock:
            if duration_s is None:
                self._outage_until = math.inf
            else:
                if duration_s <= 0:
                    raise ValueError(f"duration_s must be > 0, got {duration_s}")
                self._outage_until = self._clock() + duration_s
        return self

    def restore(self) -> "FaultInjector":
        """Bring a downed engine back up."""
        with self._lock:
            self._outage_until = None
        return self

    @property
    def is_down(self) -> bool:
        with self._lock:
            return self._down_locked()

    def _down_locked(self) -> bool:
        """Whether an outage is in effect now, expiring timed ones lazily."""
        if self._outage_until is None:
            return False
        if self._clock() >= self._outage_until:
            self._outage_until = None
            return False
        return True

    def fail_rename(self, nth: int = 1,
                    error: type = InjectedFault) -> "FaultInjector":
        """Fail the Nth ``rename_object`` call — the transactional-CAST
        commit step, so the shadow-publish rename itself is chaos-testable."""
        return self.fail_nth("rename_object", nth, error=error)

    def total_injected(self) -> int:
        with self._lock:
            return sum(self.injected.values())

    # ----------------------------------------------------------- crash points
    def crash_at(self, point: str) -> "FaultInjector":
        """Arm a simulated process death at a named journal boundary.

        The write paths announce every protocol boundary to their
        :class:`~repro.runtime.journal.WriteIntentJournal` via
        ``crash_point(name)`` (the sweepable names live in
        ``journal.CRASH_POINTS``).  Once :meth:`attach_journal` has installed
        this injector's hook, the first time an armed boundary is reached a
        :class:`~repro.common.errors.SimulatedCrashError` unwinds the stack
        with no in-process cleanup — the recovery path must then come from
        replaying the journal, as after a real crash.  Each armed point
        fires at most once.
        """
        with self._lock:
            self._crash_points.add(point)
        return self

    def attach_journal(self, journal: Any) -> "FaultInjector":
        """Install this injector's crash hook on ``journal``."""
        journal.set_crash_hook(self._crash_hook)
        with self._lock:
            if journal not in self._journals:
                self._journals.append(journal)
        return self

    def _crash_hook(self, point: str) -> None:
        with self._lock:
            if point not in self._crash_points:
                return
            self._crash_points.discard(point)
            key = f"crash:{point}"
            self.injected[key] = self.injected.get(key, 0) + 1
        raise SimulatedCrashError(f"simulated process crash at {point!r}")

    # ------------------------------------------------------------- installation
    def install(self, engine: Any) -> Any:
        """Instrument ``engine`` in place; returns the engine for chaining."""
        if self._engine is not None:
            raise RuntimeError("injector is already installed; uninstall first")
        self._engine = engine
        for name in self._methods:
            original = getattr(engine, name, None)
            if original is None or not callable(original):
                continue
            self._originals[name] = original
            setattr(engine, name, self._instrumented(name, original))
        return engine

    def uninstall(self) -> None:
        """Restore every instrumented method exactly as it was, and detach
        the crash hook from any attached journals."""
        with self._lock:
            journals, self._journals = self._journals, []
            self._crash_points.clear()
        for journal in journals:
            journal.set_crash_hook(None)
        engine, self._engine = self._engine, None
        originals, self._originals = self._originals, {}
        if engine is None:
            return
        for name in originals:
            # The instrumented closure lives in the instance __dict__ and
            # shadowed the class method; deleting it restores the original
            # lookup (bound originals taken from the class need no re-set).
            try:
                delattr(engine, name)
            except AttributeError:  # pragma: no cover - defensive
                setattr(engine, name, originals[name])

    def __enter__(self) -> "FaultInjector":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # ---------------------------------------------------------------- internals
    def _instrumented(self, name: str, original: Any) -> Any:
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            self._before(name)
            if name == "import_chunks":
                args, kwargs = self._wrap_import_stream(name, args, kwargs)
            result = original(*args, **kwargs)
            if name == "export_chunks":
                result = self._flaky_stream(name, result)
            return result

        wrapped.__name__ = f"faulty_{name}"
        wrapped._fault_injector = self  # type: ignore[attr-defined]
        return wrapped

    def _before(self, name: str) -> None:
        """Count the call, apply latency, and raise if any fault fires."""
        latency = 0.0
        error: BaseException | None = None
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            if self._down_locked():
                self.injected[name] = self.injected.get(name, 0) + 1
                engine_name = getattr(self._engine, "name", "engine")
                error = EngineUnavailableError(
                    f"engine {engine_name!r} is down (simulated outage)"
                )
            else:
                for spec in self._specs:
                    if not spec.matches(name):
                        continue
                    count = spec.calls.get(name, 0) + 1
                    spec.calls[name] = count
                    latency += spec.latency_s
                    fires = (
                        (spec.nth is not None and count == spec.nth)
                        or (spec.every is not None and count % spec.every == 0)
                        or (spec.rate > 0.0 and self._rng.random() < spec.rate)
                    )
                    if fires and error is None:
                        self.injected[name] = self.injected.get(name, 0) + 1
                        error = spec.error(
                            f"injected fault in {name!r} (call {count})"
                        )
        if latency > 0.0:
            time.sleep(latency)
        if error is not None:
            raise error

    def _stream_spec(self, name: str) -> FaultSpec | None:
        with self._lock:
            for spec in self._specs:
                if spec.matches(name) and spec.after_chunks is not None:
                    return spec
        return None

    def _flaky_stream(self, name: str, chunks: Iterable[Any]) -> Iterator[Any]:
        spec = self._stream_spec(name)
        if spec is None:
            return iter(chunks)

        def generate() -> Iterator[Any]:
            produced = 0
            for chunk in chunks:
                if produced >= spec.after_chunks:
                    with self._lock:
                        self.injected[name] = self.injected.get(name, 0) + 1
                    raise spec.error(
                        f"injected mid-stream fault in {name!r} "
                        f"after {produced} chunks"
                    )
                produced += 1
                yield chunk

        return generate()

    def _wrap_import_stream(self, name: str, args: tuple, kwargs: dict
                            ) -> tuple[tuple, dict]:
        """Swap import_chunks' input stream for one that dies mid-consumption."""
        spec = self._stream_spec(name)
        if spec is None:
            return args, kwargs
        # Signature: import_chunks(name, schema, chunks, **options).
        if "chunks" in kwargs:
            kwargs = dict(kwargs)
            kwargs["chunks"] = self._flaky_stream(name, kwargs["chunks"])
        elif len(args) >= 3:
            args = args[:2] + (self._flaky_stream(name, args[2]),) + args[3:]
        return args, kwargs
