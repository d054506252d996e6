"""Span tracing from outside the library: wrappers at every import site.

A :class:`Tracer` replaces a public function or method with a timing
wrapper everywhere it is bound — the defining module, every ``repro``
module that imported it by name, and every subclass that overrides a
wrapped method — and puts each original back on :meth:`Tracer.uninstall`.
Nothing in the library changes.

Self time folding: each thread keeps a stack of open spans.  A span's self
time is its duration minus the full extent (bookkeeping included) of the
spans it opened, so the self times of all layers and the root partition
the root's wall time exactly, apart from the wrappers' own bookkeeping,
which is accumulated separately as overhead.  A call into the layer that
is already on top of the stack (``encode_batch`` calling ``encode``, a
method calling its super implementation) opens no span and runs no count
hook, so such nested work is counted once.

Wrappers run only in the process that created the tracer: forked pool
workers inherit the patched bindings but call straight through.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``after(tracer, args, kwargs, result, elapsed_ns)``: records counts for
#: one finished call.  Its run time is booked as tracing overhead.
AfterHook = Callable[["Tracer", tuple, dict, Any, int], None]
#: ``around(tracer, call, args, kwargs)``: runs ``call()`` and returns its
#: result, to measure something only visible during the call.  Its run
#: time is booked to the wrapped layer.
AroundHook = Callable[["Tracer", Callable[[], Any], tuple, dict], Any]

#: Layer name of the root span; its self time is the unattributed time.
ROOT = "trace.unattributed"


class Tracer:
    """In-memory span accounting for one benchmark run.

    *module_prefix* selects the modules whose import sites
    :meth:`install_function` patches; *clock* (nanoseconds) lets a test
    substitute a deterministic clock.
    """

    def __init__(
        self,
        module_prefix: str = "repro",
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.module_prefix = module_prefix
        self.clock = clock
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self.notes: Dict[Any, Any] = {}
        self.root_ns = 0
        self.overhead_ns = 0
        self._prefix = ""
        self._pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        # (owner, attribute, original value) per replaced binding.
        self._bindings: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Book everything recorded inside under ``"<name>:<key>"``."""
        self._prefix = f"{name}:"
        try:
            yield
        finally:
            self._prefix = ""

    def count(self, name: str, value: float) -> None:
        """Add *value* to counter *name* (thread-safe)."""
        with self._lock:
            self.counts[self._prefix + name] += value

    def maximum(self, name: str, value: float) -> None:
        """Raise gauge *name* to *value* if it is larger (thread-safe)."""
        key = self._prefix + name
        with self._lock:
            if value > self.maxima[key]:
                self.maxima[key] = value

    def note(self, key: Any, value: Any) -> None:
        """Remember *value* under *key* (thread-safe; last write wins)."""
        with self._lock:
            self.notes[key] = value

    def pop_notes(self) -> Dict[Any, Any]:
        """Everything noted so far, forgetting it."""
        with self._lock:
            notes, self.notes = self.notes, {}
        return notes

    def snapshot(self) -> Dict[str, Any]:
        """Plain copies of everything recorded so far."""
        with self._lock:
            return {
                "self_ns": dict(self.self_ns),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "maxima": dict(self.maxima),
                "root_ns": self.root_ns,
                "overhead_ns": self.overhead_ns,
            }

    def _close(self, layer: str, frame: list, start: int, end: int) -> None:
        key = self._prefix + layer
        with self._lock:
            self.self_ns[key] += end - start - frame[1]
            self.calls[key] += 1

    def _run(
        self,
        layer: str,
        call: Callable[[], Any],
        after: Optional[AfterHook],
        args: tuple,
        kwargs: dict,
    ) -> Any:
        entered = self.clock()
        stack = self._stack()
        frame = [layer, 0]
        stack.append(frame)
        finished = False
        start = self.clock()
        try:
            result = call()
            finished = True
        finally:
            end = self.clock()
            stack.pop()
            self._close(layer, frame, start, end)
            if finished and after is not None:
                after(self, args, kwargs, result, end - start)
            left = self.clock()
            with self._lock:
                self.overhead_ns += (start - entered) + (left - end)
            if stack:
                stack[-1][1] += left - entered
        return result

    @contextmanager
    def root(self) -> Iterator[None]:
        """The measured region; time no layer claims lands on :data:`ROOT`."""
        stack = self._stack()
        frame = [ROOT, 0]
        stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            self._close(ROOT, frame, start, end)
            with self._lock:
                self.root_ns += end - start

    def wrap(
        self,
        layer: str,
        function: Callable,
        after: Optional[AfterHook] = None,
        around: Optional[AroundHook] = None,
    ) -> Callable:
        """A timing wrapper of *function* that books its self time to *layer*."""
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != tracer._pid:
                return function(*args, **kwargs)
            stack = tracer._stack()
            if stack and stack[-1][0] == layer:
                return function(*args, **kwargs)
            call = lambda: function(*args, **kwargs)  # noqa: E731
            if around is not None:
                bare = call
                call = lambda: around(tracer, bare, args, kwargs)  # noqa: E731
            return tracer._run(layer, call, after, args, kwargs)

        return traced

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def _replace(self, owner: Any, name: str, original: Any, new: Any) -> None:
        self._bindings.append((owner, name, original))
        setattr(owner, name, new)

    def install_function(
        self, layer: str, function: Callable, after: Optional[AfterHook] = None
    ) -> int:
        """Wrap *function* in every loaded module that binds it by any name.

        Returns the number of bindings replaced (at least one, or raises).
        """
        wrapper = self.wrap(layer, function, after)
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == self.module_prefix
                or module_name.startswith(self.module_prefix + ".")
            ):
                continue
            for name, value in list(vars(module).items()):
                if value is function:
                    self._replace(module, name, function, wrapper)
                    replaced += 1
        if not replaced:
            raise LookupError(f"{function!r} is bound in no loaded module")
        return replaced

    def install_method(
        self,
        layer: str,
        cls: type,
        name: str,
        after: Optional[AfterHook] = None,
        around: Optional[AroundHook] = None,
    ) -> int:
        """Wrap method *name* on *cls* and on every subclass that overrides it.

        Returns the number of class attributes replaced.
        """
        replaced = 0
        pending = [cls]
        seen = set()
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            original = klass.__dict__.get(name)
            if original is None:
                continue
            if not inspect.isfunction(original):
                raise TypeError(
                    f"{klass.__qualname__}.{name} is not a plain function"
                )
            self._replace(
                klass, name, original, self.wrap(layer, original, after, around)
            )
            replaced += 1
        if not replaced:
            raise LookupError(f"{cls.__qualname__} defines no {name!r}")
        return replaced

    def uninstall(self) -> None:
        """Put every replaced binding back, newest first."""
        while self._bindings:
            owner, name, original = self._bindings.pop()
            setattr(owner, name, original)

    @property
    def installed(self) -> int:
        """Number of bindings currently replaced."""
        return len(self._bindings)
