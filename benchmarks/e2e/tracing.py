"""Outside-in tracing: spans around the public functions of each layer.

The program under test is not modified and gains no switch: for the
traced run the harness replaces a layer's functions with wrappers that
record a span (name, start, end, parent, one integer value) into
in-memory columns, and puts the originals back afterwards.  Wrappers are
found by introspection (every public function a layer's class or module
defines), so a renamed or deleted function drops out of the trace
instead of breaking the benchmark; a handful of named entries add the
private request-phase methods of the server, whose phases have no
public seam.

Parentage follows the call stack through a :class:`~contextvars.ContextVar`
(each asyncio task and each thread has its own), and is carried by hand
across the two thread hops a served request makes (the shard worker and
the snapshot-read executor).  A client call and the server request it
caused are joined afterwards by their shared ``(port, request id)``
value, so one request is one tree with one request id.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from array import array

_clock = time.perf_counter


class Tracer:
    """Span columns plus the current-span variable wrappers share."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []       # layer of names[i]
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.value = array("q")
        self.current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "e2e_span", default=-1
        )
        self._lock = threading.Lock()

    def intern(self, layer: str, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def record(
        self, nid: int, parent: int, start: float, end: float, value: int = 0
    ) -> int:
        """Add a span; returns its index."""
        with self._lock:
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(parent)
            self.value.append(value)
            self.end.append(end)
            self.start.append(start)
        return idx

    def open(self, nid: int, parent: int, value: int = 0) -> int:
        """Start a span; the caller stores ``end[idx]`` when it finishes."""
        return self.record(nid, parent, _clock(), 0.0, value)

    def __len__(self) -> int:
        return len(self.start)

    def dump(self, path, request_of: list[int], limit: int) -> int:
        """Write up to ``limit`` spans as JSON lines; returns how many."""
        n = min(limit, len(self))
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"spans_total": len(self), "spans_written": n}))
            out.write("\n")
            for i in range(n):
                out.write(
                    '{"id":%d,"name":"%s","start":%.9f,"end":%.9f,'
                    '"parent":%d,"request":%d,"value":%d}\n' % (
                        i, self.names[self.name[i]], self.start[i], self.end[i],
                        self.parent[i], request_of[i], self.value[i],
                    )
                )
        return n


# -- wrappers ----------------------------------------------------------------


def _wrap_sync(tr: Tracer, nid: int, fn, value_of):
    current = tr.current

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = current.get()
        idx = tr.open(nid, parent, value_of(args, kwargs) if value_of else 0)
        current.set(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.end[idx] = _clock()
            current.set(parent)

    return wrapper


def _wrap_async(tr: Tracer, nid: int, fn, value_of):
    current = tr.current

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        parent = current.get()
        idx = tr.open(nid, parent, value_of(args, kwargs) if value_of else 0)
        current.set(idx)
        try:
            return await fn(*args, **kwargs)
        finally:
            tr.end[idx] = _clock()
            current.set(parent)

    return wrapper


def _wrap_generator(tr: Tracer, nid: int, fn):
    """One span per resumption, so the consumer's work between two
    ``next()`` calls is not charged to the generator.  The span's value
    is the number of items that resumption yielded (0 or 1)."""
    current = tr.current

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        while True:
            parent = current.get()
            idx = tr.open(nid, parent)
            current.set(idx)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tr.end[idx] = _clock()
                current.set(parent)
            tr.value[idx] = 1
            yield item

    return wrapper


def wrap_submit(tr: Tracer, layer: str, span: str, fn):
    """``Shard.submit``: carry the caller's span onto the worker thread.

    Records two spans under the caller's: ``queue_wait`` (submission to
    the worker picking the job up) and ``run`` (the job on the worker),
    so what is left of the caller's own time is the hand-off back.
    """
    current = tr.current
    wait_id = tr.intern(layer, f"{layer}.queue_wait")
    run_id = tr.intern(layer, f"{layer}.run")

    @functools.wraps(fn)
    def wrapper(self, job, *args, **kwargs):
        parent = current.get()
        submitted = _clock()

        def on_worker(*a, **k):
            tr.record(wait_id, parent, submitted, _clock())
            run = tr.open(run_id, parent)
            current.set(run)
            try:
                return job(*a, **k)
            finally:
                tr.end[run] = _clock()
                current.set(-1)

        return fn(self, on_worker, *args, **kwargs)

    return wrapper


def wrap_run_snapshot(tr: Tracer, layer: str, span: str, fn):
    """``EOSServer._run_snapshot``: the read runs on an executor thread,
    which does not inherit the task's context."""
    current = tr.current
    nid = tr.intern(layer, span)
    run_id = tr.intern(layer, f"{layer}.snapshot_run")

    @functools.wraps(fn)
    async def wrapper(self, shard, opcode, req, op):
        parent = current.get()
        idx = tr.open(nid, parent)

        def on_executor():
            run = tr.open(run_id, idx)
            current.set(run)
            try:
                return op()
            finally:
                tr.end[run] = _clock()
                current.set(-1)

        current.set(idx)
        try:
            return await fn(self, shard, opcode, req, on_executor)
        finally:
            tr.end[idx] = _clock()
            current.set(parent)

    return wrapper


# -- installation ------------------------------------------------------------


class Installer:
    """Puts wrappers in place and restores the originals."""

    def __init__(self, tracer: Tracer, values: dict) -> None:
        self.tracer = tracer
        self.values = values            # span name -> value extractor
        self._undo: list[tuple] = []    # (namespace, attribute, original)
        self.missing: list[str] = []
        self.wrapped = 0

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _make(self, layer: str, span: str, fn, special):
        tr = self.tracer
        if special is not None:
            return special(tr, layer, span, fn)
        nid = tr.intern(layer, span)
        if inspect.isgeneratorfunction(fn):
            return _wrap_generator(tr, nid, fn)
        if inspect.iscoroutinefunction(fn):
            return _wrap_async(tr, nid, fn, self.values.get(span))
        return _wrap_sync(tr, nid, fn, self.values.get(span))

    def install(self, layer, module_name, class_name, only, special=None) -> None:
        """Wrap one target: a class's methods or a module's functions.

        ``only`` restricts to the named attributes (and may name private
        ones); without it every public function the target defines is
        wrapped.  ``special`` maps attribute names to hand-written
        wrapper factories ``(tracer, layer, span, fn)``.
        """
        special = special or {}
        try:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{class_name or '*'}")
            return
        for attr in only or [a for a in vars(owner) if not a.startswith("_")]:
            raw = vars(owner).get(attr)
            if raw is None:
                if only:
                    self.missing.append(f"{module_name}.{class_name or ''}.{attr}")
                continue
            kind = type(raw)
            fn = raw.__func__ if kind in (classmethod, staticmethod) else raw
            if not inspect.isfunction(fn) or fn.__module__ != module_name:
                continue  # data, properties, re-exported helpers
            if inspect.isgeneratorfunction(getattr(fn, "__wrapped__", None)):
                continue  # @contextmanager: its body's calls are wrapped
            span = f"{layer}.{class_name + '.' if class_name else ''}{attr}"
            wrapper = self._make(layer, span, fn, special.get(attr))
            if kind in (classmethod, staticmethod):
                wrapper = kind(wrapper)
            self.wrapped += 1
            if class_name:
                self._replace(owner, attr, wrapper)
                continue
            # A module function may have been imported by name elsewhere
            # (``from repro.core.search import read_range as _read``).
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro"):
                    for key, value in list(vars(other).items()):
                        if value is raw:
                            self._replace(other, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class TransferTap:
    """``IOStats.observer`` that stamps each modelled transfer on the
    innermost open span (the disk call that caused it): value =
    ``pages * 2 + seeked``.  Chains to any observer already installed."""

    def __init__(self, tracer: Tracer, stats) -> None:
        self.tracer = tracer
        self.stats = stats
        self.previous = stats.observer
        stats.observer = self

    def on_transfer(self, first_page, n_pages, *, is_write, seeked) -> None:
        idx = self.tracer.current.get()
        if idx >= 0:
            self.tracer.value[idx] = n_pages * 2 + bool(seeked)
        if self.previous is not None:
            self.previous.on_transfer(
                first_page, n_pages, is_write=is_write, seeked=seeked
            )

    def remove(self) -> None:
        self.stats.observer = self.previous
