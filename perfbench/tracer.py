"""Per-layer host-time tracer that works from outside the program.

The tracer edits nothing under ``src/``.  While it is installed it
replaces the public entry points of each layer (module functions and
class methods) with timing wrappers, everywhere the running program can
reach them: the defining module, every ``repro`` module that imported
the name, and the class dictionaries of distribution subclasses.
``uninstall`` puts every original back.

Accounting is a span stack.  A span covers one call of a wrapped
function, or one *resumption* of a wrapped generator (the rank programs
are generators driven by the engine, so a generator's host time is the
sum of the intervals in which it actually runs).  A layer's self time
is the duration of its spans minus the part covered by child spans.
Every traced unit of work runs under a root span of layer ``other``, so
the self times of all layers plus ``other`` add up to the traced wall
time exactly (up to float rounding) -- :meth:`Tracer.reconcile_error`
reports the difference.

``incl_s`` adds up the time from entering a layer to leaving it, children
included -- the cumulative view a profiler gives.  A call counts towards
``calls[layer]`` only when it *enters* the layer
(its caller is in another layer): nested ``_check_index`` inside
``to_local`` or a ``reduce`` inside ``allreduce`` are one entry.
Spans are kept in memory (up to ``max_spans``) and written as
Chrome-trace JSON by :meth:`write_chrome`.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

perf = time.perf_counter

# (module, qualified name, layer).  A name with a dot is a class method.
TARGETS: List[Tuple[str, str, str]] = [
    ("repro.runtime.executor", "run_executor", "runtime.executor"),
    ("repro.runtime.inspector", "run_inspector", "runtime.inspector"),
    ("repro.comm.crystal", "crystal_route", "comm.crystal"),
    ("repro.comm.collectives", "allreduce", "comm.collective"),
    ("repro.comm.collectives", "reduce", "comm.collective"),
    ("repro.comm.collectives", "bcast", "comm.collective"),
    ("repro.comm.collectives", "barrier", "comm.collective"),
    ("repro.comm.collectives", "gather", "comm.collective"),
    ("repro.comm.collectives", "allgather", "comm.collective"),
    ("repro.comm.collectives", "alltoall", "comm.collective"),
    ("repro.comm.collectives", "scan", "comm.collective"),
    ("repro.machine.api", "Send.wire_size", "machine.payload_sizing"),
    ("repro.core.context", "KaliContext.run", "core.run"),
    ("repro.core.context", "KaliRank.forall", "core.run"),
    ("repro.analysis.closedform", "build_closed_form_schedule",
     "analysis.closedform"),
    ("repro.lang.interp", "compile_kali", "lang.compile"),
    ("repro.lang.interp", "CompiledKali.run", "lang.interp"),
    ("repro.lang.lower", "lower_forall", "lang.lower"),
    ("repro.structs.dhash", "DHash.insert_many", "structs.insert"),
    ("repro.structs.dhash", "DHash.add_many", "structs.add"),
    ("repro.structs.dhash", "DHash.lookup_many", "structs.lookup"),
    ("repro.structs.dhash", "DHash.delete_many", "structs.delete"),
    ("repro.structs.dhash", "LocalStore.apply", "structs.apply"),
    ("repro.structs.exchange", "combining_route", "structs.route"),
]

# Top-level payload sizing only: ``payload_nbytes`` recurses through its
# own module global, which stays unwrapped; the call sites that import it
# (and ``Send.wire_size`` above) are wrapped.
TOP_LEVEL_ONLY = [("repro.machine.api", "payload_nbytes",
                   "machine.payload_sizing")]

DIST_METHODS = ("owner", "to_local", "_check_index")


class Tracer:
    """Span-stack accounting of host time per layer (module docstring)."""

    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.self_s: Dict[str, float] = defaultdict(float)
        # time from entering a layer to leaving it, children included
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.spans: List[Tuple[str, str, float, float, int]] = []
        self.dropped = 0
        self.wall_s = 0.0
        self.t0 = perf()
        self._stack: List[list] = []
        self._open: Dict[str, int] = defaultdict(int)  # open spans per layer
        self._patches: List[Tuple[object, str, object]] = []

    # --- span stack -------------------------------------------------------

    def _layer(self) -> str:
        return self._stack[-1][0] if self._stack else "other"

    def _push(self, layer: str, name: str) -> None:
        self._open[layer] += 1
        self._stack.append([layer, name, perf(), 0.0])

    def _pop(self) -> float:
        layer, name, start, child = self._stack.pop()
        dur = perf() - start
        self.self_s[layer] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        self._open[layer] -= 1
        if not self._open[layer]:  # outermost span of this layer
            self.incl_s[layer] += dur
        if len(self.spans) < self.max_spans:
            self.spans.append((layer, name, start, dur, len(self._stack)))
        else:
            self.dropped += 1
        return dur

    def run_root(self, fn: Callable, *args):
        """Run one unit of work under the root span; returns fn's value."""
        self._push("other", "unit")
        try:
            return fn(*args)
        finally:
            self.wall_s += self._pop()

    def reconcile_error(self) -> float:
        """|sum of layer self times - traced wall| in seconds."""
        return abs(sum(self.self_s.values()) - self.wall_s)

    # --- wrappers ---------------------------------------------------------

    def _timed_gen(self, gen, layer: str, name: str):
        """Drive ``gen``, timing each resumption as one span."""
        value, exc = None, None
        while True:
            self._push(layer, name)
            try:
                op = gen.throw(exc) if exc is not None else gen.send(value)
            except StopIteration as stop:
                self._pop()
                return stop.value
            except BaseException:
                self._pop()
                raise
            self._pop()
            value, exc = None, None
            try:
                value = yield op
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # forwarded into the inner gen
                exc = err

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        name = getattr(fn, "__qualname__", repr(fn))
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                if tracer._layer() != layer:
                    tracer.calls[layer] += 1
                return (yield from tracer._timed_gen(fn(*args, **kwargs),
                                                     layer, name))
        else:
            def wrapper(*args, **kwargs):
                if tracer._layer() != layer:
                    tracer.calls[layer] += 1
                tracer._push(layer, name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._pop()
        wrapper.__wrapped__ = fn
        wrapper.__qualname__ = name
        return wrapper

    def _wrap_engine_run(self, fn: Callable) -> Callable:
        """Engine dispatch is ``machine.engine``; the rank programs it
        drives are charged to the layer that launched the engine."""
        tracer = self

        def engine_run(engine, program, args=None):
            launcher = tracer._layer()
            label = getattr(program, "__qualname__", "rank program")

            def timed_program(rank):
                return tracer._timed_gen(program(rank), launcher, label)

            if tracer._layer() != "machine.engine":
                tracer.calls["machine.engine"] += 1
            tracer._push("machine.engine", "Engine.run")
            try:
                return fn(engine, timed_program, args)
            finally:
                tracer._pop()

        engine_run.__wrapped__ = fn
        return engine_run

    def _wrap_context_run(self, fn: Callable) -> Callable:
        """Kali-language rank programs (the interpreter) are ``lang.interp``;
        other rank-side core code stays in ``core.run``."""
        wrapped = self._wrap(fn, "core.run")
        tracer = self

        def context_run(ctx, program):
            if getattr(program, "__module__", "").startswith("repro.lang"):
                inner = program

                def program(kr):
                    return tracer._timed_gen(inner(kr), "lang.interp",
                                             "interpreter")
            return wrapped(ctx, program)

        context_run.__wrapped__ = fn
        return context_run

    # --- install / uninstall ----------------------------------------------

    def _set(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, modname: str, fname: str, wrapper: Callable,
                        skip_home: bool = False) -> None:
        home = sys.modules[modname]
        original = getattr(home, fname)
        for mname, module in list(sys.modules.items()):
            if not mname.startswith("repro") or module is None:
                continue
            if skip_home and module is home:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        import importlib

        from repro.distributions.base import DimDistribution
        from repro.machine.engine import Engine

        for modname, qualname, layer in TARGETS + TOP_LEVEL_ONLY:
            importlib.import_module(modname)
        for modname, qualname, layer in TARGETS:
            module = sys.modules[modname]
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name)
                fn = cls.__dict__[meth]
                if qualname == "KaliContext.run":
                    self._set(cls, meth, self._wrap_context_run(fn))
                else:
                    self._set(cls, meth, self._wrap(fn, layer))
            else:
                self._patch_function(modname, qualname,
                                     self._wrap(getattr(module, qualname),
                                                layer))
        for modname, fname, layer in TOP_LEVEL_ONLY:
            fn = getattr(sys.modules[modname], fname)
            self._patch_function(modname, fname, self._wrap(fn, layer),
                                 skip_home=True)
        self._set(Engine, "run", self._wrap_engine_run(Engine.__dict__["run"]))
        todo = [DimDistribution]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            for meth in DIST_METHODS:
                if meth in cls.__dict__:
                    self._set(cls, meth, self._wrap(cls.__dict__[meth],
                                                    "distributions.index"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- output -----------------------------------------------------------

    def write_chrome(self, path: str, meta: Dict) -> None:
        events = [{"name": name, "cat": layer, "ph": "X", "pid": 0,
                   "tid": 0, "ts": (start - self.t0) * 1e6, "dur": dur * 1e6,
                   "args": {"depth": depth}}
                  for layer, name, start, dur, depth in self.spans]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {**meta, "dropped_spans": self.dropped}},
                      fh)
