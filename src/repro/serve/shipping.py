"""Shipping rank programs to already-forked pool workers.

The fork-per-run backend never serializes the rank program: children
inherit it through ``fork()``.  A warm pool breaks that trick — workers
fork *once*, and every later job must cross a pipe.  Plain :mod:`pickle`
refuses closures and lambdas (it pickles functions by reference), and the
rank programs the runtime builds are exactly that: nested generator
functions capturing array data, Forall objects whose kernels may be
lambdas, and app state.

:func:`dumps`/:func:`loads` extend pickle with a by-value fallback for
functions that cannot be found by import path:

* the code object travels via :mod:`marshal` (safe here: the pool worker
  is forked from the very interpreter that produced it),
* closure cells are unwrapped and their contents recursively shipped
  through the same pickler (so a closure may capture another closure),
* globals are **re-bound by module name** on the receiving side.  The
  worker was forked from the submitting process, so any module imported
  before the pool started is already present; one imported only *after*
  the fork (a pool forks lazily on its first job, so a later job may come
  from a module that job never touched) is imported in the worker by
  name.  A module that cannot be imported there raises a clear error
  instead of a silent NameError at call time.

Importable functions (``module.qualname`` resolves back to the same
object) still pickle by reference — cheap, and robust to code that was
already importable.  This is deliberately a minimal, same-interpreter
shipping layer, not a general cloudpickle: it never crosses interpreter
versions (marshal would break) and it does not ship module source.
"""

from __future__ import annotations

import importlib
import io
import marshal
import pickle
import sys
import types
from typing import Any, Optional, Tuple

from repro.errors import KaliError


class ShippingError(KaliError):
    """A program could not be shipped to (or rebuilt on) a pool worker."""


#: sentinel for closure cells that are still empty (e.g. a not-yet-bound
#: recursive inner function); rebuilt as empty cells on the far side
_EMPTY_CELL = "__repro_empty_cell__"


def _lookup_importable(module: Optional[str], qualname: Optional[str]):
    """The object ``module.qualname`` resolves to, or None."""
    if not module or not qualname or "<locals>" in qualname:
        return None
    mod = sys.modules.get(module)
    if mod is None:
        return None
    obj = mod
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _make_skeleton(
    code_bytes: bytes,
    module: str,
    qualname: str,
    ncells: int,
):
    """Rebuild a shipped function with *empty* cells.  The skeleton exists
    (and is memoized by the unpickler) before any cell contents unpickle,
    so self-referential closures — a recursive inner function whose cell
    holds the function itself — resolve to the skeleton instead of
    recursing forever.  :func:`_fill_function` populates it afterwards."""
    try:
        code = marshal.loads(code_bytes)
    except (ValueError, EOFError, TypeError) as exc:  # pragma: no cover
        raise ShippingError(
            f"cannot rebuild shipped function {module}.{qualname}: {exc}"
        ) from exc
    mod = sys.modules.get(module)
    if mod is None:
        try:
            mod = importlib.import_module(module)
        except ImportError as exc:
            raise ShippingError(
                f"shipped function {qualname} needs module {module!r}, "
                f"which cannot be imported in the pool worker: {exc}"
            ) from exc
    closure = tuple(types.CellType() for _ in range(ncells))
    fn = types.FunctionType(code, mod.__dict__, code.co_name, None, closure)
    fn.__qualname__ = qualname
    return fn


def _fill_function(fn, state):
    """State setter applied after the skeleton is memoized."""
    cell_values, defaults, kwdefaults, fn_dict = state
    for cell, value in zip(fn.__closure__ or (), cell_values):
        if not (isinstance(value, str) and value == _EMPTY_CELL):
            cell.cell_contents = value
    fn.__defaults__ = defaults
    if kwdefaults:
        fn.__kwdefaults__ = dict(kwdefaults)
    if fn_dict:
        fn.__dict__.update(fn_dict)
    return fn


class _ShippingPickler(pickle.Pickler):
    """Pickler that falls back to by-value shipping for local functions."""

    def reducer_override(self, obj):
        if isinstance(obj, types.FunctionType):
            if _lookup_importable(obj.__module__, obj.__qualname__) is obj:
                return NotImplemented  # plain by-reference pickling
            cells = []
            for cell in obj.__closure__ or ():
                try:
                    cells.append(cell.cell_contents)
                except ValueError:
                    cells.append(_EMPTY_CELL)
            ncells = len(obj.__closure__ or ())
            return (
                _make_skeleton,
                (
                    marshal.dumps(obj.__code__),
                    obj.__module__ or "builtins",
                    obj.__qualname__,
                    ncells,
                ),
                (
                    tuple(cells),
                    obj.__defaults__,
                    obj.__kwdefaults__,
                    dict(obj.__dict__) or None,
                ),
                None,
                None,
                _fill_function,
            )
        return NotImplemented


def dumps(obj: Any) -> bytes:
    """Serialize ``obj`` (closures and lambdas included) for a pool worker."""
    buf = io.BytesIO()
    try:
        _ShippingPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    except (pickle.PicklingError, TypeError, ValueError, AttributeError) as exc:
        raise ShippingError(
            f"cannot ship object to pool worker: {exc!r} — pool jobs must "
            "close over picklable state (no open files, sockets, or pools)"
        ) from exc
    return buf.getvalue()


def loads(data: bytes) -> Any:
    return pickle.loads(data)


def dumps_via(obj: Any, plane, consumers) -> Tuple[Any, int]:
    """Serialize ``obj`` and, when a shm data plane is available and the
    payload clears its threshold, publish the bytes **once** as a shared
    block every consumer reads — the job message then carries only the
    :class:`~repro.machine.shm.ShmRef`.  This is how shipped schedules
    (rank programs closing over scattered operands) cross the control
    pipes without ``nranks`` pickled copies.

    Returns ``(payload_or_ref, shm_bytes)`` where ``shm_bytes`` is the
    serialized size if it went via shm, else 0."""
    payload = dumps(obj)
    if plane is not None and len(payload) >= plane.threshold:
        ref = plane.publish(payload, consumers)
        if ref is not None:
            return ref, len(payload)
    return payload, 0


def loads_via(payload: Any, plane) -> Any:
    """Inverse of :func:`dumps_via` on the worker side: resolve a shm ref
    (one copy out of the shared block) or unpickle inline bytes."""
    if not isinstance(payload, (bytes, bytearray)):
        if plane is None:
            raise ShippingError(
                "job payload is a shm ref but this worker has no data plane"
            )
        payload = plane.read(payload)
    return loads(payload)
