"""Real-parallelism runtime: one OS process per rank.

One object, :class:`RankMesh`, owns how a set of forked rank processes is
built, supervised, diagnosed and torn down: it forks N workers (under one
process-wide fork lock) wired by the pairwise pipe mesh, one duplex
control pipe per rank, a shared-memory status board and an optional
pre-fork :class:`~repro.machine.shm.ShmDataPlane`; runs the supervisor
loop that turns the ranks' control-pipe reports into a
:class:`RunResult`; builds the watchdog :class:`~repro.errors.
DeadlockError`; and tears everything down.  Two lifecycles sit on top:

* :class:`MpEngine` (here) builds a fresh mesh for every ``run``.  Its
  workers inherit the program through ``fork`` — it is never shipped —
  run the one job, drain leftover frames for the best-effort undelivered
  count, and exit, so an exact receive from a finished peer fails fast.
* :class:`~repro.serve.pool.RankPool` keeps one mesh warm and ships each
  job to it (see that module for the reset barrier between jobs).

Both run the same rank job body (:meth:`repro.machine.mp.worker.
RankProcess.run_job`).

:class:`MpEngine` mirrors the virtual-time :class:`~repro.machine.engine.
Engine` API — ``run(program, args) -> RunResult``.  Clocks, phase times,
and trace events are **wall-clock seconds since run start** (one
monotonic epoch captured before forking; ``CLOCK_MONOTONIC`` is
process-wide on the platforms fork exists on, so child timestamps are
comparable).  The parent is a supervisor, not a router: data moves
directly between rank processes, and ``repro.obs`` (reports, Perfetto
export, run-metrics registry) works on real runs unchanged.

A watchdog bounds every job in wall time: real execution cannot prove a
deadlock the way the virtual-time engine can (it *knows* when every rank
is blocked), so after ``timeout`` seconds the parent raises
:class:`DeadlockError` with each rank's last self-reported blocked
receive from the status board, and kills the ranks.  A rank that dies
without reporting, closes its control pipe mid-job, or fails after a
peer process died raises :class:`~repro.errors.RankCrashError`.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from multiprocessing.connection import wait as conn_wait
from typing import Any, Callable, Generator, List, Optional

from repro.errors import BlockedOp, DeadlockError, EngineError, RankCrashError
from repro.machine.api import Op, Rank
from repro.machine.cost import MachineModel
from repro.machine.mp.transport import build_pipe_mesh, close_mesh_except
from repro.machine.mp.worker import ST_BLOCKED, ST_DONE, worker_main
from repro.machine.shm import (
    ShmDataPlane,
    shm_enabled_default,
    shm_threshold_default,
)
from repro.machine.stats import RankStats, RunResult
from repro.machine.topology import FullyConnected, Topology
from repro.machine.trace import TraceEvent

RankProgram = Callable[[Rank], Generator[Op, Any, Any]]

# Forking a mesh from a multi-threaded parent (the sharded server runs
# one scheduler thread per shard) is safe for *our* state because workers
# re-read everything they need from their arguments or job messages — but
# two meshes forking concurrently could each inherit the other's
# half-built pipe fds.  One process-wide lock serializes mesh
# construction; it is held only while forking, never while running jobs.
_FORK_LOCK = threading.Lock()


class RankMesh:
    """``nranks`` forked rank processes wired for one or many jobs.

    ``target(rank_id, nranks, mesh, ctrls, shared_state, dataplane,
    *extra)`` is each child's entry point.  ``shm``/``shm_threshold``
    default to the ``REPRO_SHM``/``REPRO_SHM_THRESHOLD`` environment.
    The data plane is created *before* forking so children inherit the
    primary mapping; the parent is the extra party that decodes gathered
    results out of finish records.
    """

    def __init__(self, nranks: int, target, extra: tuple = (),
                 shm: Optional[bool] = None,
                 shm_threshold: Optional[int] = None,
                 name: str = "repro-mp"):
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            raise EngineError(
                "real-process ranks need the 'fork' start method (POSIX); "
                "use backend='sim' on this platform"
            ) from None
        if shm is None:
            shm = shm_enabled_default()
        if shm_threshold is None:
            shm_threshold = shm_threshold_default()
        self.nranks = n = nranks
        with _FORK_LOCK:
            mesh = build_pipe_mesh(ctx, n)
            pairs = [ctx.Pipe(duplex=True) for _ in range(n)]
            self.ctrls = [a for a, _b in pairs]
            child_ends = [b for _a, b in pairs]
            # Status board: (status, blocked_src, blocked_tag) per rank,
            # written by children, read by the parent on watchdog expiry.
            self.shared_state = ctx.RawArray("l", 3 * n)
            self.plane = (ShmDataPlane(n, threshold=shm_threshold)
                          if shm else None)
            self.procs = []
            for r in range(n):
                p = ctx.Process(
                    target=target,
                    args=(r, n, mesh, child_ends, self.shared_state,
                          self.plane, *extra),
                    name=f"{name}-rank-{r}",
                    daemon=True,
                )
                p.start()
                self.procs.append(p)
            # The parent keeps no data-plane ends and no child control ends.
            close_mesh_except(mesh, None)
            for c in child_ends:
                c.close()

    def alive(self) -> bool:
        return all(p.is_alive() for p in self.procs)

    # --- supervisor loop -------------------------------------------------

    def supervise(self, t0: float, timeout: float, trace: bool) -> RunResult:
        """Collect one job's reports from every rank into a
        :class:`RunResult`; raise on the first failure."""
        n = self.nranks
        procs, ctrls = self.procs, self.ctrls
        deadline = time.monotonic() + timeout
        clocks: List[Optional[float]] = [None] * n
        stats: List[Optional[RankStats]] = [None] * n
        values: List[Any] = [None] * n
        trace_events: Optional[List[TraceEvent]] = [] if trace else None
        pending = set(range(n))

        while pending:
            remaining = deadline - time.monotonic()
            waitables = {ctrls[r]: ("ctrl", r) for r in pending}
            waitables.update({procs[r].sentinel: ("dead", r) for r in pending})
            ready = (conn_wait(list(waitables), timeout=remaining)
                     if remaining > 0 else [])
            if not ready:
                raise self._deadlock(pending, t0)
            for obj in ready:
                what, r = waitables[obj]
                if r not in pending:
                    continue
                if what == "dead":
                    if ctrls[r].poll(0):
                        continue  # its last report is still in the pipe
                    raise self._crash(r)
                try:
                    msg = obj.recv()
                except (EOFError, ConnectionResetError):
                    raise self._crash(r) from None
                kind = msg[0]
                if kind == "trace":
                    if trace_events is not None:
                        trace_events.extend(msg[1])
                elif kind == "finish":
                    _, clock, value, rstats = msg
                    if self.plane is not None:
                        value, _b, _blk = self.plane.decode(value)
                    clocks[r] = clock
                    values[r] = value
                    stats[r] = rstats
                    pending.discard(r)
                elif kind == "error":
                    _, clock, tb, _rstats = msg
                    # A rank that trips over a dead peer (EOF on a mesh
                    # pipe) reports an "error" like any other exception —
                    # but if a peer process died, the death is the cause.
                    dead = [i for i, p in enumerate(procs)
                            if p.exitcode not in (None, 0)]
                    if dead:
                        raise RankCrashError(
                            f"rank {r} failed after rank(s) {dead} died "
                            f"mid-job:\n{tb}"
                        )
                    raise EngineError(
                        f"rank {r} failed after {clock:.3f}s wall:\n{tb}"
                    )
                else:  # pragma: no cover - protocol future-proofing
                    raise EngineError(
                        f"unknown control message {kind!r} from rank {r}"
                    )

        if trace_events is not None:
            for r in range(n):
                trace_events.append(TraceEvent(
                    rank=r, kind="finish", start=clocks[r], end=clocks[r]
                ))
            trace_events.sort(key=lambda e: (e.start, e.rank))
        result = RunResult(
            nranks=n,
            clocks=[c if c is not None else 0.0 for c in clocks],
            stats=stats,
            values=values,
        )
        result.trace = trace_events
        return result

    def _crash(self, r: int) -> RankCrashError:
        proc = self.procs[r]
        proc.join(1.0)
        if proc.exitcode is None:
            return RankCrashError(f"rank {r} closed its control pipe mid-job")
        return RankCrashError(
            f"rank {r} died without reporting (exit code {proc.exitcode})"
        )

    def _deadlock(self, pending, t0: float) -> DeadlockError:
        """Build the diagnostic from each stuck rank's status board entry."""
        wall = time.monotonic() - t0
        board = self.shared_state
        blocked = {}
        for r in sorted(pending):
            status = board[3 * r]
            if status == ST_BLOCKED:
                blocked[r] = BlockedOp(
                    source=int(board[3 * r + 1]),
                    tag=int(board[3 * r + 2]),
                    phase="(mp)",
                    clock=wall,
                )
            elif status != ST_DONE:
                blocked[r] = BlockedOp(source=-9, tag=-9, phase="(running)",
                                       clock=wall)
        return DeadlockError(
            blocked or {r: (-9, -9) for r in sorted(pending)},
        )

    # --- teardown --------------------------------------------------------

    def close(self, grace: float = 0.0) -> None:
        """Release every OS resource.  With ``grace``, ask the workers to
        ``stop`` and give them that long to exit on their own (flushing
        their senders) before the survivors are terminated."""
        if grace:
            for c in self.ctrls:
                try:
                    c.send(("stop",))
                except (OSError, ValueError):
                    pass  # that worker already closed its end
            deadline = time.monotonic() + grace
            for p in self.procs:
                p.join(max(deadline - time.monotonic(), 0.0))
        for p in self.procs:
            if p.is_alive():
                p.terminate()
        for p in self.procs:
            p.join(5.0)
        for p in self.procs:
            try:  # releases the sentinel fd now, not at GC time
                p.close()
            except ValueError:
                pass  # still alive after terminate+join; GC reaps it
        for c in self.ctrls:
            try:
                c.close()
            except OSError:
                pass
        if self.plane is not None:
            # Every child is joined: unlink all segments (including any a
            # crashed rank grew) via the prefix sweep.
            self.plane.close(unlink=True)


class MpEngine:
    """Run an SPMD program with real parallelism, one fresh mesh per run.

    Parameters
    ----------
    machine:
        Cost model handed to ``rank.machine`` so runtime code computing
        charges runs unchanged; the modelled seconds are **not** slept.
    topology:
        Interconnect metadata for ``rank.topology`` (hop counts still
        inform the runtime's combining decisions; defaults to
        :class:`FullyConnected`, which all-OS-process execution really is).
    nranks:
        World size; defaults to ``topology.size``.
    trace:
        Stream :class:`TraceEvent` records (wall-clock times) back from
        every rank.
    timeout:
        Watchdog bound on the whole run, wall seconds.  On expiry every
        rank is killed and :class:`DeadlockError` is raised.
    shm:
        Route bulk payloads through a :class:`~repro.machine.shm.
        ShmDataPlane` (shared-memory blocks; pipes carry only control
        frames).  Defaults to on; ``REPRO_SHM=0`` is the environment
        kill switch.  Semantics are identical either way — only the
        transport (and the ``shm_*``/``pipe_*`` counters) change.
    shm_threshold:
        Payload size in bytes below which the pickle path is kept
        (default 2048, or ``REPRO_SHM_THRESHOLD``).
    """

    def __init__(
        self,
        machine: MachineModel,
        topology: Optional[Topology] = None,
        nranks: Optional[int] = None,
        trace: bool = False,
        timeout: float = 120.0,
        shm: Optional[bool] = None,
        shm_threshold: Optional[int] = None,
    ):
        if topology is None:
            if nranks is None:
                raise EngineError("MpEngine needs a topology or an explicit nranks")
            topology = FullyConnected(nranks)
        self.machine = machine
        self.topology = topology
        self.nranks = nranks if nranks is not None else topology.size
        if self.nranks > topology.size:
            raise EngineError(
                f"nranks={self.nranks} exceeds topology size {topology.size}"
            )
        self.trace = trace
        if timeout <= 0:
            raise EngineError(f"timeout must be > 0, got {timeout}")
        self.timeout = timeout
        self.shm = shm
        self.shm_threshold = shm_threshold

    def run(
        self,
        program: RankProgram,
        args: Optional[List[Any]] = None,
    ) -> RunResult:
        """Execute ``program`` on ``nranks`` OS processes; returns the
        same :class:`RunResult` shape the simulator does, with wall-clock
        seconds in place of virtual time."""
        if args is not None and len(args) != self.nranks:
            raise EngineError(f"args must have length {self.nranks}")
        t0 = time.monotonic()
        mesh = RankMesh(
            self.nranks, worker_main,
            (program, args, self.machine, self.topology, t0, self.trace),
            shm=self.shm, shm_threshold=self.shm_threshold,
        )
        try:
            result = mesh.supervise(t0, self.timeout, self.trace)
        except BaseException:
            mesh.close()
            raise
        mesh.close(grace=10.0)  # the workers are exiting on their own
        return result
