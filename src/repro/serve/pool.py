"""Warm rank pool: the mp backend's rank mesh, kept warm across jobs.

``MpEngine`` pays the full cold-start bill on every run: fork one process
per rank, build the O(n²) pipe mesh, tear it all down.  For the paper's
target workload — the *same* forall executed over and over — that bill
dominates.  :class:`RankPool` builds the same
:class:`~repro.machine.mp.engine.RankMesh` **once** and runs many
successive jobs on it.  Fork, supervision, the watchdog diagnostic and
teardown are the mesh's; the rank job body is the same
:meth:`~repro.machine.mp.worker.RankProcess.run_job` the fork-per-run
workers call.  What is the pool's own is the lifecycle around them:

1. the parent ships the job (program via :mod:`repro.serve.shipping`,
   machine model, topology, per-rank args, a fresh wall-clock epoch) down
   each rank's control pipe;
2. each worker runs the job body and reports ``finish`` with a fresh
   :class:`RankStats`; the mesh's supervisor collects the reports;
3. after all ranks finish, the parent broadcasts ``reset``: every worker
   drains and discards frames still in its pipes (every peer flushed
   before reporting, so all leftovers are readable by then), clears its
   inbox, rewinds its shm arena, and acks — job N+1 cannot observe job
   N's messages, and the discards are job N's exact undelivered count.

Failure semantics: a rank error, watchdog expiry, or rank death fails
*the job* (the same exception types ``MpEngine`` raises, including
:class:`~repro.errors.RankCrashError`) and condemns the mesh — pairwise
pipes cannot be re-plumbed into a replacement process after fork, so
crashed ranks are replaced by rebuilding the whole mesh, which the next
``run`` (or an explicit :meth:`check_health`) does automatically.
``pool.rebuilds`` counts how often that happened.

``RankPool.run`` returns the same :class:`RunResult` shape as both
engines, so ``repro.obs`` and the differential harness work on pooled
runs unchanged.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, List, Optional

from repro.errors import EngineError, RankCrashError
from repro.machine.cost import MachineModel
from repro.machine.mp.engine import RankMesh
from repro.machine.mp.worker import RankProcess
from repro.machine.stats import RankStats, RunResult
from repro.machine.topology import FullyConnected, Topology
# Imported for the side effect: pool workers are forked, so anything the
# parent has already imported is inherited for free.  Without this the
# first disk-tier job pays the diskcache (+hashlib/pickle) import once
# per worker, serialized on oversubscribed hosts.
from repro.serve import diskcache as _diskcache  # noqa: F401
from repro.serve import shipping


def _pool_worker_main(rank_id, nranks, mesh, ctrls, shared_state,
                      dataplane=None):
    """Persistent rank process: serve jobs until ``stop`` (or parent EOF).

    The :class:`RankProcess` (sender thread, inbox, pipe ends) lives for
    the whole pool; per-job state is rebuilt by its job body from every
    job message.  The shm ``dataplane`` (when the pool has one) also
    lives pool-long: each worker's arena is rewound at the reset barrier,
    which is the pool-reset reclamation the obs counters report.
    """
    proc = RankProcess(rank_id, nranks, mesh, ctrls, shared_state, dataplane)
    conn = proc.ctrl
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break  # parent is gone; nothing left to serve
            kind = msg[0]
            if kind == "stop":
                break
            if kind == "ping":
                conn.send(("pong", msg[1]))
                continue
            if kind == "reset":
                proc.inbox.drain_ready(time.monotonic)
                reclaimed = (dataplane.reset_party()
                             if dataplane is not None else 0)
                conn.send(("reset_done", proc.inbox.reset(), reclaimed))
                continue
            if kind != "job":
                conn.send(("error", 0.0, f"unknown pool command {kind!r}",
                           RankStats(rank_id)))
                continue
            _, t0, payload, machine, topology, arg, trace = msg

            def program(rank, payload=payload):
                return shipping.loads_via(payload, dataplane)(rank)

            # On an error report the parent fails the job and rebuilds
            # the mesh; keep answering the control pipe until then.
            if not proc.run_job(program, arg, machine, topology, t0, trace,
                                count_leftover=False):
                break
    finally:
        proc.close()


class RankPool:
    """A persistent pool of ``nranks`` warm rank processes.

    Parameters
    ----------
    nranks:
        World size of every job this pool runs.
    timeout:
        Default per-job watchdog bound, wall seconds (overridable per
        ``run``).

    The shm data plane follows the ``REPRO_SHM``/``REPRO_SHM_THRESHOLD``
    environment defaults (see docs/dataplane.md).  Use as a context
    manager, or call :meth:`close` explicitly — teardown joins every
    worker (whose sender threads are flushed and stopped), closes every
    control pipe, and releases the process sentinels, so a pool's
    lifetime leaks no file descriptors.
    """

    _ids = itertools.count(1)

    def __init__(self, nranks: int, timeout: float = 120.0):
        if nranks < 1:
            raise EngineError(f"pool needs nranks >= 1, got {nranks}")
        if timeout <= 0:
            raise EngineError(f"timeout must be > 0, got {timeout}")
        self.nranks = nranks
        self.timeout = timeout
        self.shm_ship_bytes = 0       # program payload bytes shipped via shm
        self.shm_reclaimed_bytes = 0  # arena bytes rewound at reset barriers
        self.name = f"pool-{next(RankPool._ids)}"
        self._mesh: Optional[RankMesh] = None
        self._mesh_jobs = 0       # jobs completed on the current mesh
        self.jobs_done = 0        # jobs completed over the pool's lifetime
        self.rebuilds = 0         # meshes rebuilt after a crash/failure
        self.meshes_built = 0
        self.last_pool_reused = False
        self._closed = False

    # --- lifecycle -------------------------------------------------------

    def start(self) -> "RankPool":
        """Fork the mesh now (otherwise the first job does it lazily)."""
        self._ensure_started()
        return self

    @property
    def started(self) -> bool:
        return self._mesh is not None

    def _ensure_started(self) -> None:
        if self._closed:
            raise EngineError(f"{self.name} is closed")
        if self._mesh is not None:
            if self._mesh.alive():
                return
            self._condemn()   # a rank died between jobs
        self._mesh = RankMesh(self.nranks, _pool_worker_main,
                              name=f"repro-{self.name}")
        self._mesh_jobs = 0
        self.meshes_built += 1

    def _teardown_mesh(self, grace: float = 0.0) -> None:
        if self._mesh is not None:
            self._mesh.close(grace)
            self._mesh = None

    def _condemn(self) -> None:
        """Kill a mesh in unknown state; the next job rebuilds it."""
        self._teardown_mesh()
        self.rebuilds += 1

    def close(self) -> None:
        """Drain the mesh and release every OS resource (idempotent)."""
        if self._closed:
            return
        self._teardown_mesh(grace=2.0)
        self._closed = True

    def __enter__(self) -> "RankPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = ("closed" if self._closed
                 else "warm" if self._mesh is not None else "cold")
        return (f"RankPool({self.name}, nranks={self.nranks}, {state}, "
                f"jobs_done={self.jobs_done}, rebuilds={self.rebuilds})")

    # --- health ----------------------------------------------------------

    def check_health(self, timeout: float = 5.0) -> dict:
        """Ping every worker; rebuild the mesh if any is dead or mute.

        Returns ``{"healthy": bool, "alive": [...], "rebuilt": bool}``
        describing the state *before* any rebuild.  Only call between
        jobs (workers answer pings from their command loop).
        """
        if self._closed:
            raise EngineError(f"{self.name} is closed")
        if self._mesh is None:
            self._ensure_started()
            return {"healthy": True, "alive": list(range(self.nranks)),
                    "rebuilt": False, "warm": False}
        nonce = time.monotonic_ns()
        alive = []
        for r, c in enumerate(self._mesh.ctrls):
            try:
                c.send(("ping", nonce))
                if c.poll(timeout) and c.recv() == ("pong", nonce):
                    alive.append(r)
            except (OSError, EOFError):
                pass
        healthy = alive == list(range(self.nranks))
        if not healthy:
            self._condemn()
            self._ensure_started()
        return {"healthy": healthy, "alive": alive, "rebuilt": not healthy,
                "warm": True}

    # --- job execution ---------------------------------------------------

    def run(
        self,
        program,
        machine: MachineModel,
        topology: Optional[Topology] = None,
        args: Optional[List[Any]] = None,
        trace: bool = False,
        timeout: Optional[float] = None,
    ) -> RunResult:
        """Run one job on the warm mesh; returns an ``MpEngine``-shaped
        :class:`RunResult` (wall-clock seconds, real per-rank counters).

        On any job failure (rank error, death, watchdog) the mesh is
        condemned and rebuilt lazily by the next call; the failure is
        raised for *this* job with the same exception types the
        fork-per-run backend uses.
        """
        if args is not None and len(args) != self.nranks:
            raise EngineError(f"args must have length {self.nranks}")
        if topology is None:
            topology = FullyConnected(self.nranks)
        if self.nranks > topology.size:
            raise EngineError(
                f"nranks={self.nranks} exceeds topology size {topology.size}"
            )
        self._ensure_started()
        mesh = self._mesh
        self.last_pool_reused = self._mesh_jobs > 0
        # Shipped schedules ride the data plane: serialize once, publish
        # one shared block every rank reads, send only the ref n times.
        payload, shipped = shipping.dumps_via(
            program, mesh.plane, range(self.nranks))
        self.shm_ship_bytes += shipped
        t0 = time.monotonic()
        try:
            try:
                for r, c in enumerate(mesh.ctrls):
                    c.send(("job", t0, payload, machine, topology,
                            args[r] if args is not None else None, trace))
                result = mesh.supervise(
                    t0, timeout if timeout is not None else self.timeout,
                    trace)
                self._reset_barrier(result)
            except (BrokenPipeError, ConnectionResetError) as io_err:
                # A pipe endpoint vanished under us: some rank died
                # between health checks.  Infrastructure, not program.
                raise RankCrashError(
                    f"a rank's pipe failed mid-job ({io_err})"
                ) from io_err
        except Exception:
            # Condemn the mesh: a failed job leaves workers in unknown
            # comm state.  The next run (or health check) rebuilds.
            self._condemn()
            raise
        self._mesh_jobs += 1
        self.jobs_done += 1
        return result

    def _reset_barrier(self, result: RunResult, timeout: float = 30.0) -> None:
        """Broadcast ``reset``; workers discard frames job N left in the
        pipes (all readable: every sender flushed before its finish
        report).  Discards are accounted as that job's undelivered
        messages, exactly like the fork-per-run backend's post-run drain."""
        mesh = self._mesh
        for c in mesh.ctrls:
            c.send(("reset",))
        deadline = time.monotonic() + timeout
        for r, c in enumerate(mesh.ctrls):
            remaining = max(deadline - time.monotonic(), 0.0)
            if not c.poll(remaining):
                raise RankCrashError(
                    f"rank {r} failed to ack the inter-job reset within "
                    f"{timeout}s"
                )
            try:
                kind, discarded, reclaimed = c.recv()
            except (EOFError, ConnectionResetError):
                raise RankCrashError(
                    f"rank {r} closed its control pipe at the reset barrier"
                ) from None
            if kind != "reset_done":  # pragma: no cover - protocol guard
                raise EngineError(f"rank {r} answered reset with {kind!r}")
            if discarded:
                result.stats[r].count("undelivered_messages", discarded)
            if reclaimed:
                self.shm_reclaimed_bytes += reclaimed
                result.stats[r].count("shm_reclaimed_bytes", reclaimed)
        if mesh.plane is not None:
            # Parent-side housekeeping: every rank has read the ship
            # block by now, so rewind the parent arena as well.
            self.shm_reclaimed_bytes += mesh.plane.reset_party()
