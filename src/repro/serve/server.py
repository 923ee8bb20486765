"""The job server: a sharded fleet of warm rank pools behind one front.

A :class:`JobServer` owns N :class:`Shard` s (``shards=`` — each shard is
one :class:`~repro.serve.pool.RankPool`, one tenant-fair
:class:`~repro.serve.queue.JobQueue`, one scheduler thread, and one disk
schedule-cache directory), a :class:`~repro.serve.router.ShardRouter`
mapping jobs to shards by rendezvous hash over the job's content
fingerprint (kind + canonical spec), and the admission-control state for
per-tenant quotas and fleet-wide load shedding.  Routing is content-
based so identical job families always land on the same shard — that
shard's warm mesh, memory/disk schedule caches, and learned layout plans
stay hot, which is the whole argument for scaling this way (the caches
amortize *per shard*, exactly as they did for the single pool).

Job kinds are a registry: ``jacobi`` and ``cg`` run the paper's two
workloads from shape parameters; ``kali`` compiles and runs Kali source
shipped in the spec.  :func:`register_job_kind` adds more.  A runner
receives the *shard* executing the job (``nranks``, ``machine``,
``pool``, ``cache_dir``, ``tune_dir``).

Serving-layer failure semantics (see docs/serving.md):

* a rank *program* error fails the job immediately — deterministic
  failures are not retried;
* a pool *crash* (:class:`~repro.errors.RankCrashError`: a worker
  died, went mute, or missed the reset barrier) condemns that shard's
  mesh and re-dispatches the job — onto a *surviving* shard when the
  fleet has one — against a per-job ``retry_budget``; budget exhausted
  resolves the future with a structured ``retry_exhausted`` record;
* jobs that were queued behind the crash in the same batch replay the
  same way without consuming their budgets (they never started);
* an accepted job always terminates in exactly one record — never lost,
  never double-completed — which the chaos suite pins down under
  seeded worker kills.

The socket front is the asyncio front end in :mod:`repro.serve.frontend`
(what ``python -m repro.serve start`` runs): JSON-lines over a unix
socket — ``ping``, ``submit``, ``stat``, ``metrics``, ``drain``,
``scale``, ``autopilot``, ``stop``.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import KaliError, RankCrashError
from repro.machine.cost import MachineModel, NCUBE7
from repro.machine.stats import RunResult
from repro.obs.registry import MetricsRegistry, write_run_json
from repro.serve.pool import RankPool
from repro.serve.queue import (
    DEFAULT_TENANT,
    Job,
    JobFuture,
    JobQueue,
    QueueClosed,
    ShedError,
)
from repro.serve.router import ShardRouter, route_key

# --- job kinds -------------------------------------------------------------

JobRunner = Callable[["Shard", Dict[str, Any]], Tuple[RunResult, Dict]]

JOB_KINDS: Dict[str, JobRunner] = {}


def register_job_kind(name: str, runner: JobRunner) -> None:
    """Register (or replace) a job family; the runner receives the shard
    executing the job and the job spec and returns ``(engine RunResult,
    summary dict)``."""
    JOB_KINDS[name] = runner


class UnknownJobKindError(KaliError):
    """A submitted job kind is not in the registry.

    Carries the offending kind and the registered list so the protocol
    fronts can return a structured reply instead of a stringified
    exception."""

    def __init__(self, kind: Any):
        self.kind = kind
        self.registered = sorted(JOB_KINDS)
        super().__init__(
            f"unknown job kind {kind!r} "
            f"(registered: {', '.join(self.registered)})"
        )

    def reply(self) -> Dict[str, Any]:
        """The structured protocol reply for this rejection."""
        return {"ok": False, "unknown_kind": True, "error": str(self),
                "kind": self.kind, "registered": self.registered}


def _sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _jsonable(value):
    """Numpy scalars/arrays → plain Python, recursively."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _run_jacobi(server: "Shard", spec: Dict) -> Tuple[RunResult, Dict]:
    from repro.apps.jacobi import build_jacobi
    from repro.meshes.regular import five_point_grid

    rows = int(spec.get("rows", 16))
    cols = int(spec.get("cols", rows))
    sweeps = int(spec.get("sweeps", 10))
    seed = int(spec.get("seed", 12345))
    mesh = five_point_grid(rows, cols)
    init = np.random.default_rng(seed).random(mesh.n)
    prog = build_jacobi(
        mesh, server.nranks, machine=server.machine, initial=init,
        pool=server.pool, schedule_cache_dir=server.cache_dir,
    )
    result = prog.run(sweeps)
    summary = {
        "n": mesh.n, "sweeps": sweeps,
        "solution_sha256": _sha256(prog.solution),
    }
    return result.engine, summary


def _run_cg(server: "Shard", spec: Dict) -> Tuple[RunResult, Dict]:
    from repro.apps.cg import CGSolver
    from repro.meshes.regular import five_point_grid

    rows = int(spec.get("rows", 10))
    cols = int(spec.get("cols", rows))
    max_iter = int(spec.get("max_iter", 100))
    tol = float(spec.get("tol", 1e-8))
    seed = int(spec.get("seed", 12345))
    mesh = five_point_grid(rows, cols)
    b = np.random.default_rng(seed).random(mesh.n)
    solver = CGSolver(
        mesh, server.nranks, machine=server.machine,
        pool=server.pool, schedule_cache_dir=server.cache_dir,
    )
    r = solver.solve(b, tol=tol, max_iter=max_iter)
    summary = {
        "n": mesh.n, "iterations": r.iterations,
        "residual": float(r.residual),
        "solution_sha256": _sha256(r.solution),
    }
    return r.timing.engine, summary


def _run_kali(server: "Shard", spec: Dict) -> Tuple[RunResult, Dict]:
    from repro.lang.interp import compile_kali

    source = spec.get("source")
    if not isinstance(source, str):
        raise KaliError("kali jobs need a 'source' string in the spec")
    inputs = {
        name: np.asarray(values)
        for name, values in (spec.get("inputs") or {}).items()
    }
    res = compile_kali(source).run(
        server.nranks, machine=server.machine, inputs=inputs,
        consts=spec.get("consts") or None,
        pool=server.pool, schedule_cache_dir=server.cache_dir,
    )
    summary = {
        "scalars": _jsonable(res.scalars),
        "output": list(res.output),
        "arrays_sha256": {n: _sha256(a) for n, a in sorted(res.arrays.items())},
    }
    return res.timing.engine, summary


def _scrambled_jacobi(shard: "Shard", spec: Dict, nodes: int, pool=None):
    """The program both tuned Jacobi kinds run: Jacobi on a random
    unstructured mesh under a deliberately scrambled (``seed + 1``) owner
    map, initial values from ``init_seed``, against the shard's disk
    schedule cache and learned-plan store.  Returns ``(mesh, points,
    program)``."""
    from repro.apps.jacobi import build_jacobi
    from repro.distributions.custom import Custom
    from repro.meshes.unstructured import random_unstructured_mesh

    seed = int(spec.get("seed", 7))
    mesh, points = random_unstructured_mesh(nodes, seed=seed,
                                            locality_sort=False)
    rng = np.random.default_rng(seed + 1)
    scrambled = Custom(rng.integers(0, shard.nranks, size=mesh.n))
    init = np.random.default_rng(int(spec.get("init_seed", 12345))).random(
        mesh.n)
    prog = build_jacobi(
        mesh, shard.nranks, machine=shard.machine, dist=scrambled,
        initial=init, pool=pool, schedule_cache_dir=shard.cache_dir,
        tune=shard.tune_dir,
    )
    return mesh, points, prog


def _run_jacobi_adaptive(server: "Shard",
                         spec: Dict) -> Tuple[RunResult, Dict]:
    """Shuffled unstructured-mesh Jacobi under the adaptive layout tuner.

    Submitted with a deliberately scrambled owner map, so the first job
    of a kind pays for profiling sweeps plus a redistribution — and, when
    the server has a ``tune_dir``, persists the winning layout.  Repeat
    jobs with the same fingerprint then warm-start directly in the
    learned layout (``tune_applied`` True, ``tune_moves`` 0).
    """
    from repro.tune import AdaptiveRunner, TunePolicy, TuneSpec

    sweeps = int(spec.get("sweeps", 16))
    mesh, points, prog = _scrambled_jacobi(
        server, spec, int(spec.get("nodes", 600)), pool=server.pool)
    runner = AdaptiveRunner(
        TuneSpec(arrays=["a", "old_a", "count", "adj", "coef"],
                 table="adj", count="count", points=points),
        TunePolicy(interval=int(spec.get("interval", 4)),
                   warmup=int(spec.get("warmup", 4))),
    )
    result = runner.run(prog.ctx, [prog.copy_loop, prog.relax_loop], sweeps)
    report = result.tune_report
    final = (report["layout"]["name"] if report["layout"]
             else ("learned" if prog.ctx.tune_applied else "initial"))
    summary = {
        "n": mesh.n, "sweeps": sweeps,
        "tune_moves": report["moves"],
        "tune_decisions": report["decisions"],
        "tune_applied": prog.ctx.tune_applied,
        "final_layout": final,
        "solution_sha256": _sha256(prog.solution),
    }
    return result.engine, summary


def _run_jacobi_served(server: "Shard",
                       spec: Dict) -> Tuple[RunResult, Dict]:
    """Frozen-plan unstructured-mesh Jacobi: the autopilot's workload.

    Submitted with a deliberately scrambled (spec-seeded) owner map and
    **no online tuner** — the job replays whatever layout the shard's
    plan store holds for its fingerprint (zero mid-run moves) and runs
    scrambled forever otherwise.  That frozen-ness is the point: only
    the server-resident autopilot can rescue a family after a workload
    shift, by learning a plan offline and hot-swapping the store.  The
    relax kernel's summation order is layout-independent, so the
    solution hash is bit-identical whichever layout the job lands in.

    Runs on the simulated machine (not the shard's warm pool), so the
    record carries the *modeled* service time (``virtual_s``) the paper
    reports — the quantity a layout change moves, and the one the
    autopilot's A/B compares deterministically.
    """
    sweeps = int(spec.get("sweeps", 8))
    mesh, _, prog = _scrambled_jacobi(server, spec,
                                      int(spec.get("nodes", 400)))
    plan_key = (prog.ctx.tune_fingerprint()
                if server.tune_dir is not None else None)
    result = prog.run(sweeps)
    summary = {
        "n": mesh.n, "sweeps": sweeps,
        "plan_key": plan_key,
        "plan_applied": prog.ctx.tune_applied,
        "virtual_s": result.engine.makespan,
        "solution_sha256": _sha256(prog.solution),
    }
    return result.engine, summary


register_job_kind("jacobi", _run_jacobi)
register_job_kind("cg", _run_cg)
register_job_kind("kali", _run_kali)
register_job_kind("jacobi_adaptive", _run_jacobi_adaptive)
register_job_kind("jacobi_served", _run_jacobi_served)

_DISK_COUNTERS = (
    "schedule_cache_disk_hits",
    "schedule_cache_disk_misses",
    "schedule_cache_disk_stores",
    "schedule_cache_disk_evictions",
    "schedule_cache_disk_corrupt",
)


# --- one shard -------------------------------------------------------------


class Shard:
    """One warm pool + one tenant-fair queue + one scheduler thread.

    Runners receive the shard as their first argument, so everything a
    job needs at execution time — ``nranks``, ``machine``, ``pool``,
    ``cache_dir`` (this shard's private disk-cache directory),
    ``tune_dir`` (the fleet-shared learned-plan store) — resolves
    against the shard that actually owns the mesh.
    """

    def __init__(self, server: "JobServer", index: int):
        self.server = server
        self.index = index
        self.name = f"shard-{index}"
        self.nranks = server.nranks
        self.machine = server.machine
        self.cache_dir = (os.path.join(server.cache_dir, self.name)
                          if server.cache_dir else None)
        self.tune_dir = server.tune_dir
        self.pool = RankPool(server.nranks, timeout=server.job_timeout)
        self.queue = JobQueue(
            server.policy,
            max_depth=server.shard_depth,
            tenant_weights=server.tenant_weights,
        )
        self.jobs_done = 0
        self.failures = 0
        self.retries = 0      # crashed dispatches retried off this shard
        self.replays_in = 0   # jobs replayed *onto* this shard
        self._busy = False
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None

    # --- lifecycle -------------------------------------------------------

    def start(self) -> "Shard":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._scheduler_loop,
                name=f"repro-serve-{self.name}", daemon=True,
            )
            self._thread.start()
        return self

    def stop(self, join_timeout: float = 30.0) -> None:
        """Close the queue, join the scheduler, tear the pool down."""
        self.queue.close()
        if self._thread is not None:
            self._thread.join(join_timeout)
            self._thread = None
        self.pool.close()

    def retire(self) -> List[Job]:
        """Pull this shard's backlog for replay elsewhere, then stop.

        The job currently executing (if any) completes here; everything
        still queued is returned in scheduling order for the server to
        re-route.  After ``retire`` the shard accepts nothing."""
        backlog = self.queue.drain_jobs()
        self.stop()
        return backlog

    @property
    def busy(self) -> bool:
        with self._lock:
            return self._busy

    # --- scheduling ------------------------------------------------------

    def _scheduler_loop(self) -> None:
        server = self.server
        while not server._stop.is_set():
            batch = self.queue.next_batch(server.max_batch, timeout=0.2)
            if not batch:
                if self.queue.closed:
                    return
                continue
            with self._lock:
                self._busy = True
            try:
                self._run_batch(batch)
            finally:
                with self._lock:
                    self._busy = False

    def _run_batch(self, batch: List[Job]) -> None:
        server = self.server
        for i, job in enumerate(batch):
            try:
                record = self._execute(job, batch_size=len(batch),
                                       batch_index=i)
            except RankCrashError as crash:
                # The mesh is condemned.  This job retries against its
                # budget; the rest of the batch never started, so it
                # replays without consuming any budget.  Both paths
                # prefer a surviving shard.
                survivors = batch[i + 1:]
                if job.retries < server.retry_budget:
                    job.retries += 1
                    with server._lock:
                        self.retries += 1
                    server._replay([job], exclude=self.name,
                                   reason="pool-crash")
                else:
                    server._finish(job, self._crash_record(
                        job, crash, batch_size=len(batch), batch_index=i))
                if survivors:
                    server._replay(survivors, exclude=self.name,
                                   reason="condemned-batch")
                return
            server._finish(job, record)

    def _crash_record(self, job: Job, crash: RankCrashError,
                      batch_size: int, batch_index: int) -> Dict:
        # Counter accounting happens in server._finish, the single
        # terminal point, under the server lock (stat-sum invariant).
        return {
            "id": job.job_id,
            "kind": job.kind,
            "spec": job.spec,
            "tenant": job.tenant,
            "shard": self.name,
            "backend": "pool",
            "batch_size": batch_size,
            "batch_index": batch_index,
            "ok": False,
            "retry_exhausted": True,
            "retries": job.retries,
            "error": f"{type(crash).__name__}: {crash}",
        }

    def _execute(self, job: Job, batch_size: int, batch_index: int) -> Dict:
        server = self.server
        if server.chaos_hook is not None:
            server.chaos_hook(job, self)
        runner = JOB_KINDS[job.kind]
        t0 = time.monotonic()
        record: Dict[str, Any] = {
            "id": job.job_id,
            "kind": job.kind,
            "spec": job.spec,
            "tenant": job.tenant,
            "shard": self.name,
            "backend": "pool",
            "batch_size": batch_size,
            "batch_index": batch_index,
            "retries": job.retries,
        }
        try:
            result, summary = runner(self, job.spec)
        except RankCrashError:
            raise  # infrastructure death: the batch loop handles retry
        except Exception as exc:
            record.update(
                ok=False,
                error=f"{type(exc).__name__}: {exc}",
                wall_s=time.monotonic() - t0,
                pool_reused=self.pool.last_pool_reused,
            )
            return record
        record.update(
            ok=True,
            wall_s=time.monotonic() - t0,
            pool_reused=self.pool.last_pool_reused,
            summary=summary,
            inspector_runs=result.counter_sum("inspector_runs"),
        )
        for name in _DISK_COUNTERS:
            record[name.replace("schedule_cache_", "")] = (
                result.counter_sum(name)
            )
        # Data-plane accounting: payload bytes that crossed process
        # boundaries through the shm segments vs the control pipes.
        record["shm_bytes"] = result.counter_sum("shm_bytes_sent")
        record["pipe_bytes"] = result.counter_sum("pipe_bytes_sent")
        if server.metrics_dir:
            record["metrics_file"] = server._write_metrics(job, record,
                                                           result)
        server._observe(record, result)
        return record

    # --- introspection ---------------------------------------------------

    def counter_snapshot(self) -> Dict[str, int]:
        """This shard's job counters.  Callers that need cross-shard
        consistency (``stat``) take one snapshot per shard under the
        *server* lock — the lock every mutation holds — so the sums a
        reply reports can never tear against ``jobs_done``/``failures``
        totals taken in the same hold."""
        return {
            "jobs_done": self.jobs_done,
            "failures": self.failures,
            "retries": self.retries,
            "replays_in": self.replays_in,
        }

    def describe(self,
                 counters: Optional[Dict[str, int]] = None) -> Dict[str, Any]:
        if counters is None:
            with self.server._lock:
                counters = self.counter_snapshot()
        entry: Dict[str, Any] = {
            "name": self.name,
            "warm": self.pool.started,
            "busy": self.busy,
            "queued": self.queue.pending(),
            **counters,
            "sheds": self.queue.sheds,
            "rebuilds": self.pool.rebuilds,
            "meshes_built": self.pool.meshes_built,
            "pool_jobs_done": self.pool.jobs_done,
            "shm_ship_bytes": self.pool.shm_ship_bytes,
            "shm_reclaimed_bytes": self.pool.shm_reclaimed_bytes,
            "cache_dir": self.cache_dir,
        }
        if self.cache_dir is not None and os.path.isdir(self.cache_dir):
            from repro.serve.diskcache import DiskScheduleCache

            store = DiskScheduleCache(self.cache_dir)
            entry["disk_entries"] = len(store.entries())
            entry["disk_bytes"] = store.total_bytes()
        else:
            entry["disk_entries"] = 0
            entry["disk_bytes"] = 0
        return entry


# --- the server ------------------------------------------------------------


class JobServer:
    """A sharded fleet of warm pools serving a routed stream of jobs.

    Parameters
    ----------
    nranks:
        World size of every pool (and of every job).
    shards:
        Initial shard count.  ``1`` reproduces the single-pool server
        exactly (one queue, one mesh, same records).
    policy:
        Per-tenant-lane queue policy, ``fifo`` or ``priority``.
    cache_dir:
        Root of the persistent schedule-cache tier; each shard keeps its
        own subdirectory (``<cache_dir>/shard-<i>``) so per-shard LRU
        eviction and hit rates never interfere.  None disables the disk
        tier.
    metrics_dir:
        When set, every job writes a ``repro-run-v1`` file
        ``job-<id>.json`` there, with serve provenance (shard, tenant,
        retries) in ``meta``.
    tune_dir:
        Directory of the learned layout-plan store (``repro.tune``),
        shared by the whole fleet — plans are tiny, immutable, and
        content-addressed, so sharing only increases reuse.
    max_batch:
        Upper bound on how many identical-``batch_key`` jobs one queue
        pull may run back-to-back.
    retry_budget:
        How many times one job may be re-dispatched after a pool crash
        before it fails with ``retry_exhausted``.
    tenants:
        tenant → ``{"weight": w, "quota": q}``: ``weight`` biases the
        fair queues, ``quota`` bounds the tenant's queued jobs fleet-
        wide.  ``default_quota`` caps unlisted tenants.
    max_pending:
        Fleet-wide bound on queued jobs; submissions past it are shed.
    shard_depth:
        Per-shard queue-depth bound (sheds on a hot shard even when the
        fleet as a whole has room).
    autoscale:
        An :class:`~repro.serve.autoscale.AutoscalePolicy` to grow and
        shrink the fleet on sustained queue depth (None = fixed fleet).
    autopilot:
        Truthy enables the server-resident online tuning daemon
        (:mod:`repro.autopilot`): pass ``True`` for defaults or an
        :class:`~repro.autopilot.daemon.AutopilotPolicy`.  The daemon
        mines per-job profiles, detects drift, shadow re-plans on a
        spare shard, and A/B-promotes winning plans into ``tune_dir``.
    chaos_hook:
        Test-only: ``hook(job, shard)`` called as each job starts
        executing.  The chaos suite uses it to kill pool workers
        mid-job deterministically.
    """

    def __init__(
        self,
        nranks: int,
        policy: str = "fifo",
        cache_dir: Optional[str] = None,
        metrics_dir: Optional[str] = None,
        machine: MachineModel = NCUBE7,
        max_batch: int = 8,
        job_timeout: float = 120.0,
        tune_dir: Optional[str] = None,
        shards: int = 1,
        retry_budget: int = 2,
        tenants: Optional[Dict[str, Dict[str, Any]]] = None,
        default_quota: Optional[int] = None,
        max_pending: Optional[int] = None,
        shard_depth: Optional[int] = None,
        autoscale=None,
        autopilot=None,
        chaos_hook: Optional[Callable[[Job, Shard], None]] = None,
    ):
        if max_batch < 1:
            raise KaliError(f"max_batch must be >= 1, got {max_batch}")
        if shards < 1:
            raise KaliError(f"shards must be >= 1, got {shards}")
        if retry_budget < 0:
            raise KaliError(f"retry_budget must be >= 0, got {retry_budget}")
        self.nranks = nranks
        self.machine = machine
        self.policy = policy
        self.cache_dir = cache_dir
        self.metrics_dir = metrics_dir
        self.tune_dir = tune_dir
        self.max_batch = max_batch
        self.job_timeout = job_timeout
        self.retry_budget = retry_budget
        self.tenants = {t: dict(cfg) for t, cfg in (tenants or {}).items()}
        self.tenant_weights = {
            t: float(cfg.get("weight", 1.0))
            for t, cfg in self.tenants.items() if "weight" in cfg
        }
        self.default_quota = default_quota
        self.max_pending = max_pending
        self.shard_depth = shard_depth
        self.chaos_hook = chaos_hook
        self.records: List[Dict] = []
        self.failures = 0
        self.sheds = 0
        self.sheds_by_tenant: Dict[str, int] = {}
        self.retries_total = 0
        self.replays_total = 0
        self._tenant_pending: Dict[str, int] = {}
        self._job_seq = 0
        self._lock = threading.Lock()
        self._fleet_lock = threading.RLock()
        self._stop = threading.Event()
        self._started_at = time.monotonic()
        self._next_shard_index = 0
        self.router = ShardRouter()
        self.shards: List[Shard] = []
        for _ in range(shards):
            self._spawn_shard()
        self.autoscaler = None
        if autoscale is not None:
            from repro.serve.autoscale import Autoscaler

            self.autoscaler = Autoscaler(self, autoscale)
        self.autopilot = None
        if autopilot:
            from repro.autopilot.daemon import Autopilot, AutopilotPolicy

            policy_obj = (autopilot if isinstance(autopilot, AutopilotPolicy)
                          else AutopilotPolicy())
            self.autopilot = Autopilot(self, policy_obj)
        if metrics_dir:
            os.makedirs(metrics_dir, exist_ok=True)

    # --- fleet membership ------------------------------------------------

    def _spawn_shard(self) -> Shard:
        with self._fleet_lock:
            shard = Shard(self, self._next_shard_index)
            self._next_shard_index += 1
            self.shards.append(shard)
            self.router.add(shard.name)
            return shard

    def add_shard(self) -> Shard:
        """Grow the fleet by one shard (autoscaler's scale-up)."""
        shard = self._spawn_shard()
        shard.start()
        return shard

    def retire_shard(self, name: Optional[str] = None) -> str:
        """Shrink the fleet: route away, replay the backlog, tear down.

        The youngest shard retires unless ``name`` picks one.  Its
        queued jobs replay onto surviving shards; the job it is
        executing (if any) completes before the pool closes."""
        with self._fleet_lock:
            if len(self.shards) <= 1:
                raise KaliError("cannot retire the last shard")
            shard = (self.shards[-1] if name is None else
                     next((s for s in self.shards if s.name == name), None))
            if shard is None:
                raise KaliError(f"no shard named {name!r}")
            self.router.remove(shard.name)
            self.shards.remove(shard)
        backlog = shard.retire()
        if backlog:
            self._replay(backlog, exclude=shard.name, reason="retired")
        return shard.name

    def shard_for(self, key: str,
                  exclude: Tuple[str, ...] = ()) -> Shard:
        with self._fleet_lock:
            name = self.router.route(key, exclude=exclude)
            for shard in self.shards:
                if shard.name == name:
                    return shard
        raise KaliError(f"router chose unknown shard {name!r}")

    # --- lifecycle -------------------------------------------------------

    def start(self) -> "JobServer":
        """Start every shard's scheduler thread (pools fork lazily on
        their first job) and the autoscaler, if configured."""
        for shard in list(self.shards):
            shard.start()
        if self.autoscaler is not None:
            self.autoscaler.start()
        if self.autopilot is not None:
            self.autopilot.start()
        return self

    def close(self) -> None:
        """Stop scheduling and tear every shard down (idempotent).
        Queued jobs that never ran resolve with an error."""
        self._stop.set()
        if self.autoscaler is not None:
            self.autoscaler.stop()
        if self.autopilot is not None:
            self.autopilot.stop()
        with self._fleet_lock:
            shards = list(self.shards)
        for shard in shards:
            shard.queue.close()
        for shard in shards:
            shard.stop()
            for job in shard.queue.drain_jobs():
                job.future.set_exception(KaliError("server closed"))

    def __enter__(self) -> "JobServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # --- submission ------------------------------------------------------

    def submit(self, kind: str, spec: Optional[Dict] = None,
               priority: int = 0, tenant: str = DEFAULT_TENANT) -> JobFuture:
        """Admit, route, and queue one job; the future resolves with its
        record dict.  Raises :class:`ShedError` when admission control
        rejects it (fleet full, or the tenant is over quota)."""
        if kind not in JOB_KINDS:
            raise UnknownJobKindError(kind)
        spec = dict(spec or {})
        # Identical-spec jobs share shapes and indirection data, so they
        # may batch back-to-back on the warm mesh — and they route to
        # the same shard, where their schedules are already cached.
        key = route_key(kind, spec)
        job = Job(kind=kind, spec=spec, priority=priority,
                  batch_key=key, tenant=tenant)
        self._admit(job)
        shard = self.shard_for(key)
        job.shard = shard.name
        with self._lock:
            self._job_seq += 1
            job.job_id = self._job_seq
        try:
            shard.queue.submit(job)
        except ShedError as shed:
            with self._lock:
                self.sheds += 1
                self.sheds_by_tenant[tenant] = (
                    self.sheds_by_tenant.get(tenant, 0) + 1)
                self._tenant_pending[tenant] -= 1
            shed.details["shard"] = shard.name
            raise
        except QueueClosed:
            with self._lock:
                self._tenant_pending[tenant] -= 1
            raise
        return job.future

    def submit_internal(self, kind: str, spec: Optional[Dict] = None,
                        shard_name: Optional[str] = None,
                        tenant: str = "__autopilot__",
                        priority: int = 0) -> JobFuture:
        """Queue one *internal* job, optionally pinned to one shard.

        The autopilot's shadow and A/B traffic goes through here: it
        bypasses tenant admission entirely (never counted against any
        quota or the fleet depth bound — the work is the server's own),
        and pinning goes *through* the rendezvous router via
        :meth:`~repro.serve.router.ShardRouter.pin_exclusions`, so it
        composes with crash-replay exclusion instead of sidestepping
        routing.  Internal jobs still terminate through ``_finish``
        like any other job (their records carry the internal tenant).
        """
        if kind not in JOB_KINDS:
            raise UnknownJobKindError(kind)
        spec = dict(spec or {})
        key = route_key(kind, spec)
        exclude: Tuple[str, ...] = ()
        if shard_name is not None:
            with self._fleet_lock:
                exclude = self.router.pin_exclusions(shard_name)
        shard = self.shard_for(key, exclude=exclude)
        job = Job(kind=kind, spec=spec, priority=priority,
                  batch_key=key, tenant=tenant)
        job.shard = shard.name
        with self._lock:
            self._job_seq += 1
            job.job_id = self._job_seq
        shard.queue.submit(job)
        return job.future

    def _admit(self, job: Job) -> None:
        """Fleet-wide admission: global depth and per-tenant quota."""
        with self._lock:
            pending = sum(self._tenant_pending.values())
            if self.max_pending is not None and pending >= self.max_pending:
                self.sheds += 1
                self.sheds_by_tenant[job.tenant] = (
                    self.sheds_by_tenant.get(job.tenant, 0) + 1)
                raise ShedError(
                    f"shed {job.kind} job for tenant {job.tenant!r}: "
                    f"fleet queue full ({pending} >= {self.max_pending})",
                    reason="queue-depth", tenant=job.tenant,
                    depth=pending, limit=self.max_pending,
                )
            quota = self.tenants.get(job.tenant, {}).get(
                "quota", self.default_quota)
            mine = self._tenant_pending.get(job.tenant, 0)
            if quota is not None and mine >= quota:
                self.sheds += 1
                self.sheds_by_tenant[job.tenant] = (
                    self.sheds_by_tenant.get(job.tenant, 0) + 1)
                raise ShedError(
                    f"shed {job.kind} job for tenant {job.tenant!r}: "
                    f"tenant over quota ({mine} >= {quota})",
                    reason="tenant-quota", tenant=job.tenant,
                    depth=mine, limit=quota,
                )
            self._tenant_pending[job.tenant] = mine + 1

    def _replay(self, jobs: List[Job], exclude: str, reason: str) -> None:
        """Re-route accepted jobs off a condemned/retired shard.  Replay
        bypasses admission — these jobs were admitted once and must
        terminate; when the fleet is down to the excluded shard they
        requeue there (its next run rebuilds the mesh)."""
        for job in jobs:
            try:
                shard = self.shard_for(job.batch_key or job.kind,
                                       exclude=(exclude,))
                job.shard = shard.name
                with self._lock:
                    shard.replays_in += 1
                    self.replays_total += 1
                    if reason == "pool-crash":
                        self.retries_total += 1
                shard.queue.submit(job)
            except (QueueClosed, KaliError):
                job.future.set_exception(
                    KaliError(f"server closed while replaying job "
                              f"{job.job_id} ({reason})"))

    def _observe(self, record: Dict, result: RunResult) -> None:
        """Feed a finished job's record + engine result to the autopilot
        miner (cheap, and never allowed to fail the job)."""
        if self.autopilot is None:
            return
        try:
            self.autopilot.observe_job(record, result)
        except Exception:
            pass

    def _shard_named(self, name: Optional[str]) -> Optional[Shard]:
        with self._fleet_lock:
            for shard in self.shards:
                if shard.name == name:
                    return shard
        return None

    def _finish(self, job: Job, record: Dict) -> None:
        """The single terminal point of every accepted job: record it,
        bump the producing shard's counters, release the tenant slot,
        resolve the future — exactly once, all under one lock hold, so
        a concurrent ``stat`` snapshot always sees shard counters that
        sum to the fleet totals (the stat-sum invariant)."""
        shard = self._shard_named(record.get("shard"))
        with self._lock:
            if record.get("ok"):
                if shard is not None:
                    shard.jobs_done += 1
            else:
                self.failures += 1
                if shard is not None:
                    shard.failures += 1
            self.records.append(record)
            left = self._tenant_pending.get(job.tenant, 1) - 1
            self._tenant_pending[job.tenant] = max(left, 0)
        job.future.set_result(record)

    def drain(self, timeout: Optional[float] = None) -> int:
        """Block until every queued job has run; returns jobs completed.
        The queue stays open (``drain`` is a checkpoint, not shutdown)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._fleet_lock:
                shards = list(self.shards)
            idle = all(not s.busy and s.queue.pending() == 0
                       for s in shards)
            if idle:
                return len(self.records)
            if deadline is not None and time.monotonic() > deadline:
                queued = sum(s.queue.pending() for s in shards)
                raise TimeoutError(
                    f"drain: {queued} jobs still queued"
                )
            time.sleep(0.01)

    # --- metrics ---------------------------------------------------------

    def _write_metrics(self, job: Job, record: Dict,
                       result: RunResult) -> str:
        """One ``repro-run-v1`` file per job, with serve provenance in
        meta and the serve scalars folded into the metrics registry."""
        meta = {
            "source": "repro.serve",
            "backend": "pool",
            "job_id": job.job_id,
            "kind": job.kind,
            "workload": _jsonable(job.spec),
            "pool_reused": record["pool_reused"],
            "batch_size": record["batch_size"],
            "shard": record["shard"],
            "tenant": record["tenant"],
            "retries": record["retries"],
        }
        path = os.path.join(self.metrics_dir, f"job-{job.job_id}.json")
        write_run_json(result, path, meta=meta)
        registry = MetricsRegistry.from_run(result, extra={
            "serve.pool_reused": int(record["pool_reused"]),
            "serve.wall_s": record["wall_s"],
            "serve.batch_size": record["batch_size"],
            "serve.shard_index": int(record["shard"].split("-")[-1]),
            "serve.retries": record["retries"],
        })
        with open(os.path.join(self.metrics_dir,
                               f"job-{job.job_id}-metrics.json"), "w") as fh:
            fh.write(registry.to_json(indent=2))
        return path

    def fleet_registry(self) -> MetricsRegistry:
        """The fleet's health as ``serve.*`` / ``shard.*`` metrics — the
        serving-layer counterpart of ``MetricsRegistry.from_run``."""
        return MetricsRegistry.from_fleet(self.stat())

    # --- introspection ---------------------------------------------------

    def stat(self) -> Dict[str, Any]:
        with self._fleet_lock:
            shards = list(self.shards)
        with self._lock:
            records = list(self.records)
            failures = self.failures
            sheds = self.sheds
            sheds_by_tenant = dict(self.sheds_by_tenant)
            retries = self.retries_total
            replays = self.replays_total
            tenant_pending = {t: n for t, n in self._tenant_pending.items()
                              if n}
            # Same hold as the record list: every shard-counter mutation
            # happens under this lock, so these snapshots cannot tear
            # against the totals above (the stat-sum invariant).
            shard_counters = {s.name: s.counter_snapshot() for s in shards}
        done = [r for r in records if r.get("ok")]
        shard_entries = [s.describe(counters=shard_counters[s.name])
                        for s in shards]
        snapshot: List[Dict[str, Any]] = []
        for s in shards:
            snapshot.extend(s.queue.snapshot())
        disk: Dict[str, Any] = {"dir": self.cache_dir}
        if self.cache_dir is not None:
            disk["entries"] = sum(e["disk_entries"] for e in shard_entries)
            disk["bytes"] = sum(e["disk_bytes"] for e in shard_entries)
            for name in _DISK_COUNTERS:
                short = name.replace("schedule_cache_", "")
                disk[short] = sum(r.get(short, 0) for r in done)
        tune: Dict[str, Any] = {"dir": self.tune_dir}
        if self.tune_dir is not None:
            from repro.tune.store import PlanStore

            tune["entries"] = len(PlanStore(self.tune_dir).entries())
        stat = {
            "nranks": self.nranks,
            "policy": self.policy,
            "uptime_s": time.monotonic() - self._started_at,
            "busy": any(e["busy"] for e in shard_entries),
            "queued": sum(e["queued"] for e in shard_entries),
            "queue_snapshot": snapshot,
            "jobs_done": len(done),
            "failures": failures,
            "sheds": sheds,
            "sheds_by_tenant": sheds_by_tenant,
            "retries": retries,
            "replays": replays,
            "tenant_pending": tenant_pending,
            "shards": shard_entries,
            "router": {"shards": list(self.router.shards)},
            "disk_cache": disk,
            "tune_store": tune,
        }
        if self.autoscaler is not None:
            stat["autoscale"] = self.autoscaler.describe()
        if self.autopilot is not None:
            stat["autopilot"] = self.autopilot.describe()
        return stat

    # --- protocol --------------------------------------------------------

    def handle_request(self, req: Dict) -> Dict:
        """One non-blocking protocol request → one reply dict.  The
        asyncio front end owns ``submit`` and ``drain`` (they wait on
        jobs) and delegates every other command here."""
        cmd = req.get("cmd")
        if cmd == "ping":
            return {"ok": True, "pid": os.getpid(), "nranks": self.nranks,
                    "shards": len(self.shards)}
        if cmd == "stat":
            return {"ok": True, "stat": self.stat()}
        if cmd == "metrics":
            return {"ok": True, "metrics": self.fleet_registry().as_dict()}
        if cmd == "scale":
            n = int(req["shards"])
            if n < 1:
                return {"ok": False, "error": "shards must be >= 1"}
            while len(self.shards) < n:
                self.add_shard()
            while len(self.shards) > n:
                self.retire_shard()
            return {"ok": True, "shards": len(self.shards)}
        if cmd == "autopilot":
            if self.autopilot is None:
                return {"ok": False, "error": "autopilot is not enabled "
                                              "(start with autopilot=)"}
            op = req.get("op", "status")
            if op == "status":
                return {"ok": True, "autopilot": self.autopilot.describe()}
            if op == "explain":
                return {"ok": True,
                        "explain": self.autopilot.explain(req.get("family"))}
            if op == "force-replan":
                if "kind" not in req:
                    return {"ok": False,
                            "error": "force-replan needs a 'kind'"}
                family = self.autopilot.force_replan(req["kind"],
                                                     req.get("spec"))
                return {"ok": True, "family": family}
            return {"ok": False, "error": f"unknown autopilot op {op!r}"}
        if cmd == "stop":
            self._stop.set()  # the front end then closes the fleet
            return {"ok": True, "stopping": True}
        return {"ok": False, "error": f"unknown command {cmd!r}"}


# --- the client ------------------------------------------------------------


class ServeClient:
    """Minimal JSON-lines client for the unix-socket front.

    One short-lived connection per :meth:`request`; :meth:`connect`
    yields a persistent :class:`ServeConnection` for callers that
    multiplex many requests over one socket (what the asyncio front end
    is built to absorb)."""

    def __init__(self, socket_path: str, timeout: float = 300.0):
        self.socket_path = socket_path
        self.timeout = timeout

    def request(self, cmd: str, **fields) -> Dict:
        req = {"cmd": cmd, **fields}
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(self.timeout)
            sock.connect(self.socket_path)
            with sock.makefile("rw", encoding="utf-8") as fh:
                fh.write(json.dumps(req) + "\n")
                fh.flush()
                line = fh.readline()
        if not line:
            raise KaliError("server closed the connection without replying")
        return json.loads(line)

    def connect(self) -> "ServeConnection":
        return ServeConnection(self.socket_path, self.timeout)


class ServeConnection:
    """A persistent JSON-lines connection (context manager)."""

    def __init__(self, socket_path: str, timeout: float = 300.0):
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(socket_path)
        self._fh = self._sock.makefile("rw", encoding="utf-8")

    def request(self, cmd: str, **fields) -> Dict:
        self._fh.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self._fh.flush()
        line = self._fh.readline()
        if not line:
            raise KaliError("server closed the connection without replying")
        return json.loads(line)

    def close(self) -> None:
        try:
            self._fh.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeConnection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# Structure job kinds (dht_build / dht_lookup / queue_stream / dht_wordcount)
# register themselves on import; the module needs register_job_kind above,
# so this import must stay at the bottom.
import repro.structs.jobs  # noqa: E402,F401  (registration side effect)
