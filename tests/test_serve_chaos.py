"""Chaos suite: seeded worker kills against the sharded serve tier.

The serving-layer failure contract (docs/serving.md) says an accepted
job terminates in exactly one record — completed, or failed with a
structured ``retry_exhausted`` error — no matter what happens to the
pool processes underneath.  These tests enforce it the only honest way:
by killing workers while jobs run.

Chaos is *seeded*, reusing the deterministic draw machinery of
``repro.faults`` (``FaultPlan.unit`` — a pure function of seed + salt +
parts): seed k decides which jobs attract a kill, which rank dies, and
how far into the job the SIGTERM lands.  The kill *timing* still races
the job's actual execution — that is the point — but every race outcome
is inside the contract:

* kill lands mid-job → the pool raises ``RankCrashError``, the job
  replays (onto the other shard when one survives) against its retry
  budget;
* kill lands between jobs → the pool's health check rebuilds the mesh
  silently and the job runs normally;
* kill lands in a reset barrier → the *next* job crashes and replays.

What must hold for **every** seed:

* every accepted job produced exactly one record and resolved its
  future exactly once (nothing lost, nothing double-completed);
* every completed job's solution hash is bit-identical to the
  crash-free baseline (replay re-executes deterministically);
* the server's jobs_done/retries accounting reconciles with the
  records.

The full 20-seed acceptance sweep runs here as 20 parametrized cases;
each case is small (6 jobs, 2 ranks, 2 shards) to keep the sweep
CI-sized.
"""

import threading
import time

import pytest

from repro.faults.plan import FaultPlan
from repro.serve.server import JobServer

NRANKS = 2
NSHARDS = 2
RETRY_BUDGET = 4

# Six jobs over three families: two jacobi shapes and one cg shape,
# each submitted twice, so batching / cache reuse paths are exercised
# alongside the crashes.
JOBS = [
    ("jacobi", {"rows": 8, "sweeps": 2, "seed": 1}),
    ("cg", {"rows": 6, "max_iter": 20, "seed": 2}),
    ("jacobi", {"rows": 9, "sweeps": 2, "seed": 3}),
    ("jacobi", {"rows": 8, "sweeps": 2, "seed": 1}),
    ("cg", {"rows": 6, "max_iter": 20, "seed": 2}),
    ("jacobi", {"rows": 9, "sweeps": 2, "seed": 3}),
]


def _run_stream(server):
    futures = [server.submit(kind, spec) for kind, spec in JOBS]
    return [f.result(timeout=300) for f in futures]


def _hash_of(record):
    return record["summary"]["solution_sha256"]


@pytest.fixture(scope="module")
def baseline():
    """Crash-free run: the reference hash for every job in the stream."""
    with JobServer(NRANKS, shards=NSHARDS) as server:
        records = _run_stream(server)
    assert all(r["ok"] for r in records)
    return [_hash_of(r) for r in records]


class ChaosMonkey:
    """Seeded mid-job worker killer, at most one kill per job id."""

    def __init__(self, seed: int, kill_rate: float = 0.5):
        self.plan = FaultPlan(seed=seed)
        self.kill_rate = kill_rate
        self.killed = set()
        self.kills = 0
        self._lock = threading.Lock()

    def __call__(self, job, shard):
        with self._lock:
            if job.job_id in self.killed:
                return  # a replayed job runs clean: one kill per job
            if self.plan.unit("chaos-kill", job.job_id) >= self.kill_rate:
                return
            self.killed.add(job.job_id)
        rank = int(self.plan.unit("chaos-rank", job.job_id) * shard.nranks)
        delay = self.plan.unit("chaos-delay", job.job_id) * 0.04
        pool = shard.pool

        def kill():
            deadline = time.monotonic() + 10.0
            while not pool.started and time.monotonic() < deadline:
                time.sleep(0.002)
            time.sleep(delay)
            # The mesh may be torn down concurrently (another kill
            # already condemned it) — snapshot defensively.
            mesh = pool._mesh
            procs = list(mesh.procs) if mesh is not None else []
            try:
                if rank < len(procs) and procs[rank].is_alive():
                    procs[rank].terminate()
                    with self._lock:
                        self.kills += 1
            except (ValueError, OSError):
                pass  # already reaped

        threading.Thread(target=kill, daemon=True).start()


@pytest.mark.parametrize("seed", range(20))
def test_chaos_seeded_kills_never_lose_or_duplicate_jobs(seed, baseline):
    monkey = ChaosMonkey(seed)
    with JobServer(NRANKS, shards=NSHARDS, retry_budget=RETRY_BUDGET,
                   chaos_hook=monkey) as server:
        records = _run_stream(server)
        stat = server.stat()

    # Exactly one terminal record per accepted job, ids exactly the
    # submitted ones — nothing lost, nothing double-completed.
    assert len(records) == len(JOBS)
    ids = [r["id"] for r in records]
    assert sorted(ids) == list(range(1, len(JOBS) + 1))
    assert len(stat["queue_snapshot"]) == 0
    by_id = {r["id"]: r for r in server.records}
    assert len(server.records) == len(JOBS), (
        "server.records must hold exactly one terminal record per job")
    assert set(by_id) == set(ids)

    # Every job terminated inside the contract.  With one kill per job
    # and a budget of 4 the retries can't exhaust, so all complete —
    # which is what makes the bit-identical comparison meaningful.
    for r in records:
        assert r["ok"], f"job {r['id']} failed under chaos: {r.get('error')}"
        assert r["retries"] <= RETRY_BUDGET

    # Replay is re-execution: results bit-identical to the clean run.
    for r, expected in zip(records, baseline):
        assert _hash_of(r) == expected, (
            f"job {r['id']} (retries={r['retries']}, shard={r['shard']}) "
            "diverged from the crash-free baseline")

    # Accounting reconciles: the server saw every replay it performed.
    assert stat["jobs_done"] == len(JOBS)
    assert stat["failures"] == 0
    shard_retries = sum(e["retries"] for e in stat["shards"])
    assert stat["retries"] == shard_retries


def test_chaos_replays_actually_happen():
    """Across the seed sweep the monkey must land real mid-job kills —
    otherwise the suite above is vacuously green.  One aggressive seeded
    run with an always-kill monkey forces at least one replay."""
    monkey = ChaosMonkey(seed=1234, kill_rate=1.0)
    with JobServer(NRANKS, shards=NSHARDS, retry_budget=RETRY_BUDGET,
                   chaos_hook=monkey) as server:
        records = _run_stream(server)
        stat = server.stat()
    assert all(r["ok"] for r in records)
    assert monkey.kills > 0, "chaos monkey never managed to kill a worker"
    # Kills that land mid-job surface as retries; kills that land between
    # jobs surface as silent mesh rebuilds.  Either way the pools saw
    # real deaths:
    rebuilds = sum(e["rebuilds"] for e in stat["shards"])
    assert stat["retries"] + rebuilds > 0


def test_retry_exhaustion_is_structured():
    """A job that crashes more times than its budget fails loudly, with
    the structured fields the protocol promises, and counts as exactly
    one terminal record."""
    from repro.errors import RankCrashError
    from repro.serve.server import JOB_KINDS, register_job_kind

    def always_crashes(shard, spec):
        raise RankCrashError("injected: the mesh is gone")

    register_job_kind("_chaos_doomed", always_crashes)
    try:
        with JobServer(NRANKS, shards=NSHARDS, retry_budget=2) as server:
            record = server.submit("_chaos_doomed", {}).result(timeout=60)
            stat = server.stat()
    finally:
        del JOB_KINDS["_chaos_doomed"]

    assert record["ok"] is False
    assert record["retry_exhausted"] is True
    assert record["retries"] == 2
    assert "RankCrashError" in record["error"]
    assert stat["failures"] == 1
    assert stat["jobs_done"] == 0
    assert len(stat["queue_snapshot"]) == 0
