"""serve_mixed: a closed loop of two clients against a real server process.

The server is ``python -m repro.serve start`` with 1 shard x 2 ranks on
the mp pool (shm data plane on), a temporary disk schedule cache and the
asyncio front end, all under ``.perfbench/`` in the checkout.  Two
persistent connections each submit the next job of one shared seeded
stream and wait for it.  The stream draws from a small catalogue (one
spec per kind) so repeats hit warm caches and reused tables.  Every job's
hash is checked against an in-process sim run of the same spec made
before the server starts; the ``dht_lookup`` and ``queue_stream``
references are checked in turn against a dict and a deque model.

The known pool-shipping defect (see README.md) is reproduced on every
run, on the first set-up server after its start-up is timed: a
``dht_build`` job and then a ``cg`` job.  The warm-up is the first
``WARMUP`` jobs of the same stream; it is not measured, so it is not in
``attempted``, and its failures with the defect's signature are reported
(``serve.warmup_defect_failures``) rather than counted.  Every timed job
counts in ``attempted``; any failed timed job, any other failure (warm-up
included), wrong hash or teardown leak counts in ``failed`` and makes the
run incorrect.

Rates are rescaled by a probe that runs in this process inside the load
(its thread CPU time over ``REF_PROBE_S``); a window with more than
``STEAL_LIMIT`` of the machine's CPU time stolen is measured again.
README.md says why.
"""

from __future__ import annotations

import collections
import hashlib
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np

from metrics import REF_PROBE_S, SETUP_REPEATS, SpeedClock, percentile, tail

perf = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NRANKS, WARMUP, STREAM_LEN, CLIENTS, SEGMENT_S = 2, 12, 20000, 2, 2.0
# A measurement window during which the hypervisor took more than this
# share of the machine's CPU time (/proc/stat "steal") is measured again,
# up to WINDOWS times in all, and the quietest window is reported.
STEAL_LIMIT, WINDOWS = 0.02, 3
KINDS = ("jacobi", "cg", "kali", "dht_build", "dht_lookup", "queue_stream")
KNOWN_DEFECT = ("ShippingError", "not imported in the pool worker")
HASH_FIELD = {"jacobi": "solution_sha256", "cg": "solution_sha256",
              "kali": "arrays_sha256", "dht_build": "snapshot_sha256",
              "dht_lookup": "values_sha256", "queue_stream": "stream_sha256"}


def catalogue(seed: int):
    """One spec per kind, its parameters drawn from the seed."""
    from repro.meshes.regular import five_point_grid

    rng = np.random.default_rng(seed)
    s = [int(x) for x in rng.integers(1, 1 << 30, size=4)]
    grid = five_point_grid(8, 8)
    with open(os.path.join(HERE, "fig4.kali")) as fh:
        source = fh.read()
    kali = {"source": source,
            "consts": {"n": grid.n, "width": grid.width, "nsweeps": 5},
            "inputs": {"a": rng.random(grid.n).tolist(),
                       "count": grid.count.tolist(),
                       "adj": (grid.adj + 1).tolist(),
                       "coef": grid.coef.tolist()}}
    return {
        "jacobi": {"rows": 32, "sweeps": 10, "seed": s[0]},
        "cg": {"rows": 16, "seed": s[1]},
        "kali": kali,
        "dht_build": {"n": 200, "nbuckets": 17, "seed": s[2]},
        "dht_lookup": {"n": 200, "nbuckets": 17, "seed": s[2], "lookups": 100},
        "queue_stream": {"n": 128, "chunk": 32, "seed": s[3]},
    }


def stream(seed: int):
    """Seeded job kinds in shuffled blocks that hold each kind once, so
    every stretch of the stream has the same mix."""
    rng = np.random.default_rng([seed, 1])
    blocks = STREAM_LEN // len(KINDS)
    return [KINDS[k] for _ in range(blocks)
            for k in rng.permutation(len(KINDS))]


def references(specs):
    """Each spec's result hash from an in-process sim run."""
    import repro.structs.jobs  # noqa: F401  (registers the structs kinds)
    from repro.machine.cost import NCUBE7
    from repro.serve.server import JOB_KINDS

    shard = SimpleNamespace(nranks=NRANKS, machine=NCUBE7, pool=None,
                            cache_dir=None)
    return {kind: JOB_KINDS[kind](shard, spec)[1][HASH_FIELD[kind]]
            for kind, spec in specs.items()}


def model_hashes(specs):
    """``dht_lookup`` answered by a dict and ``queue_stream`` by a deque,
    from the documented meaning of their specs."""
    def sha(arr):
        return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()

    spec = specs["dht_lookup"]
    n, seed = spec["n"], spec["seed"]
    rng = np.random.default_rng(seed)
    keys = rng.permutation(4 * n)[:n].astype(np.int64)
    table = dict(zip(keys.tolist(), rng.standard_normal(n).tolist()))
    probe = keys[np.random.default_rng(seed + 1).integers(
        0, n, size=spec["lookups"])]
    lookups = np.array([table[k] for k in probe.tolist()])

    spec = specs["queue_stream"]
    n, chunk = spec["n"], spec["chunk"]
    values = np.random.default_rng(spec["seed"]).standard_normal(n)
    queue, popped, lo = collections.deque(), [], 0
    while lo < n or queue:
        if lo < n:
            queue.extend(values[lo:min(lo + chunk, n)].tolist())
            lo = min(lo + chunk, n)
        take = min(len(queue), max(chunk // 2, 1)) if lo < n else len(queue)
        popped.extend(queue.popleft() for _ in range(take))
    return {"dht_lookup": sha(lookups), "queue_stream": sha(np.array(popped))}


# --- the server process -------------------------------------------------------------


def shm_names():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro-shm-")}
    except OSError:
        return set()


def children(pid: int):
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def host_steal():
    """(steal ticks, all ticks) of the machine, from /proc/stat."""
    with open("/proc/stat") as fh:
        ticks = [int(x) for x in fh.readline().split()[1:]]
    return ticks[7], sum(ticks)


def fleet_cpu_s(server_pid: int) -> float:
    """User + system CPU seconds of the server, its pool workers and this
    process (the clients)."""
    ticks = 0
    for pid in [server_pid] + children(server_pid):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])
        except OSError:
            pass
    return ticks / os.sysconf("SC_CLK_TCK") + sum(os.times()[:2])


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def peak_rss_mb(pids) -> float:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            pass
    return total / 1024.0


class Server:
    """One ``repro.serve start`` subprocess in its own run directory."""

    def __init__(self, rundir: str, log_path: str):
        self.rundir = rundir
        os.makedirs(rundir, exist_ok=True)
        self.sock = os.path.relpath(os.path.join(rundir, "s.sock"))
        self.cache = os.path.join(rundir, "cache")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.log = open(log_path, "a")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "start", "--socket",
             self.sock, "--nranks", str(NRANKS), "--shards", "1",
             "--cache-dir", self.cache],
            stdout=self.log, stderr=subprocess.STDOUT, env=env)

    def wait_ready(self, timeout: float = 60.0) -> None:
        from repro.errors import KaliError
        from repro.serve.server import ServeClient

        deadline = perf() + timeout
        while perf() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            if os.path.exists(self.sock):
                try:
                    if ServeClient(self.sock, timeout=10).request("ping")["ok"]:
                        return
                except (OSError, KaliError, ValueError):
                    pass  # listening socket not up yet
            time.sleep(0.005)
        raise RuntimeError("server did not answer ping in time")

    def stop(self, problems) -> None:
        """Stop the server and check that nothing outlives it."""
        from repro.serve.server import ServeClient

        workers = children(self.proc.pid)
        try:
            ServeClient(self.sock, timeout=30).request("stop")
        except OSError as err:
            problems.append(f"stop request failed: {err}")
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            problems.append("server did not exit on stop")
            self.proc.kill()
            self.proc.wait()
        self.log.close()
        deadline = perf() + 10
        while any(alive(p) for p in workers) and perf() < deadline:
            time.sleep(0.05)
        if any(alive(p) for p in workers):
            problems.append("pool worker processes outlived the server")
        if os.path.exists(self.sock):
            problems.append("server socket outlived the server")
        shutil.rmtree(self.rundir, ignore_errors=True)
        if os.path.exists(self.rundir):
            problems.append("temporary cache dir could not be removed")


# --- the load ------------------------------------------------------------------------


class Load:
    """The closed loop: ``CLIENTS`` persistent connections, each submitting
    the next entry of the shared stream and waiting for it."""

    def __init__(self, sock, kinds, specs):
        from repro.serve.server import ServeConnection

        self.kinds, self.specs = kinds, specs
        self.conns = [ServeConnection(sock, timeout=120)
                      for _ in range(CLIENTS)]
        self.pos = 0
        self.errors = []

    def close(self):
        for conn in self.conns:
            conn.close()

    def run(self, until, ping=False):
        """Submit until ``until`` (a perf-counter deadline, or a job count
        when it is an int); returns (records, ping seconds, window)."""
        lock = threading.Lock()
        stop = self.pos + until if isinstance(until, int) else None
        records, pings = [], []

        def client(conn):
            try:
                while True:
                    with lock:
                        i = self.pos
                        if (i >= stop) if stop is not None else (
                                perf() >= until):
                            return
                        self.pos += 1
                    if ping:
                        t = perf()
                        conn.request("ping")
                        pings.append(perf() - t)
                    kind = self.kinds[i]
                    t = perf()
                    reply = conn.request("submit", kind=kind,
                                         spec=self.specs[kind])
                    records.append((i, perf() - t, reply))
            except Exception as err:  # noqa: BLE001 - reported as a problem
                self.errors.append(f"client: {type(err).__name__}: {err}")

        threads = [threading.Thread(target=client, args=(conn,))
                   for conn in self.conns]
        t0 = perf()
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        return records, pings, perf() - t0


def known_defect(error: str) -> bool:
    return all(s in error for s in KNOWN_DEFECT)


def check(records, kinds, refs, outcome, known=None):
    """Count failures and wrong hashes; returns the ok records.  With
    ``known`` (the warm-up), failures with the known defect's signature
    go to that list instead of being counted, and nothing is attempted."""
    good = []
    for i, lat, reply in records:
        job = reply.get("job") or {}
        if known is None:
            outcome["attempted"] += 1
        if not reply.get("ok"):
            error = str(job.get("error") or reply.get("error"))
            if known is not None and known_defect(error):
                known.append(f"job {i} ({kinds[i]}): {error.splitlines()[-1]}")
                continue
            outcome["failed"] += 1
            outcome["problems"].append(f"job {i} ({kinds[i]}) failed: "
                                       f"{error[:300]}")
            continue
        got = (job.get("summary") or {}).get(HASH_FIELD[kinds[i]])
        if got != refs[kinds[i]]:
            outcome["failed"] += 1
            outcome["problems"].append(
                f"job {i} ({kinds[i]}): result hash differs from the sim "
                "reference")
            continue
        good.append((i, lat, job))
    return good


def reproduce_defect(sock, specs, refs, outcome):
    """The documented reproduction on a fresh server: ``dht_build`` and
    then ``cg``.  Records whether ``cg`` fails with the known signature."""
    from repro.serve.server import ServeClient

    client = ServeClient(sock, timeout=120)
    notes = []
    for kind in ("dht_build", "cg"):
        reply = client.request("submit", kind=kind, spec=specs[kind])
        job = reply.get("job") or {}
        if reply.get("ok"):
            if (job.get("summary") or {}).get(HASH_FIELD[kind]) != refs[kind]:
                outcome["problems"].append(
                    f"defect reproduction: {kind} result hash differs from "
                    "the sim reference")
            continue
        error = str(job.get("error") or reply.get("error"))
        if kind == "cg" and known_defect(error):
            notes.append(f"{kind} after dht_build on a fresh server: "
                         f"{error.splitlines()[-1]}")
        else:
            outcome["problems"].append(f"defect reproduction: {kind} failed: "
                                       f"{error[:300]}")
    outcome["defect_reproduced"] = notes


def measure_window(load, seconds, trace, server_pid, clock):
    """``seconds`` of load in 2-second segments; returns (segments, share
    of the machine's CPU time stolen by the hypervisor, CPU seconds of the
    server process tree and this process, machine slowdown).  The
    slowdown is the mean CPU time of the probes ``clock`` ran in this
    process during the window, over ``REF_PROBE_S``.  The traced half of
    a --trace 1 window pings before every job."""
    segments = []
    n0 = len(clock.cpu_probes)
    s0, c0 = host_steal(), fleet_cpu_s(server_pid)
    start = perf()
    while perf() < start + seconds:
        traced = trace and perf() >= start + seconds / 2
        records, pings, took = load.run(
            min(perf() + SEGMENT_S, start + seconds), ping=traced)
        segments.append((records, pings, took, traced))
    s1, c1 = host_steal(), fleet_cpu_s(server_pid)
    probes = clock.cpu_probes[n0:] or clock.cpu_probes[-1:]
    return (segments, (s1[0] - s0[0]) / max(s1[1] - s0[1], 1), c1 - c0,
            statistics.mean(probes) / REF_PROBE_S)


def measure(seed, seconds, trace, outcome, out_dir, digest_only=False):
    specs = catalogue(seed)
    kinds = stream(seed)
    refs = references(specs)
    for kind, want in model_hashes(specs).items():
        if refs[kind] != want:
            outcome["problems"].append(f"sim reference for {kind} differs "
                                       "from its dict/deque model")
    if digest_only:
        outcome["digest"] = {"stream": kinds[:64], "refs": refs}
        return
    os.makedirs(out_dir, exist_ok=True)
    log = os.path.join(out_dir, f"serve_mixed-seed{seed}.server.log")
    open(log, "w").close()
    problems, known = outcome["problems"], []
    shm_before = shm_names()

    setups, server = [], None
    for rep in range(SETUP_REPEATS):
        rundir = os.path.join(out_dir, f"serve-{os.getpid()}-{rep}")
        t = perf()
        server = Server(rundir, log)
        try:
            server.wait_ready()
        except RuntimeError as err:
            problems.append(str(err))
            server.stop(problems)
            raise SystemExit(f"error: {err}; see {log}")
        setups.append(perf() - t)
        if rep == 0:
            try:
                reproduce_defect(server.sock, specs, refs, outcome)
            except BaseException:
                server.stop(problems)
                raise
        if rep < SETUP_REPEATS - 1:
            server.stop(problems)
    outcome["setup_s"] = statistics.median(setups)
    outcome["setup_runs"] = setups

    from repro.serve.server import ServeClient

    load = None
    windows = []
    try:
        load = Load(server.sock, kinds, specs)
        warm, _, _ = load.run(WARMUP)
        check(warm, kinds, refs, outcome, known)
        # Probes run in this process, inside the load, every 0.25 s.
        with SpeedClock(interval=0.25) as clock:
            while len(windows) < WINDOWS and (
                    not windows or windows[-1][1] > STEAL_LIMIT):
                windows.append(measure_window(load, seconds, trace,
                                              server.proc.pid, clock))
        fleet = ServeClient(server.sock).request("metrics")["metrics"]
        pids = [server.proc.pid] + children(server.proc.pid)
        rss = peak_rss_mb(pids)
    finally:
        if load is not None:
            load.close()
            problems.extend(load.errors)
        server.stop(problems)
    leaked = shm_names() - shm_before
    if leaked:
        problems.append(f"{len(leaked)} /dev/shm segments outlived the run")
    segments, steal, cpu_s, slowdown = min(windows, key=lambda w: w[1])
    good = []
    for segs, *_ in windows:
        ok = check([rec for seg in segs for rec in seg[0]], kinds, refs,
                   outcome)
        if segs is segments:
            good = ok
    timed = [rec for seg in segments for rec in seg[0]]
    outcome["window_steal"] = [w[1] for w in windows]
    outcome["warmup_defect"] = known
    outcome["correct"] = not problems
    if problems:
        outcome["failed"] += 1  # a leak or an unexplained error fails the run

    outcome["segment_rates"] = [len(seg[0]) / seg[2] for seg in segments]
    window = sum(seg[2] for seg in segments)
    lat_ms = [1e3 * lat for _, lat, _ in good]
    jobs_per_s = len(timed) / window if window else 0.0
    per_cpu_s = len(good) / cpu_s if cpu_s > 0 else 0.0
    outcome["slowdown"] = slowdown
    outcome["end_to_end"] = {
        "setup_s": (outcome["setup_s"], "s"),
        "primary_per_s": (jobs_per_s * slowdown, "1/s"),
        "secondary_per_s": (per_cpu_s * slowdown, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    named = [("host_steal_share", steal, "ratio", len(windows)),
             ("serve_jobs_per_s", jobs_per_s, "1/s", len(timed)),
             ("serve_jobs_per_cpu_s", per_cpu_s, "1/s", len(good)),
             ("serve_p50_ms", percentile(lat_ms, 0.5), "ms", len(lat_ms))]
    label = tail(lat_ms) if lat_ms else None
    if label:
        named.append((f"serve_{label[0]}_ms", label[1], "ms", len(lat_ms)))
    outcome["named"] = named
    if trace:
        plain = [seg for seg in segments if not seg[3]]
        traced = [seg for seg in segments if seg[3]]
        outcome["per_layer"] = layer_metrics(
            good, [p for seg in traced for p in seg[1]], fleet, outcome,
            sum(seg[2] for seg in plain), sum(len(seg[0]) for seg in plain),
            sum(seg[2] for seg in traced), sum(len(seg[0]) for seg in traced))


def layer_metrics(good, pings, fleet, outcome, plain_s, n_plain, traced_s,
                  n_traced):
    n = max(len(good), 1)
    jobs = [job for _, _, job in good]
    wait = [1e3 * (lat - job["wall_s"]) for _, lat, job in good]
    run = [1e3 * job["wall_s"] for job in jobs]
    m = {
        "serve.front_ms_p50": (percentile([1e3 * p for p in pings], 0.5), "ms"),
        "serve.queue_wait_ms_p50": (percentile(wait, 0.5), "ms"),
        "serve.queue_wait_ms_p95": (percentile(wait, 0.95), "ms"),
        "serve.run_ms_p50": (percentile(run, 0.5), "ms"),
        "serve.run_ms_p95": (percentile(run, 0.95), "ms"),
        "serve.batch_size_mean": (sum(j.get("batch_size", 1) for j in jobs) / n,
                                  "ratio"),
        "serve.inspector_runs_per_job": (
            sum(j.get("inspector_runs", 0) for j in jobs) / n, "ratio"),
        "serve.shm_bytes_per_job": (sum(j.get("shm_bytes", 0) for j in jobs)
                                    / n, "B"),
        "serve.pipe_bytes_per_job": (sum(j.get("pipe_bytes", 0) for j in jobs)
                                     / n, "B"),
        "serve.pool_rebuilds": (fleet.get("shard.0.rebuilds", 0), "count"),
        "serve.retries": (fleet.get("serve.retries", 0), "count"),
        "serve.defect_reproduced": (len(outcome["defect_reproduced"]),
                                    "count"),
        "serve.warmup_defect_failures": (len(outcome["warmup_defect"]),
                                         "count"),
        "other_s": (traced_s, "s"),
        "trace.wall_s": (traced_s, "s"),
        "trace.overhead": ((traced_s / max(n_traced, 1))
                           / (plain_s / max(n_plain, 1)) if n_plain else 0.0,
                           "ratio"),
        "trace.spans": (len(pings), "count"),
    }
    hits = sum(j.get("disk_hits", 0) for j in jobs)
    misses = sum(j.get("disk_misses", 0) for j in jobs)
    m["serve.disk_hit_ratio"] = (hits / (hits + misses) if hits + misses
                                 else 0.0, "ratio")
    lookups = [j for j in jobs if j["kind"] == "dht_lookup"]
    m["serve.table_reused_ratio"] = (
        sum(bool(j["summary"].get("table_reused")) for j in lookups)
        / len(lookups) if lookups else 0.0, "ratio")
    for kind in KINDS:
        m[f"serve.run_ms_p50.{kind}"] = (
            percentile([1e3 * j["wall_s"] for j in jobs if j["kind"] == kind], 0.5),
            "ms")
    return m
