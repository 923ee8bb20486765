"""The ``python -m repro.bench`` driver: suite selection, gates, artifacts.

Each suite's experiment function is replaced by a stub returning canned
rows, so these tests run in milliseconds and pin only the driver: the
exit code when the gate passes and when it fails, the ``[FAIL: ...]``
lines, and the exact file names written to ``--metrics-dir``.  The
experiments themselves are covered by their own suites.
"""

import json

import pytest

import repro.bench.__main__ as bench
from repro.bench.experiments import AblationRow
from repro.machine.stats import RankStats, RunResult


def _run(nranks=2):
    return RunResult(nranks=nranks, clocks=[1.0] * nranks,
                     stats=[RankStats(rank=r) for r in range(nranks)],
                     values=[None] * nranks)


def _rows(table):
    return [AblationRow(key=k, values=dict(v)) for k, v in table.items()]


def _mp(ok):
    def stub(machine, procs, mesh_side):
        rows = {p: {"wall_makespan": 0.1, "wall_executor": 0.05,
                    "wall_inspector": 0.01, "messages": 12.0,
                    "identical": 1.0 if ok else 0.0} for p in procs}
        return _rows(rows), {p: _run(p) for p in procs}
    return {"mp_wallclock": stub}


def _serve(ok):
    def s1(machine, njobs, mesh_side):
        regimes = ("sim", "fork-per-run", "warm-pool", "warm-pool+disk")
        rows = {k: {"jobs_per_s": 10.0, "p50_ms": 1.0, "p95_ms": 2.0,
                    "inspector_first": 4.0, "inspector_rest": 16.0}
                for k in regimes}
        rows["warm-pool+disk"]["inspector_rest"] = 0.0 if ok else 4.0
        return _rows(rows), {k: _run() for k in regimes}

    def s2(machine, shard_counts, njobs, mesh_side, families):
        rows = {f"{k}-shard": {"jobs_per_s": 10.0 * k,
                               "speedup": float(k) if ok else 1.0,
                               "p50_ms": 1.0, "p95_ms": 2.0,
                               "shards_used": float(k), "min_hit_rate": 0.5,
                               "hit_delta": 0.0 if ok or k == 1 else -0.25}
                for k in shard_counts}
        return _rows(rows), {k: {"shard-0": {"hits": 1, "misses": 1}}
                             for k in shard_counts}
    return {"serving_throughput": s1, "sharded_throughput": s2}


def _tune(ok):
    def stub(machine, nprocs, nodes, sweeps):
        rows = {"static-rcb": {"steady_sweep": 1.0, "moves": 0.0},
                "static-bad": {"steady_sweep": 2.0, "moves": 0.0},
                "adaptive": {"steady_sweep": 1.05 if ok else 2.5,
                             "moves": 1.0 if ok else 3.0}}
        for v in rows.values():
            v.update(makespan=10.0, decisions=2.0, identical=1.0)
        if not ok:
            rows["adaptive"]["identical"] = 0.0
        return _rows(rows), {k: _run() for k in rows}
    return {"adaptive_vs_static": stub}


def _shm(ok):
    def stub(machine, sizes, repeats, mesh_side):
        rows = {s: {"pickle_MBps": 100.0, "shm_MBps": 300.0 if ok else 150.0,
                    "speedup": 3.0 if ok else 1.5, "shm_bytes": float(s),
                    "pipe_bytes": 1000.0} for s in sizes}
        rows["jacobi-differential"] = {
            "identical": 1.0 if ok else 0.0,
            "comm_matrix_parity": 1.0 if ok else 0.0,
            "shm_bytes": 4096.0 if ok else 0.0, "pipe_bytes": 500.0}
        return _rows(rows), {k: _run() for k in ("pickle", "shm",
                                                 "jacobi-shm")}
    return {"shm_dataplane": stub}


def _structs(ok):
    def stub(machine, proc_counts, n, lookups):
        rows = {p: {"batched_s": 1.0, "naive_s": 10.0 if ok or p < 4 else 2.0,
                    "speedup": 10.0 if ok or p < 4 else 2.0,
                    "batched_msgs": 4.0, "naive_msgs": 40.0}
                for p in proc_counts}
        return _rows(rows), {f"P{p}_{mode}": _run(p) for p in proc_counts
                             for mode in ("batched", "naive")}
    return {"structs_throughput": stub}


def _autopilot(ok):
    def stub(machine, nprocs, nodes, max_jobs, tail):
        rows = {"frozen": {"jobs_per_s": 1.0, "tail_service_s": 1.0,
                           "tail_wall_s": 0.1, "recovery": 1.0},
                "autopilot": {"jobs_per_s": 2.0, "tail_service_s": 0.5,
                              "tail_wall_s": 0.1,
                              "recovery": 2.0 if ok else 1.0}}
        info = {"promoted_at_job": 4 if ok else None, "phase2_jobs": 10,
                "twins_identical": ok, "forced_replans": 0,
                "autopilot": {"promoted": 1 if ok else 0},
                "decisions": [{"decision": "promoted"}] if ok else []}
        return _rows(rows), info
    return {"autopilot_shift": stub}


# flag -> (stub factory, the failing gate's [FAIL: ...] lines, the files)
SUITES = {
    "--backend mp": (
        _mp,
        ["an mp run diverged from the simulator"],
        ["M1_mp_jacobi.metrics.json",
         "M1_mp_jacobi_p2.metrics.json", "M1_mp_jacobi_p2.run.json",
         "M1_mp_jacobi_p4.metrics.json", "M1_mp_jacobi_p4.run.json"],
    ),
    "--serve": (
        _serve,
        ["warm-pool+disk re-inspected on a cache hit",
         "per-shard disk hit rate degraded at 2 shards: -0.250 vs the "
         "single-pool baseline",
         "2-shard fleet below 1.25x single-pool throughput"],
        ["S1_serve_fork_per_run.metrics.json",
         "S1_serve_fork_per_run.run.json",
         "S1_serve_sim.metrics.json", "S1_serve_sim.run.json",
         "S1_serve_throughput.metrics.json",
         "S1_serve_warm_pool.metrics.json", "S1_serve_warm_pool.run.json",
         "S1_serve_warm_pool_disk.metrics.json",
         "S1_serve_warm_pool_disk.run.json",
         "S2_sharded_throughput.metrics.json"],
    ),
    "--tune": (
        _tune,
        ["steady-state sweep 2.500x static-rcb (>1.15)",
         "adaptive did not beat static-bad steady state",
         "3 moves (> 2)",
         "final arrays diverged across regimes"],
        ["T1_adaptive_vs_static.metrics.json",
         "T1_tune_adaptive.metrics.json", "T1_tune_adaptive.run.json",
         "T1_tune_static_bad.metrics.json", "T1_tune_static_bad.run.json",
         "T1_tune_static_rcb.metrics.json", "T1_tune_static_rcb.run.json"],
    ),
    "--shm": (
        _shm,
        ["speedup at 2097152B payloads is 1.50x (< 2.0x bar)",
         "shm Jacobi run diverged from the simulator",
         "comm matrix no longer reconciles with rank counters",
         "shm path moved zero payload bytes (plane inactive?)"],
        ["D1_shm_dataplane.metrics.json",
         "D1_shm_jacobi-shm.metrics.json", "D1_shm_jacobi-shm.run.json",
         "D1_shm_pickle.metrics.json", "D1_shm_pickle.run.json",
         "D1_shm_shm.metrics.json", "D1_shm_shm.run.json"],
    ),
    "--structs": (
        _structs,
        ["P=4: batched speedup 2.00x (< 3.0x bar)"],
        ["G1_structs_P1_batched.metrics.json",
         "G1_structs_P1_batched.run.json",
         "G1_structs_P1_naive.metrics.json", "G1_structs_P1_naive.run.json",
         "G1_structs_P4_batched.metrics.json",
         "G1_structs_P4_batched.run.json",
         "G1_structs_P4_naive.metrics.json", "G1_structs_P4_naive.run.json",
         "G1_structs_throughput.metrics.json"],
    ),
    "--autopilot": (
        _autopilot,
        ["steady-state recovery 1.000x frozen (< 1.15x)",
         "no promotion within the 16-job budget",
         "a job's solution diverged from its frozen twin",
         "no promoted decision in the autopilot journal",
         "autopilot.promoted metric missing from registry"],
        ["P1_autopilot_shift.metrics.json"],
    ),
}


@pytest.mark.parametrize("ok", [True, False], ids=["gate-passes",
                                                    "gate-fails"])
@pytest.mark.parametrize("flag", list(SUITES))
def test_suite_gate_exit_code_and_artifacts(flag, ok, tmp_path, monkeypatch,
                                            capsys):
    make_stubs, fail_lines, files = SUITES[flag]
    for name, stub in make_stubs(ok).items():
        monkeypatch.setattr(bench, name, stub)
    # Pin the core count so the S2 speedup half of the gate is live.
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 4)

    rc = bench.main(flag.split() + ["--fast", "--metrics-dir",
                                    str(tmp_path)])
    out = capsys.readouterr().out

    printed = [line[len("[FAIL: "):-1] for line in out.splitlines()
               if line.startswith("[FAIL: ")]
    assert rc == (0 if ok else 1), out
    assert printed == ([] if ok else fail_lines)
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    legs = {name.split(".")[0] for name in files if name.endswith(".run.json")}
    for name in files:
        doc = json.loads((tmp_path / name).read_text())
        stem = name.split(".")[0]
        if name.endswith(".run.json"):
            assert doc["format"] == "repro-run-v1"
        elif stem not in legs:
            assert doc["experiment"] == stem and doc["fast"] is True


def test_suite_writes_nothing_without_metrics_dir(tmp_path, monkeypatch,
                                                  capsys):
    for name, stub in _mp(True).items():
        monkeypatch.setattr(bench, name, stub)
    monkeypatch.chdir(tmp_path)
    assert bench.main(["--backend", "mp", "--fast"]) == 0
    assert "M1  real OS processes" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--serve", "--tune"],
                                  ["--backend", "mp", "--structs"],
                                  ["--shm", "--autopilot", "--serve"]])
def test_two_suites_at_once_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        bench.main(argv + ["--fast"])
    assert exc.value.code == 2
    assert "choose one suite" in capsys.readouterr().err
