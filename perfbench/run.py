#!/usr/bin/env python3
"""The repo benchmark: one command, four seeded workloads, oracle-checked.

    python3 perfbench/run.py --workload solver_steady --seed 1 --seconds 15 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` alternates untraced and traced cycles of the same
work and reports the per-layer metrics, the tracing overhead and a
Chrome-trace file.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
print every metric by name with its unit and sample count.  Details go
to ``.perfbench/<workload>-seed<seed>-trace<t>.json``.

``--held-out`` replaces ``--seed`` with a fresh random seed (printed) for
checking a claim on inputs nobody tuned against.  ``--check-determinism``
runs one cycle of the workload in two fresh processes and compares the
exact counts and modeled times.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import secrets
import statistics
import subprocess
import sys
import time

from metrics import SETUP_REPEATS, SpeedClock, percentile, rate, tail

perf = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
NAMES = ("solver_steady", "inspect_cold", "dhash_rw", "serve_mixed")
HELD_OUT_BASE = 1 << 30  # tuning seeds stay below this


# --- metric helpers -------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- the in-process workloads ------------------------------------------------------


def plain_timed(fn, *args):
    t = perf()
    value = fn(*args)
    return perf() - t, value


def setup_repeated(setup, seed, clock):
    """Set up ``SETUP_REPEATS`` times; returns (last state, median setup
    seconds in reference seconds, raw seconds of each set-up)."""
    state, raws, refs = None, [], []
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        raw, state = clock.timed(setup, seed)
        raws.append(raw)
        refs.append(clock.calls[-1][1])
    return state, statistics.median(refs), raws


def run_unit(wl, state, i, timed, calls=None):
    """Run unit ``i``; with ``calls`` (the clock's call log), its samples
    are returned again in reference seconds."""
    k0 = len(calls) if calls is not None else 0
    unit = wl.unit(state, i, timed)
    if calls is not None:
        mine = calls[k0:]
        assert len(mine) == len(unit.samples)
        unit.ref_samples = [(stream, ref, work) for (stream, _, work),
                            (_, ref) in zip(unit.samples, mine)]
    return unit


def check_units(units, problems):
    """Oracle errors and digest repeats; returns the number of failed units."""
    failed, first = 0, {}
    for u in units:
        bad = bool(u.errors)
        problems.extend(u.errors)
        seen = first.setdefault(u.key, u.digest)
        if seen != u.digest:
            bad = True
            problems.append(f"unit {u.key}: counts or modeled time did not "
                            "repeat exactly")
        failed += bad
    return failed


def cycle_virtual(units):
    """Modeled seconds (total and per phase) of one cycle: first unit of
    each key."""
    seen, total, phases = set(), 0.0, {}
    for u in units:
        if u.key in seen:
            continue
        seen.add(u.key)
        total += u.virtual_s
        for p, v in u.phases.items():
            phases[p] = phases.get(p, 0.0) + v
    return total, phases


VIRTUAL_PHASES = ("inspector", "executor", "reduction", "structs")


def stream_samples(units, stream, ref=False):
    return [(sec, work) for u in units
            for name, sec, work in (u.ref_samples if ref else u.samples)
            if name == stream]


def measure_sim(wl, seed, seconds, trace, outcome):
    from tracer import Tracer

    units, traced, i = [], [], 0
    with SpeedClock() as clock:
        state, outcome["setup_s"], outcome["setup_runs"] = setup_repeated(
            wl.setup, seed, clock)
        for i in range(wl.warmup_units):  # first-use costs, untimed
            wl.unit(state, i, plain_timed)
        gc.collect()
        i = 0
        if not trace:
            deadline = perf() + seconds
            while i < wl.cycle or perf() < deadline:
                units.append(run_unit(wl, state, i, clock.timed, clock.calls))
                i += 1
        outcome["slowdown"] = clock.slowdown()
    if trace:
        tracer = Tracer()

        def traced_timed(fn, *args):
            before = tracer.wall_s
            value = tracer.run_root(fn, *args)
            return tracer.wall_s - before, value

        deadline = perf() + seconds
        cycles = 0
        while True:
            t = perf()
            for _ in range(wl.cycle):
                units.append(run_unit(wl, state, i, plain_timed))
                i += 1
            tracer.install()
            try:
                for _ in range(wl.cycle):
                    traced.append(run_unit(wl, state, i, traced_timed))
                    i += 1
            finally:
                tracer.uninstall()
            cycles += 1
            if perf() + (perf() - t) > deadline:
                break
        outcome["per_layer"] = layer_metrics(wl, tracer, units, traced,
                                             cycles)
        outcome["layer_table"] = sorted(
            ((layer, tracer.self_s[layer] / cycles,
              tracer.incl_s[layer] / cycles) for layer in tracer.self_s),
            key=lambda row: -row[1])
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"{wl.name}-seed{seed}.trace.json")
        tracer.write_chrome(path, {"workload": wl.name, "seed": seed})
        outcome["chrome_trace"] = os.path.relpath(path, ROOT)
        if tracer.reconcile_error() > 1e-6 * max(tracer.wall_s, 1e-9):
            outcome["problems"].append(
                f"trace does not reconcile: {tracer.reconcile_error():.3e}s")
    everything = units + traced
    outcome["attempted"] = sum(u.ops for u in everything)
    outcome["failed"] = check_units(everything, outcome["problems"])
    outcome["correct"] = not outcome["problems"]

    primary, secondary = wl.streams
    virtual, _ = cycle_virtual(units)
    outcome["raw_rates"] = {s: rate(stream_samples(units, s))
                            for s in wl.streams}
    if not trace:
        outcome["end_to_end"] = {
            "setup_s": (outcome["setup_s"], "s"),
            "primary_per_s": (rate(stream_samples(units, primary, True)),
                              "1/s"),
            "secondary_per_s": (rate(stream_samples(units, secondary, True)),
                                "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    samples = {s: stream_samples(units, s) for s in wl.streams}
    outcome["named"] = named_metrics(wl.name, samples, virtual)


def named_metrics(name, samples, virtual):
    """The per-workload metrics by the names the benchmark doc uses:
    (name, value, unit, sample count)."""
    n = lambda s: len(samples[s])  # noqa: E731
    rows = []
    if name == "solver_steady":
        rows += [("jacobi_sweeps_per_s", rate(samples["jacobi_sweeps"]), "1/s",
                  n("jacobi_sweeps")),
                 ("cg_iters_per_s", rate(samples["cg_iters"]), "1/s",
                  n("cg_iters"))]
    elif name == "inspect_cold":
        both = samples["api_jobs"] + samples["kali_jobs"]
        rows += [("cold_jobs_per_s", rate(both), "1/s", len(both)),
                 ("cold_api_jobs_per_s", rate(samples["api_jobs"]), "1/s",
                  n("api_jobs")),
                 ("cold_kali_jobs_per_s", rate(samples["kali_jobs"]), "1/s",
                  n("kali_jobs"))]
    elif name == "dhash_rw":
        both = samples["insert_keys"] + samples["mixed_keys"]
        ms = [1e3 * s for s, _ in both]
        rows += [("dhash_keys_per_s", rate(both), "1/s", len(both)),
                 ("dhash_insert_keys_per_s", rate(samples["insert_keys"]),
                  "1/s", n("insert_keys")),
                 ("dhash_mixed_keys_per_s", rate(samples["mixed_keys"]), "1/s",
                  n("mixed_keys")),
                 ("dhash_batch_p50_ms", percentile(ms, 0.5), "ms", len(ms))]
        label = tail(ms)
        if label:
            rows.append((f"dhash_batch_{label[0]}_ms", label[1], "ms", len(ms)))
    rows.append(("virtual_s", virtual, "model_s", 1))
    return rows


def layer_metrics(wl, tracer, untraced, traced, cycles):
    """Per-layer metrics, per traced cycle of the workload's stream."""
    per = 1.0 / cycles
    s = tracer.self_s
    c = tracer.calls

    def count(name):
        return sum(u.counts.get(name, 0) for u in traced) * per

    hits, misses = count("cache_hits"), count("cache_misses")
    virtual, phases = cycle_virtual(traced)
    keys = count("keys")
    untraced_s = sum(sec for u in untraced for _, sec, _ in u.samples)
    m = {
        "runtime.executor_s": (s["runtime.executor"] * per, "s"),
        "runtime.executor_calls": (c["runtime.executor"] * per, "count"),
        "runtime.inspector_s": (s["runtime.inspector"] * per, "s"),
        "runtime.inspector_calls": (c["runtime.inspector"] * per, "count"),
        "runtime.cache_hits": (hits, "count"),
        "runtime.cache_misses": (misses, "count"),
        "runtime.cache_hit_ratio": (hits / (hits + misses)
                                    if hits + misses else 0.0, "ratio"),
        "distributions.index_s": (s["distributions.index"] * per, "s"),
        "distributions.index_calls": (c["distributions.index"] * per,
                                      "count"),
        "comm.crystal_s": (s["comm.crystal"] * per, "s"),
        "comm.crystal_calls": (c["comm.crystal"] * per, "count"),
        "comm.collective_s": (s["comm.collective"] * per, "s"),
        "comm.collective_calls": (c["comm.collective"] * per, "count"),
        "machine.engine_s": (s["machine.engine"] * per, "s"),
        "machine.payload_sizing_s": (s["machine.payload_sizing"] * per, "s"),
        "machine.messages": (count("messages"), "count"),
        "machine.bytes": (count("bytes"), "B"),
        "virtual_s": (virtual, "model_s"),
        "core.run_s": (s["core.run"] * per, "s"),
        "analysis.closedform_s": (s["analysis.closedform"] * per, "s"),
        "analysis.closedform_calls": (c["analysis.closedform"] * per,
                                      "count"),
        "lang.compile_s": (s["lang.compile"] * per, "s"),
        "lang.lower_s": (s["lang.lower"] * per, "s"),
        "lang.interp_s": (s["lang.interp"] * per, "s"),
        "structs.rebalances": (count("rebalances"), "count"),
        "structs.migrated": (count("migrated"), "count"),
        "structs.messages_per_key": (count("messages") / keys if keys else 0.0,
                                     "ratio"),
        "other_s": (s["other"] * per, "s"),
        "trace.wall_s": (tracer.wall_s * per, "s"),
        "trace.overhead": (tracer.wall_s / untraced_s if untraced_s else 0.0,
                           "ratio"),
        "trace.spans": ((len(tracer.spans) + tracer.dropped) * per, "count"),
    }
    for op in ("insert", "add", "lookup", "delete", "route", "apply"):
        m[f"structs.{op}_s"] = (s[f"structs.{op}"] * per, "s")
    for p in VIRTUAL_PHASES:
        m[f"virtual.{p}_s"] = (phases.get(p, 0.0), "model_s")
    m["virtual.other_s"] = (sum(v for p, v in phases.items()
                                if p not in VIRTUAL_PHASES), "model_s")
    return m


# --- reporting ---------------------------------------------------------------------


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def finish(outcome, trace, contract) -> dict:
    """Fill every contract metric of this mode (zero where a layer is not
    on the workload's path) and build the final JSON object."""
    wanted = contract["per_layer"] if trace else contract["end_to_end"]
    source = outcome.get("per_layer", {}) if trace else outcome["end_to_end"]
    metrics = {}
    for spec in wanted:
        value = source.get(spec["name"], (0.0, spec["unit"]))[0]
        if trace and spec["name"] == "fail_frac":
            value = outcome["failed"] / max(outcome["attempted"], 1)
        metrics[spec["name"]] = {"value": float(value), "unit": spec["unit"]}
    return {"correct": bool(outcome["correct"]),
            "attempted": int(max(outcome["attempted"], 1)),
            "failed": int(outcome["failed"]), "metrics": metrics}


def print_report(outcome, result, trace):
    print(f"workload {outcome['workload']}  seed {outcome['seed']}  "
          f"trace {int(trace)}")
    for name, value, unit, n in outcome.get("named", []):
        print(f"  {name:<32} {value:14.6g} {unit:<8} n={n}")
    print(f"  {'setup_s':<32} {outcome['setup_s']:14.6g} {'s':<8} "
          f"n={len(outcome['setup_runs'])}")
    if "slowdown" in outcome:
        print(f"  {'machine_slowdown':<32} {outcome['slowdown']:14.6g} "
              f"{'ratio':<8} (probe time / reference; rates above are raw)")
    print(f"  {'fail_frac':<32} "
          f"{outcome['failed'] / max(outcome['attempted'], 1):14.6g} "
          f"{'ratio':<8} n={outcome['attempted']}")
    for layer, self_s, incl_s in outcome.get("layer_table", []):
        print(f"  layer {layer:<26} self {self_s:10.4f} s   "
              f"inclusive {incl_s:10.4f} s   (per cycle)")
    for name, m in result["metrics"].items():
        print(f"  [{'layer' if trace else 'e2e'}] {name:<40} "
              f"{m['value']:14.6g} {m['unit']}")
    for note in outcome.get("defect_reproduced", []):
        print(f"  known serve defect reproduced in set-up: {note}")
    for note in outcome.get("warmup_defect", []):
        print(f"  known serve defect in the warm-up (not timed): {note}")
    for problem in outcome["problems"][:20]:
        print(f"  PROBLEM: {problem}")
    if outcome.get("chrome_trace"):
        print(f"  chrome trace: {outcome['chrome_trace']}")


# --- entry ---------------------------------------------------------------------------


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--held-out", action="store_true",
                   help="ignore --seed; draw a fresh seed above the tuning "
                        "range and print it")
    p.add_argument("--check-determinism", action="store_true",
                   help="run one cycle in two processes and compare counts")
    p.add_argument("--digest", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def check_determinism(args) -> int:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--digest"]
    digests = []
    for _ in range(2):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=170)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        digests.append(proc.stdout.strip().splitlines()[-1])
    same = digests[0] == digests[1]
    print(f"{args.workload} seed {args.seed}: exact counts and modeled "
          f"times {'repeat' if same else 'DIFFER'} across two processes")
    return 0 if same else 1


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source under {ROOT}/src (run from a "
              "checkout of the repository)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.held_out:
        args.seed = HELD_OUT_BASE + secrets.randbelow(HELD_OUT_BASE)
        print(f"held-out seed: {args.seed}")
    if args.check_determinism:
        return check_determinism(args)
    contract = load_contract()

    outcome = {"workload": args.workload, "seed": args.seed, "problems": [],
               "attempted": 0, "failed": 0}
    if args.workload == "serve_mixed":
        import serve_load

        serve_load.measure(args.seed, args.seconds, bool(args.trace), outcome,
                           OUT, digest_only=args.digest)
    else:
        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload]
        if args.digest:
            state = wl.setup(args.seed)
            units = [wl.unit(state, i, plain_timed) for i in range(wl.cycle)]
            outcome["digest"] = [(repr(u.key), u.digest) for u in units]
        else:
            measure_sim(wl, args.seed, args.seconds, bool(args.trace), outcome)
    if args.digest:
        print(json.dumps(outcome["digest"], default=str))
        return 0

    result = finish(outcome, bool(args.trace), contract)
    os.makedirs(OUT, exist_ok=True)
    detail = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail, "w") as fh:
        json.dump(outcome | {"result": result}, fh, indent=1, default=str)
    print_report(outcome, result, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
