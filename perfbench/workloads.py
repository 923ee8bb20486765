"""The three in-process workloads, simulated at P=16 on the NCUBE/7 model.

Each workload builds its inputs from the seed in :meth:`setup`, then runs
*units* of work in a fixed cycle.  ``unit(state, i, timed)`` runs unit
``i`` (``i % cycle`` picks the input), times only the calls into the
program through ``timed(fn)``, checks every output against an oracle
outside the timed region, and returns a :class:`Unit`.  Units with the
same ``key`` run the same input, so their ``digest`` (modeled time,
messages, bytes and the other exact counts) must repeat exactly.

Program entry points are looked up through their modules at call time
(``lang.compile_kali``, not an imported name), so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

P = 16
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Unit:
    key: tuple
    digest: tuple = ()
    # (stream, host seconds, work done), one per timed call, in call order
    samples: List[Tuple[str, float, float]] = field(default_factory=list)
    ref_samples: List[Tuple[str, float, float]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    ops: int = 1
    virtual_s: float = 0.0
    phases: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)


def run_counts(result) -> Tuple[float, Dict[str, float], Dict[str, float]]:
    """(modeled seconds, per-phase modeled seconds, exact counts) of one
    engine ``RunResult``."""
    phases = {p: result.phase_max(p) for p in result.phases()}
    counts = {
        "messages": result.total_messages(),
        "bytes": result.total_bytes(),
        "inspector_runs": result.counter_sum("inspector_runs"),
    }
    return result.makespan, phases, counts


def kali_counts(run) -> Tuple[float, Dict[str, float], Dict[str, float]]:
    """As :func:`run_counts`, for a ``KaliRunResult`` (adds cache counts)."""
    virtual, phases, counts = run_counts(run.engine)
    cache = run.cache_stats()
    counts["cache_hits"] = cache["hits"]
    counts["cache_misses"] = cache["misses"]
    return virtual, phases, counts


def make_unit(key, virtual, phases, counts, samples, errors, ops=1) -> Unit:
    digest = (repr(virtual), tuple(sorted((p, repr(v)) for p, v in
                                          phases.items())),
              tuple(sorted(counts.items())))
    return Unit(key=key, digest=digest, samples=samples, errors=errors,
                ops=ops, virtual_s=virtual, phases=phases, counts=counts)


def close(got: np.ndarray, want: np.ndarray, what: str, atol: float) -> List[str]:
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    return [] if err <= atol else [f"{what}: max |error| {err:.3e} > {atol:g}"]


# --- solver_steady ------------------------------------------------------------


class SolverSteady:
    """Warm Figure 4 Jacobi and CG contexts on a 128x128 five-point grid.

    Even units are a 100-sweep Jacobi run, odd units a 60-iteration CG
    solve (tol 0).  Every ``ctx.run`` inspects again, as the program does.
    """

    name = "solver_steady"
    cycle = 2
    warmup_units = 0  # setup already warms both contexts
    streams = ("jacobi_sweeps", "cg_iters")
    SIDE, SWEEPS, ITERS = 128, 100, 60

    def setup(self, seed: int):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        from repro.apps import cg, jacobi
        from repro.meshes.regular import five_point_grid

        mesh = five_point_grid(self.SIDE, self.SIDE)
        rng = np.random.default_rng(seed)
        init = rng.random(mesh.n)
        b = rng.random(mesh.n)
        prog = jacobi.build_jacobi(mesh, P, initial=init)
        solver = cg.CGSolver(mesh, P)
        cols, vals, counts = cg.laplacian_plus_identity(mesh)
        live = np.arange(cols.shape[1])[None, :] < counts[:, None]
        rows = np.repeat(np.arange(mesh.n), counts)
        A = sp.csr_matrix((vals[live], (rows, cols[live])),
                          shape=(mesh.n, mesh.n))
        state = {"mesh": mesh, "prog": prog, "solver": solver, "b": b,
                 "A": A, "x_ref": spla.spsolve(A.tocsc(), b)}
        # Warm both contexts: first-use costs of every code path.
        prog.run(1)
        solver.solve(b, tol=0.0, max_iter=1)
        return state

    def unit(self, state, i: int, timed: Callable) -> Unit:
        from repro.meshes.regular import reference_sweep

        if i % 2 == 0:
            prog, mesh = state["prog"], state["mesh"]
            before = prog.ctx.arrays["a"].data.copy()
            sec, run = timed(prog.run, self.SWEEPS)
            ref = before
            for _ in range(self.SWEEPS):
                ref = reference_sweep(mesh, ref)
            errors = close(prog.solution, ref, "jacobi vs reference_sweep",
                           1e-12)
            return make_unit(("jacobi",), *kali_counts(run),
                             [("jacobi_sweeps", sec, self.SWEEPS)], errors)
        solver, b, A = state["solver"], state["b"], state["A"]
        sec, res = timed(solver.solve, b, 0.0, self.ITERS)
        bnorm = float(np.linalg.norm(b))
        true_res = float(np.linalg.norm(b - A @ res.solution))
        errors = close(res.solution, state["x_ref"], "cg vs scipy spsolve",
                       1e-9)
        if res.iterations != self.ITERS:
            errors.append(f"cg ran {res.iterations} iterations, not "
                          f"{self.ITERS}")
        if true_res > 1e-9 * bnorm or abs(res.residual - true_res) > 1e-9 * bnorm:
            errors.append(f"cg residual {res.residual:.3e} vs true "
                          f"{true_res:.3e}")
        return make_unit(("cg",), *kali_counts(res.timing),
                         [("cg_iters", sec, res.iterations)], errors)


# --- inspect_cold ---------------------------------------------------------------


class InspectCold:
    """A cold schedule per job: fresh context on a 2000-node unstructured
    mesh, 2 sweeps.  Even units run the Python-API Figure 4 with a
    scrambled ``Custom`` owner map; odd units compile the Figure 4 Kali
    source anew and run it with ``dist by [block]``.  ``MESHES`` is odd,
    so every mesh meets both forms once per cycle."""

    name = "inspect_cold"
    MESHES, NODES, SWEEPS = 7, 2000, 2
    cycle = 2 * MESHES
    warmup_units = 2
    streams = ("api_jobs", "kali_jobs")

    def setup(self, seed: int):
        from repro.meshes.unstructured import random_unstructured_mesh

        rng = np.random.default_rng(seed)
        with open(os.path.join(HERE, "fig4.kali")) as fh:
            source = fh.read()
        jobs = []
        for _ in range(self.MESHES):
            mesh, _pts = random_unstructured_mesh(
                self.NODES, seed=int(rng.integers(1 << 31)),
                locality_sort=False)
            owner = np.repeat(np.arange(P), -(-mesh.n // P))[:mesh.n]
            jobs.append({"mesh": mesh, "init": rng.random(mesh.n),
                         "owner": rng.permutation(owner)})
        return {"jobs": jobs, "source": source}

    def unit(self, state, i: int, timed: Callable) -> Unit:
        from repro import lang
        from repro.apps import jacobi
        from repro.distributions.custom import Custom
        from repro.meshes.regular import reference_sweep

        k = i % self.MESHES
        job = state["jobs"][k]
        mesh, init = job["mesh"], job["init"]
        ref = init
        for _ in range(self.SWEEPS):
            ref = reference_sweep(mesh, ref)
        if i % 2 == 0:
            def api_job():
                prog = jacobi.build_jacobi(mesh, P, dist=Custom(job["owner"]),
                                           initial=init)
                return prog.run(self.SWEEPS), prog.solution

            sec, (run, solution) = timed(api_job)
            errors = close(solution, ref, "api form vs reference_sweep", 1e-12)
            return make_unit((k, "api"), *kali_counts(run),
                             [("api_jobs", sec, 1)], errors)

        def kali_job():
            program = lang.compile_kali(state["source"])
            return program.run(
                P, consts={"n": mesh.n, "width": mesh.width,
                           "nsweeps": self.SWEEPS},
                inputs={"a": init, "count": mesh.count, "adj": mesh.adj + 1,
                        "coef": mesh.coef})

        sec, res = timed(kali_job)
        errors = close(res.arrays["a"], ref, "kali form vs reference_sweep",
                       1e-12)
        return make_unit((k, "kali"), *kali_counts(res.timing),
                         [("kali_jobs", sec, 1)], errors)


# --- dhash_rw -------------------------------------------------------------------


class DHashRW:
    """One unit is one episode on a fresh ``DHash`` (P=16, 17 buckets):
    an insert phase of 1000-key batches that grows the table through
    amortized rebalances, then a mixed phase of lookups, adds and
    deletes over skewed keys (hot keys, uniform keys and misses).  Every
    batch is checked against a Python dict model."""

    name = "dhash_rw"
    EPISODES, BATCH, INSERTS, MIXED = 2, 1000, 12, 24
    HOT, HORIZON = 32, 32
    cycle = EPISODES
    warmup_units = 1
    streams = ("insert_keys", "mixed_keys")

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        episodes = []
        for _ in range(self.EPISODES):
            n_ins = self.INSERTS * self.BATCH
            draw = rng.integers(0, 1 << 40, size=2 * n_ins + 64)
            _, first = np.unique(draw, return_index=True)
            universe = draw[np.sort(first)][: 2 * n_ins]
            inserted, fresh = universe[:n_ins], universe[n_ins:]
            batches = [("insert", inserted[j:j + self.BATCH],
                        rng.standard_normal(self.BATCH))
                       for j in range(0, n_ins, self.BATCH)]
            ops = rng.choice(["lookup", "add", "delete"], size=self.MIXED,
                             p=[0.6, 0.25, 0.15])
            for op in ops:
                pick = rng.random(self.BATCH)
                keys = np.where(
                    pick < 0.3, inserted[rng.integers(0, self.HOT, self.BATCH)],
                    np.where(pick < 0.8,
                             inserted[rng.integers(0, n_ins, self.BATCH)],
                             fresh[rng.integers(0, len(fresh), self.BATCH)]))
                vals = rng.standard_normal(self.BATCH) if op == "add" else None
                batches.append((str(op), keys.astype(np.int64), vals))
            episodes.append(batches)
        return {"episodes": episodes}

    @staticmethod
    def model_apply(model: Dict[int, float], op: str, keys, vals):
        found = np.zeros(len(keys), dtype=bool)
        out = np.zeros(len(keys))
        for j, key in enumerate(keys.tolist()):
            hit = key in model
            found[j] = hit
            if op == "insert":
                model[key] = out[j] = vals[j]
            elif op == "add":
                model[key] = out[j] = model.get(key, 0.0) + vals[j]
            elif op == "lookup":
                out[j] = model.get(key, 0.0)
            else:
                out[j] = model.pop(key, 0.0)
        return found, out

    def unit(self, state, i: int, timed: Callable) -> Unit:
        from repro.structs import dhash

        table = dhash.DHash(P, nbuckets=17, rebalance_horizon=self.HORIZON)
        methods = {"insert": table.insert_many, "add": table.add_many,
                   "lookup": table.lookup_many, "delete": table.delete_many}
        model: Dict[int, float] = {}
        samples: List[Tuple[str, float, float]] = []
        errors: List[str] = []
        batches = state["episodes"][i % self.EPISODES]
        for j, (op, keys, vals) in enumerate(batches):
            args = (keys,) if vals is None else (keys, vals)
            sec, got = timed(methods[op], *args)
            stream = "insert_keys" if j < self.INSERTS else "mixed_keys"
            samples.append((stream, sec, len(keys)))
            found, want = self.model_apply(model, op, keys, vals)
            if not (np.array_equal(got.found, found)
                    and np.array_equal(got.values, want)):
                errors.append(f"batch {j} ({op}) differs from the dict model")
        snap_keys, snap_vals = table.items()
        model_keys = np.array(sorted(model), dtype=np.int64)
        if not (np.array_equal(snap_keys, model_keys) and np.array_equal(
                snap_vals, np.array([model[k] for k in model_keys.tolist()]))):
            errors.append("final table contents differ from the dict model")
        merged = table.merged_result()
        virtual, phases, counts = run_counts(merged)
        counts.update(rebalances=table.rebalances,
                      migrated=merged.counter_sum("structs_migrated_keys"),
                      nbuckets=table.nbuckets,
                      keys=sum(len(k) for _, k, _ in batches))
        return make_unit((i % self.EPISODES,), virtual, phases, counts,
                         samples, errors, ops=len(batches))


WORKLOADS = {w.name: w for w in (SolverSteady(), InspectCold(), DHashRW())}
