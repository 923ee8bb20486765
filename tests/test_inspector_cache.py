"""Tests for inspector behaviour, schedule caching, and cost charging."""

import copy
import dataclasses

import numpy as np
import pytest

from repro.analysis.planner import Strategy, choose_strategy, explain_strategy
from repro.core.context import KaliContext
from repro.core.forall import (
    Affine,
    AffineRead,
    AffineWrite,
    Forall,
    IndirectRead,
    OnOwner,
)
from repro.distributions import Block, Custom, Cyclic, Replicated
from repro.errors import InspectorError
from repro.machine.cost import IDEAL
import repro.runtime.cache as cache_mod
from repro.runtime.cache import ScheduleCache
from repro.runtime.inspector import statically_local


def permutation_loop(n, label, table="perm"):
    return Forall(
        index_range=(0, n - 1),
        on=OnOwner("B"),
        reads=[IndirectRead("A", table=table, name="g")],
        writes=[AffineWrite("B")],
        kernel=lambda iters, ops: ops["g"].values[:, 0],
        label=label,
    )


def setup_ctx(n, p, perm, **kw):
    ctx = KaliContext(p, machine=IDEAL, **kw)
    ctx.array("A", n, dist=[Block()]).set(np.arange(float(n)))
    ctx.array("B", n, dist=[Block()]).set(np.zeros(n))
    ctx.array("perm", n, dist=[Block()], dtype=np.int64).set(perm)
    return ctx


class TestScheduleCaching:
    def test_second_execution_hits_cache(self):
        n, p = 16, 4
        perm = np.roll(np.arange(n), 1).astype(np.int64)
        ctx = setup_ctx(n, p, perm)
        loop = permutation_loop(n, "cache-hit")

        def program(kr):
            yield from kr.forall(loop)
            yield from kr.forall(loop)
            yield from kr.forall(loop)

        res = ctx.run(program)
        stats = res.cache_stats()
        assert stats["misses"] == p          # one per rank, first execution
        assert stats["hits"] == 2 * p

    def test_inspector_runs_once_with_cache(self):
        n, p = 16, 4
        perm = np.roll(np.arange(n), 1).astype(np.int64)
        ctx = setup_ctx(n, p, perm)
        loop = permutation_loop(n, "insp-once")

        def program(kr):
            for _ in range(5):
                yield from kr.forall(loop)

        res = ctx.run(program)
        assert res.engine.counter_sum("inspector_runs") == p

    def test_inspector_reruns_without_cache(self):
        n, p = 16, 4
        perm = np.roll(np.arange(n), 1).astype(np.int64)
        ctx = setup_ctx(n, p, perm, cache_enabled=False)
        loop = permutation_loop(n, "insp-nocache")

        def program(kr):
            for _ in range(5):
                yield from kr.forall(loop)

        res = ctx.run(program)
        assert res.engine.counter_sum("inspector_runs") == 5 * p

    def test_mutating_indirection_invalidates(self):
        """Writing the adjacency/permutation array must force re-inspection
        — and the recomputed schedule must give correct results."""
        n, p = 16, 4
        perm1 = np.roll(np.arange(n), 1).astype(np.int64)
        perm2 = np.roll(np.arange(n), -1).astype(np.int64)
        ctx = setup_ctx(n, p, perm1)
        gather = permutation_loop(n, "inval-gather")
        flip = Forall(
            index_range=(0, n - 1),
            on=OnOwner("perm"),
            reads=[IndirectRead("A", table="perm", name="unused")],
            writes=[AffineWrite("perm")],
            kernel=lambda iters, ops: (iters + 1) % n,  # perm2
            label="inval-flip",
        )

        def program(kr):
            yield from kr.forall(gather)     # inspect + run with perm1
            yield from kr.forall(flip)       # rewrites perm
            yield from kr.forall(gather)     # must re-inspect

        res = ctx.run(program)
        stats = res.cache_stats()
        assert stats["invalidations"] == p
        init = np.arange(float(n))
        np.testing.assert_array_equal(ctx.arrays["B"].data, init[perm2])

    def test_float_data_change_does_not_invalidate(self):
        """Changing mesh *values* (not the indirection) keeps the schedule."""
        n, p = 16, 2
        perm = np.roll(np.arange(n), 1).astype(np.int64)
        ctx = setup_ctx(n, p, perm)
        gather = permutation_loop(n, "noninval-gather")
        bump = Forall(
            index_range=(0, n - 1),
            on=OnOwner("A"),
            reads=[AffineRead("A", name="a")],
            writes=[AffineWrite("A")],
            kernel=lambda iters, ops: ops["a"] + 1,
            label="noninval-bump",
        )

        def program(kr):
            yield from kr.forall(gather)
            yield from kr.forall(bump)
            yield from kr.forall(gather)

        res = ctx.run(program)
        assert res.cache_stats()["invalidations"] == 0
        assert res.engine.counter_sum("inspector_runs") == p

    def test_cache_unit(self):
        cache = ScheduleCache()
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0
        cache_disabled = ScheduleCache(enabled=False)
        loop = permutation_loop(4, "unit")
        assert cache_disabled.lookup(loop, {}) is None
        assert cache_disabled.misses == 1


@pytest.mark.timeout(60)
class TestExecutorPlan:
    """The executor compiles each cached schedule once; the schedule
    checks run at compile time, the per-message size check on every
    execution, and each fault is a structured InspectorError on sim (the
    engine stops at the faulting rank), never a hang."""

    def test_plan_compiled_once_per_schedule(self, monkeypatch):
        n, p = 16, 4
        perm = np.roll(np.arange(n), 1).astype(np.int64)
        ctx = setup_ctx(n, p, perm)
        loop = permutation_loop(n, "plan-once")
        compiled = []
        original = cache_mod.compile_plan

        def counting(*args):
            compiled.append(args[0].label)
            return original(*args)

        monkeypatch.setattr(cache_mod, "compile_plan", counting)

        def program(kr):
            for _ in range(5):
                yield from kr.forall(loop)

        ctx.run(program)
        assert compiled == ["plan-once"] * p
        np.testing.assert_array_equal(ctx.arrays["B"].data, np.arange(float(n))[perm])

    @staticmethod
    def _run_tampered(tamper):
        """Run the permutation loop, replace each rank's cached schedule
        by a tampered copy, and run it again."""
        n, p = 16, 4
        perm = np.roll(np.arange(n), 1).astype(np.int64)
        ctx = setup_ctx(n, p, perm)
        loop = permutation_loop(n, "tampered")

        def program(kr):
            yield from kr.forall(loop)
            sched = copy.deepcopy(kr.cache.lookup(loop, kr.env))
            tamper(kr.id, sched)
            kr.cache.store(loop, sched)
            yield from kr.forall(loop)

        ctx.run(program)

    def test_local_batch_resolving_remotely_is_stale(self):
        def tamper(rank, sched):
            sched.exec_local = np.sort(
                np.concatenate([sched.exec_local, sched.exec_nonlocal])
            )
            sched.exec_nonlocal = sched.exec_nonlocal[:0]

        with pytest.raises(InspectorError, match=r"stale schedule\?"):
            self._run_tampered(tamper)

    def test_received_block_size_mismatch(self):
        def tamper(rank, sched):
            if rank == 1:  # send one row too many to rank 2
                a = sched.arrays["A"]
                a.out_records = [dataclasses.replace(r, low=r.low - 1)
                                 for r in a.out_records]

        with pytest.raises(InspectorError,
                           match="message from 1 for A carried 2 elements, "
                                 "schedule expects 1"):
            self._run_tampered(tamper)

    def test_send_block_outside_local_rows(self):
        def tamper(rank, sched):
            a = sched.arrays["A"]
            a.out_records = [dataclasses.replace(r, high=r.high + 4)
                             for r in a.out_records]

        with pytest.raises(InspectorError, match="outside the 4 local rows"):
            self._run_tampered(tamper)


class TestPlanner:
    def _env(self, n=16, p=4, dist=None):
        ctx = KaliContext(p, machine=IDEAL)
        ctx.array("A", n, dist=[dist or Block()]).set(np.zeros(n))
        ctx.array("perm", n, dist=[Block()], dtype=np.int64).set(
            np.arange(n, dtype=np.int64)
        )
        return {name: arr.scatter(0) for name, arr in ctx.arrays.items()}

    def test_affine_block_is_compile_time(self):
        env = self._env()
        loop = Forall(
            index_range=(0, 14),
            on=OnOwner("A"),
            reads=[AffineRead("A", Affine(1, 1), name="n")],
            writes=[AffineWrite("A")],
            kernel=lambda i, o: o["n"],
            label="plan-ct",
        )
        assert choose_strategy(loop, env) is Strategy.COMPILE_TIME

    def test_indirect_forces_runtime(self):
        env = self._env()
        loop = permutation_loop(16, "plan-rt")
        env["B"] = env["A"]
        strategy, reasons = explain_strategy(loop, env)
        assert strategy is Strategy.RUNTIME
        assert any("data-dependent" in r for r in reasons)

    def test_custom_dist_forces_runtime(self):
        env = self._env(dist=Custom(np.zeros(16, dtype=np.int64)))
        loop = Forall(
            index_range=(0, 14),
            on=OnOwner("A"),
            reads=[AffineRead("A", Affine(1, 1), name="n")],
            writes=[AffineWrite("A")],
            kernel=lambda i, o: o["n"],
            label="plan-custom",
        )
        strategy, reasons = explain_strategy(loop, env)
        assert strategy is Strategy.RUNTIME
        assert reasons


class TestStaticLocality:
    def _env(self, p=4):
        n = 16
        ctx = KaliContext(p, machine=IDEAL)
        ctx.array("A", n, dist=[Block()])
        ctx.array("B", n, dist=[Block()])
        ctx.array("C", n, dist=[Cyclic()])
        return {name: arr.scatter(1) for name, arr in ctx.arrays.items()}

    def _loop(self, read):
        return Forall(
            index_range=(0, 15),
            on=OnOwner("A"),
            reads=[read],
            writes=[AffineWrite("A")],
            kernel=lambda i, o: list(o.values())[0],
            label="static-loc",
        )

    def test_aligned_identity_is_static(self):
        env = self._env()
        loop = self._loop(AffineRead("B", Affine(1, 0), name="b"))
        assert statically_local(loop.reads[0], loop, env)

    def test_shift_is_not_static(self):
        env = self._env()
        loop = self._loop(AffineRead("B", Affine(1, 1), name="b"))
        assert not statically_local(loop.reads[0], loop, env)

    def test_mismatched_dist_is_not_static(self):
        env = self._env()
        loop = self._loop(AffineRead("C", Affine(1, 0), name="c"))
        assert not statically_local(loop.reads[0], loop, env)

    def test_inspector_charges_zero_for_static_reads(self):
        """A loop with only statically-local reads checks nothing."""
        n, p = 16, 4
        ctx = KaliContext(p, machine=IDEAL)
        ctx.array("A", n, dist=[Block()]).set(np.zeros(n))
        ctx.array("B", n, dist=[Block()]).set(np.ones(n))
        loop = Forall(
            index_range=(0, n - 1),
            on=OnOwner("A"),
            reads=[AffineRead("B", name="b")],
            writes=[AffineWrite("A")],
            kernel=lambda i, o: o["b"],
            label="static-zero",
        )

        def program(kr):
            yield from kr.forall(loop)

        ctx.force_strategy = Strategy.RUNTIME
        res = ctx.run(program)
        assert res.engine.counter_sum("inspector_checks") == 0


class TestCostCharging:
    def test_ideal_machine_counts_operations(self):
        """On the IDEAL machine every op costs 1s, making charges exact:
        executor time = iters*1 + refs*1 + writes*1 (+ flops, searches)."""
        n, p = 12, 1
        ctx = KaliContext(p, machine=IDEAL)
        ctx.array("A", n, dist=[Block()]).set(np.arange(float(n)))
        loop = Forall(
            index_range=(0, n - 2),
            on=OnOwner("A"),
            reads=[AffineRead("A", Affine(1, 1), name="nxt")],
            writes=[AffineWrite("A")],
            kernel=lambda i, o: o["nxt"],
            label="cost-exact",
        )

        def program(kr):
            yield from kr.forall(loop)

        res = ctx.run(program)
        iters = n - 1
        # P=1: all refs local. iter_base + read ref + write ref each cost 1.
        assert res.executor_time == pytest.approx(iters * 3.0)

    def test_remote_refs_charge_search(self):
        n, p = 12, 2
        base = IDEAL.with_overrides(search_base=100.0)
        ctx = KaliContext(p, machine=base)
        ctx.array("A", n, dist=[Block()]).set(np.arange(float(n)))
        loop = Forall(
            index_range=(0, n - 2),
            on=OnOwner("A"),
            reads=[AffineRead("A", Affine(1, 1), name="nxt")],
            writes=[AffineWrite("A")],
            kernel=lambda i, o: o["nxt"],
            label="cost-search",
        )

        def program(kr):
            yield from kr.forall(loop)

        res = ctx.run(program)
        # Exactly one remote ref (rank 0 reads A[6]): one 100s search charge.
        assert res.engine.counter_sum("executor_remote_refs") == 1
        assert res.executor_time >= 100.0

    def test_inspector_checks_counted(self):
        n, p = 16, 4
        perm = np.roll(np.arange(n), 1).astype(np.int64)
        ctx = setup_ctx(n, p, perm)
        loop = permutation_loop(n, "cost-checks")

        def program(kr):
            yield from kr.forall(loop)

        res = ctx.run(program)
        # one check per (iteration, live column) = n total across ranks
        assert res.engine.counter_sum("inspector_checks") == n
