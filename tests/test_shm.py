"""The shared-memory data plane (``repro.machine.shm``).

Three layers:

* **Allocator unit tests** — publish/read round trips, the content-tag
  guards (stale ref, double consume), the threshold boundary, arena
  exhaustion → grow, free-list reuse, reset/rewind, and orphan sweeping,
  all in one process (the consumer side is exercised by re-attaching the
  plane as a different party, exactly what a forked worker does).
* **Protocol-5 pickling** — ``dumps``/``loads``: the threshold boundary,
  nested containers, in-band cases, and fallback accounting.
* **Differential integration** — jacobi on sim vs mp with the plane on
  and off stays bit-identical with identical semantic counters, the
  plane moves bytes when on and none when off, any object's arrays and
  every in-band payload kind cross real processes intact, and a warm
  pool run ships schedules through the plane and reclaims at reset.
"""

import os
from dataclasses import dataclass

import numpy as np
import pytest

from tests.differential import (
    assert_arrays_identical,
    assert_counters_identical,
    assert_values_equal,
    run_differential,
)
from repro.apps.jacobi import build_jacobi
from repro.machine.api import Compute, Recv, Send
from repro.machine.cost import IDEAL
from repro.machine.mp import MpEngine
from repro.machine.shm import (
    DEFAULT_THRESHOLD,
    ShmDataPlane,
    ShmError,
    ShmRef,
    shm_enabled_default,
    shm_threshold_default,
)
from repro.machine.topology import FullyConnected
from repro.meshes.regular import five_point_grid
from repro.serve.pool import RankPool
from repro.serve import shipping

pytestmark = pytest.mark.timeout(120)


@pytest.fixture
def plane():
    """A 2-rank plane attached as the parent supervisor (party 2)."""
    p = ShmDataPlane(nranks=2, segment_bytes=1 << 20, threshold=1024)
    yield p
    p.close(unlink=True)
    assert p.sweep_orphans() == 0, "segments leaked past close(unlink=True)"


def _ack_all(plane, ref):
    """Stand in for the consumers: set every ack slot of ``ref``'s block.

    In production each consumer process writes only its own slot; doing
    it from the owner's mapping is byte-identical (same shared page)."""
    seg = plane._segments[ref.segment]
    h = ref.offset // 8
    seg.i64[h + 1: h + 1 + plane.nparties] = 1


# --- allocator unit tests --------------------------------------------------


class TestPublishRead:
    def test_array_round_trip_preserves_dtype_and_shape(self, plane):
        arr = np.arange(600, dtype=np.float32).reshape(30, 20) * 1.5
        data, refs, _ = plane.dumps(arr, consumers=[0])
        assert len(refs) == 1 and isinstance(refs[0], ShmRef)
        assert refs[0].nbytes == arr.nbytes
        plane.attach(0)  # become the consumer, as a forked worker would
        out = plane.loads(data, refs)
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert np.array_equal(out, arr)
        # the copy is private: mutating it cannot corrupt the segment
        out[0, 0] = -1.0

    def test_bytes_round_trip(self, plane):
        blob = os.urandom(4096)
        ref = plane.publish(blob, consumers=[0, 1])
        assert ref.nbytes == len(blob)
        plane.attach(1)
        assert plane.read(ref).tobytes() == blob

    def test_double_consume_raises(self, plane):
        ref = plane.publish(np.zeros(512), consumers=[0])
        plane.attach(0)
        plane.read(ref)
        with pytest.raises(ShmError, match="double consume"):
            plane.read(ref)

    def test_each_consumer_reads_once(self, plane):
        ref = plane.publish(np.ones(512), consumers=[0, 1])
        plane.attach(0)
        a = plane.read(ref)
        plane.attach(1)
        b = plane.read(ref)
        assert np.array_equal(a, b)

    def test_stale_ref_after_reclaim_raises(self, plane):
        ref = plane.publish(np.zeros(512), consumers=[0])
        _ack_all(plane, ref)
        blocks, freed = plane.reclaim()
        assert blocks == 1 and freed > 0
        plane.attach(0)
        with pytest.raises(ShmError, match="stale"):
            plane.read(ref)

    def test_publish_to_self_rejected(self, plane):
        with pytest.raises(ShmError, match="bad consumer"):
            plane.publish(np.zeros(512), consumers=[plane.party])

    def test_publish_needs_consumers(self, plane):
        with pytest.raises(ShmError, match="at least one consumer"):
            plane.publish(np.zeros(512), consumers=[])

    def test_header_indices_track_traffic(self, plane):
        arr = np.zeros(1024)
        plane.publish(arr, consumers=[0])
        stats = plane.header_stats()
        parent = plane.parent_party
        assert stats["pub_blocks"][parent] == 1
        assert stats["pub_bytes"][parent] == arr.nbytes
        assert stats["hwm_bytes"][parent] > 0
        assert stats["con_blocks"][0] == 0


class TestAllocator:
    def test_exhaustion_grows_new_segment(self, plane):
        # far larger than the ~340 KiB per-party arena of a 1 MiB segment
        big = np.zeros(1 << 20, dtype=np.uint8)
        ref = plane.publish(big, consumers=[0])
        assert ref is not None
        assert ref.segment != plane.primary, "should have grown a segment"
        plane.attach(0)  # consumer attaches the grown segment by name
        assert np.array_equal(plane.read(ref), big)

    def test_reclaim_then_free_list_reuse(self, plane):
        a = plane.publish(np.zeros(2048, dtype=np.uint8), consumers=[0])
        b = plane.publish(np.zeros(2048, dtype=np.uint8), consumers=[0])
        assert b.offset > a.offset
        _ack_all(plane, a)
        _ack_all(plane, b)
        plane.reclaim()
        c = plane.publish(np.zeros(2048, dtype=np.uint8), consumers=[0])
        # freed space is reused instead of bumping the arena further
        assert c.offset in (a.offset, b.offset)

    def test_full_arena_reclaims_acked_blocks_inline(self, plane):
        chunk = np.zeros(200 * 1024, dtype=np.uint8)
        refs = [plane.publish(chunk, consumers=[0])]
        _ack_all(plane, refs[0])
        # keep publishing: once the arena fills, _publish must reclaim
        # the acked block instead of growing
        for _ in range(3):
            r = plane.publish(chunk, consumers=[0])
            refs.append(r)
            _ack_all(plane, r)
        assert all(r.segment == plane.primary for r in refs)

    def test_unsplit_free_block_returns_whole_to_bump(self, plane):
        # A free block reused without a split (remainder under the split
        # minimum) must be recorded at its full size, and freed blocks
        # ending at the bump pointer must fold back into it.
        arena = plane._arenas[0]
        a = plane.publish(np.zeros(4096, dtype=np.uint8), consumers=[0])
        b = plane.publish(np.zeros(4096, dtype=np.uint8), consumers=[0])
        _ack_all(plane, a)
        plane.reclaim()
        c = plane.publish(np.zeros(3968, dtype=np.uint8), consumers=[0])
        assert c.offset == a.offset
        _ack_all(plane, b)
        _ack_all(plane, c)
        plane.reclaim()
        assert arena.in_use() == 0
        assert arena.bump == 0 and arena.free == []

    def test_reset_party_rewinds_and_unlinks_grown(self, plane):
        big = np.zeros(1 << 20, dtype=np.uint8)
        ref = plane.publish(big, consumers=[0])
        grown = ref.segment
        assert os.path.exists(os.path.join("/dev/shm", grown))
        small = plane.publish(np.zeros(4096, dtype=np.uint8),
                                    consumers=[0])
        reclaimed = plane.reset_party()
        assert reclaimed > big.nbytes
        assert not os.path.exists(os.path.join("/dev/shm", grown))
        # the primary arena rewound: the next publish reuses the start
        again = plane.publish(np.zeros(4096, dtype=np.uint8),
                                    consumers=[0])
        assert again.offset == small.offset
        # refs from before the reset are dead, not dangling
        plane.attach(0)
        with pytest.raises(ShmError):
            plane.read(small)

    def test_sweep_orphans_reclaims_crashed_workers_segments(self, plane):
        # a worker that died mid-job leaves its grown segment behind;
        # simulate one by hand under the plane's prefix
        from multiprocessing import shared_memory
        from repro.machine.shm import _untrack

        orphan = f"{plane.prefix}-p0-g99"
        shm = shared_memory.SharedMemory(name=orphan, create=True, size=4096)
        _untrack(orphan)
        shm.close()
        assert os.path.exists(os.path.join("/dev/shm", orphan))
        assert plane.sweep_orphans() >= 1
        assert not os.path.exists(os.path.join("/dev/shm", orphan))

    def test_close_unlink_removes_primary(self):
        p = ShmDataPlane(nranks=2, segment_bytes=1 << 20)
        primary = p.primary
        assert os.path.exists(os.path.join("/dev/shm", primary))
        p.close(unlink=True)
        assert not os.path.exists(os.path.join("/dev/shm", primary))
        p.close(unlink=True)  # idempotent

    def test_tiny_segment_rejected(self):
        with pytest.raises(ShmError, match="no room"):
            ShmDataPlane(nranks=8, segment_bytes=1024)


# --- protocol-5 pickling ----------------------------------------------------


class TestEncodeDecode:
    def test_threshold_boundary_exact(self, plane):
        below = np.zeros(plane.threshold - 1, dtype=np.uint8)
        at = np.ones(plane.threshold, dtype=np.uint8)
        data, refs, fallbacks = plane.dumps(
            {"below": below, "at": at}, consumers=[0])
        # only the buffer of exactly `threshold` bytes is hoisted
        assert len(refs) == 1 and fallbacks == 0
        assert refs[0].nbytes == at.nbytes
        assert len(data) < at.nbytes + below.nbytes
        plane.attach(0)
        dec = plane.loads(data, refs)
        assert np.array_equal(dec["below"], below)
        assert np.array_equal(dec["at"], at)

    def test_object_dtype_arrays_never_hoisted(self, plane):
        arr = np.array([{"a": 1}] * 4096, dtype=object)
        data, refs, fallbacks = plane.dumps(arr, consumers=[0])
        assert refs == () and fallbacks == 0
        assert plane.loads(data, refs).tolist() == arr.tolist()

    def test_nested_structure_round_trip(self, plane):
        big = np.arange(2048, dtype=np.float64)
        obj = {"k": (1, [big, "tiny"], {"inner": big * 2}), "n": None}
        data, refs, fallbacks = plane.dumps(obj, consumers=[0])
        assert len(refs) == 2 and fallbacks == 0
        assert sum(r.nbytes for r in refs) == 2 * big.nbytes
        assert obj["k"][1][0] is big, "dumps must not mutate the original"
        plane.attach(0)
        dec = plane.loads(data, refs)
        assert np.array_equal(dec["k"][1][0], big)
        assert np.array_equal(dec["k"][2]["inner"], big * 2)
        assert dec["k"][1][1] == "tiny" and dec["n"] is None
        assert dec["k"][1][0].flags.writeable

    def test_fallback_when_grow_fails(self, plane, monkeypatch):
        def no_grow(need):
            raise OSError("no space on /dev/shm")

        monkeypatch.setattr(plane, "_grow", no_grow)
        huge = np.arange(1 << 20, dtype=np.uint8)
        data, refs, fallbacks = plane.dumps(huge, consumers=[0])
        assert refs == () and fallbacks == 1
        assert len(data) > huge.nbytes, "fallback keeps the buffer in-band"
        assert np.array_equal(plane.loads(data, refs), huge)

    def test_env_kill_switch_and_threshold(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        assert shm_enabled_default() is False
        monkeypatch.setenv("REPRO_SHM", "1")
        assert shm_enabled_default() is True
        monkeypatch.setenv("REPRO_SHM_THRESHOLD", "4096")
        assert shm_threshold_default() == 4096
        monkeypatch.setenv("REPRO_SHM_THRESHOLD", "banana")
        assert shm_threshold_default() == DEFAULT_THRESHOLD


class TestShipping:
    def test_dumps_via_hoists_large_programs(self, plane):
        payload = {"blob": os.urandom(1 << 16)}
        wire, shipped = shipping.dumps_via(payload, plane,
                                           range(plane.nranks))
        assert isinstance(wire, ShmRef) and shipped > 0
        plane.attach(0)
        assert shipping.loads_via(wire, plane) == payload

    def test_dumps_via_small_stays_pickled(self, plane):
        wire, shipped = shipping.dumps_via({"x": 1}, plane,
                                           range(plane.nranks))
        assert isinstance(wire, bytes) and shipped == 0
        assert shipping.loads_via(wire, None) == {"x": 1}

    def test_loads_via_ref_without_plane_fails(self, plane):
        from repro.serve.shipping import ShippingError

        wire, _ = shipping.dumps_via({"blob": os.urandom(1 << 16)}, plane,
                                     range(plane.nranks))
        with pytest.raises(ShippingError):
            shipping.loads_via(wire, None)


# --- differential integration ---------------------------------------------


@pytest.fixture
def set_shm(monkeypatch):
    """Switch the plane through the environment, as every front end
    does; a threshold of 256B so even this small mesh's gathers cross
    the plane."""
    monkeypatch.setenv("REPRO_SHM_THRESHOLD", "256")
    return lambda on: monkeypatch.setenv("REPRO_SHM", "1" if on else "0")


def _jacobi(backend):
    mesh = five_point_grid(12, 12)
    init = np.random.default_rng(7).random(mesh.n)
    return build_jacobi(mesh, 4, machine=IDEAL, initial=init,
                        backend=backend, mp_timeout=60.0)


@dataclass
class _Carrier:
    """A payload class the plane knows nothing about."""

    label: str
    payload: np.ndarray


def _echo(payload):
    """Rank 0 sends ``payload`` to rank 1, which returns what it got and
    whether its copy is writable."""
    def prog(rank):
        if rank.id == 0:
            yield Send(1, payload, tag=3)
            return None
        msg = yield Recv(source=0, tag=3)
        writable = getattr(msg.payload, "flags", None)
        return msg.payload, writable is None or writable.writeable
    return prog


_IN_BAND = {
    "strided-view": lambda: np.arange(1 << 14, dtype=np.float64)[::2],
    "fortran-order": lambda: np.asfortranarray(
        np.arange(1 << 13, dtype=np.float64).reshape(128, 64)),
    "object-dtype": lambda: np.array([{"k": i} for i in range(512)],
                                     dtype=object),
    "zero-d": lambda: np.array(3.25),
    "bytes-blob": lambda: os.urandom(1 << 16),
}


class TestDifferential:
    def test_jacobi_bit_identical_with_plane_on(self, set_shm):
        set_shm(True)
        pair = run_differential(_jacobi, lambda p: p.run(sweeps=4))
        assert_arrays_identical(pair)
        assert_counters_identical(pair)
        assert_values_equal(pair)

    def test_jacobi_bit_identical_with_plane_off(self, set_shm):
        set_shm(False)
        pair = run_differential(_jacobi, lambda p: p.run(sweeps=4))
        assert_arrays_identical(pair)
        assert_counters_identical(pair)

    def test_plane_moves_bytes_only_when_on(self, set_shm):
        set_shm(True)
        on = _jacobi("mp").run(sweeps=4)
        set_shm(False)
        off = _jacobi("mp").run(sweeps=4)
        on_bytes = sum(s.counters.get("shm_bytes_sent", 0)
                       for s in on.engine.stats)
        off_bytes = sum(s.counters.get("shm_bytes_sent", 0)
                        for s in off.engine.stats)
        assert on_bytes > 0
        assert off_bytes == 0
        # transport-independent accounting: wire bytes match exactly
        for a, b in zip(on.engine.stats, off.engine.stats):
            assert a.bytes_sent == b.bytes_sent
            assert a.messages_sent == b.messages_sent

    def test_raw_engine_large_payload_round_trip(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_THRESHOLD", "1024")
        payload = np.arange(1 << 16, dtype=np.float64)

        def prog(rank):
            if rank.id == 0:
                yield Send(1, payload, tag=3)
                return 0.0
            msg = yield Recv(source=0, tag=3)
            yield Compute(0.0)
            return float(msg.payload.sum())

        eng = MpEngine(IDEAL, topology=FullyConnected(2), timeout=60.0,
                       shm=True)
        res = eng.run(prog)
        assert res.values[1] == float(payload.sum())
        assert res.stats[0].counters.get("shm_bytes_sent", 0) >= payload.nbytes

    @pytest.mark.parametrize("kind", sorted(_IN_BAND))
    def test_raw_engine_in_band_payload_round_trip(self, kind, monkeypatch):
        # Buffers pickle cannot hand out of band — non-contiguous views,
        # object arrays, raw bytes — or that sit under the threshold stay
        # in the frame and must still arrive bit-identical and writable.
        monkeypatch.setenv("REPRO_SHM_THRESHOLD", "1024")
        payload = _IN_BAND[kind]()
        eng = MpEngine(IDEAL, topology=FullyConnected(2), timeout=60.0,
                       shm=True)
        got, writable_on_rank = eng.run(_echo(payload)).values[1]
        assert type(got) is type(payload)
        if isinstance(payload, bytes):
            assert got == payload
            return
        assert got.dtype == payload.dtype and got.shape == payload.shape
        if payload.flags.f_contiguous:
            assert got.flags.f_contiguous, "memory order must survive"
        if payload.dtype.hasobject:
            assert got.tolist() == payload.tolist()
        else:
            assert got.tobytes() == payload.tobytes()
        assert writable_on_rank and got.flags.writeable

    def test_any_class_carrying_an_array_rides_the_plane(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_THRESHOLD", "1024")
        arr = np.random.default_rng(5).random(4096)
        eng = MpEngine(IDEAL, topology=FullyConnected(2), timeout=60.0,
                       shm=True)
        res = eng.run(_echo(_Carrier("x", arr)))
        got, writable_on_rank = res.values[1]
        assert isinstance(got, _Carrier) and got.label == "x"
        assert got.payload.tobytes() == arr.tobytes()
        assert writable_on_rank and got.payload.flags.writeable
        assert res.stats[0].counters.get("shm_bytes_sent", 0) >= arr.nbytes

    def test_pool_ships_and_reclaims(self):
        mesh = five_point_grid(12, 12)
        init = np.random.default_rng(11).random(mesh.n)
        with RankPool(4, timeout=60.0) as pool:
            sols = []
            for _ in range(2):
                prog = build_jacobi(mesh, 4, machine=IDEAL, initial=init,
                                    pool=pool)
                prog.run(sweeps=4)
                sols.append(prog.solution.copy())
            assert pool.shm_ship_bytes > 0, "schedule ship skipped the plane"
            assert pool.shm_reclaimed_bytes > 0, "reset reclaimed nothing"
        assert np.array_equal(sols[0], sols[1])
        sim = build_jacobi(mesh, 4, machine=IDEAL, initial=init)
        sim.run(sweeps=4)
        assert np.array_equal(sols[0], sim.solution)

    def test_pool_no_shm_leak_after_close(self):
        before = {n for n in os.listdir("/dev/shm")
                  if n.startswith("repro-shm-")}
        mesh = five_point_grid(8, 8)
        init = np.random.default_rng(3).random(mesh.n)
        with RankPool(2, timeout=60.0) as pool:
            prog = build_jacobi(mesh, 2, machine=IDEAL, initial=init,
                                pool=pool)
            prog.run(sweeps=2)
        after = {n for n in os.listdir("/dev/shm")
                 if n.startswith("repro-shm-")}
        assert after <= before, f"leaked segments: {after - before}"
