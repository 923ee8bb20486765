"""The executor: run one forall under a communication schedule.

Follows the paper's Figure 3/6 structure exactly:

1. **send** every ``out(p,q)`` block to its requester,
2. **local iterations** — compute iterations whose references are all
   local, overlapping with message transit,
3. **receive** every ``in(p,q)`` block into the communication buffer,
4. **nonlocal iterations** — compute the rest, resolving remote elements
   through the O(log r) translation table (with the per-element locality
   test the paper notes is needed "because even within the same iteration
   of the forall, the reference old_a[adj[i,j]] may be sometimes local and
   sometimes nonlocal"),
5. commit writes (copy-in/copy-out: no write is visible to any read of
   this forall execution).

The schedule is computed "only the first time" (§3.2), and so is its
resolution: :func:`compile_plan` turns a cached schedule plus the forall
into flat int64 index arrays (send rows, receive slots, per-batch local
source rows and buffer slots, write rows) and runs every schedule check
there, once.  An execution is then a few ``take``/indexed stores per
operand.  Virtual time is charged from the plan's reference counts using
the machine cost model, so the simulated cost profile still matches the
paper's per-element C implementation, including the per-reference
locality test and O(log r) search the host no longer repeats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arrays.localview import LocalArray
from repro.comm.collectives import allreduce
from repro.core.forall import AffineRead, Forall, IndirectOperand
from repro.errors import InspectorError
from repro.machine.api import Compute, Count, Rank, Recv, Send
from repro.runtime.schedule import ArraySchedule, CommSchedule

PHASE = "executor"

# Tag space for executor data messages: disjoint from collective tags.
_EXEC_TAG_BASE = 1 << 16


def _dim0_coord(local: LocalArray) -> int:
    dist = local.dist
    pdim = dist.proc_dim_of[0]
    if pdim is None:
        return 0
    return dist.procs.coords_of(local.rank)[pdim]


@dataclass
class _ReadPlan:
    """Compiled gather of one read operand over one iteration batch.

    Positions index the operand flattened along its leading axes (rows
    for an affine read, ``row * width + column`` for an indirect one);
    ``size`` counts them.  ``loc_pos`` is None when every position is
    local (the operand is one ``take`` from local storage); ``rem_pos``
    is None when every position is remote (one ``take`` from the receive
    buffer).  ``zero`` marks dead indirection columns, which the kernel
    sees as 0.  ``counts`` is the live width per iteration of an
    indirect read (None for affine).
    """

    array: str
    operand: str
    shape: Tuple[int, ...]
    size: int
    loc_pos: Optional[np.ndarray]
    loc_src: np.ndarray
    rem_pos: Optional[np.ndarray]
    rem_slot: np.ndarray
    zero: bool
    counts: Optional[np.ndarray]

    def gather(self, data: np.ndarray, buf: Optional[np.ndarray]):
        if self.loc_pos is None:
            vals = data.take(self.loc_src, axis=0)
        elif self.rem_pos is None:
            vals = buf.take(self.rem_slot, axis=0)
        else:
            alloc = np.zeros if self.zero else np.empty
            vals = alloc((self.size,) + data.shape[1:], dtype=data.dtype)
            if self.loc_src.size:
                vals[self.loc_pos] = data.take(self.loc_src, axis=0)
            if self.rem_slot.size:
                vals[self.rem_pos] = buf.take(self.rem_slot, axis=0)
        if self.counts is None:
            return vals
        return IndirectOperand(values=vals.reshape(self.shape), counts=self.counts)


@dataclass
class _BatchPlan:
    """One iteration batch (``exec_local`` or ``exec_nonlocal``): its
    compiled reads, the local rows of each write, and the reference
    counts virtual time is charged from."""

    iters: np.ndarray
    reads: List[_ReadPlan]
    writes: List[Tuple[str, np.ndarray]]
    n_local: int
    n_remote: int
    #: live indirection elements, which ``flops_per_ref`` is charged
    #: against (one multiply-add per mesh edge in the Jacobi kernel, not
    #: per auxiliary coefficient read)
    n_indirect: int


@dataclass
class ExecPlan:
    """A cached schedule compiled for one forall into flat index arrays.

    Built once per (schedule, forall) by :func:`compile_plan`; every
    later execution is indexed loads and stores.  ``sends`` maps each
    array to its ``(peer, local rows)`` out-blocks, ``recv_slots`` maps
    ``(array, peer)`` to the receive-buffer slots of that peer's block.
    ``key`` is the forall structure the plan was compiled for.
    """

    key: tuple
    array_order: List[str]
    sends: Dict[str, List[Tuple[int, np.ndarray]]]
    recv_slots: Dict[Tuple[str, int], np.ndarray]
    peers_in: Dict[str, List[int]]
    buffer_len: Dict[str, int]
    local: Optional[_BatchPlan]
    nonlocal_: Optional[_BatchPlan]
    num_exec: int
    max_in_ranges: int
    enumerated: bool


def plan_key(forall: Forall) -> tuple:
    """Everything of ``forall`` a compiled plan depends on."""
    return (forall.index_range, forall.on, tuple(forall.reads),
            tuple(forall.writes))


_NO_SLOTS = np.empty(0, dtype=np.int64)


def _block_indices(pairs) -> Dict[int, np.ndarray]:
    """``{peer: concatenated aranges}`` from ``(peer, start, count)``
    triples, preserving their order within each peer."""
    per_peer: Dict[int, List[np.ndarray]] = {}
    for q, start, count in pairs:
        per_peer.setdefault(q, []).append(
            np.arange(start, start + count, dtype=np.int64)
        )
    return {q: np.concatenate(parts) for q, parts in sorted(per_peer.items())}


def _compile_read(read, iters: np.ndarray, env: Dict[str, LocalArray],
                  asched: ArraySchedule) -> _ReadPlan:
    arr = env[read.array]
    dim0 = arr.dist.dims[0]
    live = counts = None
    if isinstance(read, AffineRead):
        elems = read.fn(iters)
        shape = (iters.size,)
    else:
        rows = env[read.table].get_rows(iters) + read.offset
        if rows.ndim == 1:
            rows = rows[:, None]
        shape = rows.shape
        if read.count is not None:
            counts = env[read.count].get_rows(iters).astype(np.int64)
            live = (np.arange(shape[1])[None, :] < counts[:, None]).ravel()
            elems = np.where(live, rows.ravel(), 0)
        else:
            counts = np.full(iters.shape, shape[1], dtype=np.int64)
            elems = rows.ravel()
        counts.flags.writeable = False  # shared by every execution
    owners = np.asarray(dim0.owner(elems))
    local = owners == _dim0_coord(arr)
    remote = ~local
    if live is not None:
        local &= live
        remote &= live
    rem_slot = _NO_SLOTS
    if remote.any():
        offs = np.asarray(dim0.to_local(elems[remote]))
        rem_slot = np.asarray(
            asched.translation.lookup(owners[remote], offs), dtype=np.int64
        )
    return _ReadPlan(
        array=read.array,
        operand=read.operand_name(),
        shape=shape,
        size=elems.size,
        loc_pos=None if local.all() else np.flatnonzero(local),
        loc_src=np.asarray(dim0.to_local(elems[local]), dtype=np.int64),
        rem_pos=None if remote.all() else np.flatnonzero(remote),
        rem_slot=rem_slot,
        zero=live is not None and not live.all(),
        counts=counts,
    )


def _compile_batch(forall: Forall, iters: np.ndarray,
                   env: Dict[str, LocalArray],
                   schedule: CommSchedule) -> Optional[_BatchPlan]:
    if not iters.size:
        return None
    reads = [
        _compile_read(read, iters, env, schedule.arrays[read.array])
        for read in forall.reads
    ]
    return _BatchPlan(
        iters=iters,
        reads=reads,
        writes=[
            (w.array, np.asarray(env[w.array].to_local_rows(w.fn(iters)),
                                 dtype=np.int64))
            for w in forall.writes
        ],
        n_local=sum(rp.loc_src.size for rp in reads),
        n_remote=sum(rp.rem_slot.size for rp in reads),
        n_indirect=sum(rp.loc_src.size + rp.rem_slot.size
                       for rp in reads if rp.counts is not None),
    )


def compile_plan(forall: Forall, schedule: CommSchedule,
                 env: Dict[str, LocalArray]) -> ExecPlan:
    """Resolve ``schedule`` for ``forall`` into flat index arrays.

    Every check that depends only on the schedule runs here, once:
    subscript bounds (``_check_index``), translation-table misses, send
    blocks outside local storage, and a local batch that resolves a
    reference remotely (a stale schedule).
    """
    array_order = sorted(schedule.arrays)
    sends: Dict[str, List[Tuple[int, np.ndarray]]] = {}
    recv_slots: Dict[Tuple[str, int], np.ndarray] = {}
    peers_in: Dict[str, List[int]] = {}
    for name in array_order:
        asched = schedule.arrays[name]
        nrows = env[name].data.shape[0]
        for r in asched.out_records:
            if r.low < 0 or r.high >= nrows:
                raise InspectorError(
                    f"{forall.label}: send block {r.low}..{r.high} of {name} "
                    f"to {r.to_proc} lies outside the {nrows} local rows"
                )
        sends[name] = list(_block_indices(
            (r.to_proc, r.low, r.count) for r in asched.out_records
        ).items())
        recv = _block_indices(
            (r.from_proc, r.buffer_start, r.count) for r in asched.in_records
        )
        peers_in[name] = list(recv)
        for q, slots in recv.items():
            recv_slots[(name, q)] = slots
    local = _compile_batch(forall, schedule.exec_local, env, schedule)
    if local is not None and local.n_remote:
        raise InspectorError(
            f"{forall.label}: schedule marked iterations local but "
            f"{local.n_remote} references resolve remotely (stale schedule?)"
        )
    return ExecPlan(
        key=plan_key(forall),
        array_order=array_order,
        sends=sends,
        recv_slots=recv_slots,
        peers_in=peers_in,
        buffer_len={name: schedule.arrays[name].buffer_len
                    for name in array_order},
        local=local,
        nonlocal_=_compile_batch(forall, schedule.exec_nonlocal, env,
                                 schedule),
        num_exec=schedule.num_exec(),
        max_in_ranges=max(
            (schedule.arrays[r.array].num_in_ranges() for r in forall.reads),
            default=0,
        ),
        enumerated=schedule.translation_kind == "enumerated",
    )


def _gather_operands(batch: _BatchPlan, env: Dict[str, LocalArray],
                     buffers: Dict[str, np.ndarray]) -> Dict[str, object]:
    return {
        rp.operand: rp.gather(env[rp.array].data, buffers.get(rp.array))
        for rp in batch.reads
    }


def _apply_kernel(
    forall: Forall,
    iters: np.ndarray,
    operands: Dict[str, object],
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Run the kernel; returns ({array: values}, {reduction: contributions})."""
    result = forall.kernel(iters, operands)
    if not isinstance(result, dict):
        if len(forall.writes) != 1 or forall.reductions:
            raise InspectorError(
                f"{forall.label}: kernel must return a dict for multiple "
                "writes or reductions"
            )
        return {forall.writes[0].array: np.asarray(result)}, {}
    writes = {}
    for w in forall.writes:
        if w.array not in result:
            raise InspectorError(
                f"{forall.label}: kernel returned no values for {w.array}"
            )
        writes[w.array] = np.asarray(result[w.array])
    contribs = {}
    for spec in forall.reductions:
        if spec.name not in result:
            raise InspectorError(
                f"{forall.label}: kernel returned no contributions for "
                f"reduction {spec.name!r}"
            )
        contribs[spec.name] = np.asarray(result[spec.name])
    return writes, contribs


def run_executor(
    rank: Rank,
    forall: Forall,
    env: Dict[str, LocalArray],
    plan: ExecPlan,
    tag_base: int,
    combine_messages: bool = True,
):
    """Generator: execute one forall under a compiled schedule ``plan``.

    ``tag_base`` must be identical on all ranks for this execution (the
    caller keeps a per-rank counter that stays synchronised because every
    rank executes the same forall sequence).

    ``combine_messages`` merges all arrays' blocks for one peer into a
    single message (the paper's §3.3: "Sorting by processor id also
    allowed us to combine messages between the same two processors" with
    "a symbol field identifying the array" — here the payload is keyed by
    array name).  Disable for the message-combining ablation.
    """
    m = rank.machine
    array_order = plan.array_order

    # --- 1. send out-blocks (old values: nothing written yet) -------------
    if combine_messages:
        # One message per peer, carrying every array's blocks ("symbol
        # field" = the array name keying each chunk).
        combined_tag = _EXEC_TAG_BASE + tag_base
        peer_payloads: Dict[int, Dict[str, np.ndarray]] = {}
        for name in array_order:
            data = env[name].data
            for q, rows in plan.sends[name]:
                peer_payloads.setdefault(q, {})[name] = data.take(rows, axis=0)
        for q in sorted(peer_payloads):
            bundle = peer_payloads[q]
            n_elems = sum(int(v.shape[0]) for v in bundle.values())
            # Wire size: the data plus a small symbol field per array (the
            # paper's in-message array identifier), not Python dict overhead.
            nbytes = sum(v.nbytes for v in bundle.values()) + 8 * len(bundle)
            yield Compute(m.copy_elem * n_elems, phase=PHASE, label=forall.label)
            yield Send(dest=q, payload=bundle, tag=combined_tag,
                       nbytes=nbytes, phase=PHASE, label=forall.label)
            yield Count("executor_elems_sent", n_elems)
    else:
        for a_idx, name in enumerate(array_order):
            data = env[name].data
            tag = _EXEC_TAG_BASE + tag_base + a_idx
            for q, rows in plan.sends[name]:
                payload = data.take(rows, axis=0)
                yield Compute(m.copy_elem * payload.shape[0], phase=PHASE,
                              label=forall.label)
                yield Send(dest=q, payload=payload, tag=tag, phase=PHASE,
                           label=forall.label)
                yield Count("executor_elems_sent", int(payload.shape[0]))

    # --- 2. local iterations ------------------------------------------------
    # Operands are gathered before any write is committed (step 5), so
    # reads always see pre-loop values (copy-in/copy-out).
    buffers: Dict[str, np.ndarray] = {
        name: np.zeros((plan.buffer_len[name],) + env[name].data.shape[1:],
                       dtype=env[name].data.dtype)
        for name in array_order if plan.buffer_len[name]
    }
    pending_writes: List[Tuple[_BatchPlan, Dict[str, np.ndarray]]] = []
    partials: Dict[str, float] = {
        spec.name: spec.identity for spec in forall.reductions
    }

    def fold_contributions(contribs: Dict[str, np.ndarray]) -> None:
        for spec in forall.reductions:
            vec = contribs[spec.name]
            if vec.size == 0:
                continue
            if spec.op == "sum":
                part = float(vec.sum())
            elif spec.op == "max":
                part = float(vec.max())
            else:
                part = float(vec.min())
            partials[spec.name] = spec.fn(partials[spec.name], part)

    live_refs_local = 0
    batch = plan.local
    if batch is not None:
        operands = _gather_operands(batch, env, buffers)
        live_refs_local = batch.n_local
        out_vals, contribs = _apply_kernel(forall, batch.iters, operands)
        pending_writes.append((batch, out_vals))
        fold_contributions(contribs)
        n_iters = batch.iters.size
        cost = (
            n_iters * m.iter_base
            + batch.n_local * m.ref_local
            + batch.n_indirect * forall.flops_per_ref * m.flop
            + n_iters * forall.flops_per_iter * m.flop
        )
        yield Compute(cost, phase=PHASE, label=forall.label)

    # --- 3. receive in-blocks ------------------------------------------------
    def unpack(name: str, q: int, data: np.ndarray) -> int:
        slots = plan.recv_slots.get((name, q), _NO_SLOTS)
        if data.shape[0] != slots.size:
            raise InspectorError(
                f"{forall.label}: message from {q} for {name} carried "
                f"{data.shape[0]} elements, schedule expects {slots.size}"
            )
        if slots.size:
            buffers[name][slots] = data
        return slots.size

    if combine_messages:
        peers_in = sorted({q for name in array_order for q in plan.peers_in[name]})
        combined_tag = _EXEC_TAG_BASE + tag_base
        for q in peers_in:
            msg = yield Recv(source=q, tag=combined_tag, phase=PHASE,
                             label=forall.label)
            total = 0
            for name, data in msg.payload.items():
                total += unpack(name, q, data)
            yield Compute(m.copy_elem * total, phase=PHASE, label=forall.label)
            yield Count("executor_elems_recv", total)
    else:
        for a_idx, name in enumerate(array_order):
            tag = _EXEC_TAG_BASE + tag_base + a_idx
            for q in plan.peers_in[name]:
                msg = yield Recv(source=q, tag=tag, phase=PHASE,
                                 label=forall.label)
                pos = unpack(name, q, msg.payload)
                yield Compute(m.copy_elem * pos, phase=PHASE,
                              label=forall.label)
                yield Count("executor_elems_recv", pos)

    # --- 4. nonlocal iterations ----------------------------------------------
    batch = plan.nonlocal_
    if batch is not None:
        operands = _gather_operands(batch, env, buffers)
        n_rem = batch.n_remote
        out_vals, contribs = _apply_kernel(forall, batch.iters, operands)
        pending_writes.append((batch, out_vals))
        fold_contributions(contribs)
        # Every reference in the nonlocal loop pays the locality test;
        # remote ones additionally pay the O(log r) search — unless the
        # schedule enumerates every element (Saltz-style), where a remote
        # access is two plain references (table probe + buffer load).
        if plan.enumerated:
            per_remote = 2.0 * m.ref_local
        else:
            per_remote = m.search_cost(max(plan.max_in_ranges, 1))
        n_iters = batch.iters.size
        cost = (
            n_iters * m.iter_base
            + batch.n_local * m.ref_local
            + n_rem * per_remote
            + batch.n_indirect * forall.flops_per_ref * m.flop
            + n_iters * forall.flops_per_iter * m.flop
        )
        yield Compute(cost, phase=PHASE, label=forall.label)
        yield Count("executor_remote_refs", n_rem)

    # --- 5. commit writes (copy-out) ---------------------------------------------
    n_written = 0
    written_arrays = set()
    for batch, outputs in pending_writes:
        for name, rows in batch.writes:
            env[name].data[rows] = outputs[name]
            written_arrays.add(name)
            n_written += batch.iters.size
    # Bump versions so schedules depending on written arrays re-inspect.
    for name in written_arrays:
        env[name].version += 1
    if n_written:
        yield Compute(m.ref_local * n_written, phase=PHASE, label=forall.label)
    yield Count("executor_iters", plan.num_exec)
    yield Count("executor_local_refs", live_refs_local)

    # --- 6. global reductions (recursive doubling, charged like any
    # other executor communication) -----------------------------------------
    if not forall.reductions:
        return None
    # One flop per contribution folded locally.
    n_contrib = plan.num_exec * len(forall.reductions)
    if n_contrib:
        yield Compute(m.flop * n_contrib, phase=PHASE, label=forall.label)
    results: Dict[str, float] = {}
    for r_idx, spec in enumerate(forall.reductions):
        reduced = yield from allreduce(
            rank,
            partials[spec.name],
            spec.fn,
            tag=(tag_base + r_idx) % 1000,
            phase=PHASE,
            op_cost=m.flop,
        )
        results[spec.name] = reduced
    return results
