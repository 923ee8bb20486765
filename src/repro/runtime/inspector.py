"""The inspector: run-time analysis of a forall's communication (paper §3.3).

Run once per (forall, indirection-data version), before the first executor
run.  Mirroring the paper's Figure 6 ``first_time`` block, the inspector:

1. derives ``exec(p)`` from the ``on`` clause,
2. sweeps every array reference made by iterations in ``exec(p)``,
   classifying each as local or nonlocal (one locality check per
   reference, charged at ``machine.inspect_ref``),
3. splits iterations into ``local_list`` / ``nonlocal_list``,
4. builds per-array ``in(p,q)`` sets as sorted, coalesced range records,
5. routes the in-sets through the crystal router so every home processor
   learns its ``out(p,q)`` sets ("Form send_list using recv_lists from all
   processors (requires global communication)"),
6. finalises translation tables and returns the :class:`CommSchedule`.

Host-side the classification is vectorised NumPy; the *virtual time*
charged follows the paper's per-reference model, so simulated inspector
cost is faithful to the 1990 implementation, not to NumPy.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.arrays.localview import LocalArray
from repro.comm.crystal import route
from repro.core.forall import (
    Affine,
    AffineRead,
    Forall,
    IndirectRead,
    OnOwner,
    OnProcessor,
)
from repro.errors import InspectorError
from repro.machine.api import Compute, Count, Rank
from repro.runtime.schedule import ArraySchedule, CommSchedule, RangeRecord, coalesce_ranges

PHASE = "inspector"


def _affine_preimage_of_indices(indices: np.ndarray, fn: Affine) -> np.ndarray:
    """Sorted iteration indices i with fn(i) in ``indices`` (exact)."""
    shifted = indices - fn.b
    mask = shifted % fn.a == 0
    iters = shifted[mask] // fn.a
    return np.sort(iters)


def compute_exec(forall: Forall, rank: Rank, env: Dict[str, LocalArray]) -> np.ndarray:
    """``exec(p) ∩ Index_set``: iterations this rank executes, sorted.

    For ``OnOwner`` this is ``f⁻¹(local(p)) ∩ range`` — computed from the
    owned index list, so it costs O(N/P) like the paper's run-time code.
    """
    lo, hi = forall.index_range
    if isinstance(forall.on, OnOwner):
        target = env.get(forall.on.array)
        if target is None:
            raise InspectorError(f"on-clause array {forall.on.array!r} not in scope")
        owned = target.global_rows
        iters = _affine_preimage_of_indices(owned, forall.on.fn)
    elif isinstance(forall.on, OnProcessor):
        all_iters = np.arange(lo, hi + 1, dtype=np.int64)
        procs = forall.on.fn(all_iters) % rank.size
        iters = all_iters[procs == rank.id]
    else:
        raise InspectorError(f"unknown on clause {forall.on!r}")
    return iters[(iters >= lo) & (iters <= hi)]


def statically_local(read, forall: Forall, env: Dict[str, LocalArray]) -> bool:
    """True when ``read`` can never touch remote data, by construction.

    An affine reference ``B[g(i)]`` in a loop ``on A[f(i)].loc`` with
    ``g == f`` and B laid out identically to A is local for every
    executed iteration.  The paper's compiler exploits this ("local
    accesses may be more amenable to optimization", §3.1): its Figure 6
    inspector checks only the ``adj[i,j]`` references, not ``coef[i,j]``
    or ``count[i]``.  Skipping the check here both matches that code and
    keeps the charged inspector cost proportional to the references that
    actually need checking.
    """
    if not isinstance(read, AffineRead) or not isinstance(forall.on, OnOwner):
        return False
    if read.fn != forall.on.fn:
        return False
    target = env.get(forall.on.array)
    arr = env.get(read.array)
    if target is None or arr is None:
        return False
    return (
        arr.dist.procs == target.dist.procs
        and arr.dist.dims[0].same_layout(target.dist.dims[0])
    )


def _dim0_proc_coord(local: LocalArray) -> int:
    dist = local.dist
    pdim = dist.proc_dim_of[0]
    if pdim is None:
        return 0
    return dist.procs.coords_of(local.rank)[pdim]


def _require_1d_proc_grid(local: LocalArray) -> None:
    if local.dist.procs.ndim != 1:
        raise InspectorError(
            "inspector/executor currently support 1-d processor arrays "
            "(the paper's evaluation configuration)"
        )


def _classify_affine(
    read: AffineRead, iters: np.ndarray, env: Dict[str, LocalArray], me_coord: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Return (elements, owners, nonlocal_mask, checks) for an affine read."""
    arr = env[read.array]
    elems = read.fn(iters)
    dim0 = arr.dist.dims[0]
    owners = np.asarray(dim0.owner(elems))
    nonlocal_mask = owners != me_coord
    return elems, owners, nonlocal_mask, int(iters.size)


def _classify_indirect(
    read: IndirectRead, iters: np.ndarray, env: Dict[str, LocalArray], rank: Rank
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Return (elements_2d, owners_2d, live_mask_2d, nonlocal_mask_2d, checks).

    ``elements_2d[k, j] = table[iters[k], j]`` with dead columns masked out.
    """
    target = env[read.array]
    table = env[read.table]
    if target.data.ndim != 1:
        raise InspectorError(
            f"indirect read target {read.array!r} must be one-dimensional"
        )
    if not np.all(table.owns(iters)):
        raise InspectorError(
            f"indirection table {read.table!r} is not aligned with the on "
            "clause: some executed rows are remote"
        )
    rows = table.get_rows(iters) + read.offset
    if rows.ndim == 1:
        rows = rows[:, None]
    width = rows.shape[1]
    if read.count is not None:
        counts = env[read.count]
        if not np.all(counts.owns(iters)):
            raise InspectorError(f"count array {read.count!r} is not aligned")
        live_width = counts.get_rows(iters).astype(np.int64)
        live = np.arange(width)[None, :] < live_width[:, None]
    else:
        live = np.ones(rows.shape, dtype=bool)
    me_coord = _dim0_proc_coord(target)
    dim0 = target.dist.dims[0]
    # Dead slots may hold garbage indices; clamp before owner lookup.
    safe = np.where(live, rows, 0)
    owners = np.asarray(dim0.owner(safe))
    nonlocal_mask = (owners != me_coord) & live
    return safe, owners, live, nonlocal_mask, int(live.sum())


def run_inspector(rank: Rank, forall: Forall, env: Dict[str, LocalArray]):
    """Generator: inspect ``forall`` on this rank, return a CommSchedule.

    Collective: every rank must call this (the in→out transpose is a
    global communication).
    """
    for name in set(forall.arrays_read()) | set(forall.arrays_written()):
        if name not in env:
            raise InspectorError(f"array {name!r} referenced but not in scope")
        _require_1d_proc_grid(env[name])

    exec_iters = compute_exec(forall, rank, env)

    total_checks = 0
    any_nonlocal = np.zeros(exec_iters.shape, dtype=bool)
    # per-array: list of global element indices found nonlocal
    nonlocal_elems: Dict[str, List[np.ndarray]] = {}

    for read in forall.reads:
        arr = env[read.array]
        me_coord = _dim0_proc_coord(arr)
        if statically_local(read, forall, env):
            nonlocal_elems.setdefault(read.array, [])
            continue
        if isinstance(read, AffineRead):
            elems, owners, nl_mask, checks = _classify_affine(
                read, exec_iters, env, me_coord
            )
            if elems.size:
                lo_e, hi_e = int(elems.min()), int(elems.max())
                if lo_e < 0 or hi_e >= arr.dist.shape[0]:
                    raise InspectorError(
                        f"{forall.label}: reference {read.operand_name()} "
                        f"subscript out of range [{lo_e}, {hi_e}]"
                    )
            any_nonlocal |= nl_mask
            nonlocal_elems.setdefault(read.array, []).append(elems[nl_mask])
            total_checks += checks
        elif isinstance(read, IndirectRead):
            elems2d, owners2d, live, nl_mask2d, checks = _classify_indirect(
                read, exec_iters, env, rank
            )
            live_elems = elems2d[live]
            if live_elems.size:
                lo_e, hi_e = int(live_elems.min()), int(live_elems.max())
                if lo_e < 0 or hi_e >= env[read.array].dist.shape[0]:
                    raise InspectorError(
                        f"{forall.label}: indirection {read.operand_name()} "
                        f"points outside the array ([{lo_e}, {hi_e}])"
                    )
            any_nonlocal |= nl_mask2d.any(axis=1)
            nonlocal_elems.setdefault(read.array, []).append(elems2d[nl_mask2d])
            total_checks += checks
        else:
            raise InspectorError(f"unknown read descriptor {read!r}")

    # Verify the owner-computes discipline for writes (once, at inspection).
    for w in forall.writes:
        arr = env[w.array]
        me_coord = _dim0_proc_coord(arr)
        targets = w.fn(exec_iters)
        if targets.size:
            if targets.min() < 0 or targets.max() >= arr.dist.shape[0]:
                raise InspectorError(
                    f"{forall.label}: write to {w.array} out of range"
                )
            owners = np.asarray(arr.dist.dims[0].owner(targets))
            if (owners != me_coord).any():
                raise InspectorError(
                    f"{forall.label}: write to {w.array} targets remote "
                    "elements; Kali foralls follow owner-computes (align the "
                    "on clause with the write target)"
                )

    exec_local = exec_iters[~any_nonlocal]
    exec_nonlocal = exec_iters[any_nonlocal]

    # Charge the classification sweep (Figure 6's first loop) plus the
    # sorted-array insertions for elements found nonlocal (§3.3 notes the
    # O(r) insertion cost of the range-array representation).
    total_nonlocal = sum(
        int(sum(piece.size for piece in pieces))
        for pieces in nonlocal_elems.values()
    )
    yield Compute(
        rank.machine.inspect_ref * total_checks
        + rank.machine.insert_elem * total_nonlocal,
        phase=PHASE,
        label=forall.label,
    )
    yield Count("inspector_checks", total_checks)
    yield Count("inspector_nonlocal", total_nonlocal)

    # Build per-array in-sets as (home proc -> home local offsets).
    schedule = CommSchedule(
        label=forall.label,
        rank=rank.id,
        exec_local=exec_local,
        exec_nonlocal=exec_nonlocal,
    )
    request_payload: Dict[int, List[Tuple[str, int, int]]] = {}
    for name in sorted({r.array for r in forall.reads}):
        arr = env[name]
        me_coord = _dim0_proc_coord(arr)
        pieces = nonlocal_elems.get(name, [])
        elems = (
            np.unique(np.concatenate(pieces)) if pieces else np.empty(0, np.int64)
        )
        asched = ArraySchedule(array=name)
        if elems.size:
            dim0 = arr.dist.dims[0]
            owners = np.asarray(dim0.owner(elems))
            offsets = np.asarray(dim0.to_local(elems))
            peer_offsets = {
                int(q): offsets[owners == q] for q in np.unique(owners)
            }
            # Owners are processor coords along proc dim 0 == ranks (1-d grid).
            asched.in_records = coalesce_ranges(peer_offsets, rank.id, incoming=True)
        asched.finalize()
        schedule.arrays[name] = asched
        for rec in asched.in_records:
            request_payload.setdefault(rec.from_proc, []).append(
                (name, rec.low, rec.high)
            )

    # Global transpose: ship each in-range request to its home processor.
    replies = yield from route(rank, request_payload, phase=PHASE)

    # out(p,q) = requests received from q, sorted by (q, low) per Figure 5.
    out_by_array: Dict[str, List[RangeRecord]] = {name: [] for name in schedule.arrays}
    for q in sorted(replies):
        for name, low, high in replies[q]:
            out_by_array[name].append(
                RangeRecord(from_proc=rank.id, to_proc=q, low=low, high=high)
            )
    for name, recs in out_by_array.items():
        recs.sort(key=lambda r: (r.to_proc, r.low))
        schedule.arrays[name].out_records = recs

    for name in forall.comm_dependency_arrays():
        schedule.versions[name] = env[name].version
    for name in set(forall.arrays_read()) | set(forall.arrays_written()):
        schedule.dist_versions[name] = env[name].dist_version

    yield Count("inspector_runs", 1)
    return schedule
