"""DQueue: a global-view distributed FIFO with batched push/pop.

The queue's global order is a **ticket tape**: every pushed element gets
the next ticket ``t = tail, tail+1, ...`` and every pop consumes from
``head`` upward — exactly the order a sequential queue would produce.
Tickets are dealt round-robin over ranks (the same Cyclic deal DHash
uses for buckets): ticket ``t`` lives in rank ``t % P``'s **segment**, a
local dict ``ticket → value``.  Because the deal is a pure function of
the ticket, any rank knows where any element lives with no
communication, and the per-rank segments stay balanced to within one
element no matter the push/pop interleaving.

Batched ops are one combining exchange each way, same protocol as DHash:

* ``push_many(values)`` — the driver assigns tickets
  ``tail .. tail+n-1``, slices the batch evenly over ranks, each rank
  routes ``(ticket, value)`` pairs to the owning segments in one
  combining exchange.
* ``pop_many(k)`` — tickets ``head .. head+k-1`` are sliced evenly over
  requester ranks; each rank asks the owning segments (request hop),
  owners pop and reply (reply hop), and the driver reassembles values in
  ticket order.  Popping beyond the current size raises — the global
  size is driver-side knowledge, free to check.

Head/tail live in the driver (scattered into each op, like the DHash
stores), so a crashed op mutates nothing and serve retries are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.machine.api import Compute, Count, Rank
from repro.machine.stats import RunResult  # noqa: F401  (re-export convenience)
from repro.structs.dhash import StructsError, _StructBase
from repro.structs.exchange import combining_route, element_route, group_by_dest


@dataclass
class _QSpec:
    """One rank's share of one batched queue op (``rank.arg``)."""

    op: str                      # "push" | "pop"
    tickets: np.ndarray          # this rank's slice of the ticket range
    vals: Optional[np.ndarray]   # push payloads (None for pop)
    segment: Dict[int, float]    # this rank's ticket -> value store
    rounds: int = 0              # naive mode lock-step bound
    combine: bool = True


@dataclass
class _QOutcome:
    segment: Dict[int, float]
    tickets: np.ndarray
    result: np.ndarray
    info: Dict[str, Any] = field(default_factory=dict)


def _dqueue_op_program(rank: Rank):
    spec: _QSpec = rank.arg
    segment = spec.segment
    phase = "structs"
    m = rank.machine
    P = rank.size
    yield Count("structs_batches", 1)
    yield Count("structs_items", len(spec.tickets))
    owners = (spec.tickets % P).astype(np.int64)
    yield Compute(m.copy_elem * len(spec.tickets), phase=phase)

    if spec.op == "push":
        arrays = {"tickets": spec.tickets, "vals": spec.vals}
        if spec.combine:
            packets = group_by_dest(owners, arrays)
            delivered = yield from combining_route(rank, packets, tag=0,
                                                   phase=phase)
        else:
            items = [(int(owners[i]),
                      {name: arr[i:i + 1] for name, arr in arrays.items()})
                     for i in range(len(spec.tickets))]
            raw = yield from element_route(rank, items, spec.rounds, tag=16,
                                           phase=phase)
            delivered = {src: _cat_packets(parts) for src, parts in raw.items()}
        landed = 0
        for src in sorted(delivered):
            packet = delivered[src]
            for t, v in zip(packet["tickets"], packet["vals"]):
                segment[int(t)] = float(v)
                landed += 1
        yield Count("structs_pushed", landed)
        yield Compute(m.insert_elem / 8 * landed, phase=phase)
        return _QOutcome(segment=segment, tickets=spec.tickets,
                         result=np.zeros(0))

    if spec.op != "pop":  # pragma: no cover - guarded at the driver
        raise StructsError(f"unknown dqueue op {spec.op!r}")

    arrays = {"tickets": spec.tickets}
    if spec.combine:
        packets = group_by_dest(owners, arrays)
        delivered = yield from combining_route(rank, packets, tag=2,
                                               phase=phase)
    else:
        items = [(int(owners[i]),
                  {name: arr[i:i + 1] for name, arr in arrays.items()})
                 for i in range(len(spec.tickets))]
        raw = yield from element_route(rank, items, spec.rounds, tag=16,
                                       phase=phase)
        delivered = {src: _cat_packets(parts) for src, parts in raw.items()}
    replies: Dict[int, Dict[str, np.ndarray]] = {}
    popped = 0
    for src in sorted(delivered):
        packet = delivered[src]
        tickets = packet["tickets"]
        out = np.zeros(len(tickets), dtype=np.float64)
        for i, t in enumerate(tickets):
            try:
                out[i] = segment.pop(int(t))
            except KeyError:
                raise StructsError(
                    f"rank {rank.id}: pop of absent ticket {int(t)}")
            popped += 1
        replies[src] = {"tickets": tickets, "vals": out}
    yield Count("structs_popped", popped)
    yield Compute(m.copy_elem * popped, phase=phase)
    if spec.combine:
        returned = yield from combining_route(rank, replies, tag=6,
                                              phase=phase)
    else:
        reply_items = [
            (src, {name: arr[i:i + 1] for name, arr in packet.items()})
            for src, packet in sorted(replies.items())
            for i in range(len(packet["tickets"]))
        ]
        from repro.comm.collectives import allreduce

        reply_rounds = yield from allreduce(
            rank, len(reply_items), op=max, tag=0x201, phase=phase)
        raw = yield from element_route(rank, reply_items, reply_rounds,
                                       tag=16 + 2 * spec.rounds, phase=phase)
        returned = {src: _cat_packets(parts) for src, parts in raw.items()}
    result = np.zeros(len(spec.tickets), dtype=np.float64)
    base = int(spec.tickets[0]) if len(spec.tickets) else 0
    for src in sorted(returned):
        packet = returned[src]
        local = np.asarray(packet["tickets"], dtype=np.int64) - base
        result[local] = packet["vals"]
    return _QOutcome(segment=segment, tickets=spec.tickets, result=result)


def _cat_packets(parts: List[Dict[str, np.ndarray]]) -> Dict[str, np.ndarray]:
    return {name: np.concatenate([p[name] for p in parts])
            for name in parts[0]}


class DQueue(_StructBase):
    """The global-view distributed FIFO (module docstring has the design)."""

    def __init__(self, nranks: int, **kwargs):
        super().__init__(nranks, **kwargs)
        self._segments: List[Dict[int, float]] = [{} for _ in range(nranks)]
        self.head = 0   # next ticket to pop
        self.tail = 0   # next ticket to assign

    def __len__(self) -> int:
        return self.tail - self.head

    def push_many(self, values, combine: bool = True) -> None:
        """Append a batch; element ``i`` gets ticket ``tail + i``."""
        vals = np.ascontiguousarray(values, dtype=np.float64)
        if vals.ndim != 1:
            raise StructsError("push_many needs a 1-d value batch")
        if vals.size == 0:
            return
        tickets = np.arange(self.tail, self.tail + len(vals), dtype=np.int64)
        self._op("push", tickets, vals, combine)
        self.tail += len(vals)

    def pop_many(self, k: int, combine: bool = True) -> np.ndarray:
        """Pop the ``k`` oldest elements, in exact FIFO order."""
        if k < 0:
            raise StructsError(f"pop_many needs k >= 0, got {k}")
        if k > len(self):
            raise StructsError(
                f"pop_many({k}) from a queue of {len(self)} elements")
        if k == 0:
            return np.zeros(0, dtype=np.float64)
        tickets = np.arange(self.head, self.head + k, dtype=np.int64)
        result = self._op("pop", tickets, None, combine)
        self.head += k
        return result

    def _op(self, op: str, tickets: np.ndarray, vals: Optional[np.ndarray],
            combine: bool) -> np.ndarray:
        slices = self._slices(len(tickets), self.nranks)
        rounds = max(hi - lo for lo, hi in slices)
        args = [
            _QSpec(op=op, tickets=tickets[lo:hi],
                   vals=None if vals is None else vals[lo:hi],
                   segment=self._segments[r], rounds=rounds, combine=combine)
            for r, (lo, hi) in enumerate(slices)
        ]
        result = self._run(_dqueue_op_program, args)
        outcomes: List[_QOutcome] = list(result.values)
        for r, outcome in enumerate(outcomes):
            self._segments[r] = outcome.segment
        merged = np.zeros(len(tickets), dtype=np.float64)
        base = int(tickets[0])
        for outcome in outcomes:
            if len(outcome.tickets) and len(outcome.result):
                merged[outcome.tickets - base] = outcome.result
        return merged

    def snapshot(self) -> Dict[str, np.ndarray]:
        """Canonical live contents in global FIFO order: ``tickets``,
        ``values``, ``owners`` — bit-identical across backends."""
        tickets_parts, vals_parts, owner_parts = [], [], []
        for r, segment in enumerate(self._segments):
            for t in sorted(segment):
                tickets_parts.append(t)
                vals_parts.append(segment[t])
                owner_parts.append(r)
        tickets = np.asarray(tickets_parts, dtype=np.int64)
        order = np.argsort(tickets, kind="stable")
        return {
            "tickets": tickets[order],
            "values": np.asarray(vals_parts, dtype=np.float64)[order],
            "owners": np.asarray(owner_parts, dtype=np.int64)[order],
        }
