"""DHash: a global-view distributed hash table with batched collective ops.

The table is *global-view* in the PGAS sense: the driver sees one hash
table and calls :meth:`DHash.insert_many` / :meth:`lookup_many` /
:meth:`delete_many` on whole key batches; under the hood every op is one
SPMD run on the configured backend (virtual-time simulator, forked
processes, or a warm serve pool — the same three interpreters every
other workload in this repo runs on).

Layout (owner-computes, paper §2.2 vocabulary):

* a global **bucket space** of ``nbuckets`` buckets, dealt round-robin
  over ranks by the :class:`~repro.distributions.cyclic.Cyclic`
  distribution — bucket ``b`` is *owned* by rank ``b % P`` at local slot
  ``b // P``;
* each rank keeps an **open-chaining** :class:`LocalStore`: local bucket
  → list of ``[key, value]`` entries, scanned linearly, appended on new
  keys (chain order is insertion order, which both backends reproduce
  exactly);
* a key's bucket is ``mix64(key) % nbuckets`` — computable by any rank
  with no communication (:mod:`repro.structs.hashing`).

Batching protocol (two combining hops per op):

1. the driver splits the batch into even contiguous slices, one per
   rank, and ships slice + local store as ``rank.arg``;
2. each rank groups its slice by owner and routes **one packet per
   destination** through the crystal router
   (:func:`repro.structs.exchange.combining_route`);
3. owners apply the op in deterministic order — packets sorted by
   source rank, elements in packet order — and route replies back the
   same way;
4. each rank returns ``(positions, reply arrays)``; the driver scatters
   replies into input order.  Results are exact regardless of how the
   batch was sliced.

State lives in the driver between ops (scattered down, gathered back,
exactly like ``KaliContext`` arrays), which buys the serving layer a
strong failure property: an op that dies mid-run on a crashed pool
mutated nothing — the driver still holds the pre-op stores — so serve
retries replay it safely.

Rebalancing: when the post-insert load factor exceeds ``max_load``, the
bucket space grows (an odd multiple of the current size — linear-hash
consistent, kept odd so growth moves ownership; see
:mod:`repro.structs.hashing`) and entries migrate through one crystal
exchange, *inside the same SPMD run*, gated by the same amortization
rule the layout tuner uses (``gain x horizon > move_cost``, cf.
``repro.tune.policy``).  The decision is computed from the allreduced
entry total and the driver-shipped global batch length — both identical
on every rank — so every rank decides identically and sim/mp runs stay
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.comm.collectives import allreduce
from repro.errors import KaliError
from repro.machine.api import Compute, Count, Rank
from repro.machine.cost import MachineModel, NCUBE7
from repro.machine.stats import RankStats, RunResult
from repro.machine.topology import FullyConnected, Hypercube, Topology
from repro.structs.exchange import combining_route, element_route, group_by_dest
from repro.structs.hashing import (
    bucket_dist,
    bucket_of,
    grow_buckets,
    normalize_buckets,
)
from repro.util.gray import is_power_of_two


class StructsError(KaliError):
    """An invalid operation on a distributed structure."""


# --- per-rank storage ------------------------------------------------------


class LocalStore:
    """One rank's share of the table: open chains over its local buckets.

    ``chains`` maps *local* bucket id → list of ``[key, value]`` pairs in
    insertion order.  Scans are linear (the honest cost the chain-scan
    counters charge); deletes splice the chain, preserving order.
    """

    __slots__ = ("chains", "count")

    def __init__(self):
        self.chains: Dict[int, List[list]] = {}
        self.count = 0

    def apply(self, op: str, lbuckets: np.ndarray, keys: np.ndarray,
              vals: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray, int]:
        """Apply one packet of ``op`` elements in order.

        Returns ``(found mask, result values, chain slots scanned)``.
        ``found`` means: key already present (insert/add), key present
        (lookup/delete).  ``result`` is the post-op value for
        insert/add, the stored value (or 0) for lookup/delete.
        """
        n = len(keys)
        found = np.zeros(n, dtype=bool)
        result = np.zeros(n, dtype=np.float64)
        scanned = 0
        for i in range(n):
            key = int(keys[i])
            chain = self.chains.get(int(lbuckets[i]))
            hit = None
            if chain is not None:
                for entry in chain:
                    scanned += 1
                    if entry[0] == key:
                        hit = entry
                        break
            if op == "insert" or op == "add":
                value = float(vals[i])
                if hit is None:
                    if chain is None:
                        chain = []
                        self.chains[int(lbuckets[i])] = chain
                    chain.append([key, value])
                    self.count += 1
                    result[i] = value
                else:
                    found[i] = True
                    hit[1] = hit[1] + value if op == "add" else value
                    result[i] = hit[1]
            elif op == "lookup":
                if hit is not None:
                    found[i] = True
                    result[i] = hit[1]
            elif op == "delete":
                if hit is not None:
                    found[i] = True
                    result[i] = hit[1]
                    chain.remove(hit)
                    self.count -= 1
                    if not chain:
                        del self.chains[int(lbuckets[i])]
            else:  # pragma: no cover - guarded at the driver
                raise StructsError(f"unknown dhash op {op!r}")
        return found, result, scanned

    def entries(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every entry as ``(local bucket, key, value)`` arrays, in the
        deterministic iteration order: buckets ascending, chains in
        insertion order."""
        lb: List[int] = []
        keys: List[int] = []
        vals: List[float] = []
        for bucket in sorted(self.chains):
            for key, value in self.chains[bucket]:
                lb.append(bucket)
                keys.append(key)
                vals.append(value)
        return (np.asarray(lb, dtype=np.int64),
                np.asarray(keys, dtype=np.int64),
                np.asarray(vals, dtype=np.float64))

    def rebuild(self, lbuckets: np.ndarray, keys: np.ndarray,
                vals: np.ndarray) -> None:
        """Replace contents with fresh chains (rebalance landing)."""
        self.chains = {}
        self.count = 0
        for i in range(len(keys)):
            chain = self.chains.setdefault(int(lbuckets[i]), [])
            chain.append([int(keys[i]), float(vals[i])])
            self.count += 1


# --- the op program --------------------------------------------------------


@dataclass
class _OpSpec:
    """Everything one rank needs for one batched op (``rank.arg``)."""

    op: str
    nbuckets: int
    keys: np.ndarray            # this rank's slice of the batch
    vals: Optional[np.ndarray]  # values for insert/add (else None)
    pos: np.ndarray             # global input positions of the slice
    store: LocalStore
    rounds: int = 0             # naive mode: global max slice length
    combine: bool = True
    # rebalance policy (insert/add only; see _maybe_rebalance)
    max_load: float = 4.0
    horizon: int = 8
    batch_len: int = 0          # global batch length (same on every rank)
    force_nbuckets: int = 0     # explicit rebalance target (op "rebalance")


@dataclass
class _OpOutcome:
    """One rank's result: mutated store + in-slice replies, plain data."""

    store: LocalStore
    pos: np.ndarray
    found: np.ndarray
    result: np.ndarray
    nbuckets: int
    info: Dict[str, Any] = field(default_factory=dict)


def _apply_packets(rank: Rank, op: str, store: LocalStore, nbuckets: int,
                   delivered: Dict[int, Dict[str, np.ndarray]], phase: str):
    """Owner side: apply arriving packets in (source, packet) order and
    build reply packets addressed back to each source."""
    m = rank.machine
    dist = bucket_dist(nbuckets, rank.size)
    replies: Dict[int, Dict[str, np.ndarray]] = {}
    for src in sorted(delivered):
        packet = delivered[src]
        keys = packet["keys"]
        lbuckets = np.asarray(dist.to_local(bucket_of(keys, nbuckets)))
        found, result, scanned = store.apply(
            op, lbuckets, keys, packet.get("vals"))
        yield Count("structs_chain_scans", scanned)
        yield Compute(m.copy_elem * len(keys) + m.flop * scanned, phase=phase)
        replies[src] = {"pos": packet["pos"], "found": found,
                        "result": result}
    return replies


def _merge_replies(spec: _OpSpec, delivered: Dict[int, Dict[str, np.ndarray]],
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Requester side: fold reply packets back into slice order."""
    found = np.zeros(len(spec.keys), dtype=bool)
    result = np.zeros(len(spec.keys), dtype=np.float64)
    base = int(spec.pos[0]) if len(spec.pos) else 0
    for src in sorted(delivered):
        for packet in _as_packet_list(delivered[src]):
            local = np.asarray(packet["pos"], dtype=np.int64) - base
            found[local] = packet["found"]
            result[local] = packet["result"]
    return found, result


def _as_packet_list(value) -> List[Dict[str, np.ndarray]]:
    return value if isinstance(value, list) else [value]


def _maybe_rebalance(rank: Rank, spec: _OpSpec, store: LocalStore,
                     tag: int, phase: str):
    """Grow bucket space and migrate when the load factor warrants it.

    SPMD-deterministic: the decision is a pure function of the allreduced
    entry total, the driver-shipped global batch length
    (``spec.batch_len``, identical on every rank by construction),
    ``spec.nbuckets``, and the policy knobs — every rank computes the
    same verdict with no coordinator.  The amortization rule mirrors
    ``repro.tune.policy``: the predicted per-batch chain-scan saving
    over the next ``horizon`` batches must exceed the one-time
    migration cost, with the batch just applied as the size hint.
    """
    m = rank.machine
    total = yield from allreduce(rank, store.count, op=lambda a, b: a + b,
                                 tag=tag & 0x3FF, phase=phase)
    old_n = spec.nbuckets
    new_n = old_n
    if spec.force_nbuckets:
        new_n = normalize_buckets(spec.force_nbuckets)
        reason = "forced"
    else:
        load = total / old_n
        if load <= spec.max_load:
            return old_n, {"rebalanced": False, "reason": "under-load",
                           "load": load, "total": int(total)}
        while total / new_n > spec.max_load / 2:
            new_n = grow_buckets(new_n)
        # Amortization (tuner idiom: gain x horizon > move_cost).  Gain:
        # expected chain slots no longer scanned per batch of this size.
        # The hint must be the *global* batch length — rank-local slice
        # lengths differ on ragged batches, and a verdict computed from
        # them would split the world at the threshold (some ranks enter
        # the collective migration, others return early: deadlock).
        batch_hint = max(spec.batch_len, 1)
        gain = (total / old_n - total / new_n) / 2.0 * batch_hint * m.flop
        moved_frac = 1.0 - old_n / new_n
        move_cost = (moved_frac * total
                     * (2 * m.copy_elem + 16 * m.beta + m.insert_elem / 8))
        if gain * spec.horizon <= move_cost:
            return old_n, {"rebalanced": False, "reason": "not-amortized",
                           "load": load, "total": int(total)}
        reason = "amortized-win"

    if new_n == old_n:
        return old_n, {"rebalanced": False, "reason": "no-op",
                       "total": int(total)}

    # Migration: every entry re-buckets; entries whose owner changes are
    # routed through one combining exchange.
    lb, keys, vals = store.entries()
    new_buckets = bucket_of(keys, new_n)
    new_dist = bucket_dist(new_n, rank.size)
    owners = np.asarray(new_dist.owner(new_buckets), dtype=np.int64)
    old_dist = bucket_dist(old_n, rank.size)
    old_global = np.asarray(old_dist.to_global(rank.id, lb))
    rehashed = int(np.count_nonzero(new_buckets != old_global))
    staying = owners == rank.id
    leaving = ~staying
    yield Count("structs_rehashed_keys", rehashed)
    yield Count("structs_migrated_keys", int(np.count_nonzero(leaving)))
    yield Count("structs_rebalances", 1)
    packets = group_by_dest(owners[leaving], {
        "keys": keys[leaving], "vals": vals[leaving],
    })
    yield Compute(m.copy_elem * int(np.count_nonzero(leaving)), phase=phase)
    delivered = yield from combining_route(rank, packets, tag=tag + 1,
                                           phase=phase)
    # Deterministic rebuild: retained entries first (original iteration
    # order), then arrivals sorted by source rank, in packet order.
    keep_keys = [keys[staying]]
    keep_vals = [vals[staying]]
    for src in sorted(delivered):
        packet = delivered[src]
        keep_keys.append(np.asarray(packet["keys"], dtype=np.int64))
        keep_vals.append(np.asarray(packet["vals"], dtype=np.float64))
    all_keys = np.concatenate(keep_keys) if keep_keys else np.empty(0, np.int64)
    all_vals = np.concatenate(keep_vals) if keep_vals else np.empty(0)
    lbuckets = np.asarray(new_dist.to_local(bucket_of(all_keys, new_n)))
    store.rebuild(lbuckets, all_keys, all_vals)
    yield Compute(m.insert_elem / 8 * len(all_keys), phase=phase)
    return new_n, {"rebalanced": True, "reason": reason,
                   "nbuckets": new_n, "total": int(total)}


def _dhash_op_program(rank: Rank):
    """The SPMD body of one batched op (``rank.arg`` is an :class:`_OpSpec`)."""
    spec: _OpSpec = rank.arg
    store = spec.store
    phase = "structs"
    m = rank.machine
    nbuckets = spec.nbuckets
    yield Count("structs_batches", 1)
    yield Count("structs_items", len(spec.keys))

    if spec.op == "rebalance":
        nbuckets, info = yield from _maybe_rebalance(rank, spec, store,
                                                     tag=8, phase=phase)
        return _OpOutcome(store=store, pos=spec.pos,
                          found=np.zeros(0, dtype=bool),
                          result=np.zeros(0), nbuckets=nbuckets, info=info)

    buckets = bucket_of(spec.keys, nbuckets)
    owners = np.asarray(bucket_dist(nbuckets, rank.size).owner(buckets),
                        dtype=np.int64)
    arrays = {"keys": spec.keys, "pos": spec.pos}
    if spec.vals is not None:
        arrays["vals"] = spec.vals
    yield Compute(m.copy_elem * len(spec.keys), phase=phase)

    if spec.combine:
        packets = group_by_dest(owners, arrays)
        delivered = yield from combining_route(rank, packets, tag=0,
                                               phase=phase)
        replies = yield from _apply_packets(rank, spec.op, store, nbuckets,
                                            delivered, phase)
        returned = yield from combining_route(rank, replies, tag=4,
                                              phase=phase)
    else:
        items = []
        for i in range(len(spec.keys)):
            packet = {name: arr[i:i + 1] for name, arr in arrays.items()}
            items.append((int(owners[i]), packet))
        delivered = yield from element_route(rank, items, spec.rounds, tag=16,
                                             phase=phase)
        replies: Dict[int, Dict[str, np.ndarray]] = {}
        for src in sorted(delivered):
            parts = delivered[src]
            merged = {name: np.concatenate([p[name] for p in parts])
                      for name in parts[0]}
            reply = yield from _apply_packets(
                rank, spec.op, store, nbuckets, {src: merged}, phase)
            replies.update(reply)
        reply_items = [
            (src, {name: arr[i:i + 1] for name, arr in packet.items()})
            for src, packet in sorted(replies.items())
            for i in range(len(packet["pos"]))
        ]
        # A hot owner may hold more replies than its request slice was
        # long, so the lock-step bound is the global max reply count.
        reply_rounds = yield from allreduce(
            rank, len(reply_items), op=max, tag=0x200, phase=phase)
        returned = yield from element_route(
            rank, reply_items, reply_rounds, tag=16 + 2 * spec.rounds,
            phase=phase)

    found, result = _merge_replies(spec, returned)

    info: Dict[str, Any] = {}
    if spec.op in ("insert", "add"):
        # Both modes rebalance: the naive mode is a *routing* baseline,
        # so the table geometry (nbuckets) must stay identical to the
        # combining path for the same key sequence.
        nbuckets, info = yield from _maybe_rebalance(rank, spec, store,
                                                     tag=8, phase=phase)
    return _OpOutcome(store=store, pos=spec.pos, found=found, result=result,
                      nbuckets=nbuckets, info=info)


# --- run-result folding ----------------------------------------------------


def merge_results(results: List[RunResult]) -> RunResult:
    """Fold per-op :class:`RunResult` s into one (ops ran sequentially:
    clocks and phase times add, counters and traffic sum).  The serve
    job kinds report one merged result per job."""
    if not results:
        raise StructsError("merge_results needs at least one result")
    nranks = results[0].nranks
    clocks = [0.0] * nranks
    stats = [RankStats(r) for r in range(nranks)]
    for res in results:
        if res.nranks != nranks:
            raise StructsError("cannot merge results of different worlds")
        for r in range(nranks):
            clocks[r] += res.clocks[r]
            src, dst = res.stats[r], stats[r]
            for phase, seconds in src.phase_time.items():
                dst.phase_time[phase] += seconds
            for name, amount in src.counters.items():
                dst.counters[name] += amount
            dst.messages_sent += src.messages_sent
            dst.messages_received += src.messages_received
            dst.bytes_sent += src.bytes_sent
            dst.bytes_received += src.bytes_received
    return RunResult(nranks=nranks, clocks=clocks, stats=stats,
                     values=[None] * nranks)


# --- the global-view handle ------------------------------------------------


class _StructBase:
    """Backend plumbing shared by DHash and DQueue."""

    def __init__(self, nranks: int, machine: MachineModel = NCUBE7,
                 topology: Optional[Topology] = None, backend: str = "sim",
                 pool=None, mp_timeout: float = 120.0):
        if nranks < 1:
            raise StructsError(f"nranks must be >= 1, got {nranks}")
        if backend not in ("sim", "mp"):
            raise StructsError(
                f"unknown backend {backend!r} (expected 'sim' or 'mp')")
        if pool is not None:
            if pool.nranks != nranks:
                raise StructsError(
                    f"pool has {pool.nranks} ranks but structure wants "
                    f"{nranks}")
            backend = "mp"
        self.nranks = nranks
        self.machine = machine
        self.topology = topology or (
            Hypercube(nranks) if is_power_of_two(nranks)
            else FullyConnected(nranks))
        self.backend = backend
        self.pool = pool
        self.mp_timeout = mp_timeout
        #: engine results of every op, in issue order (merge_results folds
        #: them into the one result the serve records and bench want)
        self.op_results: List[RunResult] = []

    def _run(self, program, args) -> RunResult:
        if self.pool is not None:
            result = self.pool.run(program, self.machine,
                                   topology=self.topology, args=args,
                                   timeout=self.mp_timeout)
        elif self.backend == "mp":
            from repro.machine.mp import MpEngine

            engine = MpEngine(self.machine, topology=self.topology,
                              nranks=self.nranks, timeout=self.mp_timeout)
            result = engine.run(program, args=args)
        else:
            from repro.machine.engine import Engine

            engine = Engine(self.machine, topology=self.topology,
                            nranks=self.nranks)
            result = engine.run(program, args=args)
        self.op_results.append(result)
        return result

    def merged_result(self) -> RunResult:
        return merge_results(self.op_results)

    def reset_results(self) -> None:
        self.op_results = []

    @staticmethod
    def _slices(n: int, nranks: int) -> List[Tuple[int, int]]:
        """Even contiguous batch slices, one per rank (deterministic)."""
        base, rem = divmod(n, nranks)
        out = []
        lo = 0
        for r in range(nranks):
            hi = lo + base + (1 if r < rem else 0)
            out.append((lo, hi))
            lo = hi
        return out


@dataclass
class BatchResult:
    """Outcome of one batched table op, in input order."""

    found: np.ndarray            # bool per element (see LocalStore.apply)
    values: np.ndarray           # float64 per element
    info: Dict[str, Any]         # rebalance verdict of this op


class DHash(_StructBase):
    """The global-view distributed hash table (module docstring has the
    full design).  Keys are int64, values float64; ``insert`` upserts,
    ``add`` accumulates — both may trigger a rebalance mid-sequence."""

    def __init__(self, nranks: int, nbuckets: int = 33,
                 machine: MachineModel = NCUBE7,
                 topology: Optional[Topology] = None, backend: str = "sim",
                 pool=None, mp_timeout: float = 120.0,
                 max_load: float = 4.0, rebalance_horizon: int = 8):
        super().__init__(nranks, machine=machine, topology=topology,
                         backend=backend, pool=pool, mp_timeout=mp_timeout)
        if max_load <= 0:
            raise StructsError(f"max_load must be > 0, got {max_load}")
        self.nbuckets = normalize_buckets(nbuckets)
        self.max_load = max_load
        self.rebalance_horizon = rebalance_horizon
        self._stores = [LocalStore() for _ in range(nranks)]
        self.rebalances = 0

    # --- batched collective ops -----------------------------------------

    def insert_many(self, keys, values, combine: bool = True) -> BatchResult:
        """Upsert a batch; ``found[i]`` is True when key ``i`` existed."""
        return self._op("insert", keys, values, combine)

    def add_many(self, keys, values, combine: bool = True) -> BatchResult:
        """Accumulate ``values`` into existing entries (insert if new)."""
        return self._op("add", keys, values, combine)

    def lookup_many(self, keys, combine: bool = True) -> BatchResult:
        """Look a batch up; misses report ``found=False, value=0``."""
        return self._op("lookup", keys, None, combine)

    def delete_many(self, keys, combine: bool = True) -> BatchResult:
        """Delete a batch; returns the deleted values where found."""
        return self._op("delete", keys, None, combine)

    def _op(self, op: str, keys, values, combine: bool) -> BatchResult:
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        if keys.ndim != 1:
            raise StructsError(f"{op}_many needs a 1-d key batch")
        vals = None
        if values is not None:
            vals = np.ascontiguousarray(values, dtype=np.float64)
            if vals.shape != keys.shape:
                raise StructsError(
                    f"{op}_many: {len(keys)} keys but {len(vals)} values")
        if keys.size == 0:
            return BatchResult(found=np.zeros(0, dtype=bool),
                               values=np.zeros(0), info={})
        slices = self._slices(len(keys), self.nranks)
        rounds = max(hi - lo for lo, hi in slices)
        args = [
            _OpSpec(
                op=op, nbuckets=self.nbuckets,
                keys=keys[lo:hi],
                vals=None if vals is None else vals[lo:hi],
                pos=np.arange(lo, hi, dtype=np.int64),
                store=self._stores[r],
                rounds=rounds, combine=combine,
                max_load=self.max_load, horizon=self.rebalance_horizon,
                batch_len=len(keys),
            )
            for r, (lo, hi) in enumerate(slices)
        ]
        result = self._run(_dhash_op_program, args)
        return self._land(result, n=len(keys))

    def rebalance(self, nbuckets: Optional[int] = None) -> Dict[str, Any]:
        """Explicitly grow (or re-deal) the bucket space.

        With ``nbuckets`` None the load-factor policy decides; an explicit
        target forces the migration regardless of load.
        """
        target = 0 if nbuckets is None else int(nbuckets)
        if target and normalize_buckets(target) < self.nbuckets:
            raise StructsError(
                f"bucket space only grows ({self.nbuckets} -> {target})")
        args = [
            _OpSpec(op="rebalance", nbuckets=self.nbuckets,
                    keys=np.zeros(0, dtype=np.int64), vals=None,
                    pos=np.zeros(0, dtype=np.int64), store=self._stores[r],
                    max_load=self.max_load, horizon=self.rebalance_horizon,
                    force_nbuckets=target)
            for r in range(self.nranks)
        ]
        result = self._run(_dhash_op_program, args)
        return self._land(result, n=0).info

    def _land(self, result: RunResult, n: int) -> BatchResult:
        outcomes: List[_OpOutcome] = list(result.values)
        sizes = {o.nbuckets for o in outcomes}
        if len(sizes) != 1:
            raise StructsError(
                f"ranks disagree on bucket space after op: {sorted(sizes)}")
        self.nbuckets = sizes.pop()
        for r, outcome in enumerate(outcomes):
            self._stores[r] = outcome.store
        info = outcomes[0].info or {}
        if info.get("rebalanced"):
            self.rebalances += 1
        found = np.zeros(n, dtype=bool)
        values = np.zeros(n, dtype=np.float64)
        for outcome in outcomes:
            found[outcome.pos] = outcome.found
            values[outcome.pos] = outcome.result
        return BatchResult(found=found, values=values, info=info)

    # --- driver-side views ----------------------------------------------

    def __len__(self) -> int:
        return sum(store.count for store in self._stores)

    @property
    def load_factor(self) -> float:
        return len(self) / self.nbuckets

    def snapshot(self) -> Dict[str, np.ndarray]:
        """Canonical global contents, sorted by key: ``keys``, ``values``,
        ``buckets``, ``owners``.  Bit-identical across backends — the
        differential tests compare exactly this."""
        dist = bucket_dist(self.nbuckets, self.nranks)
        keys_parts, vals_parts, bucket_parts, owner_parts = [], [], [], []
        for r, store in enumerate(self._stores):
            lb, keys, vals = store.entries()
            keys_parts.append(keys)
            vals_parts.append(vals)
            bucket_parts.append(np.asarray(dist.to_global(r, lb),
                                           dtype=np.int64))
            owner_parts.append(np.full(len(keys), r, dtype=np.int64))
        keys = np.concatenate(keys_parts) if keys_parts else np.zeros(0, np.int64)
        order = np.argsort(keys, kind="stable")
        return {
            "keys": keys[order],
            "values": np.concatenate(vals_parts)[order],
            "buckets": np.concatenate(bucket_parts)[order],
            "owners": np.concatenate(owner_parts)[order],
        }

    def items(self) -> Tuple[np.ndarray, np.ndarray]:
        snap = self.snapshot()
        return snap["keys"], snap["values"]
