"""One combining exchange for batched structure ops.

Every batched op in :mod:`repro.structs` moves data in exactly two
collective hops — requests to owners, replies to requesters — and each
hop is **one** combining exchange: a rank sends at most one (merged)
message per stage regardless of how many keys it is routing
(:func:`repro.comm.crystal.route`: on power-of-two worlds Fox's crystal
router, ``log2 P`` stages; elsewhere the pairwise personalised
all-to-all).

The crystal router's ``combine_stage`` software charge models the
paper's *inspector* list-merging, which is far heavier than appending
packet dicts; structure ops disable it and charge their own per-item
pack/unpack costs (``copy_elem``) instead, so virtual time reflects what
this layer actually does.

Packets are dicts of NumPy arrays, which matters twice over: wire size
is computed exactly (``payload_nbytes`` sums ``arr.nbytes``) so sim↔mp
byte counters agree, and on the mp backend large batch payloads are
hoisted through the shared-memory data plane instead of being pickled
down a pipe.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.comm.crystal import route
from repro.machine.api import Count, Rank


def combining_route(rank: Rank, outgoing: Dict[int, Any], tag: int,
                    phase: str = "structs"):
    """Route ``{dest: packet}`` to every destination; returns
    ``{source: packet}`` for the packets addressed here (collective).

    ``tag`` must be unique per exchange within one run (the structures
    hand out a fresh tag per hop).
    """
    yield Count("structs_exchanges", 1)
    delivered = yield from route(rank, outgoing, tag=tag, phase=phase,
                                 charge_combine=False)
    return delivered


def element_route(rank: Rank, outgoing_items, rounds: int, tag: int,
                  phase: str = "structs"):
    """The *naive* baseline: one exchange per element, no combining.

    ``outgoing_items`` is a list of ``(dest, packet)`` — this rank's
    slice of the batch, one entry per element.  All ranks loop in
    lock-step for ``rounds`` iterations (the global max slice length,
    ragged slices padded with empty exchanges), so the op stays
    collective and deterministic.  Returns ``{source: [packet, ...]}``
    in arrival order.  Exists to be measured against — the G1 bench
    gates the combining path at >= 3x this one.
    """
    delivered: Dict[int, list] = {}
    for i in range(rounds):
        single = {}
        if i < len(outgoing_items):
            dest, packet = outgoing_items[i]
            single[dest] = packet
        yield Count("structs_exchanges", 1)
        got = yield from route(rank, single, tag=tag + i, phase=phase,
                               charge_combine=False)
        for src, packet in got.items():
            delivered.setdefault(src, []).append(packet)
    return delivered


def group_by_dest(owners, arrays: Dict[str, Any]) -> Dict[int, Dict[str, Any]]:
    """Split parallel arrays into one packet per destination rank.

    ``owners[i]`` names the destination of element ``i``; each packet
    keeps its elements in input order (stable sort), which the owner
    side relies on for deterministic apply order.
    """
    import numpy as np

    owners = np.asarray(owners)
    if owners.size == 0:
        return {}
    order = np.argsort(owners, kind="stable")
    sorted_owners = owners[order]
    dests, starts = np.unique(sorted_owners, return_index=True)
    bounds = list(starts[1:]) + [owners.size]
    packets: Dict[int, Dict[str, Any]] = {}
    for dest, lo, hi in zip(dests, starts, bounds):
        idx = order[lo:hi]
        packets[int(dest)] = {name: np.asarray(arr)[idx]
                              for name, arr in arrays.items()}
    return packets
