#!/usr/bin/env python
"""Where does shared memory beat the pipe?  The pickle/shm crossover.

Streams fixed-size NumPy payloads between two real OS processes twice —
once over the plain pickled-frame pipe transport, once with the
shared-memory data plane (`repro.machine.shm`) hoisting the payload's
buffer into a shared segment while the pipe carries only the protocol-5
pickle header and a tiny ShmRef — and prints
payload throughput for each size.

The shape of the result (one 1-CPU container; yours will differ in
absolute numbers, not in shape):

* **Small payloads lose.**  Under a few KiB the pipe write is a single
  PIPE_BUF-atomic syscall; block bookkeeping plus a second process
  attach costs more than it saves.  This is exactly why the plane has a
  threshold (default 2 KiB) below which payloads stay on the pickle
  path.
* **Large payloads win big.**  The pickled frame pays serialize + copy
  into the kernel + copy out + deserialize; the plane pays one copy in
  and one copy out of a shared mapping.  The curve crosses near the
  threshold and the ratio keeps growing with size — the D1 bench gate
  (`python -m repro.bench --shm`) requires >= 2x at multi-MiB payloads.

Run:  python examples/shm_throughput.py [--repeats N]
Docs: docs/dataplane.md (design), EXPERIMENTS.md section D1 (reference
numbers).
"""

import argparse
import time

import numpy as np

from repro.bench.tables import ablation_table
from repro.machine.api import Now, Recv, Send
from repro.machine.cost import IDEAL
from repro.machine.mp import MpEngine
from repro.machine.topology import FullyConnected

SIZES = [1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22]


def stream_program(payload: np.ndarray, repeats: int):
    """Rank 0 streams `repeats` payloads to rank 1, which acks once."""

    def prog(rank):
        if rank.id == 0:
            t0 = yield Now()
            for i in range(repeats):
                yield Send(1, payload, tag=1)
            yield Recv(source=1, tag=2)           # ack: all consumed
            t1 = yield Now()
            return t1 - t0
        total = 0.0
        for i in range(repeats):
            msg = yield Recv(source=0, tag=1)
            total += float(msg.payload[0])        # touch the data
        yield Send(0, 1, tag=2)
        return total

    return prog


def measure(nbytes: int, repeats: int, shm: bool, best_of: int = 3) -> float:
    """Best-of-N payload throughput in MB/s for one transport mode."""
    payload = np.arange(nbytes // 8, dtype=np.float64)
    best = float("inf")
    for _ in range(best_of):
        eng = MpEngine(IDEAL, topology=FullyConnected(2), timeout=120.0,
                       shm=shm)
        res = eng.run(stream_program(payload, repeats))
        best = min(best, res.values[0])
    return (payload.nbytes * repeats) / best / 1e6


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeats", type=int, default=8,
                    help="payloads streamed per measurement (default 8)")
    args = ap.parse_args()

    from repro.bench.experiments import AblationRow

    t0 = time.time()
    rows = []
    for nbytes in SIZES:
        pickle_mbps = measure(nbytes, args.repeats, shm=False)
        shm_mbps = measure(nbytes, args.repeats, shm=True)
        rows.append(AblationRow(key=nbytes, values={
            "pickle_MBps": round(pickle_mbps, 1),
            "shm_MBps": round(shm_mbps, 1),
            "speedup": round(shm_mbps / pickle_mbps, 3),
        }))
        marker = "shm" if shm_mbps > pickle_mbps else "pickle"
        print(f"  {nbytes:>8} B: pickle {pickle_mbps:8.1f} MB/s   "
              f"shm {shm_mbps:8.1f} MB/s   -> {marker} wins")

    print()
    print(ablation_table(
        f"pickle-vs-shm payload throughput, 2 ranks, "
        f"{args.repeats} payloads/size (best of 3)",
        rows, ["pickle_MBps", "shm_MBps", "speedup"],
        key_header="payload_B",
    ))
    crossover = next((r.key for r in rows if r.values["speedup"] > 1.0), None)
    print(f"\ncrossover at ~{crossover} B; "
          f"largest-size speedup {rows[-1].values['speedup']:.1f}x "
          f"({time.time() - t0:.1f}s wall)")


if __name__ == "__main__":
    main()
