"""Small statistics shared by the benchmark's workloads."""

from __future__ import annotations

import statistics

SETUP_REPEATS = 5  # set-up runs per benchmark run; setup_s is their median


def rate(samples) -> float:
    """Work per host second over a list of (seconds, work) samples."""
    secs = sum(s for s, _ in samples)
    return sum(w for _, w in samples) / secs if secs > 0 else 0.0


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[
        int(round(q * 1000)) - 1]


def tail(values):
    """(label, value) of p95, or of the highest percentile with at least
    ten samples beyond it; None below 20 samples."""
    n = len(values)
    if n < 20:
        return None
    q = 0.95 if n >= 200 else int((1 - 10 / n) * 100) / 100
    return f"p{int(round(q * 100))}", percentile(values, q)


# --- machine-speed probe -----------------------------------------------------------
#
# The benchmark shares its CPUs with other tenants: the host rate of the
# same code drifts by 15-25% over seconds to minutes while the process is
# never descheduled (CPU time tracks wall time), so the slowdown is in
# the CPU itself.  A fixed probe kernel exercising the same mix as the
# program -- generator resumptions, dict updates, small NumPy gathers --
# runs every ``interval`` seconds from a timer signal, *inside* the timed
# calls.  Each call's host seconds (probe time subtracted) are divided by
# (mean probe seconds during the call / REF_PROBE_S): rates in reference
# seconds.  The probe uses no code from ``src/``, so a change to the
# program cannot move it.  Raw rates are reported beside the rescaled ones.

REF_PROBE_S = 0.0100  # median probe time on the 2-vCPU Xeon reference box


class Probe:
    """A fixed kernel with a few-MB working set: generator resumptions,
    NumPy gathers over a 512 KiB array, dict updates from list objects."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.arr = rng.random(1 << 16)
        self.idx = rng.integers(0, 1 << 16, 4096)
        self.objs = [[i, float(i)] for i in range(30000)]

    def kernel(self) -> None:
        np, arr, idx, objs = self.np, self.arr, self.idx, self.objs
        table: dict = {}

        def gen(n):
            for i in range(n):
                yield i

        for r in range(200):
            for _ in gen(40):
                pass
            float(np.take(arr, idx).sum())
            arr[idx[:512]] += 1e-9
            for k in range(r * 150, r * 150 + 150):
                obj = objs[k]
                key = obj[0] & 4095
                table[key] = table.get(key, 0.0) + obj[1]

    def best_of(self, reps: int = 3) -> float:
        """Seconds of the kernel, best of ``reps``."""
        import time

        best = float("inf")
        for _ in range(reps):
            t = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - t)
        return best


class SpeedClock:
    """``timed(fn, *args) -> (raw seconds, value)`` with a probe every
    ``interval`` seconds from SIGALRM; ``calls`` records (raw, reference)
    seconds of every timed call, in call order."""

    def __init__(self, interval: float = 0.2):
        import time

        self.perf, self.thread_time = time.perf_counter, time.thread_time
        self.probe = Probe()
        self.interval = interval
        self.probes: list = []
        self.cpu_probes: list = []  # the same probes in thread CPU seconds
        self.spent = 0.0
        self.calls: list = []

    def _tick(self, signum=None, frame=None) -> None:
        t, c = self.perf(), self.thread_time()
        self.probe.kernel()
        took = self.perf() - t
        self.probes.append(took)
        self.cpu_probes.append(self.thread_time() - c)
        self.spent += took

    def __enter__(self) -> "SpeedClock":
        import signal

        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def timed(self, fn, *args):
        n0, spent0 = len(self.probes), self.spent
        t = self.perf()
        value = fn(*args)
        raw = self.perf() - t - (self.spent - spent0)
        during = self.probes[n0:] or self.probes[-1:]
        speed = sum(during) / len(during) / REF_PROBE_S
        self.calls.append((raw, raw / speed))
        return raw, value

    def slowdown(self) -> float:
        """Median probe time over the reference probe time."""
        return statistics.median(self.probes) / REF_PROBE_S
