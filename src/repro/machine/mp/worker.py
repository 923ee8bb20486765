"""Child-process rank side of the real-process runtime.

Every forked rank builds one :class:`RankProcess` and runs jobs through
its single job body, :meth:`RankProcess.run_job`.  Two entry points call
it: :func:`worker_main` (one job per process, for ``MpEngine``) and the
warm pool's command loop (:func:`repro.serve.pool._pool_worker_main`).
The body's op loop, :func:`_interpret`, interprets the same op stream
the virtual-time engine does — ``Send``, ``Recv``, ``Compute``, ``Now``,
``Count`` — but against OS pipes and the wall clock:

* ``Send`` pickles a frame to the pairwise pipe (eager-buffered, never
  blocks the rank program) and counts messages/bytes exactly as the
  simulator does (``nbytes = op.wire_size()``, computed identically).
* ``Recv`` drains the source pipe into per-``(source, tag)`` FIFO
  buffers until a matching frame appears.  Wildcard receives pick the
  earliest *locally arrived* candidate — real execution cannot know
  global arrival order, the one simulator guarantee this backend relaxes
  (see docs/internals.md §10).
* ``Compute`` charges **no** time: the virtual seconds describe the 1990
  machine, not this host.  Instead the wall-clock time the rank program
  actually spent between op boundaries is attributed to each op's phase,
  so phase tables and traces describe the real run.
* ``Now`` resumes with wall-clock seconds since run start.

Per-rank counters, trace events, the final return value, and the wall
clock stream back to the parent over the control pipe; trace events are
flushed in chunks so long runs do not accumulate in child memory.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from multiprocessing.connection import wait as conn_wait
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import CommunicationError, EngineError
from repro.machine.api import (
    ANY_SOURCE,
    ANY_TAG,
    Compute,
    Count,
    Message,
    Now,
    Op,
    Rank,
    Recv,
    Send,
    validate_peer,
    validate_send,
)
from repro.machine.mp.transport import (
    FRAME_NBYTES,
    FRAME_PAYLOAD,
    FRAME_SEQ,
    FRAME_TAG,
    FRAME_WALL,
    SenderThread,
    close_mesh_except,
)
from repro.machine.stats import RankStats
from repro.machine.trace import TraceEvent

# Shared-state slot layout (parent reads these on watchdog timeout).
ST_RUNNING = 0
ST_BLOCKED = 1
ST_DONE = 2

_TRACE_FLUSH = 512

#: runaway-program bound: ops one rank may yield in one job
MAX_OPS = 500_000_000


class _Inbox:
    """Per-(source, tag) FIFO buffers over the pairwise pipes."""

    def __init__(self, conns: List[Optional[Any]]):
        self.conns = list(conns)
        self.buffered: Dict[Tuple[int, int], Deque[Tuple[int, tuple]]] = {}
        self._arrival_counter = 0
        #: wall time each buffered frame was drained (arrival proxy)
        self.arrival_wall: Dict[int, float] = {}
        #: peers whose pipe hit EOF (finished or died).  Pipes deliver all
        #: buffered frames before EOF, so nothing from them is lost.
        self.dead: set = set()

    def _mark_dead(self, src: int) -> None:
        conn = self.conns[src]
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
            self.conns[src] = None
        self.dead.add(src)

    def _buffer(self, src: int, frame: tuple, wall: float) -> int:
        idx = self._arrival_counter
        self._arrival_counter += 1
        self.buffered.setdefault((src, frame[FRAME_TAG]), deque()).append(
            (idx, frame)
        )
        self.arrival_wall[idx] = wall
        return idx

    def drain_one(self, src: int, timeout: Optional[float], now_fn) -> bool:
        """Block until one frame from ``src`` is drained (True) or the
        timeout expires (False).  A dead peer can never satisfy the
        receive: a timed receive times out at once (as on the
        simulator), an untimed one raises instead of hanging forever."""
        conn = self.conns[src]
        if conn is not None:
            if timeout is not None and not conn.poll(timeout):
                return False
            try:
                frame = conn.recv()
            except EOFError:
                self._mark_dead(src)
            else:
                self._buffer(src, frame, now_fn())
                return True
        if timeout is not None:
            return False
        raise CommunicationError(
            f"receive from rank {src} can never complete: the peer "
            "process has exited"
        )

    def drain_ready(self, now_fn) -> None:
        """Drain every frame currently readable on any pipe (no blocking).
        Peers at EOF are retired silently — a finished rank is normal."""
        live = [c for c in self.conns if c is not None]
        for conn in conn_wait(live, timeout=0):
            src = self.conns.index(conn)
            while conn is not None and conn.poll(0):
                try:
                    frame = conn.recv()
                except EOFError:
                    self._mark_dead(src)
                    break
                self._buffer(src, frame, now_fn())

    def wait_any(self, deadline: Optional[float], now_fn) -> bool:
        """Block until any pipe is readable; False on deadline expiry.
        Once every peer is gone nothing can ever arrive: False at once
        with a deadline, else raise."""
        while True:
            live = [c for c in self.conns if c is not None]
            if not live:
                if deadline is not None:
                    return False
                raise CommunicationError(
                    "wildcard receive can never complete: every peer "
                    "process has exited"
                )
            timeout = (
                None if deadline is None
                else max(deadline - time.monotonic(), 0.0)
            )
            ready = conn_wait(live, timeout=timeout)
            if not ready:
                return False
            before = self._arrival_counter
            self.drain_ready(now_fn)
            if self._arrival_counter > before:
                return True
            # Only EOFs were ready; loop (retired conns leave `live`).

    def pop_match(self, source: int, tag: int) -> Optional[Tuple[int, int, tuple]]:
        """Pop the matching frame with the earliest local arrival, or None.

        Returns ``(arrival_idx, src, frame)``.  Exact ``(source, tag)``
        receives take the channel head (send-order FIFO); wildcard
        receives compare candidates by local arrival index — the relaxed
        ordering real hardware provides.
        """
        best_key = None
        best_chan = None
        for (src, t), q in self.buffered.items():
            if not q:
                continue
            if source != ANY_SOURCE and src != source:
                continue
            if tag != ANY_TAG and t != tag:
                continue
            idx = q[0][0]
            if best_key is None or idx < best_key:
                best_key = idx
                best_chan = (src, t)
        if best_chan is None:
            return None
        idx, frame = self.buffered[best_chan].popleft()
        return idx, best_chan[0], frame

    def leftover(self) -> int:
        return sum(len(q) for q in self.buffered.values())

    def reset(self) -> int:
        """Discard every buffered frame (warm-pool job boundary); returns
        the number discarded.  Connections and dead-peer state persist —
        only per-job message state is cleared."""
        discarded = self.leftover()
        self.buffered.clear()
        self.arrival_wall.clear()
        return discarded


class RankProcess:
    """What one forked rank process owns, job after job: its row of the
    pipe mesh, its control pipe, a :class:`SenderThread`, an
    :class:`_Inbox`, its status-board slot and (optionally) its
    attachment to the inherited :class:`~repro.machine.shm.ShmDataPlane`.

    Built first thing in the child: it closes every inherited mesh and
    control end that belongs to another rank, which is what makes a dead
    peer observable as EOF instead of a hang.
    """

    def __init__(self, rank_id, nranks, mesh, ctrls, shared_state,
                 dataplane=None):
        close_mesh_except(mesh, rank_id)
        for r, c in enumerate(ctrls):
            if r != rank_id:
                c.close()
        if dataplane is not None:
            dataplane.attach(rank_id)
        self.rank_id = rank_id
        self.nranks = nranks
        self.conns = mesh[rank_id]
        self.ctrl = ctrls[rank_id]
        self.shared_state = shared_state
        self.dataplane = dataplane
        self.sender = SenderThread()
        self.inbox = _Inbox(self.conns)

    def set_state(self, status: int, src: int = -2, tag: int = -2) -> None:
        base = 3 * self.rank_id
        self.shared_state[base] = status
        self.shared_state[base + 1] = src
        self.shared_state[base + 2] = tag

    def run_job(self, program, arg, machine, topology, t0: float,
                trace: bool, count_leftover: bool) -> bool:
        """Run one job on this rank and report it on the control pipe:
        ``("finish", clock, value, stats)`` or ``("error", clock,
        traceback, stats)``.  Returns False only when not even the error
        report could be sent (the parent is gone).

        ``count_leftover`` drains whatever is readable after the job and
        books it as ``undelivered_messages`` — the fork-per-run
        accounting, best-effort: frames still in flight from a straggling
        peer are missed (documented relaxation).  The warm pool counts
        exactly at its reset barrier instead.
        """
        rank_id, ctrl, dataplane = self.rank_id, self.ctrl, self.dataplane

        def now() -> float:
            return time.monotonic() - t0

        stats = RankStats(rank_id)
        trace_buf: List[TraceEvent] = []

        def flush_trace(force: bool = False) -> None:
            if trace and trace_buf and (force or len(trace_buf) >= _TRACE_FLUSH):
                ctrl.send(("trace", list(trace_buf)))
                trace_buf.clear()

        try:
            self.set_state(ST_RUNNING)
            gen = program(Rank(rank_id, self.nranks, machine, topology, arg))
            if not hasattr(gen, "send"):
                raise EngineError(
                    "rank program must be a generator function (did you "
                    "forget to 'yield'?)"
                )
            value = _interpret(
                rank_id, self.nranks, gen, stats,
                trace_buf if trace else None, self.sender, self.inbox,
                self.conns, now, self.set_state, flush_trace,
                dataplane=dataplane,
            )
            if dataplane is not None:
                # Gathered results ride the data plane too: the parent (the
                # plane's extra party) decodes the refs out of the finish
                # record.  Counted before the stats object is shipped.
                value, vbytes, vblocks, vfall = dataplane.encode(
                    value, (dataplane.parent_party,))
                if vbytes:
                    stats.count("shm_bytes_sent", vbytes)
                    stats.count("shm_blocks_sent", vblocks)
                if vfall:
                    stats.count("shm_fallbacks", vfall)
                stats.counters["shm_hwm_bytes"] = dataplane.hwm_bytes
            # Everything this job queued is on the wire before we report:
            # the warm pool's peers drain their pipes at the reset barrier,
            # which only starts after every rank reported.
            self.sender.flush()
            if count_leftover:
                self.inbox.drain_ready(now)
                left = self.inbox.leftover()
                if left:
                    stats.count("undelivered_messages", left)
            self.set_state(ST_DONE)
            flush_trace(force=True)
            ctrl.send(("finish", now(), value, stats))
        except Exception:
            self.set_state(ST_DONE)
            try:
                flush_trace(force=True)
                ctrl.send(("error", now(), traceback.format_exc(), stats))
            except Exception:
                return False
        return True

    def close(self) -> None:
        """Stop the sender (deterministic teardown: no sender thread
        outlives the process's last report) and close every pipe end."""
        try:
            self.sender.flush_and_stop(timeout=5.0)
        except Exception:
            pass
        for c in [*self.conns, self.ctrl]:
            if c is not None:
                try:
                    c.close()
                except OSError:
                    pass


def worker_main(rank_id, nranks, mesh, ctrls, shared_state, dataplane,
                program, args, machine, topology, t0: float,
                trace: bool) -> None:
    """Entry point of one fork-per-run rank process: run the one job the
    program was forked with, report it, drain leftovers, and exit — so a
    peer's exact receive from this rank fails fast afterwards."""
    proc = RankProcess(rank_id, nranks, mesh, ctrls, shared_state, dataplane)
    try:
        proc.run_job(program, args[rank_id] if args is not None else None,
                     machine, topology, t0, trace, count_leftover=True)
    finally:
        proc.close()


def _interpret(
    rank_id: int,
    nranks: int,
    gen,
    stats: RankStats,
    trace_events: Optional[List[TraceEvent]],
    sender: SenderThread,
    inbox: _Inbox,
    conns: List[Optional[Any]],
    now,
    set_state,
    flush_trace,
    dataplane=None,
) -> Any:
    """Drive the rank generator over real pipes; returns its value.

    With a ``dataplane``, large payload leaves are hoisted into shared
    memory before the frame is pickled (and resolved after receive);
    ``nbytes``/``bytes_sent`` still come from the *original* payload via
    ``op.wire_size()``, so traffic accounting is transport-independent.
    """
    resume: Any = None
    seq_counter = 0
    ops = 0
    # Wall time spent *inside the generator* since the last op completed;
    # attributed to the phase of the op it led up to.  Ops without a
    # phase (Now/Count) roll their elapsed time into the next phased op.
    pending_since = now()

    def charge(phase: str, start: float, end: float) -> None:
        stats.charge(phase, end - start)

    while True:
        try:
            op = gen.send(resume)
        except StopIteration as stop:
            return stop.value
        resume = None
        ops += 1
        if ops > MAX_OPS:
            raise EngineError(
                f"exceeded max_ops={MAX_OPS}; runaway rank program?"
            )
        sender.check()
        op_start = now()

        if isinstance(op, Compute):
            # No sleep: the modelled seconds describe the 1990 machine.
            # The *host* time the generator just spent computing is what
            # gets charged to this op's phase.
            charge(op.phase, pending_since, op_start)
            if trace_events is not None and op_start - pending_since > 0:
                trace_events.append(TraceEvent(
                    rank=rank_id, kind="compute", start=pending_since,
                    end=op_start, phase=op.phase, label=op.label,
                ))
                flush_trace()
            pending_since = op_start

        elif isinstance(op, Send):
            validate_send(rank_id, op, nranks)
            nbytes = op.wire_size()
            seq = rank_id + nranks * seq_counter  # globally unique
            seq_counter += 1
            payload = op.payload
            if dataplane is not None:
                payload, sbytes, sblocks, sfall = dataplane.encode(
                    payload, (op.dest,))
                if sbytes:
                    stats.count("shm_bytes_sent", sbytes)
                    stats.count("shm_blocks_sent", sblocks)
                if sfall:
                    stats.count("shm_fallbacks", sfall)
            framelen = sender.send(
                conns[op.dest],
                (op.tag, seq, nbytes, op_start, payload),
            )
            stats.count("pipe_bytes_sent", framelen)
            end = now()
            charge(op.phase, pending_since, end)
            stats.messages_sent += 1
            stats.bytes_sent += nbytes
            if trace_events is not None:
                trace_events.append(TraceEvent(
                    rank=rank_id, kind="send", start=op_start, end=end,
                    phase=op.phase, peer=op.dest, tag=op.tag, nbytes=nbytes,
                    label=op.label, seq=seq,
                ))
                flush_trace()
            pending_since = end

        elif isinstance(op, Recv):
            if op.source != ANY_SOURCE:
                validate_peer(op.source, nranks)
            msg = _do_recv(
                rank_id, op, inbox, now, set_state, dataplane, stats,
            )
            end = now()
            charge(op.phase, pending_since, end)
            if msg is None:
                stats.count("recv_timeouts", 1)
                if trace_events is not None:
                    trace_events.append(TraceEvent(
                        rank=rank_id, kind="recv_timeout", start=op_start,
                        end=end, phase=op.phase,
                        peer=(op.source if op.source != ANY_SOURCE else None),
                        tag=(op.tag if op.tag != ANY_TAG else None),
                        label=op.label,
                    ))
                    flush_trace()
            else:
                stats.messages_received += 1
                stats.bytes_received += msg[1].nbytes
                resume = msg[1]
                if trace_events is not None:
                    trace_events.append(TraceEvent(
                        rank=rank_id, kind="recv", start=op_start, end=end,
                        phase=op.phase, peer=msg[1].source, tag=msg[1].tag,
                        nbytes=msg[1].nbytes, label=op.label, seq=msg[1].seq,
                        busy_start=max(min(msg[0], end), op_start),
                    ))
                    flush_trace()
            pending_since = end

        elif isinstance(op, Now):
            resume = now()

        elif isinstance(op, Count):
            stats.count(op.name, op.amount)

        elif isinstance(op, Op):
            raise EngineError(
                f"rank {rank_id} yielded unsupported op {op!r} on the mp "
                "backend"
            )
        else:
            raise EngineError(f"rank {rank_id} yielded non-op {op!r}")


def _do_recv(
    rank_id: int,
    op: Recv,
    inbox: _Inbox,
    now,
    set_state,
    dataplane=None,
    stats: Optional[RankStats] = None,
) -> Optional[Tuple[float, Message]]:
    """Blocking receive with optional timeout.  Returns ``(arrival_wall,
    Message)`` or None on timeout."""
    deadline = None if op.timeout is None else time.monotonic() + op.timeout
    set_state(ST_BLOCKED, op.source, op.tag)
    try:
        while True:
            got = inbox.pop_match(op.source, op.tag)
            if got is not None:
                idx, src, frame = got
                arrival = inbox.arrival_wall.pop(idx, now())
                payload = frame[FRAME_PAYLOAD]
                if dataplane is not None:
                    payload, rbytes, rblocks = dataplane.decode(payload)
                    if rbytes and stats is not None:
                        stats.count("shm_bytes_recv", rbytes)
                        stats.count("shm_blocks_recv", rblocks)
                return arrival, Message(
                    source=src,
                    dest=rank_id,
                    tag=frame[FRAME_TAG],
                    payload=payload,
                    nbytes=frame[FRAME_NBYTES],
                    arrival=arrival,
                    seq=frame[FRAME_SEQ],
                )
            if op.source != ANY_SOURCE:
                timeout = (
                    None if deadline is None
                    else max(deadline - time.monotonic(), 0.0)
                )
                if not inbox.drain_one(op.source, timeout, now):
                    return None
            else:
                if not inbox.wait_any(deadline, now):
                    return None
    finally:
        set_state(ST_RUNNING)
