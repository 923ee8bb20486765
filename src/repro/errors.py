"""Exception hierarchy for the Kali reproduction.

All library-raised exceptions derive from :class:`KaliError` so callers can
catch everything from this package with a single ``except`` clause.  The
subclasses mirror the major subsystems: language front end, distribution
machinery, the SPMD simulation engine, and the inspector/executor runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class BlockedOp:
    """Diagnostic snapshot of one rank's pending receive (see
    :class:`DeadlockError`)."""

    source: int
    tag: int
    phase: str = ""
    label: str = ""
    clock: float = 0.0
    timeout: Optional[float] = None


class KaliError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class DistributionError(KaliError):
    """Invalid distribution specification or out-of-range index mapping."""


class TopologyError(KaliError):
    """Invalid machine topology (e.g. non-power-of-two hypercube)."""


class EngineError(KaliError):
    """SPMD engine failure (bad op sequence, unknown rank, etc.)."""


class DeadlockError(EngineError):
    """Every live rank is blocked on a receive that can never be satisfied.

    Carries a full diagnostic of the stuck state:

    ``blocked``
        ``{rank: info}`` for every blocked rank.  ``info`` is either a
        legacy ``(source, tag)`` tuple or a richer object with
        ``source``/``tag``/``phase``/``label``/``clock`` attributes (the
        engine passes the latter).
    ``undelivered``
        ``(source, dest, tag, arrival, nbytes)`` tuples for every message
        sitting in a mailbox that no receive ever consumed.
    ``crashed``
        ``{rank: virtual crash time}`` for ranks killed by a fault plan.
    ``dropped``
        Count of messages the fault plan dropped before the deadlock.
    """

    _SHOW_UNDELIVERED = 12

    def __init__(self, blocked: dict, undelivered=(), crashed=None,
                 dropped: int = 0):
        self.blocked = dict(blocked)
        self.undelivered = list(undelivered)
        self.crashed = dict(crashed or {})
        self.dropped = dropped
        parts = []
        for r, w in sorted(self.blocked.items()):
            if isinstance(w, tuple):
                parts.append(f"rank {r} waiting on (src={w[0]}, tag={w[1]})")
            else:
                where = f" in {w.phase}" if w.phase else ""
                what = f":{w.label}" if w.label else ""
                parts.append(
                    f"rank {r} waiting on (src={w.source}, tag={w.tag})"
                    f"{where}{what} since t={w.clock:.6f}"
                )
        lines = [f"SPMD deadlock: {', '.join(parts)}"]
        if self.crashed:
            lines.append(
                "crashed ranks: "
                + ", ".join(f"{r} at t={t:.6f}" for r, t in sorted(self.crashed.items()))
            )
        if self.undelivered:
            lines.append(f"undelivered messages ({len(self.undelivered)}):")
            for src, dst, tag, arrival, nbytes in self.undelivered[: self._SHOW_UNDELIVERED]:
                lines.append(
                    f"  {src} -> {dst} tag={tag} arrival={arrival:.6f} ({nbytes}B)"
                )
            extra = len(self.undelivered) - self._SHOW_UNDELIVERED
            if extra > 0:
                lines.append(f"  ... and {extra} more")
        if self.dropped:
            lines.append(f"messages dropped by the fault plan: {self.dropped}")
        super().__init__("\n".join(lines))


class RankCrashError(EngineError):
    """A rank process died (or stopped answering) out from under a job.

    Raised instead of plain :class:`EngineError` when the failure is
    *infrastructural* — a rank process exited without reporting, closed
    its control pipe mid-job, failed after a peer process died, or missed
    the warm pool's reset barrier — as opposed to the rank *program*
    raising (which reports a traceback and is deterministic).  The
    serving layer retries crashed jobs against its retry budget; program
    errors it fails immediately, because re-running a deterministic
    failure buys nothing.
    """


class CommunicationError(EngineError):
    """Malformed message operation (bad rank, negative size, tag misuse)."""


class DeliveryError(CommunicationError):
    """The ack/retry protocol exhausted its retransmission budget."""


class FaultError(KaliError):
    """Invalid fault-injection plan (bad rates, malformed JSON schema)."""


class AnalysisError(KaliError):
    """Subscript/distribution combination not handled by compile-time analysis."""


class InspectorError(KaliError):
    """Run-time analysis failure (reference outside the array, bad schedule)."""


class ForallError(KaliError):
    """Ill-formed forall specification."""


# --- language front end -----------------------------------------------------


class KaliSyntaxError(KaliError):
    """Lexical or syntactic error in Kali source code."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class KaliSemanticError(KaliError):
    """Semantic error (undeclared name, type mismatch, bad dist clause)."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        if line:
            message = f"{message} (line {line})"
        super().__init__(message)


class KaliRuntimeError(KaliError):
    """Error raised while interpreting a Kali program."""
