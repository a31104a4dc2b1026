"""The runtime contract: one protocol code base, many substrates.

Every protocol class in this repository (:class:`~repro.core.replica
.ChtReplica`, :class:`~repro.core.leaseholder.Leaseholder`, the
:class:`~repro.leader.enhanced.EnhancedLeaderService`, client sessions)
is written against the :class:`~repro.sim.process.Process` surface:
``send`` / ``broadcast``, local-time timers, ``local_time``, a forked
RNG, and an optional observability context.  This module states the
substrate that surface needs as an explicit :class:`Runtime` contract
— exactly the paper's three assumptions (message passing, delay bounded
by delta after GST, epsilon-synchronized local clocks) — so the *same*
protocol classes run on two substrates:

* :class:`~repro.sim.network.Network` — the discrete-event simulator.
  A group's network *is* its runtime: it owns the simulator handle,
  the group's :class:`~repro.sim.clocks.ClockModel` and its site label,
  so processes call it with no wrapper in between.  The simulator
  remains the verification oracle: chaos, linearizability checking,
  and sharded runs all drive this runtime.
* :class:`~repro.net.asyncio_rt.AsyncioRuntime` — real TCP sockets
  between OS processes, wall-clock timers, and heartbeat-based failure
  suspicion.  This is the production path; see docs/NETWORK.md.

Time convention: one time unit is one millisecond on both substrates
(simulated ms in the simulator, wall-clock ms for real runs), so one
:class:`~repro.core.config.ChtConfig` means the same thing everywhere.

The contract is deliberately small:

``now``
    The substrate's *real* time (simulated real time, or wall time).
    Used for stats/observability timestamps; protocol decisions use
    per-process local clocks.
``local_clock(pid)``
    The process's :class:`LocalClock` (``local(real)`` and its inverse
    ``real(local)``): possibly skewed/drifting in the simulator (the
    paper's epsilon), identity on a real machine whose processes share
    one wall clock.
``send`` / ``broadcast``
    Fire-and-forget message passing.  Delivery calls
    ``process.deliver(src, msg)`` on the registered destination; both
    substrates guarantee FIFO per ordered pair and may drop messages
    (pre-GST loss in the simulator, disconnects/backpressure on TCP) —
    every protocol loop already retransmits.
``schedule_at(real_time, callback, *args)``
    A cancellable timer at an absolute ``now``-scale time.
``fork_rng(label)``
    A deterministic, labelled RNG stream (seeded from the config seed
    on both substrates, namespaced by ``site`` where there is one).
``register(process)``
    Join the runtime; from then on the runtime routes ``deliver`` calls
    and the process may send.
``site`` / ``obs``
    The deployment-site label (``"g0"``, ``"g1"``, ... for a sharded
    group; None otherwise) and the observability context (None unless
    one is attached before processes are built).
"""

from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING, Any, Optional, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.process import Process

__all__ = ["TimerHandle", "LocalClock", "Runtime", "label_rng"]


@runtime_checkable
class TimerHandle(Protocol):
    """Handle to a scheduled timer: ``time``, ``cancelled``, ``cancel()``.

    The simulator's :class:`~repro.sim.core.Event` satisfies this
    protocol natively; the asyncio runtime wraps ``loop.call_later``.
    """

    time: float
    cancelled: bool

    def cancel(self) -> None: ...


@runtime_checkable
class LocalClock(Protocol):
    """A process-local clock: maps substrate real time to local time
    and back."""

    def local(self, real: float) -> float: ...

    def real(self, local: float) -> float: ...


class _IdentityClock:
    """Local clock of a process on a real machine: local == real.

    Real deployments on one host share the machine clock, so the skew
    the paper bounds by epsilon is (approximately) zero; across hosts,
    NTP keeps it within a few milliseconds and the deployment's
    ``epsilon`` must be configured to cover it.
    """

    __slots__ = ()

    def local(self, real: float) -> float:
        return real

    def real(self, local: float) -> float:
        return local


IDENTITY_CLOCK = _IdentityClock()


def label_rng(seed: int, label: str, k: int = 0) -> random.Random:
    """The repository's deterministic labelled-stream derivation.

    Shared by both runtimes: a stream is a pure function of
    ``(seed, label, k)`` (see :meth:`Simulator.fork_rng`), so protocol
    components draw identically distributed, independent randomness no
    matter which substrate hosts them.
    """
    digest = hashlib.sha256(f"{seed}\x1f{label}\x1f{k}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


class Runtime:
    """Abstract substrate contract (see the module docstring).

    Concrete runtimes subclass this and implement every method; the
    base exists for documentation, ``isinstance`` checks, and the
    shared ``site``/``obs`` defaults.
    """

    #: Deployment-site label namespacing RNG streams and telemetry, or
    #: None outside multi-group runs.
    site: Optional[str] = None
    #: Observability context, or None.  Processes cache this once at
    #: construction, so attach before building them.
    obs: Optional[Any] = None

    @property
    def now(self) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def local_clock(self, pid: int) -> LocalClock:  # pragma: no cover
        raise NotImplementedError

    def send(self, src: int, dst: int, msg: Any) -> None:  # pragma: no cover
        raise NotImplementedError

    def broadcast(self, src: int, msg: Any) -> None:  # pragma: no cover
        raise NotImplementedError

    def schedule_at(self, time: float, callback: Any,
                    *args: Any) -> TimerHandle:  # pragma: no cover
        raise NotImplementedError

    def fork_rng(self, label: str) -> random.Random:  # pragma: no cover
        raise NotImplementedError

    def register(self, process: "Process") -> None:  # pragma: no cover
        raise NotImplementedError
