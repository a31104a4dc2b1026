"""The message-passing network.

Implements the paper's partially synchronous communication model:

* Before the global stabilization time (GST) messages may be delayed
  arbitrarily (per a configurable pre-GST delay model) and may be lost
  (per a configurable drop probability or adversarial drop rule).
* From GST onwards every sent message is delivered within ``delta`` local
  time units (we enforce the bound on the real-time delay; with rate-1
  clocks the two coincide).

Messages are never corrupted and no spurious messages are generated.
Duplication *is* possible when a duplication rule is armed (fault
injection for at-most-once delivery bugs): a duplicated message is
delivered a second time with an independent delay, though never before
the original on a FIFO link.  Without a duplication rule the network
never duplicates, matching the paper's base model.

The network is also the simulator's :class:`~repro.net.runtime.Runtime`:
besides message passing it carries the group's clocks, the simulator's
time and timers, and site-namespaced RNG streams, so a process is built
from ``(pid, network)`` alone.

The network also keeps the accounting the experiments rely on: per-type
message counters and an optional full trace.  Each message class may define
a class attribute ``category`` (for example ``"lease"`` for the read-lease
mechanism's messages — the paper's *red code* — versus ``"consensus"`` for
the RMW path), which lets experiment E1 demonstrate read locality by
category.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..net.runtime import LocalClock, Runtime
from .core import SimulationError, Simulator
from .latency import DelayModel, UniformDelay

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .clocks import ClockModel
    from .process import Process

__all__ = ["Network", "SentMessage", "Partition", "DelayBurst"]


@dataclass
class SentMessage:
    """Trace record for one message."""

    src: int
    dst: int
    msg: Any
    sent_at: float
    deliver_at: Optional[float]  # None when dropped


@dataclass
class Partition:
    """A network partition between two groups of processes.

    While active, messages between the groups are dropped.  Messages inside
    a group are unaffected.  The default is symmetric; with
    ``bidirectional=False`` only the ``group_a -> group_b`` direction is
    blocked (an asymmetric link failure: A's messages to B vanish while
    B still reaches A).
    """

    group_a: frozenset[int]
    group_b: frozenset[int]
    start: float
    end: float = field(default=float("inf"))
    bidirectional: bool = True

    def blocks(self, src: int, dst: int, now: float) -> bool:
        if not self.start <= now < self.end:
            return False
        if src in self.group_a and dst in self.group_b:
            return True
        return self.bidirectional and (
            src in self.group_b and dst in self.group_a
        )


@dataclass
class DelayBurst:
    """A slow-link window: delays drawn from ``[low, high]`` during
    ``[start, end)``.

    Post-GST the draw is additionally clamped to the network's ``delta``,
    so a burst can push every message to the bound but can never violate
    the model's post-stabilization guarantee.
    """

    start: float
    end: float
    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high:
            raise ValueError("need 0 <= low <= high")
        if self.end < self.start:
            raise ValueError("burst window ends before it starts")

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


class Network(Runtime):
    """Delivers messages between registered processes; the simulator's
    :class:`~repro.net.runtime.Runtime`.

    Parameters
    ----------
    sim:
        The simulator providing time and scheduling.
    delta:
        The post-GST upper bound on message delay (the paper's delta).
    gst:
        Global stabilization time.  ``0.0`` gives a synchronous run.
    post_gst_delay / pre_gst_delay:
        Delay models for the two phases.  The post-GST model must respect
        ``delta``; the pre-GST model is unconstrained.
    pre_gst_drop_prob:
        Probability that a message sent before GST is lost.
    fifo:
        When True (the default), messages between the same ordered pair of
        processes are delivered in send order, modelling TCP-like links.
        Set False for an adversarial reordering network.
    site:
        Site label namespacing this network's RNG streams (and those of
        its processes) on a simulator shared by several groups.
    clocks:
        The group's local clocks; ``local_clock(pid)`` reads them.
    """

    def __init__(
        self,
        sim: Simulator,
        delta: float,
        gst: float = 0.0,
        post_gst_delay: Optional[DelayModel] = None,
        pre_gst_delay: Optional[DelayModel] = None,
        pre_gst_drop_prob: float = 0.0,
        trace: bool = False,
        fifo: bool = True,
        site: Optional[str] = None,
        clocks: Optional["ClockModel"] = None,
    ) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        if not 0 <= pre_gst_drop_prob <= 1:
            raise ValueError("pre_gst_drop_prob must be a probability")
        self.sim = sim
        self.clocks = clocks
        self.schedule_at = sim.schedule_at
        self.delta = delta
        self.gst = gst
        if post_gst_delay is None:
            # A spread of delays below the bound is the realistic default;
            # experiments that need exact timing pass FixedDelay explicitly.
            post_gst_delay = UniformDelay(delta / 5, delta)
        self.post_gst_delay = post_gst_delay
        if self.post_gst_delay.maximum > delta + 1e-12:
            raise ValueError(
                f"post-GST delay model can exceed delta={delta}: "
                f"{self.post_gst_delay!r}"
            )
        self.pre_gst_delay = pre_gst_delay or self.post_gst_delay
        self.pre_gst_drop_prob = pre_gst_drop_prob
        self.site = site
        self.rng = self.fork_rng("network")
        self.processes: dict[int, "Process"] = {}
        self.partitions: list[Partition] = []
        self.messages_sent: Counter[str] = Counter()
        self.messages_delivered: Counter[str] = Counter()
        self.messages_dropped: Counter[str] = Counter()
        self.messages_duplicated: Counter[str] = Counter()
        self.category_sent: Counter[str] = Counter()
        self.trace_enabled = trace
        self.trace: list[SentMessage] = []
        # Adversarial drop rule: ``drop_rule(src, dst, msg, now) -> bool``.
        # Invariant: from GST onwards, ``self.rng`` is consumed *only* by
        # post-GST delay draws (which are presampled in chunks; see
        # _sample_delay).  A drop rule — or any future feature — that needs
        # randomness must fork its own stream (``sim.fork_rng(...)``), as
        # the loss-window helpers do; drawing from ``self.rng`` post-GST
        # would shift the delay draw sequence and break cross-version
        # determinism.
        self.drop_rule: Optional[Callable[[int, int, Any, float], bool]] = None
        # Duplication rule: ``dup_rule(src, dst, msg, now) -> bool``.  When
        # it returns True the message is delivered a second time with an
        # independently sampled delay.  Like drop rules, a randomized rule
        # must draw from its own forked stream, never from ``self.rng``.
        self.dup_rule: Optional[Callable[[int, int, Any, float], bool]] = None
        # Slow-link windows; draws come from a dedicated forked stream so
        # arming a burst never shifts the main post-GST delay sequence.
        self.delay_bursts: list[DelayBurst] = []
        self._burst_rng = None
        # Earliest end among current partitions; lets the send path prune
        # expired entries instead of scanning them forever.
        self._next_partition_expiry = float("inf")
        self.fifo = fifo
        self._last_delivery: dict[tuple[int, int], float] = {}
        # Post-GST delay draws are consumed in send order by a single rng,
        # so pair-independent models can be presampled in chunks (the draw
        # sequence is unchanged; see DelayModel.presample).
        self._delay_buf: list[float] = []
        self._delay_idx = 0
        # Broadcast targets: the protocol members (Process.member) in pid
        # order.  Client sessions register too, but only for directed
        # sends.
        self._members: list[int] = []
        self._category_of: dict[type, str] = {}

    # ------------------------------------------------------------------
    # Runtime contract (send/broadcast/register below; schedule_at is
    # the simulator's, bound in __init__)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def obs(self) -> Optional[Any]:
        # Live view: an ObsContext attaches itself to the simulator,
        # possibly after this network was built.
        return self.sim.obs

    def local_clock(self, pid: int) -> LocalClock:
        return self.clocks[pid]

    def fork_rng(self, label: str) -> random.Random:
        """A site-namespaced stream (see :meth:`Simulator.fork_rng`); a
        sharded group draws the same streams whether its simulator is
        shared or dedicated."""
        return self.sim.fork_rng(label, site=self.site)

    # ------------------------------------------------------------------
    # Registration / topology control
    # ------------------------------------------------------------------
    def register(self, process: "Process") -> None:
        if process.pid in self.processes:
            raise SimulationError(f"process {process.pid} already registered")
        self.processes[process.pid] = process
        if process.member:
            self._members = sorted(self._members + [process.pid])

    def add_partition(
        self, group_a: frozenset[int], group_b: frozenset[int], start: float,
        end: float = float("inf"), bidirectional: bool = True,
    ) -> Partition:
        overlap = group_a & group_b
        if overlap:
            raise ValueError(f"partition groups overlap: {sorted(overlap)}")
        part = Partition(group_a, group_b, start, end, bidirectional)
        self.partitions.append(part)
        self._next_partition_expiry = min(self._next_partition_expiry, part.end)
        return part

    def add_one_way_partition(
        self, from_group: frozenset[int], to_group: frozenset[int],
        start: float, end: float = float("inf"),
    ) -> Partition:
        """Block only the ``from_group -> to_group`` direction."""
        return self.add_partition(from_group, to_group, start, end,
                                  bidirectional=False)

    def isolate(self, pid: int, start: float, end: float = float("inf")) -> Partition:
        """Partition a single process away from everyone else."""
        others = frozenset(p for p in self.processes if p != pid)
        return self.add_partition(frozenset({pid}), others, start, end)

    def heal_all(self) -> None:
        """End every partition now and drop them from the scan list.

        A partition that has ended can never block again, so keeping it
        around only slows down every subsequent send; healing discards
        them outright (in-flight messages sent before the heal are
        delivered, since delivery re-checks the — now empty — list).
        """
        self.partitions.clear()
        self._next_partition_expiry = float("inf")

    def add_delay_burst(
        self, start: float, end: float, low: float, high: float,
    ) -> DelayBurst:
        """Arm a slow-link window (see :class:`DelayBurst`)."""
        burst = DelayBurst(start, end, low, high)
        if self._burst_rng is None:
            self._burst_rng = self.fork_rng("delay-bursts")
        self.delay_bursts.append(burst)
        return burst

    def _prune_partitions(self, now: float) -> None:
        """Drop expired partitions; long chaos runs would otherwise scan
        an ever-growing list on every send."""
        live = [p for p in self.partitions if p.end > now]
        self.partitions[:] = live
        self._next_partition_expiry = min(
            (p.end for p in live), default=float("inf")
        )

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, msg: Any) -> None:
        """Send ``msg`` from ``src`` to ``dst``.

        Self-sends are rejected: all the protocols in this repository treat
        the local process specially rather than messaging themselves, and a
        self-send is almost always a bug.
        """
        if src == dst:
            raise SimulationError(f"process {src} attempted a self-send")
        if dst not in self.processes:
            raise SimulationError(f"unknown destination process {dst}")
        now = self.sim.now
        mcls = type(msg)
        mtype = mcls.__name__
        self.messages_sent[mtype] += 1
        category = self._category_of.get(mcls)
        if category is None:
            category = self._category_of.setdefault(
                mcls, getattr(msg, "category", "other")
            )
        self.category_sent[category] += 1

        dropped = self._should_drop(src, dst, msg, now)
        if dropped:
            self.messages_dropped[mtype] += 1
            if self.trace_enabled:
                self.trace.append(SentMessage(src, dst, msg, now, None))
            return

        copies = 1
        if self.dup_rule is not None and self.dup_rule(src, dst, msg, now):
            copies = 2
            self.messages_duplicated[mtype] += 1
        for _ in range(copies):
            delay = self._sample_delay(src, dst, now)
            deliver_at = now + delay
            if self.fifo:
                # FIFO links: never deliver before an earlier message on the
                # same (src, dst) pair.  The clamp preserves the delta bound:
                # the earlier message already respected it at a smaller send
                # time.  A duplicate goes through the same clamp, so it can
                # never overtake the original.
                floor = self._last_delivery.get((src, dst), 0.0)
                deliver_at = max(deliver_at, floor)
                self._last_delivery[(src, dst)] = deliver_at
            if self.trace_enabled:
                self.trace.append(SentMessage(src, dst, msg, now, deliver_at))

            self.sim.call_at(deliver_at, self._deliver, src, dst, msg, mtype)

    def _deliver(self, src: int, dst: int, msg: Any, mtype: str) -> None:
        # Partitions that begin after the send can still cut the message
        # off in flight; check again at delivery time.
        if self.partitions and self._partition_blocks(src, dst, self.sim.now):
            self.messages_dropped[mtype] += 1
            return
        process = self.processes[dst]
        if process.crashed:
            return
        self.messages_delivered[mtype] += 1
        process.deliver(src, msg)

    def broadcast(self, src: int, msg: Any) -> None:
        """Send ``msg`` to every protocol member except ``src``; client
        sessions are not members and receive only directed sends."""
        for pid in self._members:
            if pid != src:
                self.send(src, pid, msg)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _partition_blocks(self, src: int, dst: int, now: float) -> bool:
        if now >= self._next_partition_expiry:
            self._prune_partitions(now)
        return any(p.blocks(src, dst, now) for p in self.partitions)

    def _should_drop(self, src: int, dst: int, msg: Any, now: float) -> bool:
        if self.partitions and self._partition_blocks(src, dst, now):
            return True
        if self.drop_rule is not None and self.drop_rule(src, dst, msg, now):
            return True
        if now < self.gst and self.rng.random() < self.pre_gst_drop_prob:
            return True
        return False

    def _sample_delay(self, src: int, dst: int, now: float) -> float:
        if self.delay_bursts:
            burst = next(
                (b for b in self.delay_bursts if b.active(now)), None
            )
            if burst is not None:
                high = burst.high
                if now >= self.gst:
                    # The model's post-stabilization bound always wins.
                    high = min(high, self.delta)
                draw = self._burst_rng.uniform(min(burst.low, high), high)
                if now < self.gst:
                    draw = min(draw, (self.gst - now) + self.delta)
                return draw
        if now < self.gst:
            delay = self.pre_gst_delay.sample(src, dst, self.rng)
            # A message sent just before GST must still respect the bound
            # *from GST onwards*: the model says the bound holds for delays
            # measured after stabilization, so a pre-GST message may arrive
            # no later than GST + delta.
            return min(delay, (self.gst - now) + self.delta)
        model = self.post_gst_delay
        if not model.pair_independent:
            return model.sample(src, dst, self.rng)
        # Post-GST the delay model is the rng's only consumer, so chunked
        # presampling yields the exact draw sequence of per-send sampling.
        idx = self._delay_idx
        buf = self._delay_buf
        if idx >= len(buf):
            buf = self._delay_buf = model.presample(self.rng, 256)
            idx = 0
        self._delay_idx = idx + 1
        return buf[idx]

    # ------------------------------------------------------------------
    # Accounting helpers used by experiments
    # ------------------------------------------------------------------
    def total_sent(self) -> int:
        return sum(self.messages_sent.values())

    def sent_by_type(self) -> dict[str, int]:
        return dict(self.messages_sent)

    def sent_by_category(self) -> dict[str, int]:
        return dict(self.category_sent)

    def reset_counters(self) -> None:
        self.messages_sent.clear()
        self.messages_delivered.clear()
        self.messages_dropped.clear()
        self.messages_duplicated.clear()
        self.category_sent.clear()
        self.trace.clear()
