"""Deterministic discrete-event simulation core.

The simulator advances a virtual real-time clock through a heap of scheduled
events.  Everything in this repository (networks, process clocks, protocol
timers) is built on top of this loop, which makes every run fully
deterministic for a given seed and therefore reproducible and debuggable.

Time is a float; by convention throughout the repository one time unit is
one millisecond of simulated real time.

Engine internals (see docs/PERFORMANCE.md):

* The heap holds plain ``(time, seq, callback, args)`` tuples, so ordering
  comparisons run entirely in C.  The monotonically increasing sequence
  number makes the ordering of simultaneous events deterministic (FIFO in
  scheduling order) and guarantees the callback is never compared.
* Cancellation is a tombstone scheme: ``_alive`` holds the sequence numbers
  of scheduled, not-yet-fired, not-cancelled events.  Cancelling removes
  the seq from ``_alive``; the stale heap entry is discarded lazily when
  popped (or swept by :meth:`_compact` when tombstones dominate the heap).
  ``pending_events`` is therefore O(1): ``len(_alive)``.
* :meth:`call_at` / :meth:`call_later` / :meth:`schedule_many` are the
  fire-and-forget fast paths: they do not allocate an :class:`Event`
  handle, which matters on the network-delivery hot path.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import random
from typing import Any, Callable, Iterable, Optional

__all__ = ["Event", "Simulator", "SimulationError"]

class SimulationError(RuntimeError):
    """Raised when the simulation is driven into an illegal configuration."""


class Event:
    """Handle to a scheduled callback, supporting cancellation.

    The heap itself stores bare tuples; this object exists only for callers
    that need to cancel or inspect a scheduled event (process timers).
    """

    __slots__ = ("time", "seq", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, sim: "Simulator") -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped."""
        if not self.cancelled:
            self.cancelled = True
            # Discard is a no-op when the event already fired.
            self._sim._alive.discard(self.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "scheduled"
        return f"<Event t={self.time} seq={self.seq} {state}>"


class Simulator:
    """A deterministic event-driven simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-wide random generator.  All stochastic
        components (latency models, fault schedules, workloads) must draw
        from :attr:`rng` or from generators forked off it so a run is a
        pure function of its seed.
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.seed = seed
        self.rng = random.Random(seed)
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._alive: set[int] = set()
        self._fork_counts: dict[str, int] = {}
        self._events_processed = 0
        self._stopped = False
        # The run's observability context (repro.obs.ObsContext), or None.
        # The simulator is the single sim-time clock source for every
        # trace timestamp, so the context hangs off it and processes cache
        # the reference at construction.  Attaching never schedules events
        # or consumes randomness: an observed run has the identical event
        # trace to an unobserved one.
        self.obs: Optional[Any] = None

    def attach_obs(self, obs: Any) -> Any:
        """Attach an observability context (see :mod:`repro.obs`).

        Must happen before processes are constructed: each
        :class:`~repro.sim.process.Process` caches ``sim.obs`` once so
        its hot paths pay a single attribute load when disabled.
        """
        if self.obs is not None and self.obs is not obs:
            raise SimulationError("an ObsContext is already attached")
        self.obs = obs
        return obs

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation time.

        Returns an :class:`Event` handle that supports cancellation; when
        the caller never cancels, prefer :meth:`call_at`, which skips the
        handle allocation.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        seq = next(self._seq)
        heap = self._heap
        heapq.heappush(heap, (time, seq, callback, args))
        self._alive.add(seq)
        if len(heap) > 512 and len(heap) > 2 * len(self._alive):
            self._compact()
        return Event(time, seq, self)

    def call_at(self, time: float, callback: Callable[..., None],
                *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`: no cancellation handle.

        Extra positional ``args`` are stored in the heap entry and passed
        to ``callback`` when it fires, which avoids allocating a closure
        per event on hot paths (message delivery).
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        seq = next(self._seq)
        heap = self._heap
        heapq.heappush(heap, (time, seq, callback, args))
        self._alive.add(seq)
        if len(heap) > 512 and len(heap) > 2 * len(self._alive):
            self._compact()

    def call_later(self, delay: float, callback: Callable[..., None],
                   *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no cancellation handle."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self.call_at(self.now + delay, callback, *args)

    def schedule_many(
        self, items: Iterable[tuple[float, Callable[[], None]]]
    ) -> int:
        """Bulk-schedule ``(delay, callback)`` pairs; returns the count.

        Equivalent to calling :meth:`call_later` per pair but with the
        method-dispatch overhead paid once; used by workload injection.
        """
        now = self.now
        heap = self._heap
        alive = self._alive
        counter = self._seq
        push = heapq.heappush
        n = 0
        for delay, callback in items:
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule into the past (delay={delay})"
                )
            seq = next(counter)
            push(heap, (now + delay, seq, callback, ()))
            alive.add(seq)
            n += 1
        if len(heap) > 512 and len(heap) > 2 * len(alive):
            self._compact()
        return n

    def _compact(self) -> None:
        """Sweep cancelled tombstones out of the heap.

        Rebuilding preserves the pop order exactly: ``(time, seq)`` is a
        total order, so heapify of the filtered entries is equivalent to
        lazily discarding the tombstones one pop at a time.

        The sweep mutates ``self._heap`` in place (slice assignment) rather
        than rebinding it: :meth:`run`/:meth:`step` cache ``heap = self._heap``
        as a local, and a callback can trigger compaction mid-run (e.g. a
        crash cancelling many timers followed by a schedule).  Rebinding
        would strand the running loop on the old list and silently drop
        every event scheduled afterwards.
        """
        alive = self._alive
        self._heap[:] = [entry for entry in self._heap if entry[1] in alive]
        heapq.heapify(self._heap)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next event.  Returns False when no events remain."""
        heap = self._heap
        alive = self._alive
        pop = heapq.heappop
        while heap:
            time, seq, callback, args = pop(heap)
            if seq not in alive:
                continue  # cancelled tombstone
            alive.remove(seq)
            if time < self.now:
                raise SimulationError("event heap corrupted: time went backwards")
            self.now = time
            self._events_processed += 1
            callback(*args)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once simulation time would exceed this value.  The clock is
            advanced to ``until`` when the horizon is reached.
        max_events:
            Safety valve for runaway simulations.
        stop_when:
            Predicate evaluated after every event; the loop exits once it
            returns True.
        """
        processed = 0
        self._stopped = False
        heap = self._heap
        alive = self._alive
        pop = heapq.heappop
        # The horizon/budget checks are folded into constants hoisted out
        # of the loop (``deadline`` is +inf for an unbounded run), so one
        # float compare replaces two None tests per event.
        deadline = math.inf if until is None else until
        budget = -1 if max_events is None else max_events
        # The loop below is the hottest code in the repository; it inlines
        # step() so per-event cost is one pop, one set probe, and the
        # callback itself.
        while heap and not self._stopped:
            if heap[0][0] > deadline or processed == budget:
                break
            time, seq, callback, args = pop(heap)
            if seq not in alive:
                continue  # cancelled tombstone
            alive.remove(seq)
            if time < self.now:
                raise SimulationError("event heap corrupted: time went backwards")
            self.now = time
            self._events_processed += 1
            callback(*args)
            processed += 1
            if stop_when is not None and stop_when():
                break
        if until is not None and self.now < until and not self._stopped:
            if not heap or heap[0][0] > deadline:
                self.now = until

    def run_for(self, duration: float, **kwargs: Any) -> None:
        """Run the loop for ``duration`` additional time units."""
        self.run(until=self.now + duration, **kwargs)

    def stop(self) -> None:
        """Request the current :meth:`run` call to exit after this event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Scheduled events that are neither fired nor cancelled.  O(1)."""
        return len(self._alive)

    def fork_rng(self, label: str, site: Optional[str] = None) -> random.Random:
        """Derive an independent, deterministic RNG stream for a component.

        The stream is a pure function of ``(seed, label, k)`` where ``k``
        counts prior forks of the same label: it does not depend on the
        parent stream's position or on what other labels were forked
        before, so adding a component cannot silently reseed every other
        component's randomness.

        ``site`` namespaces the label (``"{site}/{label}"``).  Sharded
        clusters pass each group's site so a group's streams depend only
        on its own forks — without it, fork *counts* for a shared label
        would entangle the groups on their shared simulator.
        """
        if site is not None:
            label = f"{site}/{label}"
        k = self._fork_counts.get(label, 0)
        self._fork_counts[label] = k + 1
        digest = hashlib.sha256(
            f"{self.seed}\x1f{label}\x1f{k}".encode()
        ).digest()
        return random.Random(int.from_bytes(digest, "big"))
