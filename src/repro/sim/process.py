"""Process abstraction.

A :class:`Process` is an event-driven participant in a runtime.  It
receives messages (``on_message``), runs timers, and executes cooperative
protocol :mod:`tasks <repro.sim.tasks>`.  Processes can crash (losing all
volatile state and in-flight tasks) and optionally recover; a small
``stable`` dict models stable storage that survives crashes.

All protocol-visible time is *local* time read from the process clock; the
base class converts to and from the runtime's real time when scheduling.

A process is built from ``(pid, runtime)``: the runtime is the substrate
(:class:`~repro.net.runtime.Runtime`) — the simulator's
:class:`~repro.sim.network.Network`, or another substrate such as
:class:`~repro.net.asyncio_rt.AsyncioRuntime` hosting the identical
protocol code.  Either way the contract is single-threaded: the runtime
invokes ``deliver`` and timer callbacks sequentially (the simulator by
construction, asyncio on its loop thread), so subclasses never need
locks.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from ..net.runtime import Runtime, TimerHandle
from .tasks import Future, Sleep, Task, Until

__all__ = ["Process"]

# How many scheduler passes a single event may trigger before we assume the
# task set is livelocked (a predicate flipping another predicate forever).
_MAX_WAKE_ROUNDS = 1000


class Process:
    """Base class for all protocol processes, on any runtime."""

    def __init__(self, pid: int, runtime: Runtime) -> None:
        self.pid = pid
        self.runtime = runtime
        # Deployment-site label ("g0", "g1", ... in a sharded cluster).
        # Pids are only unique within one network, so multi-group runs
        # sharing a simulator and an ObsContext use the site to keep
        # per-group telemetry apart; None in single-group runs.
        self.site = runtime.site
        self.crashed = False
        # The run's ObsContext (repro.obs), cached from the runtime at
        # construction; None in unobserved runs.  Every instrumentation
        # site is guarded by ``if self.obs is not None`` — the disabled
        # cost is one load + comparison, and no obs code is ever entered.
        self.obs = runtime.obs
        self.stable: dict[str, Any] = {}
        self.rng = runtime.fork_rng(f"process-{pid}")
        self._clock = runtime.local_clock(pid)
        # Hot runtime methods, bound once.
        self._send = runtime.send
        self._broadcast = runtime.broadcast
        self._schedule_at = runtime.schedule_at
        self._tasks: list[Task] = []
        self._timers: list[TimerHandle] = []
        self._in_scheduler = False
        self._needs_prune = False
        runtime.register(self)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The runtime's real time (simulated or wall-clock ms).

        For stats/observability timestamps only — protocol decisions
        must use :attr:`local_time`, which models clock skew.
        """
        return self.runtime.now

    @property
    def local_time(self) -> float:
        """The process's local clock reading."""
        return self._clock.local(self.runtime.now)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dst: int, msg: Any) -> None:
        if not self.crashed:
            self._send(self.pid, dst, msg)

    def broadcast(self, msg: Any) -> None:
        if not self.crashed:
            self._broadcast(self.pid, msg)

    def deliver(self, src: int, msg: Any) -> None:
        """Called by the runtime; dispatches to ``on_message``."""
        if self.crashed:
            return
        self.on_message(src, msg)
        self._run_scheduler()

    def on_message(self, src: int, msg: Any) -> None:  # pragma: no cover
        """Handle one received message.  Subclasses override."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Timers (local-time based)
    # ------------------------------------------------------------------
    def set_timer(self, local_delay: float, callback: Callable[..., None],
                  *args: Any) -> TimerHandle:
        """Run ``callback(*args)`` after ``local_delay`` units of *local*
        time."""
        now = self.runtime.now
        clock = self._clock
        fire_real = max(clock.real(clock.local(now) + local_delay), now)
        event = self._schedule_at(fire_real, self._fire_timer, callback, args)
        self._timers.append(event)
        if len(self._timers) > 256:
            self._timers = [
                t for t in self._timers
                if not t.cancelled and t.time >= now
            ]
        return event

    def _fire_timer(self, callback: Callable[..., None], args: tuple) -> None:
        if self.crashed:
            return
        callback(*args)
        self._run_scheduler()

    def every(self, local_period: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` every ``local_period`` local-time units, starting
        one period from now, until the process crashes."""

        def tick() -> None:
            callback()
            if not self.crashed:
                self.set_timer(local_period, tick)

        self.set_timer(local_period, tick)

    # ------------------------------------------------------------------
    # Tasks
    # ------------------------------------------------------------------
    def spawn(self, gen: Generator[Any, Any, Any], name: str = "") -> Task:
        """Start a protocol task from a generator."""
        task = Task(gen, name=name)
        self._tasks.append(task)
        self._step_task(task, None)
        if not self._in_scheduler:
            self._run_scheduler()
        return task

    def _step_task(self, task: Task, send_value: Any) -> None:
        """Advance a task until it blocks or finishes."""
        while not task.finished and not task.cancelled:
            try:
                yielded = task.gen.send(send_value)
            except StopIteration as stop:
                task.finished = True
                task.result = stop.value
                self._needs_prune = True
                return
            send_value = None
            if isinstance(yielded, Sleep):
                self._arm_sleep(task, yielded.duration)
                return
            if isinstance(yielded, Until):
                if yielded.predicate():
                    send_value = None
                    continue
                task.waiting_on = yielded
                return
            if isinstance(yielded, Future):
                if yielded.done:
                    send_value = yielded.value
                    continue
                self._arm_future(task, yielded)
                return
            raise TypeError(
                f"task {task.name!r} yielded unsupported value {yielded!r}"
            )

    def _arm_sleep(self, task: Task, duration: float) -> None:
        self.set_timer(duration, self._wake_from_sleep, task)

    def _wake_from_sleep(self, task: Task) -> None:
        if not task.cancelled:
            self._step_task(task, None)

    def _arm_future(self, task: Task, future: Future) -> None:
        def wake(value: Any) -> None:
            if not task.cancelled and not self.crashed:
                self._step_task(task, value)
                self._run_scheduler()

        future.on_resolve(wake)

    def _run_scheduler(self) -> None:
        """Re-evaluate blocked predicates until the task set is quiescent.

        One task advancing may satisfy the predicate another task waits on,
        so we loop until a full pass makes no progress.
        """
        if self._in_scheduler:
            return
        self._in_scheduler = True
        tasks = self._tasks
        try:
            for _ in range(_MAX_WAKE_ROUNDS):
                progressed = False
                # Index iteration instead of copying: tasks spawned while a
                # pass runs are appended and picked up within the same pass.
                i = 0
                while i < len(tasks):
                    task = tasks[i]
                    i += 1
                    if task.finished or task.cancelled:
                        self._needs_prune = True
                        continue
                    wait = task.waiting_on
                    if wait is not None and wait.predicate():
                        task.waiting_on = None
                        self._step_task(task, None)
                        progressed = True
                if not progressed:
                    break
            else:
                raise RuntimeError(
                    f"process {self.pid}: task scheduler failed to quiesce"
                )
            if self._needs_prune:
                self._needs_prune = False
                self._tasks = [
                    t for t in tasks if not t.finished and not t.cancelled
                ]
        finally:
            self._in_scheduler = False

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash the process: cancel tasks and timers, drop volatile state."""
        if self.crashed:
            return
        self.crashed = True
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        for task in self._tasks:
            task.cancel()
        self._tasks.clear()
        self.on_crash()

    def recover(self) -> None:
        """Restart after a crash.  ``stable`` storage is preserved."""
        if not self.crashed:
            return
        self.crashed = False
        self.on_recover()
        self._run_scheduler()

    def on_crash(self) -> None:
        """Subclass hook: clear protocol volatile state."""

    def on_recover(self) -> None:
        """Subclass hook: re-initialize from stable storage."""

    def __repr__(self) -> str:
        status = "crashed" if self.crashed else "up"
        return f"<{type(self).__name__} pid={self.pid} {status}>"
