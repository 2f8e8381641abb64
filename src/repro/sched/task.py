"""Tasks: the schedulable unit.

A :class:`Task` belongs to a process (or to the kernel) and carries a
queue of :class:`WorkItem` objects.  The default body consumes work
items in FIFO order; each item brings CPU demand plus a page-touch
callback, and a major fault inside an item blocks the task until the
fault's service time has elapsed (the remaining CPU demand resumes
afterwards).

Custom bodies (kswapd, render pipeline) implement :class:`TaskBody`.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from typing import Callable, Deque, Optional

from repro.sched.priorities import NICE_DEFAULT, nice_to_weight

_task_ids = itertools.count(1)


def reset_task_ids(start: int = 1) -> None:
    """Restart the global task-id sequence (see ``reset_page_ids``)."""
    global _task_ids
    _task_ids = itertools.count(start)


class TaskState(enum.Enum):
    SLEEPING = "sleeping"  # no pending work
    RUNNABLE = "runnable"
    BLOCKED = "blocked"  # waiting on I/O (fault service)
    FROZEN = "frozen"
    DEAD = "dead"


class WorkItem:
    """One burst of work: CPU demand plus an optional page-touch hook.

    ``touch`` is invoked once, when the item starts executing; it
    returns the *blocking* fault-service time in ms (0 when all pages
    were resident).  ``on_complete`` fires when the CPU demand has been
    fully consumed.
    """

    __slots__ = ("cpu_ms", "touch", "on_complete", "touched", "label")

    def __init__(
        self,
        cpu_ms: float,
        touch: Optional[Callable[[], float]] = None,
        on_complete: Optional[Callable[[], None]] = None,
        label: str = "",
    ):
        if cpu_ms < 0:
            raise ValueError("work item cpu_ms must be >= 0")
        self.cpu_ms = cpu_ms
        self.touch = touch
        self.on_complete = on_complete
        self.touched = False
        self.label = label


class TaskBody:
    """Strategy interface: what a task does with its CPU quantum."""

    def run(self, task: "Task", now: float, budget_ms: float) -> float:
        """Execute up to ``budget_ms`` of work; return CPU actually used.

        May change ``task.state`` (e.g. block on I/O via
        :meth:`Task.block_until`) and must return promptly with the CPU
        consumed so far.
        """
        raise NotImplementedError

    def has_work(self, task: "Task") -> bool:
        raise NotImplementedError


class QueueBody(TaskBody):
    """Default body: drain the task's work-item queue.

    Callbacks (``touch``, ``on_complete``) can have drastic side
    effects — a fault can OOM, invoke the LMK, and kill *this very
    task's application* (clearing its queue) — so the loop re-validates
    the task and queue after every callback.
    """

    def run(self, task: "Task", now: float, budget_ms: float) -> float:
        used = 0.0
        # ``task.queue`` is mutated in place (popleft/clear) but never
        # rebound, so the alias stays valid across callbacks.
        queue = task.queue
        dead = TaskState.DEAD
        while used < budget_ms and queue:
            item = queue[0]
            if item.touch is not None and not item.touched:
                item.touched = True
                fault_ms = item.touch()
                if task._state is dead:
                    return used
                if not queue or queue[0] is not item:
                    continue  # the callback restructured the queue
                if fault_ms > 0:
                    task.block_until(now + fault_ms)
                    return used
            slice_ms = item.cpu_ms
            if slice_ms > budget_ms - used:
                slice_ms = budget_ms - used
            item.cpu_ms -= slice_ms
            used += slice_ms
            if item.cpu_ms <= 1e-9:
                if queue and queue[0] is item:
                    queue.popleft()
                if item.on_complete is not None:
                    item.on_complete()
                if task._state is dead:
                    return used
        return used

    def has_work(self, task: "Task") -> bool:
        return bool(task.queue)


class Task:
    """A schedulable thread."""

    __slots__ = (
        "tid",
        "name",
        "process",
        "nice",
        "weight",
        "is_kernel",
        "freezable",
        "_state",
        "sched",
        "order_index",
        "app_uid",
        "pick_mark",
        "vruntime",
        "queue",
        "body",
        "blocked_until",
        "cpu_ms_total",
        "boost",
    )

    def __init__(
        self,
        name: str,
        process: Optional[object] = None,
        nice: int = NICE_DEFAULT,
        is_kernel: bool = False,
        body: Optional[TaskBody] = None,
    ):
        self.tid: int = next(_task_ids)
        self.name = name
        self.process = process  # owning Process, or None for kernel threads
        self.nice = nice
        self.weight = nice_to_weight(nice)
        self.is_kernel = is_kernel
        # Kernel threads and (later, via the whitelist) service processes
        # are never freezable (§4.2.1 "Process selection").
        self.freezable = not is_kernel
        self._state = TaskState.SLEEPING
        # Owning scheduler; state changes notify it so the run queue is
        # maintained incrementally instead of re-derived by walking the
        # whole task table every quantum.
        self.sched = None
        # Position in the scheduler's task table (assigned by add_task);
        # the tie-breaker that reproduces the table-order stable sort.
        self.order_index = 0
        # The owning app's uid, cached once (process/app bindings never
        # change after construction) so the scheduler's cpu-pressure
        # accounting avoids a three-hop attribute chain per waiting task.
        self.app_uid = getattr(getattr(process, "app", None), "uid", None)
        # Scratch mark used by the dispatch loop to tag this quantum's
        # picked tasks without building a per-tick set.
        self.pick_mark = 0
        self.vruntime: float = 0.0
        self.queue: Deque[WorkItem] = deque()
        self.body: TaskBody = body or QueueBody()
        self.blocked_until: float = 0.0
        self.cpu_ms_total: float = 0.0
        # Scheduling boost applied by policies (UCSG): multiplies the
        # effective weight during pick and vruntime accrual.
        self.boost: float = 1.0

    # ------------------------------------------------------------------
    @property
    def state(self) -> TaskState:
        return self._state

    @state.setter
    def state(self, value: TaskState) -> None:
        old = self._state
        if value is old:
            return
        self._state = value
        sched = self.sched
        if sched is not None:
            sched._note_state(self, old, value)

    @property
    def pid(self) -> Optional[int]:
        return getattr(self.process, "pid", None)

    @property
    def uid(self) -> Optional[int]:
        return getattr(self.process, "uid", None)

    def effective_weight(self) -> float:
        return self.weight * self.boost

    # ------------------------------------------------------------------
    # Work submission
    # ------------------------------------------------------------------
    def submit(self, item: WorkItem) -> None:
        """Queue a burst of work; wakes the task if it was sleeping."""
        if self._state is TaskState.DEAD:
            return
        self.queue.append(item)
        if self._state is TaskState.SLEEPING:
            self.state = TaskState.RUNNABLE

    def block_until(self, time: float) -> None:
        """Block on I/O until the given simulated time."""
        if self._state is TaskState.DEAD:
            return
        self.blocked_until = time
        self.state = TaskState.BLOCKED

    def unblock(self) -> None:
        if self._state is TaskState.BLOCKED:
            self.state = (
                TaskState.RUNNABLE if self.body.has_work(self) else TaskState.SLEEPING
            )

    def freeze(self) -> None:
        if self._state is not TaskState.DEAD:
            self.state = TaskState.FROZEN

    def thaw(self) -> None:
        if self._state is not TaskState.FROZEN:
            return
        if self.body.has_work(self):
            self.state = TaskState.RUNNABLE
        elif self.blocked_until > 0:
            self.state = TaskState.BLOCKED
        else:
            self.state = TaskState.SLEEPING

    def kill(self) -> None:
        self.state = TaskState.DEAD
        self.queue.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.tid} {self.name!r} {self.state.value}>"
