"""The :class:`System` facade: one object wiring the whole stack.

A ``System`` bundles a simulation environment, a machine model, the
simulated kernel and a scheduler, and offers the handful of operations
nearly every experiment starts with::

    sys = System()                       # the paper's 4x4 Opteron host
    proc = sys.create_process("bench")
    t = sys.spawn(proc, core=0, body=my_generator)
    sys.run()                            # drive to completion
    print(sys.env.now)                   # simulated microseconds
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from .hardware.topology import Machine
from .kernel.core import Kernel, SimProcess
from .kernel.mempolicy import MemPolicy
from .obs.context import current_observation
from .sched.scheduler import Placement, Scheduler
from .sched.thread import SimThread
from .sim.engine import Environment, Process

__all__ = ["System"]


class System:
    """A complete simulated NUMA host running the simulated kernel."""

    def __init__(
        self,
        machine: Optional[Machine] = None,
        *,
        track_contents: bool = False,
    ) -> None:
        self.machine = machine or Machine.opteron_8347he_quad()
        self.env = Environment()
        self.kernel = Kernel(self.env, self.machine, track_contents=track_contents)
        self.scheduler = Scheduler(self.machine)
        # Inside an obs.observe() block every system is born traced —
        # that is how `repro-experiments ... --trace/--json` observes
        # experiments that build their systems internally.
        observation = current_observation()
        if observation is not None:
            observation.register(self)

    # ------------------------------------------------------------ processes --
    def create_process(self, name: str = "", policy: Optional[MemPolicy] = None) -> SimProcess:
        """A new process with an empty address space."""
        return self.kernel.create_process(name, policy)

    def spawn(
        self,
        process: SimProcess,
        core: int,
        body: Callable[[SimThread], Generator],
        name: str = "",
    ) -> SimThread:
        """Create a thread bound to ``core`` and start ``body`` on it."""
        thread = SimThread(process, core, name)
        thread.start(body)
        return thread

    def spawn_team(
        self,
        process: SimProcess,
        count: int,
        body: Callable[[int, SimThread], Generator],
        placement: Placement = Placement.SPREAD,
        *,
        node: Optional[int] = None,
    ) -> list[SimThread]:
        """Spawn ``count`` threads placed by the scheduler.

        ``body(rank, thread)`` is started for each rank.
        """
        cores = self.scheduler.place(count, placement, node=node)
        self.scheduler.record(cores)
        threads = []
        for rank, core in enumerate(cores):
            thread = SimThread(process, core, f"{process.name}.w{rank}")
            thread.start(lambda t, r=rank: body(r, t))
            threads.append(thread)
        return threads

    # ------------------------------------------------------------ execution --
    def run(self, until=None):
        """Drive the simulation (see :meth:`Environment.run`)."""
        return self.env.run(until)

    def run_to(self, event: Process):
        """Run until an event/thread completes and return its value."""
        return self.env.run(until=event)

    def join_all(self, threads: list[SimThread]) -> None:
        """Run until every listed thread has finished."""
        for t in threads:
            self.env.run(until=t.join())

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self.env.now
