"""cpusets: administrative partitioning of cores and memory nodes.

Section 2.3 explains what ``migrate_pages`` is *for*: "This is mostly
a load-balancing feature that administrators use to split a large
single machine into pieces (cpusets) and share it between multiple
users." This module provides that machinery:

* a :class:`CpuSet` confines its processes to a core list and a memory
  node list — thread placement outside the set is rejected, and page
  allocation falls only on the set's nodes;
* :meth:`CpusetManager.move` re-homes a whole process: threads are
  migrated onto the destination set's cores and every page follows via
  ``migrate_pages`` — exactly the "migration of entire processes to a
  different part of the machine" use case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import ConfigurationError, SimulationError
from ..kernel.core import SimProcess
from ..sched.thread import SimThread
from ..system import System

__all__ = ["CpuSet", "CpusetManager"]


@dataclass
class CpuSet:
    """One named partition of the machine."""

    name: str
    cores: tuple[int, ...]
    mems: tuple[int, ...]
    processes: list[SimProcess] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.cores or not self.mems:
            raise ConfigurationError("a cpuset needs at least one core and one node")
        if len(set(self.cores)) != len(self.cores) or len(set(self.mems)) != len(self.mems):
            raise ConfigurationError("duplicate cores/mems in cpuset")


class CpusetManager:
    """Creation, attachment and migration of cpusets on one system."""

    def __init__(self, system: System) -> None:
        self.system = system
        self._sets: dict[str, CpuSet] = {}

    # ------------------------------------------------------------ lifecycle --
    def create(self, name: str, cores, mems) -> CpuSet:
        """Define a cpuset; cores/mems must exist and not be reused."""
        if name in self._sets:
            raise ConfigurationError(f"cpuset {name!r} already exists")
        machine = self.system.machine
        cores = tuple(cores)
        mems = tuple(mems)
        for core in cores:
            if not (0 <= core < machine.num_cores):
                raise ConfigurationError(f"core {core} out of range")
        for mem in mems:
            machine.validate_node(mem)
        taken_cores = {c for s in self._sets.values() for c in s.cores}
        if taken_cores & set(cores):
            raise ConfigurationError("cores already assigned to another cpuset")
        cpuset = CpuSet(name, cores, mems)
        self._sets[name] = cpuset
        return cpuset

    def get(self, name: str) -> CpuSet:
        """Look a cpuset up by name."""
        if name not in self._sets:
            raise ConfigurationError(f"no cpuset {name!r}")
        return self._sets[name]

    def attach(self, process: SimProcess, cpuset: CpuSet) -> None:
        """Confine a process to a cpuset (affects future placement and
        allocation; existing pages are not moved — use :meth:`move`)."""
        if process.cpuset is not None:
            process.cpuset.processes.remove(process)
        cpuset.processes.append(process)
        process.cpuset = cpuset
        process.allowed_mems = cpuset.mems
        process.allowed_cores = cpuset.cores

    def cpuset_of(self, process: SimProcess) -> Optional[CpuSet]:
        """The process's cpuset, if any."""
        return process.cpuset

    # ------------------------------------------------------------ migration --
    def move(self, admin_thread: SimThread, process: SimProcess, dest: CpuSet):
        """Re-home ``process`` into ``dest``: threads onto its cores,
        memory onto its nodes (via ``migrate_pages``).

        Drive from an administrative thread (it pays the syscall time,
        as a real cpuset controller writing to ``cpuset.mems`` would).
        Returns the number of pages migrated.
        """
        src = self.cpuset_of(process)
        if src is None:
            raise ConfigurationError("process is not in a cpuset")
        if dest is src:
            return 0
        before = self.system.kernel.stats.pages_migrated
        # Widen confinement first, then rebind threads round-robin onto
        # the destination cores.
        self.attach(process, dest)
        for i, thread in enumerate(list(process.threads)):
            if thread._proc is not None and thread._proc.is_alive:
                thread.set_core(dest.cores[i % len(dest.cores)])
        # Move the memory: old mems map pairwise onto new mems.
        from_nodes = list(src.mems)
        to_nodes = [dest.mems[i % len(dest.mems)] for i in range(len(from_nodes))]
        pairs = [(f, t) for f, t in zip(from_nodes, to_nodes) if f != t]
        if pairs:
            yield from admin_thread.migrate_pages(
                [f for f, _ in pairs], [t for _, t in pairs], target=process
            )
        return self.system.kernel.stats.pages_migrated - before
