"""A libnuma-style convenience API over the simulated syscalls.

Mirrors the user-space interface applications actually program against
(Kleen's ``libnuma`` [6] in the paper): policy-tagged allocation,
node-of-page queries, thread-to-node binding, and a ``numa_maps``-style
report. Allocation functions follow libnuma's real behaviour — they
``mmap`` + ``mbind`` but do *not* touch, so physical placement still
happens at first touch under the requested policy.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..kernel.core import SimProcess
from ..kernel.mempolicy import MemPolicy
from ..kernel.vma import PROT_RW
from ..sched.scheduler import Scheduler
from ..sched.thread import SimThread

__all__ = [
    "numa_alloc_onnode",
    "numa_alloc_local",
    "numa_alloc_interleaved",
    "numa_free",
    "numa_node_of_page",
    "numa_run_on_node",
    "numa_num_configured_nodes",
    "numa_distance",
    "numa_maps",
]


def numa_alloc_onnode(thread: SimThread, nbytes: int, node: int, name: str = ""):
    """Allocate memory bound to ``node`` (BIND policy); returns address."""
    thread.kernel.machine.validate_node(node)
    addr = yield from thread.mmap(
        nbytes, PROT_RW, policy=MemPolicy.bind(node), name=name or f"onnode{node}"
    )
    return addr


def numa_alloc_local(thread: SimThread, nbytes: int, name: str = ""):
    """Allocate memory preferring the calling thread's node."""
    addr = yield from thread.mmap(
        nbytes, PROT_RW, policy=MemPolicy.preferred(thread.node), name=name or "local"
    )
    return addr


def numa_alloc_interleaved(
    thread: SimThread, nbytes: int, nodes: Optional[Sequence[int]] = None, name: str = ""
):
    """Allocate memory interleaved across ``nodes`` (default: all)."""
    machine = thread.kernel.machine
    node_set = tuple(nodes) if nodes is not None else tuple(range(machine.num_nodes))
    for n in node_set:
        machine.validate_node(n)
    addr = yield from thread.mmap(
        nbytes, PROT_RW, policy=MemPolicy.interleave(*node_set), name=name or "interleaved"
    )
    return addr


def numa_free(thread: SimThread, addr: int, nbytes: int):
    """Release memory obtained from a ``numa_alloc_*`` call."""
    freed = yield from thread.munmap(addr, nbytes)
    return freed


def numa_node_of_page(thread: SimThread, addr: int):
    """Node currently holding the page at ``addr`` (-1 if untouched)."""
    node = yield from thread.get_mempolicy(addr)
    return node


def numa_run_on_node(thread: SimThread, node: int, scheduler: Optional[Scheduler] = None):
    """Move the calling thread onto a core of ``node``.

    With a scheduler, picks its least-loaded core; otherwise the node's
    first core.
    """
    thread.kernel.machine.validate_node(node)
    if scheduler is not None:
        core = scheduler.least_loaded_core(node)
        scheduler.record([core])
    else:
        core = thread.kernel.machine.cores_of_node(node)[0]
    yield from thread.migrate_to(core)
    return core


def numa_num_configured_nodes(thread: SimThread) -> int:
    """Number of NUMA nodes on the machine."""
    return thread.kernel.machine.num_nodes


def numa_distance(thread: SimThread, a: int, b: int) -> int:
    """SLIT distance between two nodes (10 = local)."""
    machine = thread.kernel.machine
    machine.validate_node(a)
    machine.validate_node(b)
    return machine.distance_matrix()[a][b]


def numa_maps(process: SimProcess) -> str:
    """A ``/proc/<pid>/numa_maps``-style report of the address space.

    Annotates, like the real file: per-node residency, mapping kind
    (anon / file / shared), huge-page backing, and swapped pages.
    """
    import numpy as np

    lines = []
    num_nodes = process.kernel.machine.num_nodes
    for vma in process.addr_space.vmas:
        policy = vma.policy or process.default_policy
        pol = policy.kind.value
        if policy.nodes:
            pol += ":" + ",".join(map(str, policy.nodes))
        hist = vma.pt.node_histogram(num_nodes)
        nodes = " ".join(f"N{n}={c}" for n, c in enumerate(hist) if c)
        parts = [f"{vma.start:012x}", pol]
        if vma.anonymous:
            parts.append(f"anon={vma.pt.resident_pages()}")
        else:
            parts.append(f"file={vma.file.name}")
            parts.append(f"mapped={vma.pt.resident_pages()}")
        if vma.shared:
            parts.append("shared")
        if vma.huge:
            parts.append("huge")
        swapped = int(np.count_nonzero(vma.pt.swap >= 0))
        if swapped:
            parts.append(f"swapcache={swapped}")
        if nodes:
            parts.append(nodes)
        parts.append(f"({vma.name or 'anonymous'})")
        lines.append(" ".join(parts))
    return "\n".join(lines)
