"""Figures 1 & 2: the next-touch control flows, traced from execution.

The paper's Figures 1 and 2 are sequence diagrams of the user-space
and kernel next-touch implementations. Here we *execute* a one-page
next-touch under a tracer and render the actual sequence of charged
operations — if the implementation deviated from the paper's diagrams,
the printed flow (and the order assertions in
``tests/test_flows_and_generality.py``) would show it.
"""

from __future__ import annotations

from ..kernel.mempolicy import MemPolicy
from ..kernel.syscalls import Madvise
from ..kernel.vma import PROT_RW
from ..nexttouch.user import UserNextTouch
from ..sim.trace import Tracer
from ..util.units import PAGE_SIZE
from .common import fresh_system, run_thread

__all__ = ["trace_user_flow", "trace_kernel_flow", "render_flow", "run"]

#: tag -> the paper's step label, Figure 1 (user space).
USER_STEPS = {
    "mprotect.mark": "mprotect() marks next-touch (change PTE protection)",
    "fault.entry": "touch -> page-fault (check VMA protection)",
    "signal.delivery": "raise SIGSEGV -> user handler",
    "move_pages.base": "handler calls move_pages() (enter kernel)",
    "move_pages.control": "move_pages(): unmap / remap / status",
    "move_pages.copy": "move_pages(): copy page",
    "mprotect.restore": "handler mprotect() restores protection",
    "access": "touch retry succeeds",
}

#: tag -> the paper's step label, Figure 2 (kernel).
KERNEL_STEPS = {
    "madvise": "madvise() sets next-touch flag (change PTE protection)",
    "fault.entry": "touch -> page-fault (check next-touch flag)",
    "nt.control": "page-fault handler: migrate page (control)",
    "nt.alloc": "allocate new page on local node",
    "nt.copy": "copy page",
    "nt.free": "free old page",
    "access": "touch retry succeeds",
}


def _traced_run(body_factory) -> Tracer:
    system = fresh_system()
    tracer = Tracer()
    tracer.attach(system.kernel)
    proc = system.create_process("flow")
    shared = {}

    def owner(t):
        addr = yield from t.mmap(PAGE_SIZE, PROT_RW, policy=MemPolicy.bind(0), name="page")
        yield from t.touch(addr, PAGE_SIZE)
        shared["addr"] = addr
        shared["proc"] = proc

    run_thread(system, owner, core=0, process=proc)
    toucher = body_factory(system, shared)
    # Only the marked->touched flow should appear in the rendering.
    tracer.clear()
    run_thread(system, toucher, core=4, process=proc)  # node 1
    return tracer


def trace_user_flow() -> Tracer:
    """Execute a one-page user-space next-touch; returns the trace."""

    def factory(system, shared):
        unt = UserNextTouch(shared["proc"])
        unt.register(shared["addr"], PAGE_SIZE)

        def body(t):
            yield from unt.mark(t)
            yield from t.touch(shared["addr"], PAGE_SIZE, bytes_per_page=64)

        return body

    return _traced_run(factory)


def trace_kernel_flow() -> Tracer:
    """Execute a one-page kernel next-touch; returns the trace."""

    def factory(system, shared):
        def body(t):
            yield from t.madvise(shared["addr"], PAGE_SIZE, Madvise.NEXTTOUCH)
            yield from t.touch(shared["addr"], PAGE_SIZE, bytes_per_page=64)

        return body

    return _traced_run(factory)


def flow_steps(tracer: Tracer, steps: dict[str, str]) -> list[str]:
    """Map the trace onto the paper's step labels, in time order,
    collapsing repeats."""
    out: list[str] = []
    for sample in tracer.samples:
        label = None
        for prefix, text in steps.items():
            if sample.tag.startswith(prefix):
                label = text
                break
        if label and (not out or out[-1] != label):
            out.append(label)
    return out


def render_flow(title: str, steps: list[str]) -> str:
    """A numbered sequence rendering."""
    lines = [title]
    lines += [f"  {i + 1}. {step}" for i, step in enumerate(steps)]
    return "\n".join(lines)


def run() -> str:
    """Render both flows, as executed."""
    user = flow_steps(trace_user_flow(), USER_STEPS)
    kernel = flow_steps(trace_kernel_flow(), KERNEL_STEPS)
    return "\n\n".join(
        [
            render_flow("Figure 1 (user-space next-touch), as executed:", user),
            render_flow("Figure 2 (kernel next-touch), as executed:", kernel),
        ]
    )
