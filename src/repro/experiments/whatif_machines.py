"""Beyond the paper: the same mechanisms on other machine shapes.

The paper closes by noting they are "now running similar experiments
on larger NUMA machines where data locality is more critical". This
experiment does that on the simulator: the Figure 5 kernel next-touch
microbenchmark and a locality-sensitivity probe across machine shapes
— a 2-socket box, the paper's 4-socket square, and an 8-socket
fully-connected machine — plus a NUMA-factor sweep showing how the
payoff of migration scales with remoteness.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..hardware.timing import CostModel, modern_dual_socket, opteron_8347he
from ..hardware.topology import Machine
from ..kernel.mempolicy import MemPolicy
from ..kernel.syscalls import Madvise
from ..kernel.vma import PROT_RW
from ..system import System
from ..util.units import PAGE_SIZE, mb_per_s
from .common import ExperimentResult, run_thread

__all__ = ["run_machines", "run_numa_factors", "run_eras", "MACHINES"]

#: name -> machine factory
MACHINES = {
    "2 nodes x 8 cores": lambda cost: Machine.symmetric(2, 8, cost=cost),
    "4 nodes x 4 cores (paper)": lambda cost: Machine.opteron_8347he_quad(cost),
    "8 nodes x 4 cores": lambda cost: Machine.symmetric(8, 4, cost=cost),
}


def _nt_throughput(machine: Machine, npages: int) -> float:
    """Kernel next-touch throughput node 0 -> last node (MB/s)."""
    system = System(machine)
    proc = system.create_process("whatif")
    nbytes = npages * PAGE_SIZE
    last_core = machine.cores_of_node(machine.num_nodes - 1)[0]
    shared = {}

    def owner(t):
        addr = yield from t.mmap(nbytes, PROT_RW, policy=MemPolicy.bind(0))
        yield from t.touch(addr, nbytes)
        shared["addr"] = addr

    run_thread(system, owner, core=0, process=proc)

    def toucher(t):
        t0 = system.now
        yield from t.madvise(shared["addr"], nbytes, Madvise.NEXTTOUCH)
        yield from t.touch(shared["addr"], nbytes, bytes_per_page=64)
        return system.now - t0

    elapsed = run_thread(system, toucher, core=last_core, process=proc)
    return mb_per_s(nbytes, elapsed)


def run_machines(page_counts: Optional[Sequence[int]] = None) -> ExperimentResult:
    """Kernel next-touch throughput across machine shapes."""
    counts = list(page_counts) if page_counts else [16, 256, 4096]
    cost = opteron_8347he()
    result = ExperimentResult(
        experiment_id="whatif-machines",
        title="Beyond the paper: kernel next-touch throughput by machine shape (MB/s)",
        x_label="pages",
        xs=counts,
        series={name: [] for name in MACHINES},
    )
    for n in counts:
        for name, factory in MACHINES.items():
            result.series[name].append(_nt_throughput(factory(cost), n))
    result.notes.append(
        "the mechanism's throughput is shape-independent (it is bound by "
        "per-page costs, not distance) — what changes with shape is how "
        "much locality is at stake (see the NUMA-factor sweep)"
    )
    return result


def _era_metrics(cost: CostModel, machine: Machine, npages: int) -> dict[str, float]:
    nbytes = npages * PAGE_SIZE
    nt_tput = _nt_throughput(machine, npages)
    remote_us = PAGE_SIZE * cost.numa_factor_1hop / cost.local_stream_bw
    local_us = PAGE_SIZE / cost.local_stream_bw
    nt_page_us = (
        cost.fault_entry_us
        + cost.nt_fault_control_us
        + cost.nt_pcp_alloc_us
        + cost.nt_pcp_free_us
        + PAGE_SIZE / cost.kernel_page_copy_bw
    )
    return {
        "kernel NT MB/s": round(nt_tput, 0),
        "move_pages base us": cost.move_pages_base_us,
        "passes to amortize": round(nt_page_us / (remote_us - local_us), 1),
    }


def run_eras(npages: int = 1024) -> ExperimentResult:
    """2009 vs today: is next-touch still worth it?

    Two opposing trends since the paper: the machinery got ~15x faster
    (migration throughput, base overheads), but the NUMA factor
    shrank, so each migrated page saves less per access. The
    passes-to-amortize metric nets them out.
    """
    eras = {
        "2009 4x Opteron (paper)": (opteron_8347he(), Machine.opteron_8347he_quad),
        "modern 2-socket": (
            modern_dual_socket(),
            lambda cost: Machine.symmetric(2, 32, cost=cost),
        ),
    }
    metric_names = ["kernel NT MB/s", "move_pages base us", "passes to amortize"]
    result = ExperimentResult(
        experiment_id="whatif-eras",
        title="Beyond the paper: the next-touch trade-off, 2009 vs today",
        x_label="metric",
        xs=metric_names,
        series={name: [] for name in eras},
    )
    for name, (cost, factory) in eras.items():
        metrics = _era_metrics(cost, factory(cost), npages)
        for metric in metric_names:
            result.series[name].append(metrics[metric])
    result.notes.append(
        "the mechanism got ~6x faster, but the NUMA factor shrank more: "
        "a migrated page needs ~2.5x more re-use to pay off today — "
        "consistent with how the idea survived in mainline Linux as an "
        "automated, rate-limited background policy (NUMA balancing) "
        "rather than an always-on eager one"
    )
    return result


def run_numa_factors(factors: Optional[Sequence[float]] = None) -> ExperimentResult:
    """How the payoff of migrating a hot buffer scales with the NUMA
    factor — the 'larger machines where data locality is more
    critical' question, quantified."""
    factors = list(factors) if factors else [1.2, 1.6, 2.0, 3.0]
    result = ExperimentResult(
        experiment_id="whatif-factors",
        title="Beyond the paper: migration payoff vs NUMA factor",
        x_label="NUMA factor",
        xs=factors,
        series={"remote access/page (us)": [], "passes to amortize migration": []},
    )
    base = opteron_8347he()
    for factor in factors:
        cost = base.replace(numa_factor_1hop=factor, numa_factor_2hop=factor)
        remote_us = PAGE_SIZE * factor / cost.local_stream_bw
        local_us = PAGE_SIZE / cost.local_stream_bw
        nt_page_us = (
            cost.fault_entry_us
            + cost.nt_fault_control_us
            + cost.nt_pcp_alloc_us
            + cost.nt_pcp_free_us
            + PAGE_SIZE / cost.kernel_page_copy_bw
        )
        result.series["remote access/page (us)"].append(round(remote_us, 3))
        result.series["passes to amortize migration"].append(
            round(nt_page_us / (remote_us - local_us), 1)
        )
    result.notes.append(
        "at the paper's factor 1.2 a migrated page must be re-streamed "
        "~16x to pay off; at factor 3 (large ccNUMA) ~2x — why the "
        "authors expected next-touch to matter even more on big machines"
    )
    return result
