"""Calibrated cost model for the simulated machine.

Every simulated operation charges time derived from one
:class:`CostModel` instance, so the whole reproduction is calibrated in
a single place. The default profile, :func:`opteron_8347he`, matches
the paper's experimentation platform (Section 4.1): four quad-core
1.9 GHz Opteron 8347HE sockets, one NUMA node per socket, 2 MB shared
L3, HyperTransport interconnect, Linux 2.6.27.

Calibration targets taken from the paper's text and plots:

=====================================  =============================
quantity                               target
=====================================  =============================
memcpy node0->node1                    ~1.8 GB/s asymptote
``move_pages`` (patched)               ~160 us base, ~600 MB/s
kernel page copy rate                  ~1 GB/s (no MMX/SSE in-kernel)
``move_pages`` control share           ~38 % of per-page cost
``migrate_pages``                      ~400 us base, ~780 MB/s
kernel next-touch                      ~800 MB/s, control ~20 %
NUMA factor                            1.2 (1 hop) - 1.4 (2 hops)
4-thread sync migration                +50-60 % vs 1 thread
4-thread lazy migration                up to ~1.3 GB/s
=====================================  =============================

Rates are expressed in **bytes/µs** (1 bytes/µs == 1 MB/s decimal) and
durations in **µs**, matching the engine clock.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


__all__ = ["CostModel", "opteron_8347he", "modern_dual_socket", "fast_uniform"]


@dataclass(frozen=True)
class CostModel:
    """All timing constants for one machine profile.

    The class is frozen: experiments that want to ablate a constant use
    :meth:`replace` to derive a variant, keeping profiles immutable.
    """

    # ------------------------------------------------------------------ CPU
    #: Core clock in GHz (1.9 GHz Opteron 8347HE).
    core_freq_ghz: float = 1.9
    #: Sustained double-precision flops per cycle per core (SSE2 mul+add).
    flops_per_cycle: float = 2.0

    # --------------------------------------------------------- memory system
    #: Local streaming bandwidth seen by one core (bytes/us).
    local_stream_bw: float = 2500.0
    #: User-space memcpy bandwidth between adjacent NUMA nodes (bytes/us).
    memcpy_remote_bw: float = 1800.0
    #: Fixed per-call overhead of a user-space memcpy benchmark loop (us).
    memcpy_call_overhead_us: float = 2.0
    #: Raw HyperTransport link capacity per direction (bytes/us).
    link_bw: float = 4000.0
    #: Per-node memory-controller capacity (bytes/us).
    memory_controller_bw: float = 6400.0
    #: Latency of one local DRAM access (75 ns, in us) — the BLAS
    #: model's per-cache-miss cost before NUMA/congestion factors.
    local_access_latency_us: float = 0.075
    #: NUMA factor for a 1-hop remote access (paper: 1.2).
    numa_factor_1hop: float = 1.2
    #: NUMA factor for a 2-hop remote access (paper: up to 1.4).
    numa_factor_2hop: float = 1.4

    # ------------------------------------------------ kernel page migration
    #: In-kernel page copy rate — no MMX/SSE, ~1 GB/s (bytes/us).
    kernel_page_copy_bw: float = 1000.0
    #: Effective per-node-pair migration pipeline capacity (bytes/us).
    #: Page-table locking and per-page faulting keep aggregate threaded
    #: migration well below raw link bandwidth (paper: ~1.3 GB/s peak).
    migration_channel_bw: float = 1350.0

    # ------------------------------------------------------------ move_pages
    #: Base overhead of one move_pages call (us) — syscall entry, arg
    #: copyin, migrate_prep. Paper: "near 160 us".
    move_pages_base_us: float = 160.0
    #: Portion of the base spent in migrate_prep's lru_add_drain_all,
    #: which serializes concurrent callers (us).
    migrate_prep_us: float = 110.0
    #: Per-page control cost: rmap walk, PTE unmap/remap, status
    #: bookkeeping (us). Together with the LRU work and per-page TLB
    #: flush this gives the paper's ~38 % control share and ~600 MB/s
    #: asymptote next to the 4.1 us page copy.
    move_pages_page_control_us: float = 1.7
    #: Historic pre-2.6.29 bug: per destination-array entry scanned when
    #: resolving each page's target node (us per entry) — O(n) per page.
    unpatched_scan_us_per_entry: float = 0.02
    #: Pages migrated per batch (Linux pagevec-style chunking).
    migrate_pagevec: int = 16

    # --------------------------------------------------------- migrate_pages
    #: Base overhead of migrate_pages: whole-VA-space walk setup (us).
    migrate_pages_base_us: float = 400.0
    #: Per-page control cost for the sequential full-process walk (us);
    #: better locality and batched locking than move_pages (~780 MB/s).
    migrate_pages_page_control_us: float = 0.2

    # ---------------------------------------------------------- fault paths
    #: Hardware fault + kernel entry/exit (us).
    fault_entry_us: float = 0.5
    #: SIGSEGV delivery to a user handler and sigreturn (us).
    signal_delivery_us: float = 2.8
    #: Kernel next-touch fault: flag check, PTE unmap/remap (us).
    #: Together with fault entry and pcp alloc/free this makes control
    #: ~20 % of the per-page cost and the throughput ~800 MB/s even for
    #: small buffers (paper, Fig. 5/6b).
    nt_fault_control_us: float = 0.25
    #: Per-cpu-pageset page allocation in the NT fault path (us) — the
    #: order-0 fast path does not take the zone lru_lock.
    nt_pcp_alloc_us: float = 0.15
    #: Per-cpu-pageset free of the migrated-away page (us).
    nt_pcp_free_us: float = 0.15
    #: Demand-zero (first-touch) fault service beyond fault_entry (us).
    anon_fault_us: float = 0.6

    # -------------------------------------------------------------- syscalls
    #: mprotect fixed cost (us).
    mprotect_base_us: float = 1.0
    #: mprotect per-page PTE update (us).
    mprotect_page_us: float = 0.04
    #: madvise fixed cost (us).
    madvise_base_us: float = 1.2
    #: madvise(MADV_NEXTTOUCH) per-page PTE flagging (us).
    madvise_page_us: float = 0.08
    #: mbind/set_mempolicy fixed cost (us).
    mempolicy_base_us: float = 0.8
    #: mmap/munmap fixed cost (us).
    mmap_base_us: float = 2.0
    #: Generic syscall entry/exit (us) for cheap calls.
    syscall_base_us: float = 0.15

    # ------------------------------------------------------------- scheduling
    #: Cost of migrating a thread to another core (context switch +
    #: cold-cache refill amortization) (us).
    thread_migrate_us: float = 8.0
    #: OpenMP parallel-region fork/join overhead (us).
    omp_fork_us: float = 4.0
    #: OpenMP dynamic-schedule chunk dispatch (shared counter) (us).
    omp_chunk_us: float = 0.15

    # ------------------------------------------------------------------- TLB
    #: Local TLB flush (us).
    tlb_flush_local_us: float = 0.5
    #: TLB shootdown IPI cost per remote CPU (us), paid by the initiator.
    tlb_shootdown_per_cpu_us: float = 0.6

    # ----------------------------------------------------------------- locks
    #: Extra cost of a contended lock handoff (cacheline bounce + wakeup).
    lock_handoff_us: float = 0.9
    #: Hold time of the destination zone's lru_lock per page
    #: (allocation + LRU putback) during synchronous migration (us).
    lru_lock_hold_us: float = 0.6
    #: Fraction of the NT fault copy performed under the page-table
    #: lock. The straightforward implementation (like the COW path it
    #: mimics) keeps the PTL held for the whole copy so the source
    #: cannot change mid-copy — this is what serializes concurrent
    #: faulters within one pmd and keeps sub-megabyte lazy migration
    #: from scaling with threads (Fig. 7). Ablations can lower it.
    nt_copy_locked_fraction: float = 1.0
    #: Pages covered by one page-table (pmd) lock — 512 on x86-64.
    pages_per_pmd: int = 512

    # --------------------------------------------------------------- caches
    #: Shared L3 size per node (bytes) — 2 MB on the 8347HE.
    l3_size: int = 2 * 1024 * 1024
    #: Cache line size (bytes).
    cache_line: int = 64
    #: Fraction of remote-access latency hidden by prefetch for pure
    #: streaming (BLAS1) access patterns. The paper observes BLAS1
    #: never benefits from migration; prefetching hides the NUMA factor.
    stream_prefetch_hiding: float = 0.85

    # ----------------------------------------------------------- huge pages
    #: Huge-page fault service cost (us).
    huge_fault_us: float = 2.5

    # ------------------------------------------------------------ derived --
    def flops_per_us(self) -> float:
        """Peak double-precision flops per µs for one core."""
        return self.core_freq_ghz * 1e3 * self.flops_per_cycle

    def numa_factor(self, hops: int) -> float:
        """Access-cost multiplier for a given hop distance."""
        if hops <= 0:
            return 1.0
        if hops == 1:
            return self.numa_factor_1hop
        return self.numa_factor_2hop

    def replace(self, **changes) -> "CostModel":
        """A copy of this profile with some constants overridden."""
        return dataclasses.replace(self, **changes)


def opteron_8347he() -> CostModel:
    """The paper's platform: 4x quad-core Opteron 8347HE, Linux 2.6.27."""
    return CostModel()


def modern_dual_socket() -> CostModel:
    """A contemporary 2-socket server, for what-if comparisons.

    Everything that made migration expensive in 2009 got faster —
    kernel page copies ride wide vector units (~12 GB/s), DRAM streams
    at ~20 GB/s per core-pair, fault/syscall paths shrank — while the
    NUMA factor *also* shrank (~1.1 on current interconnects). The
    what-if experiment quantifies how those opposing trends move the
    next-touch break-even point.
    """
    return CostModel(
        core_freq_ghz=3.0,
        flops_per_cycle=16.0,
        local_stream_bw=20000.0,
        memcpy_remote_bw=16000.0,
        link_bw=32000.0,
        memory_controller_bw=80000.0,
        local_access_latency_us=0.080,
        numa_factor_1hop=1.1,
        numa_factor_2hop=1.2,
        kernel_page_copy_bw=12000.0,
        migration_channel_bw=16000.0,
        move_pages_base_us=25.0,
        migrate_prep_us=15.0,
        move_pages_page_control_us=0.6,
        migrate_pages_base_us=60.0,
        migrate_pages_page_control_us=0.1,
        fault_entry_us=0.25,
        signal_delivery_us=1.2,
        nt_fault_control_us=0.12,
        nt_pcp_alloc_us=0.05,
        nt_pcp_free_us=0.05,
        anon_fault_us=0.25,
        tlb_flush_local_us=0.2,
        tlb_shootdown_per_cpu_us=0.3,
        lock_handoff_us=0.4,
        lru_lock_hold_us=0.2,
        l3_size=32 * 1024 * 1024,
    )


def fast_uniform() -> CostModel:
    """A deliberately NUMA-flat profile (factor 1.0) for ablations.

    With no remote-access penalty, migration can only cost; experiments
    run against this profile verify that the library's wins really come
    from locality, not from an artifact of the harness.
    """
    return CostModel(numa_factor_1hop=1.0, numa_factor_2hop=1.0)
