"""The paper's figure and table shapes, and the ablations behind them.

Each test regenerates one artifact (or flips one cost-model knob) at
the smallest sizes that still show the paper's shape, and asserts it.
``tests/test_experiments.py`` pins the headline MB/s at 256 and 1024
pages bit for bit; ``tests/test_paper_story.py`` asserts the
abstract's claims. The tests here cover what neither does: the large-
buffer ends of Figures 4, 5 and 7, the Figure 6 breakdowns, the
4096-wide Table 1 rows, Figure 8's user-space scheme, and the
ablations showing each curve comes from the modelled mechanism rather
than from tuned constants alone.
"""

from repro import Machine, System, fast_uniform, opteron_8347he
from repro.apps.lu import ThreadedLU
from repro.blas import BlasCostModel, ContentionTracker
from repro.experiments import (
    fig4_throughput,
    fig5_nexttouch,
    fig6_breakdown,
    fig7_scalability,
    fig8_matmul,
    table1_lu,
)
from repro.experiments.common import run_thread
from repro.experiments.fig7_scalability import measure_parallel_migration
from repro.kernel.mempolicy import MemPolicy
from repro.kernel.vma import PROT_RW
from repro.util import PAGE_SIZE, mb_per_s


# ------------------------------------------------------------- figures ----
def test_fig4_large_buffers():
    """Fig. 4 at 4096 pages: the three throughputs the paper reports,
    the unpatched collapse, and a size-independent patched move_pages."""
    result = fig4_throughput.run([1024, 4096])
    move = result.series_of("move_pages")
    nopatch = result.series_of("move_pages (no patch)")
    memcpy = result.series_of("memcpy")
    migrate = result.series_of("migrate_pages")
    assert 540 <= move[-1] <= 680, "patched move_pages ~600 MB/s"
    assert 700 <= migrate[-1] <= 860, "migrate_pages ~780 MB/s"
    assert 1600 <= memcpy[-1] <= 2000, "memcpy ~1.8 GB/s"
    assert nopatch[-1] < move[-1] / 4, "unpatched collapses at large sizes"
    assert abs(move[-1] - move[-2]) / move[-1] < 0.15


def test_fig5_small_and_large_buffers():
    """Fig. 5: kernel next-touch is fast from 4 pages on (~800 MB/s);
    user next-touch is move_pages-bound; the unpatched variant collapses."""
    result = fig5_nexttouch.run([4, 1024])
    kernel = result.series_of("Kernel Next-touch")
    user = result.series_of("User Next-touch")
    nopatch = result.series_of("User Next-touch (no move pages patch)")
    assert kernel[0] > 600
    assert 700 <= kernel[-1] <= 900
    assert user[0] < kernel[0] / 4
    assert 480 <= user[-1] <= 680
    assert nopatch[-1] < user[-1] / 2


def test_fig6a_user_breakdown():
    """Fig. 6(a) at 1024 pages: control is ~38-45 % of the move_pages
    cost; the mprotect and signal components are almost negligible."""
    result = fig6_breakdown.run_user([1024])
    assert 30 <= result.series_of("move_pages() Control")[0] <= 50
    assert result.series_of("move_pages() Copy Page")[0] > 45
    assert result.series_of("mprotect() Next-Touch")[0] < 5
    assert result.series_of("Page-Fault and Signal Handler")[0] < 5


def test_fig6b_kernel_breakdown():
    """Fig. 6(b) at 1024 pages: control ~20 %, the copy dominates,
    madvise is small."""
    result = fig6_breakdown.run_kernel([1024])
    assert 15 <= result.series_of("Page-Fault and Migration Control")[0] <= 25
    assert result.series_of("Copy Page")[0] > 70
    assert result.series_of("madvise()")[0] < 10


def test_fig7_scalability():
    """Fig. 7: threads do not help a 256 KiB buffer; at 32 MiB sync
    gains ~50-60 % with 4 threads and lazy peaks around ~1.3 GB/s."""
    result = fig7_scalability.run([64, 8192], thread_counts=(1, 4))
    sync1 = result.series_of("Sync - 1 Thread")
    sync4 = result.series_of("Sync - 4 Threads")
    lazy1 = result.series_of("Lazy - 1 Thread")
    lazy4 = result.series_of("Lazy - 4 Threads")
    assert sync4[0] < sync1[0] * 1.35
    assert lazy4[0] < lazy1[0] * 1.25
    gain = sync4[-1] / sync1[-1] - 1
    assert 0.35 <= gain <= 0.95, f"sync 4-thread gain {gain:.2f}"
    assert lazy4[-1] > sync4[-1]
    assert 1050 <= lazy4[-1] <= 1500, "lazy peaks around ~1.3 GB/s"


def test_table1_lu_4096_rows():
    """Table 1 at n=4096: next-touch loses on page-sharing 128-wide
    blocks and wins on page-independent 512-wide ones. (The 2048 rows
    are ``test_paper_story.py::test_claim_lu_improvement_for_large_worksets``.)"""
    result = table1_lu.run(((4096, 128), (4096, 512)))
    small, large = result.series_of("improvement %")
    assert small < 0, f"128-blocks should thrash: {small:.1f} %"
    assert large > 15, f"512-blocks should win: {large:.1f} %"
    # Pinned to the last bit, like the fig4/fig5/fig7 values in
    # test_experiments.py: update only with a reviewed reason.
    assert result.series_of("static (s)") == [2.229941118933295, 19.423251847580058]
    assert result.series_of("next-touch (s)") == [2.586572301469331, 13.854748440301638]


def test_fig8_user_nexttouch_and_growing_gap():
    """Fig. 8: below N=512 the user-space scheme does not pay; from 512
    on it wins, and kernel next-touch's lead over static keeps growing.
    (Kernel next-touch beating static is ``test_apps.py``'s.)"""
    result = fig8_matmul.run((128, 256, 512, 1024))
    static = result.series_of("Static Allocation")
    kernel = result.series_of("Next-Touch kernel")
    user = result.series_of("Next-Touch user-space")
    i512 = list(result.xs).index(512)
    assert user[0] >= static[0] * 0.95, "user NT should not win at N=128"
    for i in range(i512, len(result.xs)):
        assert user[i] < static[i], f"user NT must win at N={result.xs[i]}"
    assert static[-1] / kernel[-1] > static[i512] / kernel[i512] * 0.9
    # Pinned to the last bit at N = 128, 256, 512, 1024.
    assert static == [
        0.00300289532631579,
        0.023031223410526314,
        0.7129120744057791,
        7.708234765034468,
    ]
    assert kernel == [
        0.004880365933723201,
        0.02969271059071838,
        0.32244519917440667,
        2.9021083055521153,
    ]
    assert user == [
        0.008462438378167644,
        0.032245942552115076,
        0.32484162333085403,
        2.9033535470740803,
    ]


# ----------------------------------------------------------- ablations ----
def _move_pages_us(cost, npages: int, patched: bool = True) -> float:
    """Simulated time of one ``move_pages`` of ``npages`` from node 0 to 1."""
    system = System(Machine.opteron_8347he_quad(cost))

    def body(t):
        nbytes = npages * PAGE_SIZE
        addr = yield from t.mmap(nbytes, PROT_RW, policy=MemPolicy.bind(0))
        yield from t.touch(addr, nbytes)
        t0 = system.now
        yield from t.move_range(addr, nbytes, 1, patched=patched)
        return system.now - t0

    return run_thread(system, body, core=0)


def test_ablation_pagevec_batching():
    """Pagevec chunking amortizes rmap-lock round-trips. Four threads
    migrate 2048 pages together, so the per-chunk ``anon_vma`` and LRU
    lock round-trips contend (one thread alone never waits and takes
    the same time at every pagevec): chunks of one page must lose by
    more than 10 %, huge chunks change little."""
    times = {
        pagevec: measure_parallel_migration(
            2048,
            4,
            "sync",
            system=System(
                Machine.opteron_8347he_quad(opteron_8347he().replace(migrate_pagevec=pagevec))
            ),
        )
        for pagevec in (1, 16, 128)
    }
    assert times[1] > 1.1 * times[16]
    assert abs(times[128] - times[16]) / times[16] < 0.25


def test_ablation_lock_handoff_cost():
    """Contended handoff cost throttles 4-thread sync migration."""
    throughput = {}
    for handoff in (0.0, 0.9, 3.0):
        cost = opteron_8347he().replace(lock_handoff_us=handoff)
        system = System(Machine.opteron_8347he_quad(cost))
        elapsed = measure_parallel_migration(8192, 4, "sync", system=system)
        throughput[handoff] = mb_per_s(8192 * PAGE_SIZE, elapsed)
    assert throughput[0.0] > throughput[0.9] > throughput[3.0]


def test_ablation_nt_copy_locked_fraction():
    """Holding the PTL across the whole copy (the simple COW-style
    implementation) is what stops sub-pmd lazy migration from scaling;
    releasing it during the copy restores scaling."""
    scaling = {}
    for theta in (1.0, 0.25):
        cost = opteron_8347he().replace(nt_copy_locked_fraction=theta)
        elapsed = {
            # 256 pages = 1 MiB: all in one pmd.
            threads: measure_parallel_migration(
                256, threads, "lazy", system=System(Machine.opteron_8347he_quad(cost))
            )
            for threads in (1, 4)
        }
        scaling[theta] = elapsed[1] / elapsed[4]  # > 1 means scaling
    assert scaling[1.0] < 1.1  # serialized, as the paper observed
    assert scaling[0.25] > scaling[1.0] + 0.15  # lock release restores it


def test_ablation_unpatched_scan_cost():
    """The unpatched move_pages' quadratic term scales linearly with
    the per-entry scan cost: it dominates at 4096 pages, so twice the
    cost is about twice the time."""
    times = {
        scan: _move_pages_us(
            opteron_8347he().replace(unpatched_scan_us_per_entry=scan), 4096, patched=False
        )
        for scan in (0.02, 0.04)
    }
    assert 1.6 < times[0.04] / times[0.02] < 2.2


def test_ablation_numa_flat_profile_kills_nexttouch_gains():
    """On a NUMA-factor-1.0 machine next-touch can only cost: LU's
    2048/512 win (> 15 % on the paper's profile, asserted by
    ``test_paper_story.py::test_claim_lu_improvement_for_large_worksets``)
    must vanish — proof it comes from locality, not harness bias."""

    def lu_time(policy):
        system = System(Machine.opteron_8347he_quad(fast_uniform()))
        # A genuinely uniform memory system: remote behaves exactly
        # like local (no NUMA factor, no overlap asymmetry, no link
        # congestion).
        model = BlasCostModel.era_reference_blas(system.machine)
        model.remote_overlap = model.local_overlap
        tracker = ContentionTracker(system.machine, congestion_alpha=0.0)
        lu = ThreadedLU(system, 2048, 512, policy=policy, blas_model=model, tracker=tracker)
        return lu.run().elapsed_s

    improvement = (lu_time("static") / lu_time("nexttouch") - 1) * 100
    assert improvement < 5
