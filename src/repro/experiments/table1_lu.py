"""Table 1: threaded LU factorization, static vs next-touch.

Rows are (matrix size, block size) pairs; columns are the static
(interleaved, never migrated) time, the next-touch time (madvise hook
at every iteration), and the signed improvement percentage exactly as
the paper reports it.

The default row set covers matrices up to 8k x 8k (about 45 s of host
time on a 2-core machine); ``full=True`` adds the paper's 16k and 32k
rows.
float64 elements make 512 the page-independence threshold, as in the
paper.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..apps.lu import ThreadedLU
from ..util.stats import improvement_percent
from .common import ExperimentResult, fresh_system

__all__ = ["run", "DEFAULT_CONFIGS", "FULL_CONFIGS", "PAPER_IMPROVEMENTS"]

#: (matrix dim, block dim) rows measured by default.
DEFAULT_CONFIGS: tuple[tuple[int, int], ...] = (
    (4096, 64),
    (4096, 128),
    (4096, 256),
    (8192, 128),
    (8192, 256),
    (8192, 512),
)

#: The paper's complete row set (16k/32k rows take a while).
FULL_CONFIGS: tuple[tuple[int, int], ...] = DEFAULT_CONFIGS + (
    (16384, 256),
    (16384, 512),
    (16384, 1024),
    (32768, 256),
    (32768, 512),
)

#: The paper's reported improvement percentages, for side-by-side
#: reporting (Table 1).
PAPER_IMPROVEMENTS: dict[tuple[int, int], float] = {
    (4096, 64): -47.1,
    (4096, 128): -27.5,
    (4096, 256): -8.04,
    (8192, 128): -18.2,
    (8192, 256): -3.81,
    (8192, 512): 26.5,
    (16384, 256): -4.15,
    (16384, 512): 85.8,
    (16384, 1024): 4.24,
    (32768, 256): 68.2,
    (32768, 512): 129.0,
}


def run(
    configs: Optional[Sequence[tuple[int, int]]] = None,
    *,
    full: bool = False,
    num_threads: int = 16,
) -> ExperimentResult:
    """Regenerate Table 1; series are static/next-touch seconds and
    improvement percent, with the paper's percentage alongside."""
    if configs is None:
        configs = FULL_CONFIGS if full else DEFAULT_CONFIGS
    xs = [f"{n}x{n}/{b}" for n, b in configs]
    result = ExperimentResult(
        experiment_id="table1",
        title="Table 1: LU factorization time, 16 OpenMP threads",
        x_label="matrix/block",
        xs=xs,
        series={
            "static (s)": [],
            "next-touch (s)": [],
            "improvement %": [],
            "paper %": [],
        },
    )
    for n, b in configs:
        times = {}
        for policy in ("static", "nexttouch"):
            system = fresh_system()
            lu = ThreadedLU(system, n, b, policy=policy, num_threads=num_threads)
            times[policy] = lu.run().elapsed_s
        result.series["static (s)"].append(times["static"])
        result.series["next-touch (s)"].append(times["nexttouch"])
        result.series["improvement %"].append(
            improvement_percent(times["static"], times["nexttouch"])
        )
        result.series["paper %"].append(PAPER_IMPROVEMENTS.get((n, b), float("nan")))
    result.notes.append(
        "improvement = (static/next-touch - 1) * 100, as in the paper; "
        "negative rows are the shared-page (block < 512 float64) regime"
    )
    return result
