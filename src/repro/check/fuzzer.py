"""Deterministic workload fuzzer with delta-debugging shrinker.

:func:`generate_ops` derives a random-but-reproducible operation
sequence from a seed (one :func:`repro.sim.rng.make_rng` stream, so the
same seed always yields the same workload). :func:`run_ops` feeds it to
a fresh :class:`~repro.check.harness.DiffHarness`; on failure,
:func:`shrink` delta-debugs the sequence down to a 1-minimal reproducer
preserving the failure signature, and :func:`save_reproducer` writes it
as a replayable JSON artifact (``tests/reproducers/`` keeps the ones
that caught real bugs).

Run it directly::

    PYTHONPATH=src python -m repro.check.fuzzer --runs 200 --ops 25 --selftest

Exit status is non-zero when any clean run fails or the selftest (an
injected fault must be caught, shrunk to <= 10 ops and replay
identically) does not pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ..kernel.vma import PROT_NONE, PROT_READ, PROT_RW
from ..sim.rng import DEFAULT_SEED, make_rng
from .harness import INJECTION_MODES, MACHINE_SPEC, DiffHarness, Failure

__all__ = [
    "REPRODUCER_SCHEMA",
    "generate_ops",
    "run_ops",
    "shrink",
    "save_reproducer",
    "load_reproducer",
    "replay_reproducer",
    "main",
]

#: Schema tag every reproducer file carries.
REPRODUCER_SCHEMA = "repro.check.reproducer/v1"

#: Cap on a reproducer's length for it to count as "shrunk".
MAX_REPRO_OPS = 10

_NUM_CORES = MACHINE_SPEC["num_nodes"] * MACHINE_SPEC["cores_per_node"]
_NUM_NODES = MACHINE_SPEC["num_nodes"]

#: Op mix: touches dominate (they drive every fault path), with a
#: steady stream of mapping surgery, migration and swap pressure.
_KINDS = [
    "mmap",
    "touch",
    "mprotect",
    "madv_nt",
    "madv_dontneed",
    "move_pages",
    "munmap",
    "migrate_pages",
    "fork",
    "swap_out",
]
_WEIGHTS = [0.16, 0.30, 0.07, 0.10, 0.04, 0.09, 0.05, 0.04, 0.05, 0.10]
_BATCHES = [1, 4, 512]
_PROTS = [int(PROT_RW), int(PROT_READ), int(PROT_NONE)]


def _cdf(weights: list[float]) -> np.ndarray:
    """Normalized cumulative weights, as ``Generator.choice`` builds
    them from ``p``."""
    cdf = np.cumsum(np.asarray(weights, dtype=np.float64))
    cdf /= cdf[-1]
    return cdf


# ``Generator.choice(a, p=w)`` draws ``cdf(w).searchsorted(rng.random(),
# side="right")`` and ``Generator.choice(a)`` draws ``rng.integers(0,
# len(a))``; drawing the same way here keeps every op stream identical
# without building a weight array per draw.
_KIND_CDF = _cdf(_WEIGHTS)
_BATCH_CDF = _cdf([0.5, 0.25, 0.25])
_PROT_CDF = _cdf([0.5, 0.3, 0.2])


# ------------------------------------------------------------------ generate --
def generate_ops(
    seed: int, n_ops: int, *, max_procs: int = 4, max_pages: int = 24
) -> list[dict]:
    """A seeded random op sequence (same seed, same sequence).

    The generator tracks which processes exist and which regions each
    can see (fork children inherit the parent's view), so generated
    references always resolve; delta-debugged *subsequences* may leave
    dangling references, which the harness skips by design.
    """
    rng = make_rng(seed, "check.fuzz")
    proc_regions: dict[str, list[str]] = {"p0": []}
    region_pages: dict[str, int] = {}
    next_region = 0
    next_proc = 1
    ops: list[dict] = []

    def _core() -> int:
        return int(rng.integers(0, _NUM_CORES))

    def _pick(items: list, cdf: np.ndarray):
        return items[int(cdf.searchsorted(rng.random(), side="right"))]

    def _any(items: list):
        return items[int(rng.integers(0, len(items)))]

    def _mmap(proc: str) -> dict:
        nonlocal next_region
        rid = f"r{next_region}"
        next_region += 1
        npages = int(rng.integers(1, max_pages + 1))
        prot = PROT_RW if rng.random() < 0.75 else PROT_READ
        shared = bool(rng.random() < 0.10)
        region_pages[rid] = npages
        proc_regions[proc].append(rid)
        return {
            "kind": "mmap",
            "proc": proc,
            "core": _core(),
            "region": rid,
            "npages": npages,
            "prot": int(prot),
            "shared": shared,
        }

    def _window(rid: str) -> tuple[int, int]:
        npages = region_pages[rid]
        lo = int(rng.integers(0, npages))
        hi = int(rng.integers(lo, npages)) + 1
        return lo, hi

    while len(ops) < n_ops:
        proc = _any(sorted(proc_regions))
        kind = _pick(_KINDS, _KIND_CDF)
        if kind == "fork":
            if next_proc >= max_procs:
                kind = "touch"  # process budget exhausted; keep the mix
            else:
                child = f"p{next_proc}"
                next_proc += 1
                proc_regions[child] = list(proc_regions[proc])
                ops.append({"kind": "fork", "proc": proc, "core": _core(), "child": child})
                continue
        if kind == "migrate_pages":
            ops.append(
                {
                    "kind": "migrate_pages",
                    "proc": proc,
                    "core": _core(),
                    "src": int(rng.integers(0, _NUM_NODES)),
                    "dst": int(rng.integers(0, _NUM_NODES)),
                }
            )
            continue
        if kind == "mmap" or not proc_regions[proc]:
            ops.append(_mmap(proc))
            continue
        rid = _any(proc_regions[proc])
        lo, hi = _window(rid)
        op = {"kind": kind, "proc": proc, "core": _core(), "region": rid, "lo": lo, "hi": hi}
        if kind == "touch":
            op["write"] = bool(rng.random() < 0.6)
            op["batch"] = _pick(_BATCHES, _BATCH_CDF)
        elif kind == "mprotect":
            op["prot"] = _pick(_PROTS, _PROT_CDF)
        elif kind == "move_pages":
            op["dest"] = int(rng.integers(0, _NUM_NODES))
        ops.append(op)
    return ops


# ------------------------------------------------------------------ running ---
def run_ops(ops: list[dict], *, inject: Optional[str] = None) -> Optional[Failure]:
    """One differential run over ``ops``; returns the first failure."""
    return DiffHarness(inject=inject).run(ops)


# ------------------------------------------------------------------ shrinking --
def shrink(
    ops: list[dict],
    signature: tuple,
    *,
    inject: Optional[str] = None,
    still_fails: Optional[Callable[[list[dict]], bool]] = None,
) -> list[dict]:
    """Delta-debug ``ops`` to a 1-minimal list keeping ``signature``.

    Classic ddmin over contiguous chunks, followed by a greedy
    single-op elimination pass; both only accept candidates whose first
    failure has the same :attr:`Failure.signature`, so the shrinker
    never wanders onto a *different* bug.
    """

    def _fails(candidate: list[dict]) -> bool:
        failure = run_ops(candidate, inject=inject)
        return failure is not None and failure.signature == signature

    check = still_fails or _fails
    if not check(ops):
        raise ValueError("shrink() called with ops that do not reproduce the failure")
    current = list(ops)
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        reduced = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk :]
            if candidate and check(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                # Re-scan from the top at the same granularity.
                start = 0
                chunk = max(1, len(current) // granularity)
                continue
            start += chunk
        if not reduced:
            if chunk == 1:
                break
            granularity = min(granularity * 2, len(current))
    # Greedy 1-minimal polish: no single op can be removed.
    i = 0
    while i < len(current):
        candidate = current[:i] + current[i + 1 :]
        if candidate and check(candidate):
            current = candidate
            i = 0
        else:
            i += 1
    return current


# ------------------------------------------------------------------ artifacts --
def save_reproducer(
    path: Path | str,
    *,
    seed: int,
    ops: list[dict],
    failure: Failure,
    inject: Optional[str] = None,
) -> Path:
    """Write a replayable reproducer document (see docs/correctness.md)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": REPRODUCER_SCHEMA,
        "seed": seed,
        "inject": inject,
        "machine": dict(MACHINE_SPEC),
        "ops": ops,
        "failure": failure.to_json(),
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_reproducer(path: Path | str) -> dict:
    """Read and validate a reproducer document."""
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != REPRODUCER_SCHEMA:
        raise ValueError(f"{path}: not a {REPRODUCER_SCHEMA} document")
    if doc.get("machine") != dict(MACHINE_SPEC):
        raise ValueError(f"{path}: machine spec {doc.get('machine')} != {MACHINE_SPEC}")
    return doc


def replay_reproducer(path: Path | str) -> Optional[Failure]:
    """Re-run a reproducer; returns the failure it (re)produces, or
    None when the underlying bug has been fixed."""
    doc = load_reproducer(path)
    return run_ops(doc["ops"], inject=doc.get("inject"))


# ------------------------------------------------------------------ selftest ---
def _selftest(seed: int, n_ops: int, out: Path) -> int:
    """Prove the pipeline end to end with an injected fault.

    A ``nt-drop`` injection must (a) be caught, (b) shrink to at most
    :data:`MAX_REPRO_OPS` ops, and (c) replay from its JSON artifact
    with the identical failure signature.
    """
    for attempt in range(64):
        run_seed = seed + attempt
        ops = generate_ops(run_seed, n_ops)
        failure = run_ops(ops, inject="nt-drop")
        if failure is None:
            continue
        minimal = shrink(ops, failure.signature, inject="nt-drop")
        if len(minimal) > MAX_REPRO_OPS:
            print(
                f"selftest: FAIL — shrunk to {len(minimal)} ops (> {MAX_REPRO_OPS})",
                file=sys.stderr,
            )
            return 1
        final = run_ops(minimal, inject="nt-drop")
        assert final is not None  # shrink() guarantees reproduction
        path = save_reproducer(
            out / "selftest-nt-drop.json",
            seed=run_seed,
            ops=minimal,
            failure=final,
            inject="nt-drop",
        )
        replayed = replay_reproducer(path)
        if replayed is None or replayed.signature != failure.signature:
            print(f"selftest: FAIL — replay of {path} did not reproduce", file=sys.stderr)
            return 1
        print(
            f"selftest: ok — injected fault caught at step {failure.step}, "
            f"shrunk {len(ops)} -> {len(minimal)} ops, replayed from {path}"
        )
        return 0
    print("selftest: FAIL — injection never triggered a failure", file=sys.stderr)
    return 1


# ------------------------------------------------------------------ CLI -------
def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.check.fuzzer",
        description="Differential fuzzer for the simulated memory model.",
    )
    parser.add_argument("--runs", type=int, default=200, help="seeded sequences to run (> 0)")
    parser.add_argument("--ops", type=int, default=25, help="operations per sequence (> 0)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base seed")
    parser.add_argument(
        "--out", type=Path, default=Path("results/fuzz"), help="reproducer output directory"
    )
    parser.add_argument(
        "--inject",
        choices=INJECTION_MODES,
        default=None,
        help="deterministic fault injection (testing the harness itself)",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="also verify an injected fault is caught, shrunk and replayable",
    )
    args = parser.parse_args(argv)
    for flag, value in (("--runs", args.runs), ("--ops", args.ops)):
        if value < 1:  # a run of nothing would pass without checking anything
            parser.error(f"{flag} must be positive, got {value}")

    status = 0
    failures = 0
    for i in range(args.runs):
        run_seed = args.seed + i
        ops = generate_ops(run_seed, args.ops)
        failure = run_ops(ops, inject=args.inject)
        if failure is None:
            continue
        failures += 1
        minimal = shrink(ops, failure.signature, inject=args.inject)
        final = run_ops(minimal, inject=args.inject)
        assert final is not None
        path = save_reproducer(
            args.out / f"seed-{run_seed}.json",
            seed=run_seed,
            ops=minimal,
            failure=final,
            inject=args.inject,
        )
        print(
            f"seed {run_seed}: {failure.kind}:{failure.name} at step {failure.step}; "
            f"shrunk {len(ops)} -> {len(minimal)} ops -> {path}",
            file=sys.stderr,
        )
        if args.inject is None:
            status = 1
    print(
        f"fuzz: {args.runs} run(s) x {args.ops} ops, seed base {args.seed:#x}: "
        f"{failures} failure(s)"
    )
    if args.selftest:
        if _selftest(args.seed, max(args.ops, 20), args.out) != 0:
            status = 1
    return status


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
