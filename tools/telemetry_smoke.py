#!/usr/bin/env python3
"""Telemetry smoke test: counters and time series wired end to end.

Three cheap end-to-end proofs, in-process where possible:

* a canned kernel workload (touch / migrate / swap) leaves the
  always-on :class:`~repro.obs.telemetry.KernelStats` counters in the
  exact same state with the fast paths on and forced off, with turbo
  actually eligible before the run — telemetry must never be the
  observer that disengages it;
* the KV serve smoke workload produces a non-empty per-policy time
  series carrying the rolling ``serve.p99_us`` samples the serve
  manifest embeds;
* ``repro-experiments fig4 --timeseries`` (quick sizes, subprocess)
  writes both artifacts: the ``repro.timeseries/v1`` JSON parses with
  non-empty points, and the Chrome trace contains ``ph: "C"`` counter
  events.

This is ``make telemetry-smoke``, part of ``make verify`` — see
``docs/observability.md`` §10.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))


def fail(msg: str) -> None:
    print(f"telemetry-smoke: FAIL — {msg}", file=sys.stderr)
    raise SystemExit(1)


def _counters(slow: bool) -> dict:
    """The canned kernel workload: demand-zero, swap-out, swap-in,
    migration and next-touch runs (``slow`` forces the per-page
    reference paths)."""
    from repro import PROT_RW, Madvise, System
    from repro.kernel.swap import attach_swap
    from repro.util import PAGE_SIZE

    system = System()
    kernel = system.kernel
    kernel.force_slow_path = slow
    if not slow and not kernel.turbo_ok():
        fail("fresh system is not turbo-eligible — telemetry trips turbo_ok()")
    attach_swap(kernel)
    proc = system.create_process("smoke")
    npages = 256

    def body(t):
        addr = yield from t.mmap(npages * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, npages * PAGE_SIZE, write=True, batch=1)
        yield from t.swap_out(addr, (npages // 2) * PAGE_SIZE)
        yield from t.touch(addr, (npages // 2) * PAGE_SIZE, batch=1)
        yield from t.move_range(addr, npages * PAGE_SIZE, 1)
        # Next-touch from this node-0 core pulls every page back.
        yield from t.madvise(addr, npages * PAGE_SIZE, Madvise.NEXTTOUCH)
        yield from t.touch(addr, npages * PAGE_SIZE, batch=1)

    thread = system.spawn(proc, 0, body, name="smoke")
    system.run_to(thread.join())
    from repro.obs.telemetry import stats_snapshot

    return stats_snapshot(kernel)


def main() -> int:
    # -- counters: bit-identical fast-vs-slow, non-trivial values.
    fast, slow = _counters(False), _counters(True)
    if fast != slow:
        diff = {k for k in fast if fast[k] != slow.get(k)}
        fail(f"fast/slow counter divergence in {sorted(diff)[:8]}")
    for name, expected in (
        ("minor_faults", 256),
        ("nt_faults", 256),
        ("pages_migrated", 512),
        ("pages_swapped_out", 128),
        ("pages_swapped_in", 128),
    ):
        if fast[name] != expected:
            fail(f"counter {name} = {fast[name]}, expected {expected}")
    if any(v < 0 for v in fast.values()):
        fail("negative counter in snapshot")

    # -- serve series: the KV smoke run samples at driver wakes.
    from repro.apps.kvserver import smoke_workload
    from repro.obs.timeseries import SCHEMA

    stats = smoke_workload(seed=0).to_dict()
    series = stats.get("series")
    if not series or series.get("schema") != SCHEMA:
        fail(f"serve stats carry no {SCHEMA} series")
    points = series.get("points", [])
    if not points:
        fail("serve series is empty")
    if not any("serve.p99_us" in p for p in points):
        fail("serve series never sampled serve.p99_us")
    if any(p1["t_us"] > p2["t_us"] for p1, p2 in zip(points, points[1:])):
        fail("serve series points are not time-ordered")

    # -- CLI artifacts: fig4 --timeseries writes both files.
    with tempfile.TemporaryDirectory(prefix="telemetry_smoke.") as tmp:
        out = Path(tmp)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.experiments.cli",
                "fig4",
                "--timeseries",
                str(out),
            ],
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"fig4 --timeseries run exited {proc.returncode}")
        json_path = out / "fig4.timeseries.json"
        if not json_path.exists():
            fail(f"{json_path.name} not written")
        doc = json.loads(json_path.read_text())
        if doc.get("schema") != SCHEMA or not doc.get("points"):
            fail(f"{json_path.name} is not a non-empty {SCHEMA} series")
        trace_path = out / "fig4.timeseries.trace.json"
        if not trace_path.exists():
            fail(f"{trace_path.name} not written")
        trace = json.loads(trace_path.read_text())
        events = trace["traceEvents"] if isinstance(trace, dict) else trace
        counter_events = [e for e in events if e.get("ph") == "C"]
        if not counter_events:
            fail(f"{trace_path.name} has no ph:'C' counter events")
        if any("value" not in e.get("args", {}) for e in counter_events):
            fail(f"{trace_path.name} counter event missing args.value")

    print(
        f"telemetry-smoke: OK ({len(fast)} counters bit-identical "
        f"fast-vs-slow, {len(points)} serve samples, "
        f"{len(counter_events)} CLI counter events)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
