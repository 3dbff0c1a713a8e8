#!/usr/bin/env python3
"""Serving smoke test: one tiny KV policy race, every artifact parsed.

Runs ``repro-experiments serve --json`` with a 2-tenant, short-stream
mix and the next-touch policy into a temporary directory — once on the
default path and once forced slow (``REPRO_SLOW_PATH=1``) — then
asserts:

* both races complete (CLI exit 0) and render a result table;
* the run manifest parses and carries the ``serve`` block with a
  per-policy entry holding a non-empty request count, throughput and a
  numeric p99 (the streams are long enough to clear the quantile
  sample floor — a ``None`` p99 here means the workload shrank below
  what the SLO gate can even observe);
* per-tenant stats are present and every tenant completed its
  requests;
* each manifest's ``kernel_stats`` splits the 800 issued requests
  between batched and per-request
  (``serve_turbo_requests + serve_slow_requests``);
* the default and forced-slow manifests are **byte-identical** once
  the host-dependent fields (wall time, argv paths) are dropped — every
  simulated observable (latency percentiles, SLO summaries, kernel
  stats, ledger, telemetry series) must not care which path ran.

What the diff compares: ``--json`` attaches a tracer, a ledger sink,
so the serve batching layer (``repro.apps.servops``) declines and both
runs serve every request per-request. The diff therefore pins the
kernel fast paths under ``--json`` against ``REPRO_SLOW_PATH=1``; the
batched serve path is pinned by ``tests/test_serve_equivalence.py``.

This is ``make serve-smoke``, part of ``make verify`` — the cheap
end-to-end proof that the serving stack stays wired: KV server ->
policy driver -> histograms/SLO gate -> CLI manifest, and that the
kernel fast paths never leak into simulated results. See
docs/serving.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

#: Host-dependent manifest fields, excluded from the fast-vs-slow
#: diff: wall time is wall time, and argv embeds the temp directory.
HOST_FIELDS = ("wall_time_s", "argv")

#: Requests the race issues: 2 tenants x 2 clients x 200 requests.
ISSUED = 2 * 2 * 200


def fail(msg: str) -> None:
    print(f"serve-smoke: FAIL — {msg}", file=sys.stderr)
    raise SystemExit(1)


def run_race(out: Path, *, slow: bool) -> dict:
    """One tiny race into ``out``; returns the parsed manifest."""
    env = dict(os.environ)
    env.pop("REPRO_SLOW_PATH", None)
    if slow:
        env["REPRO_SLOW_PATH"] = "1"
    # Work from a bare checkout, like the Makefile: src/ on the path.
    src = str(REPO / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    label = "forced-slow" if slow else "default"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.experiments.cli",
            "serve",
            "--tenants",
            "2",
            "--requests",
            "200",
            "--policies",
            "nexttouch",
            "--json",
            str(out),
        ],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{label} serve run exited {proc.returncode}")
    if "req/s" not in proc.stdout:
        fail(f"{label} serve run printed no result table")

    manifest_path = out / "serve.manifest.json"
    if not manifest_path.exists():
        fail(f"{label}: {manifest_path.name} not written")
    metrics_path = out / "serve.metrics.json"
    if not metrics_path.exists():
        fail(f"{label}: {metrics_path.name} not written")
    json.loads(metrics_path.read_text())
    return json.loads(manifest_path.read_text())


def check_serve_block(manifest: dict) -> dict:
    """The original single-run assertions; returns the policy stats."""
    serve = manifest.get("serve")
    if not serve:
        fail("manifest has no 'serve' block")
    if not isinstance(serve.get("slo_us"), float):
        fail(f"serve block has no numeric slo_us: {serve.get('slo_us')!r}")
    policies = serve.get("policies") or {}
    if set(policies) != {"nexttouch"}:
        fail(f"expected exactly the raced policy, got {sorted(policies)}")
    stats = policies["nexttouch"]
    if stats["requests"] != ISSUED:
        fail(f"expected {ISSUED} requests, got {stats['requests']}")
    if not stats["throughput_rps"] or stats["throughput_rps"] <= 0:
        fail(f"non-positive throughput: {stats['throughput_rps']!r}")
    p99 = stats["latency_us"]["p99"]
    if not isinstance(p99, float) or p99 <= 0:
        fail(f"empty or non-numeric p99: {p99!r}")
    tenants = stats.get("tenants") or {}
    if len(tenants) != 2:
        fail(f"expected 2 tenant stat blocks, got {sorted(tenants)}")
    for name, tstats in tenants.items():
        if tstats["requests"] != 2 * 200:
            fail(f"tenant {name}: {tstats['requests']} != 400 requests")
        if tstats["latency_us"]["p99"] is None:
            fail(f"tenant {name}: empty p99 reservoir")
    kstats = manifest["kernel_stats"]
    served = kstats["serve_turbo_requests"] + kstats["serve_slow_requests"]
    if served != ISSUED:
        fail(f"kernel_stats split {served} requests, expected {ISSUED}")
    return stats


def normalize(manifest: dict) -> dict:
    out = dict(manifest)
    for field in HOST_FIELDS:
        out.pop(field, None)
    return out


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="serve_smoke.") as tmp:
        fast = run_race(Path(tmp) / "fast", slow=False)
    with tempfile.TemporaryDirectory(prefix="serve_smoke.") as tmp:
        slow = run_race(Path(tmp) / "slow", slow=True)

    stats = check_serve_block(fast)
    check_serve_block(slow)

    fast_n, slow_n = normalize(fast), normalize(slow)
    if json.dumps(fast_n, sort_keys=True) != json.dumps(slow_n, sort_keys=True):
        differing = sorted(
            key
            for key in set(fast_n) | set(slow_n)
            if json.dumps(fast_n.get(key), sort_keys=True)
            != json.dumps(slow_n.get(key), sort_keys=True)
        )
        fail(f"default vs forced-slow manifests differ in: {', '.join(differing)}")

    p99 = stats["latency_us"]["p99"]
    print(
        f"serve-smoke: OK ({stats['requests']} requests, "
        f"{stats['throughput_rps']:.0f} req/s, p99 {p99:.2f} us, "
        "kernel fast paths under --json == REPRO_SLOW_PATH=1)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
