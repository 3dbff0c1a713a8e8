"""Command-line entry point: regenerate any paper table or figure.

Usage (installed as ``repro-experiments`` or via ``python -m
repro.experiments.cli``)::

    repro-experiments fig4                 # quick sweep
    repro-experiments fig7 --full          # the paper's full x-range
    repro-experiments table1 --full        # includes the 16k/32k rows
    repro-experiments all                  # everything, quick settings

Structured artifacts (schemas in ``docs/observability.md``)::

    repro-experiments fig4 --csv out/      # out/fig4.csv
    repro-experiments fig4 --json out/     # out/fig4.json + manifest + metrics
    repro-experiments fig4 --trace out/    # out/fig4.trace.json (Perfetto)
    repro-experiments fig4 --tracepoints out/  # kernel tracepoint stream,
                                               # phase slices, numa_maps, vmstat
    repro-experiments fig4 --timeseries out/   # telemetry counter series +
                                               # Chrome counter tracks
    repro-experiments introspect           # canned workload + /proc-style views
    repro-experiments serve                # KV serving policy race (docs/serving.md)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial
from typing import Callable

from . import (
    blas1_check,
    fig6_breakdown,
    fig8_matmul,
    fig12_flows,
    fig_serve,
    parallel,
    table1_lu,
)
from .common import default_page_counts

__all__ = ["main", "build_parser"]

_QUICK_PAGES = [4, 16, 64, 256, 1024, 4096]


def _page_kwargs(args) -> dict:
    return {"page_counts": None if args.full else _QUICK_PAGES}


def _fig7_kwargs(args) -> dict:
    counts = (
        default_page_counts(64, 32768) if args.full else [64, 256, 1024, 4096, 16384]
    )
    return {"page_counts": counts}


def _serve_kwargs(args) -> dict:
    return {
        "full": args.full,
        "tenants": args.tenants,
        "requests": args.requests,
        "slo_us": args.slo_us,
        "policies": args.policies,
    }


#: CLI flags -> ``run()`` keywords of each shardable sweep, shared by
#: the serial runner and ``--workers`` (:func:`parallel.run_sweep`).
_SWEEP_KWARGS: dict[str, Callable[..., dict]] = {
    "fig4": _page_kwargs,
    "fig5": _page_kwargs,
    "fig7": _fig7_kwargs,
    "serve": _serve_kwargs,
}


def _run_sweep(name: str, args):
    return [parallel.SWEEP_MODULES[name].run(**_SWEEP_KWARGS[name](args))]


def _run_fig6(args):
    counts = None if args.full else _QUICK_PAGES
    return [fig6_breakdown.run_user(counts), fig6_breakdown.run_kernel(counts)]


def _run_fig8(args):
    sizes = fig8_matmul.DEFAULT_SIZES if args.full else (128, 256, 512, 1024)
    return [fig8_matmul.run(sizes)]


def _run_table1(args):
    return [table1_lu.run(full=args.full)]


class _TextResult:
    """Adapter so pre-rendered text flows fit the runner protocol."""

    def __init__(self, text: str) -> None:
        self._text = text

    def render(self) -> str:
        return self._text


def _run_flows(args):
    return [_TextResult(fig12_flows.run())]


def _run_fig3(args):
    from ..hardware.topology import Machine
    from ..report import topology_report

    return [_TextResult(topology_report(Machine.opteron_8347he_quad()))]


def _run_whatif(args):
    from . import whatif_machines

    counts = [16, 256, 4096] if args.full else [16, 256]
    return [
        whatif_machines.run_machines(counts),
        whatif_machines.run_numa_factors(),
        whatif_machines.run_eras(),
    ]


def _run_calibration(args):
    from .calibration import calibration_report

    return [_TextResult(calibration_report())]


def _run_blas1(args):
    sizes = blas1_check.DEFAULT_SIZES if args.full else blas1_check.DEFAULT_SIZES[:3]
    return [blas1_check.run(sizes)]


_RUNNERS: dict[str, Callable[..., list]] = {
    "fig3": _run_fig3,
    "fig6": _run_fig6,
    "fig8": _run_fig8,
    "table1": _run_table1,
    "blas1": _run_blas1,
    "flows": _run_flows,
    "calibration": _run_calibration,
    "whatif": _run_whatif,
    **{name: partial(_run_sweep, name) for name in _SWEEP_KWARGS},
}


def _check_observation(obs, name: str) -> dict:
    """Run the kernel invariant checkers over every observed system.

    Returns a manifest-ready summary (``docs/correctness.md``); any
    violations are also printed to stderr.
    """
    from ..check import check_system
    from ..check.invariants import INVARIANTS

    violations = []
    for i, system in enumerate(obs.systems):
        for v in check_system(system):
            violations.append({"system": i, "invariant": v.invariant, "message": v.message})
            print(f"[{name}: invariant {v.invariant} FAILED: {v.message}]", file=sys.stderr)
    summary = {
        "checked": sorted(INVARIANTS),
        "systems": len(obs.systems),
        "violations": violations,
    }
    status = "OK" if not violations else f"{len(violations)} violation(s)"
    print(
        f"[{name}: invariants {status} over {len(obs.systems)} system(s)]",
        file=sys.stderr,
    )
    return summary


def _write_observation(
    obs, name: str, args, wall_time_s: float, invariants=None, recorder=None,
    results=(),
) -> None:
    """Emit the manifest/metrics/trace artifacts for one experiment."""
    from ..obs import run_manifest, write_chrome_trace

    if not obs.systems:
        print(f"[{name}: no simulated systems, no run artifacts]", file=sys.stderr)
        return
    profile = None
    if recorder is not None:
        from ..obs import PhaseProfile

        profile = PhaseProfile.from_events(recorder.events)
        _write_tracepoints(obs, recorder, profile, name, args.tracepoints)
    if args.json is not None:
        os.makedirs(args.json, exist_ok=True)
        extra = {}
        if invariants is not None:
            extra["invariants"] = invariants
        if recorder is not None:
            extra["tracepoints"] = recorder.summary()
            extra["phases"] = profile.summary()
        # Results can contribute their own manifest block (e.g. the
        # serve race's per-policy stats and SLO transitions).
        for result in results:
            extra_fn = getattr(result, "manifest_extra", None)
            if extra_fn is not None:
                extra.update(extra_fn())
        metrics = obs.merged_metrics()
        manifest = run_manifest(
            obs.systems,
            experiment=name,
            metrics=metrics,
            wall_time_s=wall_time_s,
            argv=list(sys.argv[1:]),
            extra=extra or None,
        )
        _write_json(args.json, name, "manifest", manifest)
        metrics = dict(metrics)  # the entries below go to the metrics file only
        if invariants is not None:
            metrics["check.invariant_violations"] = {
                "type": "counter",
                "value": float(len(invariants["violations"])),
            }
        if profile is not None:
            from ..obs import MetricsRegistry

            registry = MetricsRegistry()
            profile.publish(registry)
            metrics.update(registry.snapshot())
        _write_json(args.json, name, "metrics", metrics)
    if args.trace is not None:
        os.makedirs(args.trace, exist_ok=True)
        events = obs.chrome_trace()
        if profile is not None:
            events.extend(profile.chrome_events())
        trace_path = write_chrome_trace(
            os.path.join(args.trace, f"{name}.trace.json"), events
        )
        print(f"[trace: {trace_path}]", file=sys.stderr)
    if args.timeseries is not None:
        _write_timeseries(obs, name, args.timeseries)


def _write_json(outdir: str, name: str, kind: str, doc: dict) -> None:
    """Save ``<outdir>/<name>.<kind>.json`` (a manifest or metrics file)."""
    path = os.path.join(outdir, f"{name}.{kind}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    print(f"[{kind}: {path}]", file=sys.stderr)


def _write_timeseries(obs, name: str, outdir: str) -> None:
    """Emit the ``--timeseries`` artifact pair for one experiment.

    The always-on counters are cumulative, so one closing sample per
    observed system captures the run's full totals; experiments that
    sample continuously (the serve race's per-policy rolling series)
    additionally embed their own series in the manifest.
    """
    from ..obs import write_chrome_trace
    from ..obs.timeseries import (
        TimeSeriesSampler,
        chrome_counter_events,
        merge_series,
    )

    os.makedirs(outdir, exist_ok=True)
    per_system = []
    for system in obs.systems:
        sampler = TimeSeriesSampler(system.kernel)
        sampler.sample()
        per_system.append(sampler.to_dict())
    merged = merge_series(per_system)
    json_path = os.path.join(outdir, f"{name}.timeseries.json")
    with open(json_path, "w") as fh:
        json.dump(merged, fh, indent=2)
    trace_path = write_chrome_trace(
        os.path.join(outdir, f"{name}.timeseries.trace.json"),
        chrome_counter_events(merged, process_name=f"{name} telemetry"),
    )
    for path in (json_path, trace_path):
        print(f"[timeseries: {path}]", file=sys.stderr)


def _write_tracepoints(obs, recorder, profile, name: str, outdir: str) -> None:
    """Emit the ``--tracepoints`` artifact set for one experiment."""
    from ..obs import write_chrome_trace, write_events_jsonl
    from ..obs import procfs

    os.makedirs(outdir, exist_ok=True)
    events_path = write_events_jsonl(
        os.path.join(outdir, f"{name}.tracepoints.jsonl"), recorder.events
    )
    phases_path = write_chrome_trace(
        os.path.join(outdir, f"{name}.phases.trace.json"), profile.chrome_events()
    )
    maps_lines, vmstat_lines = [], []
    for i, system in enumerate(obs.systems):
        kernel = system.kernel
        num_nodes = kernel.machine.num_nodes
        vmstat_lines.append(f"# system {i}")
        vmstat_lines.append(procfs.vmstat(kernel))
        for process in kernel.processes:
            maps_lines.append(f"# system {i} pid {process.pid} ({process.name})")
            text = procfs.numa_maps(process, num_nodes)
            if text:
                maps_lines.append(text)
    maps_path = os.path.join(outdir, f"{name}.numa_maps.txt")
    with open(maps_path, "w") as fh:
        fh.write("\n".join(maps_lines) + "\n")
    vmstat_path = os.path.join(outdir, f"{name}.vmstat.txt")
    with open(vmstat_path, "w") as fh:
        fh.write("\n".join(vmstat_lines) + "\n")
    if recorder.dropped:
        print(
            f"[{name}: tracepoint recorder dropped {recorder.dropped} event(s)]",
            file=sys.stderr,
        )
    for path in (events_path, phases_path, maps_path, vmstat_path):
        print(f"[tracepoints: {path}]", file=sys.stderr)


#: The canned introspection workload: touches every registered
#: tracepoint once through the differential harness (4-node machine,
#: cores 2n/2n+1 on node n), so ``introspect`` doubles as an
#: end-to-end sanity run — the oracle and invariant checkers vet every
#: step before the views are rendered.
_INTROSPECT_OPS: list[dict] = [
    # first touch: 32 demand-zero pages on node 0
    {"kind": "mmap", "proc": "p0", "core": 0, "region": "r0", "npages": 32, "prot": 3},
    {"kind": "touch", "proc": "p0", "core": 0, "region": "r0", "write": True, "batch": 8},
    # kernel next-touch: pages 0..16 migrate to node 1, then stay there
    {"kind": "madv_nt", "proc": "p0", "core": 0, "region": "r0", "lo": 0, "hi": 16},
    {"kind": "touch", "proc": "p0", "core": 2, "region": "r0", "lo": 0, "hi": 16,
     "write": True, "batch": 8},
    {"kind": "madv_nt", "proc": "p0", "core": 2, "region": "r0", "lo": 0, "hi": 16},
    {"kind": "touch", "proc": "p0", "core": 2, "region": "r0", "lo": 0, "hi": 16,
     "write": False, "batch": 8},
    # synchronous migration: pages 16..32 to node 2
    {"kind": "move_pages", "proc": "p0", "core": 0, "region": "r0",
     "lo": 16, "hi": 32, "dest": 2},
    # fork + first parent write breaks COW
    {"kind": "fork", "proc": "p0", "core": 0, "child": "p1"},
    {"kind": "touch", "proc": "p0", "core": 1, "region": "r0", "lo": 0, "hi": 4,
     "write": True, "batch": 1},
    # forced swap-out, then a remote touch swaps back in on node 2
    {"kind": "swap_out", "proc": "p0", "core": 0, "region": "r0", "lo": 4, "hi": 12},
    {"kind": "touch", "proc": "p0", "core": 4, "region": "r0", "lo": 4, "hi": 12,
     "write": False, "batch": 4},
]


def _run_introspect(args) -> int:
    """``repro-experiments introspect``: run the canned workload and
    render every /proc-style view plus the phase profile."""
    from ..check.harness import MACHINE_SPEC, DiffHarness
    from ..obs import PhaseProfile, record_tracepoints
    from ..obs import procfs
    from ..obs.telemetry import stats_snapshot

    with record_tracepoints() as recorder:
        harness = DiffHarness()
        failure = harness.run(_INTROSPECT_OPS)
        if failure is None:
            # The kernel workload above covers every kernel emit site;
            # the KV smoke run adds the app-level serve:* pair so the
            # artifacts exercise the full registry.
            from ..apps.kvserver import smoke_workload

            smoke_workload(seed=0)
    if failure is not None:
        print(
            f"introspect: workload diverged: {json.dumps(failure.to_json())}",
            file=sys.stderr,
        )
        return 1
    num_nodes = MACHINE_SPEC["num_nodes"]
    kernel = harness.kernel
    profile = PhaseProfile.from_events(recorder.events)

    print("=== tracepoints ===")
    for name, count in recorder.counts().items():
        print(f"{name:<24} {count:>6}")
    print()
    print("=== phase breakdown ===")
    for tag in profile.tags():
        for phase, us in profile.phase_breakdown(tag).items():
            pages = profile.phase_pages[(tag, phase)]
            print(f"{tag + '.' + phase:<24} {us:>10.1f} us  {pages:>6} pages")
    print()
    print("=== page flows (pages copied src->dest) ===")
    for (src, dest), pages in sorted(profile.flow_pages.items()):
        print(f"N{src} -> N{dest}  {pages:>6}")
    print()
    for pname in sorted(harness.kprocs):
        process = harness.kprocs[pname]
        print(f"=== /proc/{process.pid}/numa_maps ({pname}) ===")
        print(procfs.numa_maps(process, num_nodes))
        print()
    print("=== kernel stats ===")
    for counter, value in stats_snapshot(kernel).items():
        print(f"{counter:<28} {value:>8}")
    print()
    print("=== /proc/vmstat ===")
    print(procfs.vmstat(kernel))
    print()
    print("=== /proc/pagetypeinfo ===")
    print(procfs.pagetypeinfo(kernel))
    print()
    _, heatmap = procfs.placement_heatmap(recorder.events, num_nodes)
    print(heatmap)
    if args.tracepoints is not None:
        os.makedirs(args.tracepoints, exist_ok=True)
        from ..obs import write_chrome_trace, write_events_jsonl

        paths = [
            write_events_jsonl(
                os.path.join(args.tracepoints, "introspect.tracepoints.jsonl"),
                recorder.events,
            ),
            write_chrome_trace(
                os.path.join(args.tracepoints, "introspect.phases.trace.json"),
                profile.chrome_events(),
            ),
        ]
        for path in paths:
            print(f"[tracepoints: {path}]", file=sys.stderr)
    return 0


def _maybe_profile(args, name: str, fn: Callable[[], object]):
    """Run ``fn`` under cProfile when ``--profile DIR`` is given.

    Dumps ``<DIR>/<name>.profile.pstats`` (load with :mod:`pstats` or
    snakeviz) plus ``<DIR>/<name>.profile.txt``, the top 25 functions
    by cumulative host time — the first place to look when ``make
    perf`` regresses (see docs/performance.md).
    """
    if args.profile is None:
        return fn()
    import cProfile
    import io
    import pstats

    os.makedirs(args.profile, exist_ok=True)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
        pstats_path = os.path.join(args.profile, f"{name}.profile.pstats")
        profiler.dump_stats(pstats_path)
        buffer = io.StringIO()
        pstats.Stats(profiler, stream=buffer).sort_stats("cumulative").print_stats(25)
        text_path = os.path.join(args.profile, f"{name}.profile.txt")
        with open(text_path, "w") as fh:
            fh.write(buffer.getvalue())
        print(f"[profile: {pstats_path}]", file=sys.stderr)
        print(f"[profile: {text_path}]", file=sys.stderr)
    return result


def _positive(kind: type) -> Callable[[str], float]:
    """An argparse ``type``: parse with ``kind``, reject values <= 0."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid <name> value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser (also introspected by tools/docs_check.py)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures on the simulated machine.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_RUNNERS) + ["all", "introspect"],
        help="which artifact to regenerate ('introspect' renders the "
        "/proc-style kernel views)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the paper's full parameter ranges (slower)",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also save each result as <DIR>/<experiment_id>.csv",
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also save <DIR>/<experiment_id>.json per result plus "
        "<DIR>/<experiment>.manifest.json and .metrics.json per run",
    )
    parser.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help="also save <DIR>/<experiment>.trace.json (Chrome trace-event "
        "JSON; open in Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--tracepoints",
        metavar="DIR",
        default=None,
        help="record kernel tracepoints during the run and save "
        "<DIR>/<experiment>.tracepoints.jsonl, .phases.trace.json, "
        ".numa_maps.txt and .vmstat.txt (see docs/observability.md §9)",
    )
    parser.add_argument(
        "--timeseries",
        metavar="DIR",
        default=None,
        help="sample the always-on telemetry counters and save "
        "<DIR>/<experiment>.timeseries.json plus "
        "<DIR>/<experiment>.timeseries.trace.json (Chrome counter "
        "tracks; see docs/observability.md §10)",
    )
    parser.add_argument(
        "--profile",
        metavar="DIR",
        default=None,
        help="run under cProfile and save <DIR>/<experiment>.profile.pstats "
        "plus a top-25 cumulative summary <DIR>/<experiment>.profile.txt "
        "(see docs/performance.md)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the kernel invariant checkers over every simulated "
        "system after the run (see docs/correctness.md); exits non-zero "
        "on violations",
    )
    parser.add_argument(
        "--workers",
        metavar="N",
        default=None,
        help="shard the fig4/fig5/fig7/serve sweeps across N worker "
        "processes ('auto' = host CPU count); merged results, manifests "
        "and metrics are byte-identical for every N (see "
        "docs/performance.md); incompatible with --trace, --tracepoints, "
        "--timeseries, --check and --profile (the sweep manifest still "
        "carries a merged telemetry series)",
    )
    serve = parser.add_argument_group("serve (KV policy race)")
    serve.add_argument(
        "--tenants",
        type=_positive(int),
        default=3,
        metavar="N",
        help="tenants in the serving mix (default: 3)",
    )
    serve.add_argument(
        "--requests",
        type=_positive(int),
        default=800,
        metavar="N",
        help="requests per client stream (default: 800)",
    )
    serve.add_argument(
        "--slo-us",
        type=_positive(float),
        default=fig_serve.DEFAULT_SLO_US,
        metavar="US",
        help="per-tenant p99 latency SLO in simulated microseconds "
        f"(default: {fig_serve.DEFAULT_SLO_US:g})",
    )
    serve.add_argument(
        "--policies",
        nargs="+",
        choices=fig_serve.POLICIES,
        default=None,
        metavar="POLICY",
        help="subset of placement policies to race "
        f"(default: all of {', '.join(fig_serve.POLICIES)})",
    )
    return parser


#: Flags a mode cannot honour (exit 2): ``introspect`` runs its own
#: canned workload, the text-only experiments have no result series to
#: write as CSV, and whole-run observers cannot follow ``--workers``.
_INCOMPATIBLE = {
    "introspect": ("--csv", "--json", "--trace", "--timeseries", "--workers"),
    "fig3": ("--csv",),
    "flows": ("--csv",),
    "calibration": ("--csv",),
    "--workers": ("--trace", "--tracepoints", "--timeseries", "--profile", "--check"),
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    modes = [args.experiment] if args.experiment in _INCOMPATIBLE else []
    if args.workers is not None:
        modes.append("--workers")
    for mode in modes:
        clash = [flag for flag in _INCOMPATIBLE[mode] if getattr(args, flag[2:])]
        if clash:
            print(f"error: {mode} cannot be combined with {', '.join(clash)}", file=sys.stderr)
            return 2
    if args.experiment == "introspect":
        return _maybe_profile(args, "introspect", lambda: _run_introspect(args))
    workers = None
    if args.workers is not None:
        try:
            workers = parallel.resolve_workers(args.workers)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    names = sorted(_RUNNERS) if args.experiment == "all" else [args.experiment]
    observing = (
        args.json is not None
        or args.trace is not None
        or args.tracepoints is not None
        or args.timeseries is not None
        or args.check
    )
    broken = 0
    for name in names:
        start = time.time()
        obs = recorder = outcome = None
        sharded = workers is not None and name in _SWEEP_KWARGS
        if workers is not None and not sharded:
            print(f"[{name}: not a shardable sweep, running serially]", file=sys.stderr)
        if sharded:
            # Each point runs under its own observe() in its worker.
            outcome = parallel.run_sweep(
                name,
                workers=workers,
                collect=args.json is not None,
                **_SWEEP_KWARGS[name](args),
            )
            results = outcome.results
        elif observing:
            from ..obs import observe

            with observe() as obs:
                if args.tracepoints is not None:
                    from ..obs import record_tracepoints

                    with record_tracepoints() as recorder:
                        results = _maybe_profile(
                            args, name, lambda: _RUNNERS[name](args)
                        )
                else:
                    results = _maybe_profile(
                        args, name, lambda: _RUNNERS[name](args)
                    )
        else:
            results = _maybe_profile(args, name, lambda: _RUNNERS[name](args))
        for result in results:
            print(result.render())
            print()
            if args.csv is not None and hasattr(result, "save_csv"):
                path = result.save_csv(args.csv)
                print(f"[csv: {path}]", file=sys.stderr)
            if args.json is not None and hasattr(result, "save_json"):
                path = result.save_json(args.json)
                print(f"[json: {path}]", file=sys.stderr)
        wall = time.time() - start
        invariants = None
        if args.check and obs is not None:
            invariants = _check_observation(obs, name)
            broken += len(invariants["violations"])
        if obs is not None:
            _write_observation(
                obs,
                name,
                args,
                wall_time_s=round(wall, 3),
                invariants=invariants,
                recorder=recorder,
                results=results,
            )
        if outcome is not None and args.json is not None:
            os.makedirs(args.json, exist_ok=True)
            _write_json(args.json, name, "manifest", outcome.manifest)
            _write_json(args.json, name, "metrics", outcome.metrics)
        shards = f"; workers={workers}" if sharded else ""
        print(f"[{name} regenerated in {wall:.1f}s wall{shards}]", file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    raise SystemExit(main())
