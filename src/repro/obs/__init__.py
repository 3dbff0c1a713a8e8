"""Structured observability: metrics, manifests, traces, tracepoints.

Everything a run produces beyond its ASCII tables lives here:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of named
  counters/gauges/histograms that the kernel, ledger, tracer, lock
  stats, numastat and the link fabric publish into;
* :mod:`repro.obs.context` — an ``observe()`` context manager that
  attaches a :class:`~repro.sim.trace.Tracer` to every
  :class:`~repro.system.System` created inside it;
* :mod:`repro.obs.chrometrace` — Chrome/Perfetto trace-event JSON
  export of tracer samples;
* :mod:`repro.obs.manifest` — the full-run ``run_manifest`` artifact
  (machine, cost model, git revision, kernel stats, ledger, locks,
  link utilisations, merged metrics snapshot);
* :mod:`repro.obs.tracepoints` — named kernel tracepoints
  (``fault:enter``, ``migrate:phase_copy``, ...) with zero-cost
  dispatch while disabled and a bounded recorder behind
  :func:`record_tracepoints`;
* :mod:`repro.obs.profile` — the phase profiler folding a recorded
  event stream into fault spans, per-phase histograms and node flow
  matrices;
* :mod:`repro.obs.telemetry` — the always-on :class:`KernelStats`
  counter block (vmstat-style monotonic counters incremented
  run-granularly on both the slow and turbo kernel paths, never
  tripping ``turbo_ok()``);
* :mod:`repro.obs.timeseries` — a pull-based simulated-time sampler
  over those counters, per-node occupancy and access heat, exported
  as JSON and Chrome-trace counter tracks;
* :mod:`repro.obs.procfs` — ``/proc``-style views (``numa_maps``,
  ``vmstat``, ``pagetypeinfo``, placement heatmap) of a live kernel
  (imported lazily: it pulls in kernel modules).

Schemas for every artifact are documented in ``docs/observability.md``.
"""

from .chrometrace import chrome_trace_events, write_chrome_trace
from .context import Observation, current_observation, observe
from .manifest import run_manifest
from .metrics import MetricsRegistry, merge_snapshots, system_metrics
from .profile import PhaseProfile
from .telemetry import KernelStats, stats_snapshot
from .timeseries import TimeSeriesSampler, chrome_counter_events, merge_series
from .tracepoints import (
    TRACEPOINTS,
    TracepointRecorder,
    current_recorder,
    record_tracepoints,
    tracepoints_enabled,
    write_events_jsonl,
)

__all__ = [
    "MetricsRegistry",
    "system_metrics",
    "merge_snapshots",
    "Observation",
    "observe",
    "current_observation",
    "chrome_trace_events",
    "write_chrome_trace",
    "run_manifest",
    "TRACEPOINTS",
    "TracepointRecorder",
    "record_tracepoints",
    "current_recorder",
    "tracepoints_enabled",
    "write_events_jsonl",
    "PhaseProfile",
    "KernelStats",
    "stats_snapshot",
    "TimeSeriesSampler",
    "chrome_counter_events",
    "merge_series",
]
