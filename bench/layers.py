"""Layer-boundary shims for the traced benchmark pass.

The traced pass times the calls into each layer's public functions
from outside the program: :func:`install` rebinds every boundary in
:data:`BOUNDARIES` to a timing shim, in the defining module *and* in
every ``repro`` module that imported the name (``from .fault import
demand_zero_run`` binds a second reference), and :func:`uninstall`
puts the originals back.

Most boundaries are generators driven by the event engine. Their shim
is itself a generator that times only the intervals between a resume
and the next yield, so simulated waiting never counts as host time,
and it passes ``send``, ``throw`` (including ``Interrupt``), ``close``
and the return value straight through. Intervals nest strictly (one
host thread runs them), so each shim's self time is its interval
minus the intervals of the shims nested inside it.

The shims cost host time of their own: bookkeeping between a span's
two timestamps, and the shim call, generator resume and span append
outside them, which would land in the enclosing interval.
:func:`shim_cost` measures both per span once, on a function that does
nothing, and :class:`Recorder` takes them out of every self and
inclusive time and sums them in :attr:`Recorder.shim_s` instead. The
self times of all shims, ``shim_s`` and the unattributed rest add up
to the pass time.

:class:`Census` collects the work counts from public state of every
``System`` (and every ``Tracer``) built while it is active.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from time import perf_counter

__all__ = [
    "BOUNDARIES",
    "COUNTS",
    "Recorder",
    "Census",
    "shim_cost",
    "install",
    "uninstall",
    "layer_metrics",
]

#: ``(metric prefix, defining module, attribute, reports engaged_frac,
#: workload that exercises it)``. An attribute with a dot is a method.
#: ``engaged_frac`` is calls that did not return ``None`` over calls:
#: the run-op fast paths return ``None`` when they decline.
BOUNDARIES: tuple[tuple[str, str, str, bool, str], ...] = (
    ("sim.engine.step", "repro.sim.engine", "Environment.step", False, "nexttouch-mt"),
    ("sim.resources.transfer", "repro.sim.resources", "BandwidthResource.transfer", False,
     "nexttouch-mt"),
    ("kernel.access.touch_range", "repro.kernel.access", "touch_range", False, "serve-perreq"),
    ("kernel.fault.handle_fault", "repro.kernel.fault", "handle_fault", False, "fuzz-mixed"),
    ("kernel.fault.nt_fault_batch", "repro.kernel.fault", "nt_fault_batch", False,
     "nexttouch-mt"),
    ("kernel.fault.demand_zero_batch", "repro.kernel.fault", "demand_zero_batch", False,
     "lu-table1"),
    ("kernel.fault.demand_zero_run", "repro.kernel.fault", "demand_zero_run", True,
     "fig4-bulk"),
    ("kernel.runops.migrate_run", "repro.kernel.runops", "migrate_run", True, "fig4-bulk"),
    ("kernel.runops.cow_break_run", "repro.kernel.runops", "cow_break_run", True,
     "fuzz-mixed"),
    ("kernel.runops.swap_in_run", "repro.kernel.runops", "swap_in_run", True, "fuzz-mixed"),
    ("kernel.runops.charge_stages", "repro.kernel.runops", "charge_stages", False,
     "fuzz-mixed"),
    ("kernel.migrate.migrate_vma_pages", "repro.kernel.migrate", "migrate_vma_pages", False,
     "fig4-bulk"),
    ("apps.servops.lease", "repro.apps.servops", "ServeTurbo.lease", False, "serve-batch"),
    ("apps.servops.flush", "repro.apps.servops", "ServeTurbo.flush", False, "serve-batch"),
    ("apps.kvserver.observe_batch", "repro.apps.kvserver", "SloGate.observe_batch", False,
     "serve-batch"),
    ("obs.metrics.observe_many", "repro.obs.metrics", "Histogram.observe_many", False,
     "serve-batch"),
    ("obs.timeseries.sample", "repro.obs.timeseries", "TimeSeriesSampler.sample", False,
     "serve-batch"),
    ("obs.manifest.run_manifest", "repro.obs.manifest", "run_manifest", False,
     "observed-cli"),
    ("obs.context.merged_metrics", "repro.obs.context", "Observation.merged_metrics", False,
     "observed-cli"),
    ("ext.replication.replicate", "repro.ext.replication", "ReplicationManager.replicate",
     False, "serve-perreq"),
    ("ext.replication.collapse", "repro.ext.replication", "ReplicationManager.collapse",
     False, "serve-perreq"),
    ("check.harness.step", "repro.check.harness", "DiffHarness.step", False, "fuzz-mixed"),
    ("check.invariants.check_kernel", "repro.check.invariants", "check_kernel", False,
     "fuzz-mixed"),
    ("blas.costmodel.gemm", "repro.blas.costmodel", "BlasCostModel.gemm", False,
     "lu-table1"),
    ("blas.contention.enter", "repro.blas.contention", "ContentionTracker.enter", False,
     "lu-table1"),
    ("openmp.runtime.parallel_for", "repro.openmp.runtime", "OpenMP.parallel_for", False,
     "lu-table1"),
    ("apps.lu.run", "repro.apps.lu", "ThreadedLU.run", False, "lu-table1"),
)

#: Work counts read from the systems an item built, with the workload
#: that exercises each one.
COUNTS: tuple[tuple[str, str], ...] = (
    ("sim.engine.events", "nexttouch-mt"),
    ("sim.trace.samples", "observed-cli"),
    ("kernel.ledger.adds", "fig4-bulk"),
    ("kernel.stats.minor_faults", "fig4-bulk"),
    ("kernel.stats.nt_faults", "nexttouch-mt"),
    ("kernel.stats.pages_migrated", "fig4-bulk"),
    ("kernel.stats.run_pages", "fig4-bulk"),
)


#: Per-span shim cost ``(inside, outside)`` seconds of a free shim.
NO_COST = (0.0, 0.0)


class Recorder:
    """Per-boundary ``calls`` / inclusive / self time plus a bounded
    raw span buffer ``(name, start, end, id, parent id)``.

    ``cost`` maps a shim kind (``"function"``, ``"generator"``) to its
    per-span cost ``(inside, outside)`` from :func:`shim_cost`; without
    it the shims count as free.
    """

    def __init__(self, span_capacity: int = 50_000, cost: dict | None = None) -> None:
        #: prefix -> [calls, inclusive_s, self_s, engaged]
        self.stats: dict[str, list] = {b[0]: [0, 0.0, 0.0, 0] for b in BOUNDARIES}
        self.cost = cost or {"function": NO_COST, "generator": NO_COST}
        #: Σ shim cost over every span, kept out of all self and inclusive times.
        self.shim_s = 0.0
        self.span_capacity = span_capacity
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._next_id = 0

    def enter(self, name: str, cost: tuple = NO_COST) -> list:
        """Open an interval of ``name`` nested in the innermost open one;
        ``cost`` is the per-span cost of the shim that opens it."""
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else 0
        # name, start, nested intervals, id, parent id, cost, nested shim cost
        frame = [name, 0.0, 0.0, self._next_id, parent, cost, 0.0]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def leave(self, frame: list) -> None:
        """Close ``frame``, which must be the innermost open interval."""
        end = perf_counter()
        stack = self._stack
        if stack.pop() is not frame:
            raise RuntimeError(f"layer interval {frame[0]} closed out of order")
        duration = end - frame[1]
        inside, outside = frame[5]
        stat = self.stats[frame[0]]
        stat[1] += duration - inside - frame[6]
        stat[2] += duration - inside - frame[2]
        self.shim_s += inside + outside
        if stack:
            parent = stack[-1]
            parent[2] += duration + outside
            parent[6] += frame[6] + inside + outside
        if len(self.spans) < self.span_capacity:
            self.spans.append((frame[0], frame[1], end, frame[3], frame[4]))
        else:
            self.dropped += 1

    def self_total(self) -> float:
        """Σ self time over every boundary."""
        return sum(stat[2] for stat in self.stats.values())

    def chrome_trace(self) -> list[dict]:
        """The span buffer as Chrome trace events (µs from the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {
                "name": name,
                "ph": "X",
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent},
            }
            for name, start, end, span_id, parent in self.spans
        ]


def _function_shim(recorder: Recorder, name: str, fn, engaged: bool):
    stat = recorder.stats[name]
    cost = recorder.cost["function"]

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        stat[0] += 1
        frame = recorder.enter(name, cost)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.leave(frame)
        if engaged and result is not None:
            stat[3] += 1
        return result

    return shim


def _generator_shim(recorder: Recorder, name: str, fn):
    stat = recorder.stats[name]
    cost = recorder.cost["generator"]

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        stat[0] += 1
        gen = fn(*args, **kwargs)
        value, error = None, None
        while True:
            frame = recorder.enter(name, cost)
            try:
                out = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                recorder.leave(frame)
            try:
                value, error = (yield out), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as thrown:  # forwarded into the layer, not handled
                value, error = None, thrown

    return shim


#: Spans per calibration loop, and loops per shim kind (the median counts).
_COST_SPANS = 20_000
_COST_REPEATS = 9
_COST_NAME = "shim.cost"


def shim_cost() -> dict:
    """Per-span cost ``(inside, outside)`` seconds of each shim kind.

    Times ``_COST_SPANS`` calls of a function (or resumes of a
    generator) that does nothing: once bare, once directly, once through
    a shim. *inside* is the span's interval minus the direct call;
    *outside* is what the shimmed loop costs beyond the bare loop and
    the intervals. Medians over ``_COST_REPEATS`` loops, at least 0.
    """
    recorder = Recorder(span_capacity=0)
    stat = recorder.stats[_COST_NAME] = [0, 0.0, 0.0, 0]

    def null(value=None):
        return value

    def null_gen():
        while True:
            yield

    gen, shimmed_gen = null_gen(), _generator_shim(recorder, _COST_NAME, null_gen)()
    next(gen)
    next(shimmed_gen)
    kinds = {
        "function": (null, _function_shim(recorder, _COST_NAME, null, False)),
        "generator": (gen.send, shimmed_gen.send),
    }
    spans = range(_COST_SPANS)
    cost = {}
    for kind, (direct, shimmed) in kinds.items():
        inside, outside = [], []
        for _ in range(_COST_REPEATS):
            t0 = perf_counter()
            for _ in spans:
                pass
            t1 = perf_counter()
            for _ in spans:
                direct(None)
            t2 = perf_counter()
            before = stat[1]
            for _ in spans:
                shimmed(None)
            t3 = perf_counter()
            intervals = stat[1] - before
            inside.append((intervals - (t2 - t1 - (t1 - t0))) / _COST_SPANS)
            outside.append((t3 - t2 - (t1 - t0) - intervals) / _COST_SPANS)
        cost[kind] = (max(0.0, statistics.median(inside)), max(0.0, statistics.median(outside)))
    shimmed_gen.close()
    return cost


def _repro_modules():
    return [m for n, m in list(sys.modules.items()) if n.startswith("repro") and m is not None]


def install(recorder: Recorder) -> list:
    """Rebind every boundary to a shim feeding ``recorder``; returns the
    patch list :func:`uninstall` takes."""
    patches = []
    for name, module_name, attr, engaged, _ in BOUNDARIES:
        module = importlib.import_module(module_name)
        owner_name, _, fname = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = vars(owner)[fname]
        if inspect.isgeneratorfunction(original):
            shim = _generator_shim(recorder, name, original)
        else:
            shim = _function_shim(recorder, name, original, engaged)
        shim._bench_original = original
        if owner_name:
            patches.append((owner, fname, original))
            setattr(owner, fname, shim)
            continue
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, key, original))
                    setattr(mod, key, shim)
    return patches


def uninstall(patches: list) -> None:
    """Restore the originals, including names that modules imported
    while the shims were installed."""
    for owner, key, original in reversed(patches):
        setattr(owner, key, original)
    for mod in _repro_modules():
        for key, value in list(vars(mod).items()):
            original = getattr(value, "_bench_original", None)
            if original is not None:
                setattr(mod, key, original)


class Census:
    """Collect every ``System`` and ``Tracer`` built while active, and
    fold their public counters into :data:`COUNTS` plus the serve
    turbo split."""

    def __init__(self) -> None:
        self.systems: list = []
        self.tracers: list = []
        self.totals: dict[str, int] = {name: 0 for name, _ in COUNTS}
        self.totals["serve_turbo_requests"] = 0
        self.totals["serve_slow_requests"] = 0
        self._patches: list = []

    def __enter__(self) -> "Census":
        from repro.sim.trace import Tracer
        from repro.system import System

        systems, tracers = self.systems, self.tracers
        init, attach = System.__init__, Tracer.attach

        @functools.wraps(init)
        def counting_init(system, *args, **kwargs):
            init(system, *args, **kwargs)
            systems.append(system)

        @functools.wraps(attach)
        def counting_attach(tracer, kernel):
            attach(tracer, kernel)
            tracers.append(tracer)

        self._patches = [(System, "__init__", init), (Tracer, "attach", attach)]
        System.__init__ = counting_init
        Tracer.attach = counting_attach
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in self._patches:
            setattr(owner, key, original)
        self.harvest()

    def harvest(self) -> None:
        """Add the counters of the systems built so far, then drop them."""
        from repro.obs.telemetry import RUN_KINDS

        t = self.totals
        for system in self.systems:
            kernel = system.kernel
            stats = kernel.stats
            t["sim.engine.events"] += system.env.events_processed
            t["kernel.ledger.adds"] += sum(kernel.ledger.counts.values())
            t["kernel.stats.minor_faults"] += stats.minor_faults
            t["kernel.stats.nt_faults"] += stats.nt_faults
            t["kernel.stats.pages_migrated"] += sum(stats.migrations.values())
            t["kernel.stats.run_pages"] += sum(stats.run_pages[k] for k in RUN_KINDS)
            t["serve_turbo_requests"] += stats.serve_turbo_requests
            t["serve_slow_requests"] += stats.serve_slow_requests
        for tracer in self.tracers:
            t["sim.trace.samples"] += len(tracer.samples)
        self.systems.clear()
        self.tracers.clear()


def layer_metrics(recorder: Recorder, census: Census, traced_s: float,
                  overhead_pct: float) -> dict:
    """Every per-layer metric of one traced pass (``traced_s`` raw host
    seconds), by name."""
    out: dict[str, float] = {}
    for name, _module, _attr, engaged, _ in BOUNDARIES:
        calls, _incl, self_s, hits = recorder.stats[name]
        out[f"{name}.calls"] = calls
        if engaged:
            out[f"{name}.engaged_frac"] = hits / calls if calls else 0.0
        out[f"{name}.self_s"] = self_s
    for name, _ in COUNTS:
        out[name] = census.totals[name]
    turbo = census.totals["serve_turbo_requests"]
    served = turbo + census.totals["serve_slow_requests"]
    out["apps.servops.turbo_request_frac"] = turbo / served if served else 0.0
    out["unattributed_s"] = traced_s - recorder.self_total() - recorder.shim_s
    out["trace_shim_s"] = recorder.shim_s
    out["trace_overhead_pct"] = overhead_pct
    return out
