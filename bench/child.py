"""One benchmark child process (spawned by run.py, one at a time).

Modes:

* ``warm`` — import the package and exit (warms the disk cache);
* ``setup`` — import, run one tiny warm-up item, report ready, exit;
* ``run`` — as ``setup``, then at least ``--min-passes`` timed passes,
  and more while the next one should end within ``--seconds``;
* ``trace`` — as ``setup``, then one untraced and one traced pass.

Messages go to stdout as JSON lines; the items' own output is
discarded. A pass message lists every item's digest, structural
errors and paper references, the pass's host seconds (the sum of its
item times, checks excluded), the same seconds at the probe's
reference speed (``norm_s``, see hostspeed.py), and ``ru_maxrss``
after the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import sys
import tempfile
import traceback
from time import perf_counter

from golden import digest
from hostspeed import Normalizer
from workloads import SRC, WORKLOADS

PROTOCOL = sys.stdout


def emit(message: dict) -> None:
    PROTOCOL.write(json.dumps(message) + "\n")
    PROTOCOL.flush()


def run_item(item, quiet, census=None) -> tuple[float, dict]:
    """Run and check one item; returns (host seconds, record).

    Garbage is collected (untimed) before the item starts, so no item
    runs beside the unreclaimed cycles of the one before: ``ru_maxrss``
    then measures one item's live memory, not when the cycle collector
    last happened to run.
    """
    record = {"id": item.id, "work": item.work, "digest": None, "errors": [], "refs": []}
    gc.collect()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
            output = item.run()
    except Exception:  # an item that raises counts as failed; the run goes on
        output = None
        record["errors"].append(traceback.format_exc(limit=4))
    elapsed = perf_counter() - start
    if census is not None:
        census.harvest()
    if record["errors"]:
        return elapsed, record
    try:
        checked = item.check(output)
    except Exception:
        record["errors"].append(traceback.format_exc(limit=4))
        return elapsed, record
    record.update(digest=digest(checked.payload), errors=checked.errors, refs=checked.refs)
    return elapsed, record


def run_pass(number: int, items, quiet, normalizer=None, census=None) -> dict:
    """One pass over ``items``: raw host seconds and, with a
    ``normalizer``, seconds at the probe's reference speed."""
    wall = 0.0
    before = normalizer.total if normalizer is not None else 0.0
    records = []
    for item in items:
        elapsed, record = run_item(item, quiet, census)
        wall += elapsed
        if normalizer is not None:
            normalizer.add(elapsed)
        records.append(record)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    message = {"pass": number, "traced": census is not None, "wall_s": wall, "rss_mb": rss_mb,
               "items": records}
    if normalizer is not None:
        normalizer.flush()
        message["norm_s"] = normalizer.total - before
    return message


def traced_pass(number: int, items, quiet, normalizer, untraced: dict, out: str,
                workload: str) -> dict:
    from layers import Census, Recorder, install, layer_metrics, shim_cost, uninstall

    recorder = Recorder(cost=shim_cost())
    patches = install(recorder)
    try:
        with Census() as census:
            message = run_pass(number, items, quiet, normalizer, census)
    finally:
        uninstall(patches)
    overhead_pct = (message["norm_s"] / untraced["norm_s"] - 1.0) * 100.0
    message["layers"] = layer_metrics(recorder, census, message["wall_s"], overhead_pct)
    message["inclusive_s"] = {name: stat[1] for name, stat in recorder.stats.items()}
    spans = f"{workload}.spans.json"
    with open(os.path.join(out, spans), "w") as fh:
        json.dump(recorder.chrome_trace(), fh)
    message.update(spans=spans, spans_dropped=recorder.dropped,
                   shim_cost_us={kind: [s * 1e6 for s in c] for kind, c in recorder.cost.items()})
    return message


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/child.py")
    parser.add_argument("--mode", choices=("warm", "setup", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401  (the import is what the warm child measures)

    if args.mode == "warm":
        return 0
    workload = WORKLOADS[args.workload]
    with open(os.devnull, "w") as quiet, tempfile.TemporaryDirectory(
        prefix=f"{workload.name}-", dir=args.out
    ) as scratch:
        warmup = workload.build(args.seed, True, scratch)[0]
        _, record = run_item(warmup, quiet)
        if record["errors"]:
            print(f"warm-up item {warmup.id} failed:\n{record['errors'][0]}", file=sys.stderr)
            return 1
        items = workload.build(args.seed, args.tiny, scratch)
        emit({"ready": True})
        if args.mode == "setup":
            return 0
        # What set-up left alive lives to the end; frozen, the collection
        # before every item no longer walks it.
        gc.collect()
        gc.freeze()
        normalizer = Normalizer()
        if args.mode == "trace":
            untraced = run_pass(1, items, quiet, normalizer)
            emit(untraced)
            emit(traced_pass(2, items, quiet, normalizer, untraced, args.out, workload.name))
            return 0
        emit({"probe_s": normalizer.last})  # closes the parent's set-up timing
        start = perf_counter()
        number, last = 0, 0.0
        while number < args.min_passes or perf_counter() - start + last <= args.seconds:
            begun = perf_counter()
            number += 1
            emit(run_pass(number, items, quiet, normalizer))
            last = perf_counter() - begun
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
