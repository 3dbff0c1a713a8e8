"""Chrome/Perfetto trace-event export of tracer samples.

The :class:`~repro.sim.trace.Tracer` already holds exactly what the
trace-event format wants — ``(start, duration, tag)`` — so the export
is a straight mapping to *complete* events (``"ph": "X"``):

* ``ts``/``dur`` are microseconds in both formats, no conversion;
* the tag's first dotted component (``move_pages``, ``nt``, ``blas``)
  becomes the event category and its own thread row, so Perfetto lays
  the run out like :meth:`Tracer.timeline` does;
* each simulated system maps to one ``pid``.

The output is the JSON-array flavour of the format: every element has
``name``/``ph``/``ts``/``dur`` (metadata rows use 0/0) and loads
directly in https://ui.perfetto.dev or ``chrome://tracing``.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

__all__ = ["chrome_trace_events", "write_chrome_trace"]


def _group(tag: str) -> str:
    return tag.split(".", 1)[0]


def chrome_trace_events(
    samples: Iterable,
    *,
    pid: int = 0,
    process_name: Optional[str] = None,
) -> list[dict]:
    """Trace events for an iterable of ``TraceSample``-likes.

    Samples need ``start_us``, ``duration_us`` and ``tag`` attributes.
    Thread ids are assigned per top-level tag group, in first-seen
    order; ``thread_name`` metadata rows label them.
    """
    samples = list(samples)
    tids: dict[str, int] = {}
    events: list[dict] = []
    if process_name is not None:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "dur": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": process_name},
            }
        )
    for sample in samples:
        group = _group(sample.tag)
        tid = tids.get(group)
        if tid is None:
            tid = tids[group] = len(tids)
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "ts": 0,
                    "dur": 0,
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": group},
                }
            )
        events.append(
            {
                "name": sample.tag,
                "cat": group,
                "ph": "X",
                "ts": float(sample.start_us),
                "dur": float(sample.duration_us),
                "pid": pid,
                "tid": tid,
            }
        )
    return events


def write_chrome_trace(path, events: list[dict]) -> str:
    """Write an event list as a ``.trace.json`` file; returns the path.

    ``json.dumps`` then one write: ``json.dump`` streams through the
    pure-Python encoder, ``dumps`` runs the C one, and the bytes are
    the same.
    """
    with open(path, "w") as fh:
        fh.write(json.dumps(events))
    return str(path)
