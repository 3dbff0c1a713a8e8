"""Shared experiment machinery: result tables, system factories, runners.

Every ``figN_*``/``tableN_*`` module exposes ``run(...) ->
ExperimentResult`` producing the same rows/series the paper reports;
the CLI and the tier-1 shape tests are thin wrappers over these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from ..hardware.timing import CostModel
from ..hardware.topology import Machine
from ..sched.thread import SimThread
from ..system import System
from ..util.tables import render_series

__all__ = ["ExperimentResult", "fresh_system", "run_thread", "default_page_counts"]


@dataclass
class ExperimentResult:
    """One regenerated table/figure."""

    experiment_id: str  #: e.g. "fig4"
    title: str
    x_label: str
    xs: list[Any]
    series: dict[str, list[Any]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        """ASCII rendering matching the paper's rows/series."""
        body = render_series(self.x_label, self.xs, self.series, title=self.title)
        if self.notes:
            body += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return body

    def series_of(self, name: str) -> list[Any]:
        """One named series (KeyError lists what exists)."""
        if name not in self.series:
            raise KeyError(f"{name!r} not in {sorted(self.series)}")
        return self.series[name]

    def _check_rectangular(self) -> None:
        """Every series must be as long as ``xs`` (exporters refuse ragged data)."""
        for name, values in self.series.items():
            if len(values) != len(self.xs):
                raise ValueError(
                    f"series {name!r} has {len(values)} values for {len(self.xs)} xs"
                )

    def to_csv(self) -> str:
        """CSV with the x column first, one column per series."""
        import csv
        import io

        self._check_rectangular()
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([self.x_label] + list(self.series))
        for i, x in enumerate(self.xs):
            writer.writerow([x] + [self.series[name][i] for name in self.series])
        return buf.getvalue()

    def to_dict(self) -> dict:
        """JSON-ready dict (schema ``repro.experiment_result/v1``).

        Top-level keys are in fixed schema order; series keys are
        sorted, so equal results always serialize byte-identically.
        NumPy scalars are coerced to native Python numbers.
        """
        self._check_rectangular()

        def native(v):
            return v.item() if hasattr(v, "item") else v

        return {
            "schema": "repro.experiment_result/v1",
            "experiment_id": self.experiment_id,
            "title": self.title,
            "x_label": self.x_label,
            "xs": [native(x) for x in self.xs],
            "series": {
                name: [native(v) for v in self.series[name]] for name in sorted(self.series)
            },
            "notes": list(self.notes),
        }

    def to_json(self, indent: int = 2) -> str:
        """The :meth:`to_dict` document as a JSON string."""
        import json

        return json.dumps(self.to_dict(), indent=indent)

    def save_json(self, directory) -> str:
        """Write ``<experiment_id>.json`` into ``directory``; returns the path."""
        import os

        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.experiment_id}.json")
        with open(path, "w") as fh:
            fh.write(self.to_json())
        return path

    def save_csv(self, directory) -> str:
        """Write ``<experiment_id>.csv`` into ``directory``; returns the path."""
        import os

        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.experiment_id}.csv")
        with open(path, "w") as fh:
            fh.write(self.to_csv())
        return path


def fresh_system(
    cost: Optional[CostModel] = None,
    machine: Optional[Machine] = None,
    **kwargs,
) -> System:
    """A clean paper-platform system (measurements never share state)."""
    if machine is None:
        machine = Machine.opteron_8347he_quad(cost) if cost else Machine.opteron_8347he_quad()
    return System(machine, **kwargs)


def run_thread(
    system: System,
    body: Callable[[SimThread], Generator],
    core: int = 0,
    process=None,
    name: str = "bench",
):
    """Run one thread body to completion; returns its value."""
    proc = process or system.create_process(name)
    thread = system.spawn(proc, core, body)
    return system.run_to(thread.join())


def default_page_counts(lo: int, hi: int, per_decade: int = 1) -> list[int]:
    """Power-of-two page counts from ``lo`` to ``hi`` inclusive."""
    counts = []
    n = lo
    while n <= hi:
        counts.append(n)
        n *= 2
    return counts
