"""Serving experiment: the placement-policy race under KV traffic.

The paper measures migration mechanisms in isolation (Figures 4-8);
this experiment races them as *policies* under the workload the
roadmap cares about — a multi-tenant in-memory KV server with Zipfian
key popularity, hot-set drift and tenant churn
(:mod:`repro.apps.kvserver`). Every policy serves the same tenant mix
on a fresh system; the table reports per-policy throughput and the
latency tail the SLO gate defends:

* ``static`` — first-touch placement only, the ungated baseline;
* ``move_pages`` — a driver synchronously migrates the hot set with
  the patched ``move_pages`` (Section 3.3);
* ``nexttouch`` — the driver only *marks* the misplaced hot set; the
  clients' own accesses pull the pages over (Section 3.4);
* ``autonuma`` — the :class:`~repro.ext.autonuma.AutoNumaScanner`
  started on SLO breach, stopped on recovery;
* ``replicate`` — read replicas of the hot set on every client node,
  writes paying collapse + mprotect coherence (Section 6 future work).

``--full`` widens the race into a Zipf-skew sweep (one race per
``theta``), showing where each policy earns its keep: replication wins
skewed read-heavy mixes, next-touch wins drifting ones.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from ..apps.kvserver import (
    DEFAULT_SLO_US,
    POLICIES,
    KVServer,
    ServeStats,
    default_tenants,
    make_policy,
)
from ..obs.timeseries import SCHEMA as TIMESERIES_SCHEMA
from .common import ExperimentResult, fresh_system

__all__ = ["ServeResult", "race", "race_point", "run"]

#: Zipf skews raced by ``--full`` (theta; 0.9 is the default mix).
FULL_THETAS = (0.6, 0.9, 1.2)


class ServeResult(ExperimentResult):
    """The race table plus the full per-policy stats for the manifest."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: ``{label: ServeStats.to_dict()}`` for every raced run
        self.stats: dict[str, dict] = {}
        self.slo_us: float = DEFAULT_SLO_US

    def manifest_extra(self) -> dict:
        """Extra manifest block (``run_manifest(..., extra=...)``).

        Each policy's entry carries its telemetry ``series`` (rolling
        p99, migration rate, per-node occupancy over simulated time)
        alongside the headline numbers.
        """
        return {
            "serve": {
                "slo_us": self.slo_us,
                "timeseries_schema": TIMESERIES_SCHEMA,
                "policies": self.stats,
            }
        }


def race(
    policy: str,
    *,
    tenants: int = 3,
    keys: int = 128,
    clients: int = 2,
    requests: int = 800,
    theta: float = 0.9,
    slo_us: float = DEFAULT_SLO_US,
    gated: bool = True,
    seed: Optional[int] = None,
) -> ServeStats:
    """Serve one tenant mix under ``policy`` on a fresh system."""
    system = fresh_system()
    specs = default_tenants(
        tenants,
        system.machine.num_nodes,
        keys=keys,
        clients=clients,
        requests=requests,
        theta=theta,
    )
    server = KVServer(
        system,
        specs,
        make_policy(policy),
        slo_us=slo_us,
        # The static baseline has no driver to gate; racing policies
        # act only while a tenant's rolling p99 is at risk.
        gated=gated and policy != "static",
        seed=seed,
    )
    return server.run()


def race_point(point: tuple[float, str], **race_kwargs) -> ServeStats:
    """One point of the race: ``point`` is ``(theta, policy)``."""
    theta, policy = point
    return race(policy, theta=theta, **race_kwargs)


def run(
    full: bool = False,
    *,
    tenants: int = 3,
    keys: int = 128,
    clients: int = 2,
    requests: int = 800,
    slo_us: float = DEFAULT_SLO_US,
    policies: Optional[Sequence[str]] = None,
    gated: bool = True,
    seed: Optional[int] = None,
    map_fn=map,
) -> ServeResult:
    """Race the policies; ``full`` sweeps the Zipf skew as well.

    ``map_fn`` maps :func:`race_point` over every ``(theta, policy)``
    in order; :func:`repro.experiments.parallel.run_sweep` passes a
    process pool's. Every point gets the same ``seed``.
    """
    # A policy named twice races once: stats are keyed by its label.
    chosen = tuple(dict.fromkeys(policies)) if policies else POLICIES
    thetas = FULL_THETAS if full else (0.9,)
    result = ServeResult(
        experiment_id="serve",
        title=(
            f"KV serving: {tenants} tenants x {clients} clients, "
            f"SLO p99 <= {slo_us:g} us"
        ),
        x_label="policy",
        xs=list(chosen),
    )
    result.slo_us = slo_us
    point = partial(
        race_point,
        tenants=tenants,
        keys=keys,
        clients=clients,
        requests=requests,
        slo_us=slo_us,
        gated=gated,
        seed=seed,
    )
    raced = iter(map_fn(point, [(theta, policy) for theta in thetas for policy in chosen]))
    for theta in thetas:
        suffix = f" [theta={theta:g}]" if len(thetas) > 1 else ""
        columns = {
            f"req/s{suffix}": [],
            f"p50 us{suffix}": [],
            f"p99 us{suffix}": [],
            f"pages moved{suffix}": [],
            f"SLO breaches{suffix}": [],
        }
        for policy in chosen:
            stats = next(raced)
            label = f"{policy}@{theta:g}" if len(thetas) > 1 else policy
            result.stats[label] = stats.to_dict()
            cols = list(columns)
            columns[cols[0]].append(round(stats.throughput_rps, 1))
            columns[cols[1]].append(_fmt(stats.p50_us))
            columns[cols[2]].append(_fmt(stats.p99_us))
            columns[cols[3]].append(stats.pages_migrated)
            columns[cols[4]].append(stats.slo["breaches"])
        result.series.update(columns)
    result.notes.append(
        "every tenant loads on its home node and serves from the next "
        "one over — all traffic starts remote; gated drivers act only "
        "while the tenant's rolling p99 exceeds the SLO"
    )
    return result


def _fmt(value: Optional[float]):
    """Latency cell: rounded, or ``None`` below the quantile floor."""
    return None if value is None else round(value, 2)
