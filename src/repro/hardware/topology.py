"""Machine topology: NUMA nodes, cores, memory sizes, interconnect.

A :class:`Machine` is a pure description — no simulation state — so the
same machine can be instantiated into many independent experiments.
The default builder :func:`Machine.opteron_8347he_quad` reproduces the
paper's platform (Section 4.1, Figure 3): four quad-core 1.9 GHz
Opteron 8347HE sockets, 8 GB and a 2 MB shared L3 per socket,
HyperTransport square interconnect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import ConfigurationError
from ..util.units import GiB
from .caches import CacheModel
from .interconnect import Interconnect
from .timing import CostModel, opteron_8347he

__all__ = ["Core", "NumaNode", "Machine"]


@dataclass(frozen=True)
class Core:
    """One processing core, attached to exactly one NUMA node."""

    id: int
    node_id: int


@dataclass(frozen=True)
class NumaNode:
    """One NUMA node: a memory bank plus its local cores."""

    id: int
    core_ids: tuple[int, ...]
    mem_bytes: int
    l3: CacheModel


class Machine:
    """Topology description of a cache-coherent NUMA host."""

    def __init__(
        self,
        nodes: Sequence[NumaNode],
        interconnect: Interconnect,
        cost: CostModel,
        name: str = "machine",
    ) -> None:
        if len(nodes) != interconnect.num_nodes:
            raise ConfigurationError(
                f"{len(nodes)} nodes but interconnect describes {interconnect.num_nodes}"
            )
        self.name = name
        self.nodes: tuple[NumaNode, ...] = tuple(nodes)
        self.interconnect = interconnect
        self.cost = cost
        cores: list[Core] = []
        seen: set[int] = set()
        for node in self.nodes:
            for cid in node.core_ids:
                if cid in seen:
                    raise ConfigurationError(f"core {cid} appears on two nodes")
                seen.add(cid)
                cores.append(Core(cid, node.id))
        cores.sort(key=lambda c: c.id)
        if [c.id for c in cores] != list(range(len(cores))):
            raise ConfigurationError("core ids must be dense 0..N-1")
        self.cores: tuple[Core, ...] = tuple(cores)
        #: src node -> :meth:`numa_factor_row`, filled on first use
        self._factor_rows: dict[int, tuple[float, ...]] = {}

    # ------------------------------------------------------------ queries --
    @property
    def num_nodes(self) -> int:
        """Number of NUMA nodes."""
        return len(self.nodes)

    @property
    def num_cores(self) -> int:
        """Total number of cores."""
        return len(self.cores)

    def node_of_core(self, core_id: int) -> int:
        """NUMA node id hosting ``core_id``."""
        return self.cores[core_id].node_id

    def cores_of_node(self, node_id: int) -> tuple[int, ...]:
        """Core ids local to ``node_id``."""
        return self.nodes[node_id].core_ids

    def hops(self, src_node: int, dst_node: int) -> int:
        """HT hop count between two nodes."""
        return self.interconnect.hops(src_node, dst_node)

    def numa_factor(self, src_node: int, dst_node: int) -> float:
        """Access-cost multiplier from ``src_node`` to memory on
        ``dst_node`` (1.0 locally, 1.2-1.4 remotely on the default
        profile, matching the paper)."""
        return self.cost.numa_factor(self.hops(src_node, dst_node))

    def numa_factor_row(self, src_node: int) -> tuple[float, ...]:
        """:meth:`numa_factor` from ``src_node`` to every node, cached.

        The vectorized access-cost path weights a page-count histogram
        against this row on every touch, so the row is computed once
        per source node per machine instance.
        """
        row = self._factor_rows.get(src_node)
        if row is None:
            row = self._factor_rows[src_node] = tuple(
                self.numa_factor(src_node, dst) for dst in range(self.num_nodes)
            )
        return row

    def distance_matrix(self) -> list[list[int]]:
        """SLIT-style distance matrix (10 local, 16/22 remote)."""
        return self.interconnect.distance_matrix()

    def validate_node(self, node_id: int) -> None:
        """Raise :class:`ConfigurationError` for an out-of-range node."""
        if not (0 <= node_id < self.num_nodes):
            raise ConfigurationError(f"node {node_id} out of range 0..{self.num_nodes - 1}")

    # ------------------------------------------------------------ builders --
    @classmethod
    def opteron_8347he_quad(cls, cost: CostModel | None = None) -> "Machine":
        """The paper's host: 4 sockets x 4 cores, 8 GB/node, 2 MB L3."""
        cost = cost or opteron_8347he()
        cache = CacheModel(size=cost.l3_size, line=cost.cache_line)
        nodes = [
            NumaNode(i, tuple(range(4 * i, 4 * i + 4)), 8 * GiB, cache) for i in range(4)
        ]
        return cls(nodes, Interconnect.square(cost.link_bw), cost, name="opteron-8347he-quad")

    @classmethod
    def symmetric(
        cls,
        num_nodes: int,
        cores_per_node: int,
        mem_per_node: int = 4 * GiB,
        cost: CostModel | None = None,
        fully_connected: bool = True,
    ) -> "Machine":
        """A generic symmetric NUMA machine for tests and what-if runs."""
        cost = cost or opteron_8347he()
        cache = CacheModel(size=cost.l3_size, line=cost.cache_line)
        nodes = [
            NumaNode(
                i,
                tuple(range(cores_per_node * i, cores_per_node * (i + 1))),
                mem_per_node,
                cache,
            )
            for i in range(num_nodes)
        ]
        if num_nodes == 1:
            ic = Interconnect(1, [], cost.link_bw)
        elif fully_connected or num_nodes != 4:
            ic = Interconnect.fully_connected(num_nodes, cost.link_bw)
        else:
            ic = Interconnect.square(cost.link_bw)
        return cls(nodes, ic, cost, name=f"symmetric-{num_nodes}x{cores_per_node}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Machine {self.name}: {self.num_nodes} nodes x "
            f"{len(self.nodes[0].core_ids)} cores>"
        )
