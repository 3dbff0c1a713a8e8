"""NUMA memory policies, mirroring Linux's ``mempolicy.c`` semantics.

Policies decide where a page-fault allocates physical memory:

* ``DEFAULT`` — local allocation: the node of the faulting CPU. This is
  the "first-touch" behaviour the paper builds on (Section 2.2).
* ``BIND`` — only the given nodes, in order, else ``ENOMEM``.
* ``PREFERRED`` — the given node first, any other node as fallback.
* ``INTERLEAVE`` — round-robin by page offset across the node set; the
  paper's LU experiment allocates its matrix this way ("the best
  static allocation policy for this memory-bandwidth intensive
  problem").

Policies apply per-VMA (``mbind``) or per-process (``set_mempolicy``);
a VMA policy overrides the process default.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import Errno, SyscallError

__all__ = ["PolicyKind", "MemPolicy", "candidate_nodes"]


class PolicyKind(enum.Enum):
    """The four Linux memory-policy modes we model."""

    DEFAULT = "default"
    BIND = "bind"
    PREFERRED = "preferred"
    INTERLEAVE = "interleave"


@dataclass(frozen=True)
class MemPolicy:
    """One memory policy: a kind plus its node set."""

    kind: PolicyKind
    nodes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind is PolicyKind.DEFAULT:
            if self.nodes:
                raise SyscallError(Errno.EINVAL, "DEFAULT policy takes no nodes")
        elif self.kind is PolicyKind.PREFERRED:
            if len(self.nodes) != 1:
                raise SyscallError(Errno.EINVAL, "PREFERRED policy takes exactly one node")
        elif not self.nodes:
            raise SyscallError(Errno.EINVAL, f"{self.kind.value} policy needs a node set")
        if len(set(self.nodes)) != len(self.nodes):
            raise SyscallError(Errno.EINVAL, "duplicate nodes in policy")

    # convenience constructors ------------------------------------------------
    @classmethod
    def default(cls) -> "MemPolicy":
        """Local (first-touch) allocation."""
        return cls(PolicyKind.DEFAULT)

    @classmethod
    def bind(cls, *nodes: int) -> "MemPolicy":
        """Strict binding to ``nodes``."""
        return cls(PolicyKind.BIND, tuple(nodes))

    @classmethod
    def preferred(cls, node: int) -> "MemPolicy":
        """Prefer ``node``, fall back anywhere."""
        return cls(PolicyKind.PREFERRED, (node,))

    @classmethod
    def interleave(cls, *nodes: int) -> "MemPolicy":
        """Round-robin across ``nodes`` by page offset."""
        return cls(PolicyKind.INTERLEAVE, tuple(nodes))


def candidate_nodes(
    policy: MemPolicy, vpn: int, local_node: int, num_nodes: int
) -> tuple[list[int], bool]:
    """Allocation candidates for one page, best first.

    Returns ``(nodes, strict)``; with ``strict`` the fault must fail
    with ``ENOMEM`` rather than spill outside the list (BIND).
    ``vpn`` is the page's offset in its mapping (``vma.pgoff + idx``),
    which is what Linux interleaves on.
    """
    if policy.kind is PolicyKind.DEFAULT:
        order = [local_node] + [n for n in range(num_nodes) if n != local_node]
        return order, False
    if policy.kind is PolicyKind.PREFERRED:
        pref = policy.nodes[0]
        return [pref] + [n for n in range(num_nodes) if n != pref], False
    if policy.kind is PolicyKind.BIND:
        return list(policy.nodes), True
    # INTERLEAVE
    chosen = policy.nodes[vpn % len(policy.nodes)]
    rest = [n for n in policy.nodes if n != chosen]
    return [chosen] + rest, True
