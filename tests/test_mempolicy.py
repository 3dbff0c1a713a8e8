"""Unit tests for memory policies."""

import numpy as np
import pytest

from repro import PROT_READ, PROT_RW, Machine, System
from repro.errors import SyscallError
from repro.kernel.mempolicy import MemPolicy, PolicyKind, candidate_nodes
from repro.util import PAGE_SIZE


def test_default_prefers_local():
    nodes, strict = candidate_nodes(MemPolicy.default(), vpn=0, local_node=2, num_nodes=4)
    assert nodes[0] == 2
    assert sorted(nodes) == [0, 1, 2, 3]
    assert not strict


def test_preferred_puts_target_first():
    nodes, strict = candidate_nodes(MemPolicy.preferred(3), vpn=5, local_node=0, num_nodes=4)
    assert nodes[0] == 3
    assert not strict


def test_bind_is_strict():
    nodes, strict = candidate_nodes(MemPolicy.bind(1, 2), vpn=0, local_node=0, num_nodes=4)
    assert nodes == [1, 2]
    assert strict


def test_interleave_round_robin_by_vpn():
    pol = MemPolicy.interleave(0, 1, 2, 3)
    firsts = [candidate_nodes(pol, vpn, 0, 4)[0][0] for vpn in range(8)]
    assert firsts == [0, 1, 2, 3, 0, 1, 2, 3]


def test_interleave_subset():
    pol = MemPolicy.interleave(1, 3)
    firsts = [candidate_nodes(pol, vpn, 0, 4)[0][0] for vpn in range(4)]
    assert firsts == [1, 3, 1, 3]


def test_intended_nodes_match_per_page_candidates():
    """The vectorized intended node of each page is the first of its
    per-page candidates at its offset in the mapping (``pgoff + idx``)."""
    pol = MemPolicy.interleave(0, 2, 3)
    system = System(Machine.symmetric(4, 2))
    process = system.create_process("p")
    vma = process.addr_space.mmap(24 * PAGE_SIZE, PROT_RW, policy=pol)
    process.addr_space.apply_protection(vma.start, 5 * PAGE_SIZE, PROT_READ)
    right = process.addr_space.find_vma(vma.start + 5 * PAGE_SIZE)
    assert right.pgoff == 5
    idxs = np.arange(right.npages)
    vec = system.kernel.intended_nodes(process, right, idxs, 0)
    scalar = [candidate_nodes(pol, right.pgoff + int(i), 0, 4)[0][0] for i in idxs]
    assert vec.tolist() == scalar
    assert scalar[:3] == [3, 0, 2]  # offsets 5, 6, 7


def test_policy_validation():
    with pytest.raises(SyscallError):
        MemPolicy(PolicyKind.DEFAULT, (0,))
    with pytest.raises(SyscallError):
        MemPolicy(PolicyKind.BIND, ())
    with pytest.raises(SyscallError):
        MemPolicy(PolicyKind.PREFERRED, (0, 1))
    with pytest.raises(SyscallError):
        MemPolicy(PolicyKind.INTERLEAVE, (1, 1))


def test_policies_are_value_objects():
    assert MemPolicy.bind(0, 1) == MemPolicy.bind(0, 1)
    assert MemPolicy.bind(0, 1) != MemPolicy.bind(1, 0)
