"""Next-touch on shared mappings — paper future work.

Section 6: "Our Next-touch implementation should still be improved by
first supporting shared areas and file mappings instead of only
private anonymous pages so that all existing applications can benefit
from it."

The core :func:`~repro.kernel.syscalls.sys_madvise` faithfully returns
``EINVAL`` for shared VMAs, as the paper's implementation did. This
extension flips a kernel feature flag so marking succeeds there too —
the fault path itself needs no change, because migrating a shared
anonymous page within one process is mechanically identical (the
single-mapper case; cross-process shared files would additionally need
rmap walking, which is exactly why the paper deferred it).
"""

from __future__ import annotations

from ..kernel.core import Kernel

__all__ = ["enable_shared_next_touch", "shared_next_touch_enabled"]


def enable_shared_next_touch(kernel: Kernel) -> None:
    """Allow ``MADV_NEXTTOUCH`` on shared anonymous mappings."""
    kernel.shared_next_touch = True


def shared_next_touch_enabled(kernel: Kernel) -> bool:
    """Whether the extension is active on this kernel."""
    return kernel.shared_next_touch
