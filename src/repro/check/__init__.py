"""Correctness harness: oracle, invariants, differential fuzzer.

Three cooperating layers keep the simulated kernel honest (see
``docs/correctness.md``):

* :mod:`repro.check.oracle` — a deliberately simple reference memory
  model replaying the same op stream as the real kernel;
* :mod:`repro.check.invariants` — named checkers walking live kernel
  state (usable as a pytest fixture or the ``--check`` CLI flag);
* :mod:`repro.check.harness` / :mod:`repro.check.fuzzer` — the
  differential executor and the seeded workload fuzzer that shrinks
  failures to replayable JSON reproducers.
"""

from .harness import DiffHarness, Failure, OpExecutor, fuzz_machine
from .invariants import (
    INVARIANTS,
    InvariantViolation,
    Violation,
    assert_invariants,
    check_kernel,
    check_system,
)
from .oracle import Oracle
from .fuzzer import (
    REPRODUCER_SCHEMA,
    generate_ops,
    load_reproducer,
    replay_reproducer,
    run_ops,
    save_reproducer,
    shrink,
)

__all__ = [
    "DiffHarness",
    "Failure",
    "OpExecutor",
    "fuzz_machine",
    "INVARIANTS",
    "InvariantViolation",
    "Violation",
    "assert_invariants",
    "check_kernel",
    "check_system",
    "Oracle",
    "REPRODUCER_SCHEMA",
    "generate_ops",
    "load_reproducer",
    "replay_reproducer",
    "run_ops",
    "save_reproducer",
    "shrink",
]
