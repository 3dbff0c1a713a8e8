"""Guard: kernel state is declared where it lives, not bolted on.

A module that stores state on another module's object under a private
name (``setattr(kernel, "_flag", ...)``, ``obj._x = ...  # type:
ignore[attr-defined]``) and probes for it elsewhere with
``getattr(obj, "_x", None)`` spreads one object's layout over every
reader, each with its own "not there yet" branch. Surgery code that
copies objects field by field then cannot see that state and drops it.
This test walks ``src/repro`` and fails on either form. The same holds
the other way round: the kernel asks a lock or channel whether it is
free instead of reading the fields its ``acquire`` tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
_PROBES = {"getattr", "setattr", "hasattr"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_probes(source: str) -> list[tuple[int, str]]:
    """``(line, attribute)`` of every getattr/setattr/hasattr call whose
    attribute is a string literal naming a private attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _PROBES
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
            and _private(node.args[1].value)
        ):
            found.append((node.lineno, node.args[1].value))
    return found


def attr_defined_ignores(source: str) -> list[int]:
    """Lines silencing a type checker's undeclared-attribute error."""
    return [
        n for n, line in enumerate(source.splitlines(), 1) if "type: ignore[attr-defined]" in line
    ]


def test_detectors_catch_both_forms():
    bolted = (
        'x = getattr(kernel, "_ext_flag", None)\n'
        'setattr(kernel, "_ext_flag", True)\n'
        'hasattr(vma, "_file")\n'
        'kernel.swap = device  # type: ignore[attr-defined]\n'
    )
    assert [attr for _, attr in private_probes(bolted)] == ["_ext_flag", "_ext_flag", "_file"]
    assert attr_defined_ignores(bolted) == [4]
    declared = (
        'getattr(result, "manifest_extra", None)\n'
        'getattr(generator, "__name__", "process")\n'
        'getattr(self.oracle, f"op_{kind}")\n'
    )
    assert private_probes(declared) == [] and attr_defined_ignores(declared) == []


def test_src_declares_its_state():
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        rel = path.relative_to(SRC.parent)
        problems += [f"{rel}:{line}: probe of {attr!r}" for line, attr in private_probes(source)]
        problems += [f"{rel}:{line}: attr-defined ignore" for line in attr_defined_ignores(source)]
    assert problems == []


#: Lock and channel internals: ``Semaphore`` (``_available``,
#: ``_waiters``), ``RwLock`` (``_writer``, ``_wait_writers``) and
#: ``BandwidthResource`` (``_active``). Their owners answer for them:
#: ``can_acquire()``, ``can_acquire_read()``, ``active_transfers``.
_LOCK_INTERNALS = {"_available", "_waiters", "_writer", "_wait_writers", "_active"}


def internal_reads(source: str) -> list[tuple[int, int, str]]:
    """``(line, column, attribute)`` of every access to a lock or channel
    internal (``obj._waiters``, ``obj._active``, ...)."""
    return sorted(
        (node.lineno, node.col_offset, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in _LOCK_INTERNALS
    )


def test_internal_read_detector():
    source = (
        "if lock._available <= 0 or lock._waiters:\n"
        "    pass\n"
        "busy = sem._writer or sem._wait_writers or channel._active\n"
        "ok = lock.can_acquire() and not channel.active_transfers\n"
        "channel._wake_generation += 1\n"
    )
    assert [(line, attr) for line, _col, attr in internal_reads(source)] == [
        (1, "_available"), (1, "_waiters"), (3, "_writer"), (3, "_wait_writers"), (3, "_active"),
    ]


def test_kernel_asks_locks_and_channels_instead_of_reading_them():
    problems = []
    for path in sorted((SRC / "kernel").glob("*.py")):
        rel = path.relative_to(SRC.parent)
        problems += [
            f"{rel}:{line}: reads {attr}" for line, _col, attr in internal_reads(path.read_text())
        ]
    assert problems == []
