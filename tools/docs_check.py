#!/usr/bin/env python3
"""Docs linter: fail when docs reference code that does not exist.

Scans the user-facing Markdown (``docs/*.md``, ``README.md``,
``EXPERIMENTS.md``, ``DESIGN.md``, ``CONTRIBUTING.md``) for four kinds
of reference and verifies each against the tree. ``CHANGES.md`` is
history: its entries name files, flags and targets as they were, so it
is not linted.

1. dotted names — ``repro.obs.metrics.MetricsRegistry`` must resolve:
   the longest importable module prefix is imported, remaining
   components looked up with ``getattr``;
2. file paths — ``src/repro/obs/manifest.py`` (or ``repro/...``) must
   exist, and so must repo-relative ``.py`` paths into the
   ``REPO_DIRS`` (``tests/test_x.py``; the retired ``benchmarks``
   directory is listed so a stale pointer into it fails). Only ``.py``
   paths count: docs also name generated artifacts such as
   ``bench/out/report.json``;
3. CLI usage — on lines mentioning ``repro-experiments``, the
   experiment name must be a real CLI choice and every ``--flag`` must
   be accepted by the parser — both read from the live
   ``repro.experiments.cli.build_parser()``, so a documented flag that
   argparse would reject fails even if the string appears in the
   source;
4. make targets — every backticked ``make <target>`` must name a rule
   that actually exists in the Makefile.

It additionally holds two docs to their contracts:

* ``docs/correctness.md``: the invariant table must list exactly the
  checkers registered in ``repro.check.invariants.INVARIANTS`` — a
  checker documented but never implemented fails, and so does one
  implemented but never documented;
* ``docs/observability.md`` §9: the tracepoint table must list exactly
  the names in ``repro.obs.tracepoints.TRACEPOINTS``, each with its
  exact field list;
* ``docs/observability.md`` §10: the telemetry counter table must list
  exactly the names in ``repro.obs.telemetry.COUNTERS``, each with its
  exact unit.

Run via ``make docs-check``. Exit status 1 lists every broken
reference with ``file:line``.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

DOC_FILES = sorted((REPO / "docs").glob("*.md")) + [
    REPO / "README.md",
    REPO / "EXPERIMENTS.md",
    REPO / "DESIGN.md",
    REPO / "CONTRIBUTING.md",
]

# Docs the manual promises: the glob above only sees files that exist,
# so each of these is appended when missing and then reported as a
# broken reference by the main loop.
REQUIRED_DOCS = [
    REPO / "docs" / "serving.md",
]
for _doc in REQUIRED_DOCS:
    if _doc not in DOC_FILES:
        DOC_FILES.append(_doc)

# A `/vN` suffix marks an artifact schema id (repro.run_manifest/v1),
# not a module reference — matched so it can be skipped.
DOTTED_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z_0-9]*)+(/v\d+)?")
# Top-level directories whose files docs cite by repo-relative path.
REPO_DIRS = ("tests", "tools", "examples", "benchmarks")
PATH_RE = re.compile(
    r"\b(?:src/)?repro/[A-Za-z_0-9/]+\.py\b"
    rf"|(?<![\w/])(?:{'|'.join(REPO_DIRS)})/[A-Za-z_0-9/]+\.py\b"
)
CLI_LINE_RE = re.compile(r"repro-experiments\s+([A-Za-z_0-9-]+)")
FLAG_RE = re.compile(r"--[a-z][a-z-]*")
# Only backticked invocations count — `make perf` is a promise, while
# "make sure" in prose is not.
MAKE_RE = re.compile(r"`make ([a-z][a-z0-9_-]*)`")


def make_targets() -> set[str]:
    """Every rule name defined in the top-level Makefile."""
    makefile = REPO / "Makefile"
    if not makefile.exists():
        return set()
    return set(
        re.findall(r"^([A-Za-z0-9_-]+):", makefile.read_text(), re.MULTILINE)
    )


def cli_vocabulary() -> tuple[set[str], set[str]]:
    """(experiment choices, accepted flags) from the live parser.

    Walks ``repro.experiments.cli.build_parser()`` so the vocabulary is
    exactly what argparse accepts — subcommands come from the
    positional's ``choices``, flags from every action's long option
    strings.
    """
    from repro.experiments import cli

    parser = cli.build_parser()
    choices: set[str] = set()
    flags: set[str] = set()
    for action in parser._actions:
        flags.update(o for o in action.option_strings if o.startswith("--"))
        if action.dest == "experiment" and action.choices:
            choices.update(action.choices)
    return choices, flags


def check_dotted(ref: str) -> bool:
    """Import the longest module prefix, getattr the rest."""
    parts = ref.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def check_path(ref: str) -> bool:
    if ref.startswith("src/") or ref.split("/", 1)[0] in REPO_DIRS:
        return (REPO / ref).exists()
    return (REPO / "src" / ref).exists()


def check_invariant_contract() -> list[str]:
    """docs/correctness.md's invariant table == the live registry.

    Documented names are the backticked first cells of the table rows
    between the '## 2. Kernel invariants' heading and the next section.
    """
    from repro.check.invariants import INVARIANTS

    doc = REPO / "docs/correctness.md"
    if not doc.exists():
        return [f"{doc.relative_to(REPO)}: missing (invariant contract unverifiable)"]
    text = doc.read_text()
    match = re.search(r"^## 2\..*?(?=^## )", text, re.MULTILINE | re.DOTALL)
    if match is None:
        return [f"{doc.relative_to(REPO)}: no '## 2.' invariant section found"]
    documented = set(re.findall(r"^\| `([a-z_]+)` \|", match.group(0), re.MULTILINE))
    errors = []
    for name in sorted(documented - set(INVARIANTS)):
        errors.append(
            f"{doc.relative_to(REPO)}: invariant {name!r} documented but "
            "not registered in repro.check.invariants.INVARIANTS"
        )
    for name in sorted(set(INVARIANTS) - documented):
        errors.append(
            f"{doc.relative_to(REPO)}: invariant {name!r} registered but "
            "missing from the docs/correctness.md table"
        )
    return errors


def check_tracepoint_contract() -> list[str]:
    """docs/observability.md §9's tracepoint table == the registry.

    Rows are ``| `name` | `field, field, ...` | meaning |`` between the
    '## 9.' heading and the next section (or end of file); both the
    name set and each row's field list must match
    ``repro.obs.tracepoints.TRACEPOINTS`` exactly.
    """
    from repro.obs.tracepoints import TRACEPOINTS

    doc = REPO / "docs/observability.md"
    if not doc.exists():
        return [f"{doc.relative_to(REPO)}: missing (tracepoint contract unverifiable)"]
    text = doc.read_text()
    match = re.search(r"^## 9\..*?(?=^## |\Z)", text, re.MULTILINE | re.DOTALL)
    if match is None:
        return [f"{doc.relative_to(REPO)}: no '## 9.' tracepoint section found"]
    documented = {
        name: tuple(f.strip() for f in fields.split(","))
        for name, fields in re.findall(
            r"^\| `([a-z_]+:[a-z_]+)` \| `([^`]+)` \|", match.group(0), re.MULTILINE
        )
    }
    errors = []
    for name in sorted(set(documented) - set(TRACEPOINTS)):
        errors.append(
            f"{doc.relative_to(REPO)}: tracepoint {name!r} documented but "
            "not registered in repro.obs.tracepoints.TRACEPOINTS"
        )
    for name in sorted(set(TRACEPOINTS) - set(documented)):
        errors.append(
            f"{doc.relative_to(REPO)}: tracepoint {name!r} registered but "
            "missing from the docs/observability.md table"
        )
    for name in sorted(set(documented) & set(TRACEPOINTS)):
        if documented[name] != TRACEPOINTS[name].fields:
            errors.append(
                f"{doc.relative_to(REPO)}: tracepoint {name!r} fields "
                f"{list(documented[name])} do not match the registry's "
                f"{list(TRACEPOINTS[name].fields)}"
            )
    return errors


def check_telemetry_contract() -> list[str]:
    """docs/observability.md §10's counter table == the registry.

    Rows are ``| `name` | `unit` | meaning |`` between the '## 10.'
    heading and the next section (or end of file); wildcard names
    (``<reason>``, ``<kind>``, ``node<N>``) are compared literally —
    the registry spells them the same way.
    """
    from repro.obs.telemetry import COUNTERS, VARIANT_COUNTERS

    registry = {name: unit for name, unit, _desc in COUNTERS + VARIANT_COUNTERS}
    doc = REPO / "docs/observability.md"
    if not doc.exists():
        return [f"{doc.relative_to(REPO)}: missing (telemetry contract unverifiable)"]
    text = doc.read_text()
    match = re.search(r"^## 10\..*?(?=^## |\Z)", text, re.MULTILINE | re.DOTALL)
    if match is None:
        return [f"{doc.relative_to(REPO)}: no '## 10.' telemetry section found"]
    documented = dict(
        re.findall(
            r"^\| `([a-zA-Z_.<>]+)` \| `([a-z]+)` \|", match.group(0), re.MULTILINE
        )
    )
    errors = []
    for name in sorted(set(documented) - set(registry)):
        errors.append(
            f"{doc.relative_to(REPO)}: counter {name!r} documented but "
            "not registered in repro.obs.telemetry.COUNTERS"
        )
    for name in sorted(set(registry) - set(documented)):
        errors.append(
            f"{doc.relative_to(REPO)}: counter {name!r} registered but "
            "missing from the docs/observability.md table"
        )
    for name in sorted(set(documented) & set(registry)):
        if documented[name] != registry[name]:
            errors.append(
                f"{doc.relative_to(REPO)}: counter {name!r} unit "
                f"{documented[name]!r} does not match the registry's "
                f"{registry[name]!r}"
            )
    return errors


def main() -> int:
    choices, flags = cli_vocabulary()
    targets = make_targets()
    errors: list[str] = list(check_invariant_contract())
    errors.extend(check_tracepoint_contract())
    errors.extend(check_telemetry_contract())
    for path in DOC_FILES:
        if not path.exists():
            errors.append(f"{path.relative_to(REPO)}: listed doc file missing")
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            where = f"{path.relative_to(REPO)}:{lineno}"
            for match in DOTTED_RE.finditer(line):
                if match.group(1) is not None:
                    continue  # schema id, not a module
                if not check_dotted(match.group(0)):
                    errors.append(f"{where}: unresolvable name {match.group(0)!r}")
            for ref in PATH_RE.findall(line):
                if not check_path(ref):
                    errors.append(f"{where}: missing file {ref!r}")
            for match in CLI_LINE_RE.finditer(line):
                name = match.group(1)
                # Placeholders like <exp> or figN in prose are fine.
                if name.isidentifier() and name not in choices:
                    errors.append(f"{where}: unknown experiment {name!r}")
            if "repro-experiments" in line:
                for flag in FLAG_RE.findall(line):
                    if flag not in flags:
                        errors.append(f"{where}: unknown flag {flag!r}")
            for target in MAKE_RE.findall(line):
                if target not in targets:
                    errors.append(f"{where}: unknown make target {target!r}")
    if errors:
        print(f"docs-check: {len(errors)} broken reference(s)", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    print(f"docs-check: OK ({len(DOC_FILES)} files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
