"""Smoke tests: the fast examples must keep running end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "lazy_migration.py",
    "introspection.py",
    "auto_numa_balancing.py",
    "adaptive_mesh.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()


def test_quickstart_shows_the_three_mechanisms():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=180,
    )
    out = result.stdout
    assert "first-touched" in out
    assert "move_pages" in out
    assert "madvise(NEXTTOUCH)" in out
    assert "numa_maps" in out
