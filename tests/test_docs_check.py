"""The docs linter: resolves good references, catches broken ones."""

import importlib.util
import pathlib

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools" / "docs_check.py"


@pytest.fixture(scope="module")
def docs_check():
    spec = importlib.util.spec_from_file_location("docs_check", TOOLS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_dotted_resolves_modules_and_attributes(docs_check):
    assert docs_check.check_dotted("repro.obs.metrics")
    assert docs_check.check_dotted("repro.obs.metrics.MetricsRegistry")
    assert docs_check.check_dotted("repro.sim.trace.Tracer.to_chrome_trace")
    assert docs_check.check_dotted("repro.hardware.timing.CostModel")


def test_check_dotted_rejects_broken_references(docs_check):
    assert not docs_check.check_dotted("repro.nonexistent_module")
    assert not docs_check.check_dotted("repro.obs.metrics.NoSuchClass")
    assert not docs_check.check_dotted("repro.sim.trace.Tracer.no_such_method")


def test_check_path(docs_check):
    assert docs_check.check_path("src/repro/obs/manifest.py")
    assert docs_check.check_path("repro/report.py")  # src/ prefix optional
    assert not docs_check.check_path("src/repro/obs/missing.py")
    # Repo-relative paths into tests/, tools/ and examples/.
    assert docs_check.check_path("tests/test_docs_check.py")
    assert docs_check.check_path("tools/docs_check.py")
    assert docs_check.check_path("examples/quickstart.py")
    assert not docs_check.check_path("tests/test_missing.py")
    # Only .py paths are matched, and only from the start of a path.
    line = (
        "`tests/test_paper_claims.py::test_fig4_large_buffers`, "
        "bench/out/report.json, bench/tests/x.py, src/repro/report.py"
    )
    assert docs_check.PATH_RE.findall(line) == [
        "tests/test_paper_claims.py",
        "src/repro/report.py",
    ]


def test_cli_vocabulary_contains_new_surface(docs_check):
    choices, flags = docs_check.cli_vocabulary()
    assert {"fig4", "all", "introspect"} <= choices
    assert {"--csv", "--json", "--trace", "--workers", "--timeseries",
            "--check"} <= flags


def test_invariant_contract_in_sync(docs_check):
    assert docs_check.check_invariant_contract() == []


def test_invariant_contract_detects_drift(docs_check, monkeypatch):
    from repro.check import invariants

    monkeypatch.setitem(invariants.INVARIANTS, "ghost_checker", lambda k: [])
    errors = docs_check.check_invariant_contract()
    assert any("ghost_checker" in e for e in errors)


def test_repo_docs_are_clean(docs_check):
    assert docs_check.main() == 0
