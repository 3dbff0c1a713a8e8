"""Smoke tests for the experiment harness (tiny parameter ranges).

The paper's shape assertions live in ``tests/test_paper_claims.py``;
these verify the harness mechanics: result structure, determinism,
rendering, CLI, and the bit-exact fig4/fig5/fig7 pins.
"""

import json
import re

import pytest

from repro.experiments import (
    blas1_check,
    fig4_throughput,
    fig5_nexttouch,
    fig6_breakdown,
    fig7_scalability,
    fig8_matmul,
    fig_serve,
    table1_lu,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.common import ExperimentResult, default_page_counts
from repro.obs.timeseries import SCHEMA
from repro.obs.tracepoints import TRACEPOINTS


def test_default_page_counts():
    assert default_page_counts(1, 16) == [1, 2, 4, 8, 16]
    assert default_page_counts(4, 4) == [4]


def test_result_render_and_series():
    r = ExperimentResult("x", "Title", "n", [1, 2], {"a": [3.0, 4.0]}, notes=["hello"])
    text = r.render()
    assert "Title" in text and "hello" in text
    assert r.series_of("a") == [3.0, 4.0]
    with pytest.raises(KeyError):
        r.series_of("missing")


def test_fig4_structure():
    r = fig4_throughput.run([4, 16])
    assert r.experiment_id == "fig4"
    assert set(r.series) == set(fig4_throughput.SERIES)
    assert all(len(v) == 2 for v in r.series.values())
    assert all(v > 0 for vs in r.series.values() for v in vs)


def test_fig4_is_deterministic():
    a = fig4_throughput.run([16])
    b = fig4_throughput.run([16])
    assert a.series == b.series


def test_fig4_fig5_fig7_match_committed_values():
    """The headline MB/s at 256 and 1024 pages, pinned to the last bit.

    The simulation is deterministic, so any change to these figures is
    a behaviour change: update the constants only with a reviewed
    reason.
    """
    fig4 = fig4_throughput.run([256, 1024])
    fig5 = fig5_nexttouch.run([256, 1024])
    fig7 = fig7_scalability.run([1024], thread_counts=(1, 4))
    at = {
        name: dict(zip(r.xs, r.series[name]))
        for r in (fig4, fig5, fig7)
        for name in r.series
    }
    assert at["memcpy"][1024] == 1798.4563725135206
    assert at["migrate_pages"][1024] == 707.8391981509076
    assert at["move_pages"][256] == 544.6084297300886
    assert at["move_pages"][1024] == 580.8075436917297
    assert at["move_pages (no patch)"][1024] == 148.77098675190027
    assert at["User Next-touch"][1024] == 571.7474399730512
    assert at["Kernel Next-touch"][256] == 778.9677749865084
    assert at["Kernel Next-touch"][1024] == 779.7062925062983
    assert at["Sync - 1 Thread"][1024] == 580.8075436917297
    assert at["Sync - 4 Threads"][1024] == 893.1357765703691
    assert at["Lazy - 1 Thread"][1024] == 792.0179441566935
    assert at["Lazy - 4 Threads"][1024] == 1111.8787449551978
    # The headline paper shapes hold even at these sizes.
    assert at["memcpy"][1024] > at["move_pages"][1024]
    assert at["Kernel Next-touch"][1024] > at["User Next-touch"][1024]
    assert at["Sync - 4 Threads"][1024] > at["Sync - 1 Thread"][1024]


def test_fig5_structure():
    r = fig5_nexttouch.run([4, 16])
    assert set(r.series) == set(fig5_nexttouch.SERIES)


def test_fig6_breakdowns_sum_to_100():
    for result in (fig6_breakdown.run_user([16]), fig6_breakdown.run_kernel([16])):
        total = sum(series[0] for series in result.series.values())
        assert total == pytest.approx(100.0, abs=0.01)


def test_fig7_structure():
    r = fig7_scalability.run([64], thread_counts=(1, 2))
    assert "Sync - 1 Thread" in r.series
    assert "Lazy - 2 Threads" in r.series


def test_fig7_rejects_bad_strategy():
    from repro.experiments.fig7_scalability import measure_parallel_migration

    with pytest.raises(ValueError):
        measure_parallel_migration(16, 1, "teleport")


def test_fig8_structure():
    r = fig8_matmul.run([128], num_threads=4)
    assert set(r.series) == set(fig8_matmul.SERIES)


def test_table1_structure():
    r = table1_lu.run(configs=((1024, 256),), num_threads=4)
    assert r.series["static (s)"][0] > 0
    assert r.series["next-touch (s)"][0] > 0
    assert len(r.series["paper %"]) == 1


def test_blas1_structure():
    r = blas1_check.run([1 << 14], num_threads=4)
    assert len(r.series["improvement %"]) == 1


def test_result_csv_round_trip():
    import csv
    import io

    r = ExperimentResult("xid", "T", "n", [1, 2, 4], {"a": [3.0, 4.5, 6.0], "b": [5, 6, 7]})
    rows = list(csv.reader(io.StringIO(r.to_csv())))
    assert rows[0] == ["n", "a", "b"]
    xs = [int(row[0]) for row in rows[1:]]
    a = [float(row[1]) for row in rows[1:]]
    b = [int(row[2]) for row in rows[1:]]
    assert (xs, a, b) == (r.xs, r.series["a"], r.series["b"])


def test_save_csv_round_trip(tmp_path):
    import csv

    r = ExperimentResult("figx", "T", "n", [1, 2], {"a": [3.25, 4.5]})
    path = r.save_csv(tmp_path)
    rows = list(csv.reader(open(path)))
    assert [float(row[1]) for row in rows[1:]] == r.series["a"]


def test_result_to_json_schema_and_ordering():
    r = ExperimentResult(
        "figx", "Title", "pages", [1, 2], {"zeta": [1.0, 2.0], "alpha": [3.0, 4.0]},
        notes=["n1"],
    )
    doc = json.loads(r.to_json())
    assert list(doc) == [
        "schema", "experiment_id", "title", "x_label", "xs", "series", "notes",
    ]
    assert doc["schema"] == "repro.experiment_result/v1"
    assert list(doc["series"]) == ["alpha", "zeta"]  # sorted => deterministic
    assert doc["xs"] == [1, 2] and doc["notes"] == ["n1"]
    # Equal results serialize byte-identically regardless of insertion order.
    swapped = ExperimentResult(
        "figx", "Title", "pages", [1, 2], {"alpha": [3.0, 4.0], "zeta": [1.0, 2.0]},
        notes=["n1"],
    )
    assert r.to_json() == swapped.to_json()


def test_result_to_json_coerces_numpy_scalars():
    import numpy as np

    r = ExperimentResult("figx", "T", "n", [np.int64(1)], {"a": [np.float64(2.5)]})
    doc = json.loads(r.to_json())
    assert doc["xs"] == [1] and doc["series"]["a"] == [2.5]


def test_ragged_series_rejected_by_exporters():
    r = ExperimentResult("figx", "T", "n", [1, 2], {"a": [3.0]})
    for method in (r.to_json, r.to_csv, r.to_dict):
        with pytest.raises(ValueError, match="series 'a' has 1 values for 2 xs"):
            method()


def test_save_json(tmp_path):
    r = ExperimentResult("fig99", "T", "n", [1], {"a": [2.5]})
    path = r.save_json(tmp_path)
    assert path.endswith("fig99.json")
    assert json.load(open(path))["series"]["a"] == [2.5]


def test_result_to_csv():
    r = ExperimentResult("xid", "T", "n", [1, 2], {"a": [3, 4], "b": [5, 6]})
    csv_text = r.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "n,a,b"
    assert lines[1] == "1,3,5"
    assert lines[2] == "2,4,6"


def test_result_save_csv(tmp_path):
    r = ExperimentResult("fig99", "T", "n", [1], {"a": [2.5]})
    path = r.save_csv(tmp_path)
    assert path.endswith("fig99.csv")
    assert "2.5" in open(path).read()


def test_cli_csv_flag(tmp_path, capsys):
    assert cli_main(["fig5", "--csv", str(tmp_path)]) == 0
    assert (tmp_path / "fig5.csv").exists()


def test_cli_json_and_trace_flags(tmp_path):
    assert cli_main(["fig5", "--json", str(tmp_path), "--trace", str(tmp_path)]) == 0
    result = json.load(open(tmp_path / "fig5.json"))
    assert result["schema"] == "repro.experiment_result/v1"
    assert set(result["series"]) == set(fig5_nexttouch.SERIES)
    manifest = json.load(open(tmp_path / "fig5.manifest.json"))
    assert manifest["schema"] == "repro.run_manifest/v1"
    assert manifest["experiment"] == "fig5"
    assert manifest["num_systems"] > 0
    assert manifest["kernel_stats"]["pages_migrated"] > 0
    metrics = json.load(open(tmp_path / "fig5.metrics.json"))
    assert metrics["kernel.pages_migrated"]["value"] > 0
    trace = json.load(open(tmp_path / "fig5.trace.json"))
    assert isinstance(trace, list) and trace
    assert all({"name", "ph", "ts", "dur"} <= set(e) for e in trace)
    assert any(e["ph"] == "X" for e in trace)


def test_cli_without_artifact_flags_writes_nothing(tmp_path, capsys):
    assert cli_main(["fig5"]) == 0
    assert list(tmp_path.iterdir()) == []


def test_cli_check_flag(tmp_path, capsys):
    from repro.check import INVARIANTS

    assert cli_main(["fig5", "--check", "--json", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert "invariants OK" in err
    manifest = json.load(open(tmp_path / "fig5.manifest.json"))
    assert manifest["invariants"]["checked"] == sorted(INVARIANTS)
    assert manifest["invariants"]["violations"] == []
    assert manifest["invariants"]["systems"] > 0
    metrics = json.load(open(tmp_path / "fig5.metrics.json"))
    assert metrics["check.invariant_violations"]["value"] == 0


def test_cli_observed_artifacts_match_slow_path(tmp_path, monkeypatch, capsys):
    """An observed run takes the fast paths and still writes what the
    per-page reference path writes. Only host-side fields may differ:
    argv, wall time and the engine's event count."""
    def run(out) -> None:
        d = str(out)
        assert cli_main(["fig4", "--json", d, "--trace", d, "--check"]) == 0

    fast, slow = tmp_path / "fast", tmp_path / "slow"
    run(fast)
    monkeypatch.setenv("REPRO_SLOW_PATH", "1")  # read at kernel construction
    run(slow)
    for name in ("fig4.json", "fig4.trace.json"):
        assert (fast / name).read_bytes() == (slow / name).read_bytes(), name

    def scrubbed(path, name: str) -> dict:
        doc = json.load(open(path / name))
        metrics = doc.get("metrics", doc)
        assert metrics.pop("sim.events_processed")
        doc.pop("argv", None)
        doc.pop("wall_time_s", None)
        return doc

    for name in ("fig4.manifest.json", "fig4.metrics.json"):
        assert scrubbed(fast, name) == scrubbed(slow, name), name


def test_cli_check_flag_alone_runs_checkers(capsys):
    assert cli_main(["fig4", "--check"]) == 0
    assert "invariants OK" in capsys.readouterr().err


NUMA_MAPS_RE = re.compile(
    r"^[0-9a-f]{12} (default|bind:[\d,]+|prefer:\d+|interleave:[\d,]+) "
    r"(anon|file)=\d+"
)


def test_cli_observation_artifacts_parse(tmp_path, capsys):
    """Figures 1 and 2 under every whole-run observer: each artifact
    parses, and the tracepoint stream matches the registry schemas."""
    d = str(tmp_path)
    flags = ["--tracepoints", d, "--trace", d, "--timeseries", d, "--check"]
    assert cli_main(["flows", *flags]) == 0
    events = [json.loads(line) for line in open(tmp_path / "flows.tracepoints.jsonl")]
    assert events
    for event in events:
        fields = set(event) - {"name", "t_us", "sys"}
        assert fields == set(TRACEPOINTS[event["name"]].fields), event
    names = {event["name"] for event in events}
    assert {"migrate:phase_copy", "fault:enter", "move_pages:batch"} <= names
    for name in ("flows.phases.trace.json", "flows.trace.json"):
        trace = json.load(open(tmp_path / name))
        assert any(e.get("ph") == "X" for e in trace), name
    maps = (tmp_path / "flows.numa_maps.txt").read_text().splitlines()
    for line in maps:
        assert not line or line.startswith("#") or NUMA_MAPS_RE.match(line), line
    vmstat = (tmp_path / "flows.vmstat.txt").read_text().splitlines()
    rows = [line.split() for line in vmstat if line and not line.startswith("#")]
    assert rows and all(len(row) == 2 and re.fullmatch(r"\d+", row[1]) for row in rows)
    series = json.load(open(tmp_path / "flows.timeseries.json"))
    assert series["schema"] == SCHEMA and series["points"]
    counter_trace = json.load(open(tmp_path / "flows.timeseries.trace.json"))
    counters = [e for e in counter_trace if e.get("ph") == "C"]
    assert counters and all("value" in e["args"] for e in counters)


def test_cli_serve_manifest_matches_slow_path(tmp_path, monkeypatch, capsys):
    """A tiny two-tenant race writes the same manifest on the default
    and the forced-slow path, and its serve block is fully populated."""
    issued = 2 * 2 * 200  # tenants x clients x requests

    def run(out) -> dict:
        argv = ["serve", "--tenants", "2", "--requests", "200"]
        assert cli_main([*argv, "--policies", "nexttouch", "--json", str(out)]) == 0
        assert "req/s" in capsys.readouterr().out
        json.load(open(out / "serve.metrics.json"))
        manifest = json.load(open(out / "serve.manifest.json"))
        serve = manifest["serve"]
        assert isinstance(serve["slo_us"], float)
        assert set(serve["policies"]) == {"nexttouch"}
        stats = serve["policies"]["nexttouch"]
        assert stats["requests"] == issued and stats["throughput_rps"] > 0
        p99 = stats["latency_us"]["p99"]
        assert isinstance(p99, float) and p99 > 0
        tenants = stats["tenants"]
        assert len(tenants) == 2
        for tenant in tenants.values():
            assert tenant["requests"] == 2 * 200
            assert tenant["latency_us"]["p99"] is not None
        assert stats["series"]["schema"] == SCHEMA
        points = stats["series"]["points"]
        assert any("serve.p99_us" in p for p in points)
        assert all(a["t_us"] <= b["t_us"] for a, b in zip(points, points[1:]))
        kstats = manifest["kernel_stats"]
        assert kstats["serve_turbo_requests"] + kstats["serve_slow_requests"] == issued
        for field in ("argv", "wall_time_s"):
            manifest.pop(field)
        return manifest

    fast = run(tmp_path / "fast")
    monkeypatch.setenv("REPRO_SLOW_PATH", "1")  # read at kernel construction
    assert run(tmp_path / "slow") == fast


def test_cli_workers_sweep_matches_serial(tmp_path, capsys):
    serial, sharded = tmp_path / "serial", tmp_path / "sharded"
    assert cli_main(["fig5", "--json", str(serial)]) == 0
    assert cli_main(["fig5", "--workers", "2", "--json", str(sharded)]) == 0
    assert (sharded / "fig5.json").read_bytes() == (serial / "fig5.json").read_bytes()
    manifest = json.load(open(sharded / "fig5.manifest.json"))
    assert manifest["schema"] == "repro.sweep_manifest/v1"
    assert (sharded / "fig5.metrics.json").exists()
    # Whole-run observers cannot follow the points into the workers.
    assert cli_main(["fig5", "--workers", "2", "--check"]) == 2


def test_cli_workers_non_sweep_writes_run_artifacts(tmp_path, capsys):
    assert cli_main(["blas1", "--workers", "2", "--json", str(tmp_path)]) == 0
    assert "not a shardable sweep" in capsys.readouterr().err
    manifest = json.load(open(tmp_path / "blas1.manifest.json"))
    assert manifest["schema"] == "repro.run_manifest/v1"
    assert (tmp_path / "blas1.metrics.json").exists()


def test_cli_whatif_json_merges_machine_sizes(tmp_path, capsys):
    """The what-if machines have 2, 4 and 8 nodes; the manifest sums
    numastat per node index over all of them."""
    assert cli_main(["whatif", "--json", str(tmp_path)]) == 0
    manifest = json.load(open(tmp_path / "whatif.manifest.json"))
    assert manifest["numastat"]
    assert all(len(row) == 8 for row in manifest["numastat"].values())


def test_cli_runs_one_experiment(capsys):
    assert cli_main(["fig5"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    assert "Kernel Next-touch" in out


def test_cli_rejects_unknown_experiment():
    # "bench" was a subcommand once; bench/run.py replaced it.
    for name in ("fig99", "bench"):
        with pytest.raises(SystemExit) as exc:
            cli_main([name])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag, value",
    [("--tenants", "0"), ("--slo-us", "-1"), ("--requests", "0"), ("--requests", "-5")],
)
def test_cli_serve_rejects_non_positive_shapes(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["serve", flag, value])
    assert exc.value.code == 2
    assert "must be positive" in capsys.readouterr().err


def test_serve_races_a_repeated_policy_once():
    result = fig_serve.run(policies=["static", "static"], requests=10)
    assert result.xs == ["static"]
    assert list(result.stats) == ["static"]


@pytest.mark.parametrize("flag", ["--json", "--trace", "--workers"])
def test_cli_introspect_rejects_flags_it_cannot_honour(flag, tmp_path, capsys):
    out = tmp_path / "out"
    value = "2" if flag == "--workers" else str(out)
    assert cli_main(["introspect", flag, value]) == 2
    assert f"introspect cannot be combined with {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["fig3", "flows", "calibration"])
def test_cli_text_only_experiments_reject_csv(experiment, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_main([experiment, "--csv", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{experiment} cannot be combined with --csv" in err
    assert not out.exists()


def test_whatif_machines_structure():
    from repro.experiments import whatif_machines as wm

    r = wm.run_machines([16, 256])
    assert set(r.series) == set(wm.MACHINES)
    # Same per-page mechanism everywhere, at every size.
    for i in range(len(r.xs)):
        values = [series[i] for series in r.series.values()]
        assert max(values) - min(values) < 1.0


def test_whatif_numa_factor_payoff_monotonic():
    from repro.experiments import whatif_machines as wm

    r = wm.run_numa_factors([1.2, 1.6, 2.0, 3.0])
    passes = r.series_of("passes to amortize migration")
    # The bigger the NUMA factor, the sooner migration pays: at the
    # paper's 1.2 it takes an order of magnitude more reuse than at 3.
    assert all(a > b for a, b in zip(passes, passes[1:]))
    assert passes[0] > 5 * passes[-1]


def test_cli_whatif_and_calibration(capsys):
    assert cli_main(["calibration"]) == 0
    out = capsys.readouterr().out
    assert "move_pages base overhead" in out


def test_cli_fig3_topology(capsys):
    assert cli_main(["fig3"]) == 0
    out = capsys.readouterr().out
    assert "opteron-8347he-quad" in out
    assert "Transport" in out


def test_whatif_eras_structure():
    from repro.experiments import whatif_machines as wm

    r = wm.run_eras(npages=256)
    assert "2009 4x Opteron (paper)" in r.series
    assert "modern 2-socket" in r.series
    old = dict(zip(r.xs, r.series["2009 4x Opteron (paper)"]))
    new = dict(zip(r.xs, r.series["modern 2-socket"]))
    # The mechanism is far faster today...
    assert new["kernel NT MB/s"] > old["kernel NT MB/s"] * 3
    assert new["move_pages base us"] < old["move_pages base us"] / 3
    # ...but the smaller NUMA factor raises the break-even.
    assert new["passes to amortize"] > old["passes to amortize"]
