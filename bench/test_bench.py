"""Tests of the benchmark itself: ``python -m pytest bench/ -q``.

They run the workloads at tiny sizes, so they say nothing about speed.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

import calibrate
import golden
import layers
import run
from child import run_item
from workloads import END_TO_END, ROOT, SRC, WORKLOADS, describe

sys.path.insert(0, str(SRC))

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------- the shims ----
def test_generator_shim_preserves_send_throw_close_and_return():
    recorder = layers.Recorder()
    closed = []

    def inner():
        got = yield "first"
        try:
            yield got * 2
        except KeyError as exc:
            got = yield f"caught {exc.args[0]}"
        try:
            yield "last"
        finally:
            closed.append(True)
        return got + 1

    shim = layers._generator_shim(recorder, "kernel.fault.handle_fault", inner)
    gen = shim()
    assert next(gen) == "first"
    assert gen.send(5) == 10
    assert gen.throw(KeyError("k")) == "caught k"
    assert gen.send(41) == "last"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == 42

    gen = shim()
    next(gen)
    gen.send(1)
    with pytest.raises(ValueError):
        gen.throw(ValueError("unhandled"))

    gen = shim()
    next(gen)
    gen.send(1)
    gen.send(None)
    gen.close()
    assert closed == [True, True]
    calls, inclusive, self_s, _ = recorder.stats["kernel.fault.handle_fault"]
    assert calls == 3 and inclusive == self_s > 0
    assert recorder._stack == []


def test_generator_shim_passes_engine_interrupt_through():
    from repro.sim.engine import Environment, Interrupt

    recorder = layers.Recorder()

    def sleeper(env):
        try:
            yield env.timeout(10)
        except Interrupt as exc:
            yield env.timeout(1)
            return ("interrupted", exc.cause, env.now)
        return "slept"

    shim = layers._generator_shim(recorder, "kernel.access.touch_range", sleeper)
    env = Environment()
    victim = env.process(shim(env))

    def killer(env):
        yield env.timeout(3)
        victim.interrupt("stop")

    env.process(killer(env))
    env.run()
    assert victim.value == ("interrupted", "stop", 4.0)
    assert recorder.stats["kernel.access.touch_range"][0] == 1


def test_self_time_excludes_nested_shims():
    recorder = layers.Recorder()

    def leaf():
        return sum(range(20000))

    leaf_shim = layers._function_shim(recorder, "kernel.runops.migrate_run", leaf, True)

    def outer():
        return [leaf_shim() for _ in range(3)]

    outer_shim = layers._function_shim(recorder, "sim.engine.step", outer, False)
    outer_shim()
    calls, inclusive, self_s, engaged = recorder.stats["kernel.runops.migrate_run"]
    assert (calls, engaged) == (3, 3)
    _, outer_incl, outer_self, _ = recorder.stats["sim.engine.step"]
    assert outer_self == pytest.approx(outer_incl - inclusive)
    assert recorder.self_total() == pytest.approx(outer_incl)
    assert [s[4] for s in recorder.spans] == [1, 1, 1, 0]


def test_shim_cost_moves_from_self_time_to_shim_s():
    cost = layers.shim_cost()
    assert set(cost) == {"function", "generator"}
    assert all(inside >= 0 and outside >= 0 for inside, outside in cost.values())
    assert sum(cost["function"]) > 0 and sum(cost["generator"]) > 0
    recorder = layers.Recorder(cost=cost)
    leaf_shim = layers._function_shim(recorder, "kernel.runops.migrate_run", lambda: 1, True)

    def outer():
        return [leaf_shim() for _ in range(1000)]

    layers._function_shim(recorder, "sim.engine.step", outer, False)()
    inside, outside = cost["function"]
    assert recorder.shim_s == pytest.approx(1001 * (inside + outside))
    # Every second of the top-level interval, plus its own outside cost,
    # is either some boundary's self time or shim cost.
    _, start, end, _, _ = recorder.spans[-1]
    assert recorder.self_total() + recorder.shim_s == pytest.approx(end - start + outside)
    _, outer_incl, outer_self, _ = recorder.stats["sim.engine.step"]
    _, leaf_incl, _, _ = recorder.stats["kernel.runops.migrate_run"]
    assert outer_self == pytest.approx(outer_incl - leaf_incl)


# ------------------------------------------------ tiny traced workloads ----
@pytest.fixture(scope="module")
def tiny_runs():
    """Every workload at tiny size, untraced then traced, in this process."""
    out = {}
    with open(os.devnull, "w") as quiet, tempfile.TemporaryDirectory() as scratch:
        for name, workload in WORKLOADS.items():
            items = workload.build(golden.DEFAULT_SEED, True, scratch)
            plain = [run_item(item, quiet)[1] for item in items]
            recorder = layers.Recorder()
            patches = layers.install(recorder)
            try:
                with layers.Census() as census:
                    traced = [run_item(item, quiet, census)[1] for item in items]
            finally:
                layers.uninstall(patches)
            out[name] = (plain, traced, layers.layer_metrics(recorder, census, 1.0, 0.0))
    return out


def test_traced_digests_equal_untraced_and_golden(tiny_runs):
    gold = golden.load()
    for name, (plain, traced, _) in tiny_runs.items():
        assert all(not r["errors"] for r in plain + traced), name
        assert [r["digest"] for r in traced] == [r["digest"] for r in plain], name
        want = golden.expected(gold, name, tiny=True)
        assert {r["id"]: r["digest"] for r in plain} == want, name


def test_shims_are_removed_after_the_traced_pass():
    from repro.kernel import access, fault
    from repro.sim.engine import Environment

    patches = layers.install(layers.Recorder())
    assert access.demand_zero_run is fault.demand_zero_run
    assert hasattr(access.demand_zero_run, "_bench_original")
    layers.uninstall(patches)
    assert not hasattr(access.demand_zero_run, "_bench_original")
    assert not hasattr(Environment.step, "_bench_original")


def test_every_boundary_records_work_on_its_workload(tiny_runs):
    for name, _module, _attr, _engaged, workload in layers.BOUNDARIES:
        assert tiny_runs[workload][2][f"{name}.calls"] > 0, (name, workload)
    for name, workload in layers.COUNTS:
        assert tiny_runs[workload][2][name] > 0, (name, workload)
    assert tiny_runs["serve-batch"][2]["apps.servops.turbo_request_frac"] > 0


# ------------------------------------------------------ the command ----
@pytest.mark.parametrize("corrupt", [False, True])
def test_golden_check_decides_the_exit_code(tmp_path, capsys, monkeypatch, corrupt):
    doc = golden.load()
    if corrupt:
        item = sorted(doc["tiny"]["fuzz-mixed"])[0]
        doc["tiny"]["fuzz-mixed"][item] = "0" * 64
    monkeypatch.setattr(golden, "load", lambda: doc)
    code = run.main(["--workload", "fuzz-mixed", "--tiny", "--out", str(tmp_path / "out")])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    fail_frac = report["workloads"]["fuzz-mixed"]["extra"]["fail_frac"]
    if corrupt:
        assert code != 0 and not result["correct"] and result["failed"] > 0 and fail_frac > 0
    else:
        assert code == 0 and result["correct"] and result["failed"] == 0 and fail_frac == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {name for name, *_ in END_TO_END}


def test_benchmark_json_is_the_describe_output():
    proc = subprocess.run([sys.executable, "bench/run.py", "--describe"], cwd=ROOT,
                          capture_output=True, text=True, check=True)
    committed = (ROOT / "BENCHMARK.json").read_text()
    assert committed == proc.stdout
    assert json.loads(committed) == describe()


def test_benchmark_json_obeys_the_contract_limits():
    doc = describe()
    assert list(doc) == ["command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"]
    assert 2 <= len(doc["workloads"]) <= 8 and 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128 and 1 <= doc["run_seconds"] <= 60
    names = [m["name"] for m in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]]
    assert all(_NAME.match(n) for n in names)
    assert len(set(m["name"] for m in doc["end_to_end"] + doc["per_layer"])) == len(
        doc["end_to_end"]) + len(doc["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    metrics = doc["end_to_end"] + doc["per_layer"]
    assert all(_UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_bounds_are_derived_from_the_committed_calibration():
    reference = json.loads((ROOT / "bench" / "results" / "reference.json").read_text())
    assert calibrate.derive_bounds(reference["workloads"]) == reference["bounds"]
    assert {name: bound for name, _unit, _better, bound in END_TO_END} == {
        name: b["bound"] for name, b in reference["bounds"].items()}


def test_without_the_simulator_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig4-bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
