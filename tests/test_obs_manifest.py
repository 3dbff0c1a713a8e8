"""Run-manifest structure, aggregation and serializability."""

import json

import pytest

from repro import MemPolicy, PROT_RW, System
from repro.obs import observe, run_manifest
from repro.obs.manifest import SCHEMA, git_revision, lock_table, machine_dict


def migrate_run():
    system = System()
    proc = system.create_process("m")

    def body(t):
        src = yield from t.mmap(1 << 16, PROT_RW, policy=MemPolicy.bind(0))
        dst = yield from t.mmap(1 << 16, PROT_RW, policy=MemPolicy.bind(1))
        yield from t.touch(src, 1 << 16)
        yield from t.touch(dst, 1 << 16)
        yield from t.memcpy(dst, src, 1 << 16)  # crosses the 0->1 link
        yield from t.move_range(src, 1 << 16, 1)

    thread = system.spawn(proc, 0, body)
    system.run_to(thread.join())
    return system


def test_manifest_keys_and_schema():
    manifest = run_manifest([migrate_run()], experiment="unit", wall_time_s=0.5)
    assert manifest["schema"] == SCHEMA
    for key in (
        "experiment", "repro_version", "git_revision", "machine", "cost_model",
        "num_systems", "sim_time_us", "kernel_stats", "numastat", "ledger",
        "locks", "links", "metrics",
    ):
        assert key in manifest, key
    assert manifest["experiment"] == "unit"
    assert manifest["num_systems"] == 1
    assert manifest["kernel_stats"]["pages_migrated"] == 16
    assert manifest["ledger"]["grand_total_us"] > 0
    assert manifest["links"]["0->1"] > 0
    json.dumps(manifest)  # fully JSON-serializable


def test_manifest_aggregates_across_systems():
    a, b = migrate_run(), migrate_run()
    manifest = run_manifest([a, b])
    assert manifest["num_systems"] == 2
    assert manifest["kernel_stats"]["pages_migrated"] == 32
    assert manifest["sim_time_us"]["total"] == pytest.approx(a.now + b.now)
    assert manifest["sim_time_us"]["max"] == pytest.approx(max(a.now, b.now))
    # Counters in the merged metrics snapshot add up too.
    assert manifest["metrics"]["kernel.pages_migrated"]["value"] == 32.0
    # Lock rows merged by name: one lru_lock:0 row, doubled counts.
    lru0 = [row for row in manifest["locks"] if row["name"] == "lru_lock:0"]
    single = lock_table([a])
    lru0_single = [row for row in single if row["name"] == "lru_lock:0"]
    if lru0 and lru0_single:
        assert lru0[0]["acquisitions"] == 2 * lru0_single[0]["acquisitions"]


def test_manifest_with_observation_tracers():
    with observe() as obs:
        migrate_run()
    metrics = obs.merged_metrics()
    manifest = run_manifest(obs.systems, metrics=metrics)
    # The caller's snapshot (with trace health) is used as given...
    assert manifest["metrics"] is metrics
    assert manifest["metrics"]["trace.samples"]["value"] > 0
    # ...and without one the systems' own metrics are merged.
    own = run_manifest(obs.systems)["metrics"]
    assert "trace.samples" not in own
    assert own["kernel.pages_migrated"] == metrics["kernel.pages_migrated"]


def test_manifest_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        run_manifest([])


def test_machine_dict_static_description():
    desc = machine_dict(System().machine)
    assert desc["name"] == "opteron-8347he-quad"
    assert desc["num_nodes"] == 4 and desc["num_cores"] == 16
    assert desc["links"] == ["0-1", "0-2", "1-3", "2-3"]
    assert len(desc["slit"]) == 4 and desc["slit"][0][0] == 10


def test_lock_table_ranked_by_wait_then_name():
    table = lock_table([migrate_run()], top=4)
    assert len(table) <= 4
    waits = [row["wait_us"] for row in table]
    assert waits == sorted(waits, reverse=True)
    assert all(row["acquisitions"] > 0 for row in table)


def test_git_revision_shape():
    rev = git_revision()
    assert rev is None or (isinstance(rev, str) and len(rev) == 40)


def test_manifest_extra_fields_merge():
    manifest = run_manifest([migrate_run()], extra={"custom": 1})
    assert manifest["custom"] == 1
