"""The fuzzer pipeline: deterministic generation, differential runs,
shrinking, and replayable reproducer artifacts."""

import pytest

from repro.check import generate_ops, run_ops, save_reproducer, load_reproducer, shrink
from repro.check.fuzzer import MAX_REPRO_OPS, _selftest, main, replay_reproducer
from repro.check.harness import INJECTION_MODES, MACHINE_SPEC, DiffHarness
from repro.sim.rng import DEFAULT_SEED


def find_injected_failure(inject="nt-drop", base=3000, n_ops=20, attempts=40):
    """First (seed, ops, failure) where the injection bites."""
    for attempt in range(attempts):
        seed = base + attempt
        ops = generate_ops(seed, n_ops)
        failure = run_ops(ops, inject=inject)
        if failure is not None:
            return seed, ops, failure
    pytest.fail(f"{inject!r} injection never triggered in {attempts} seeds")


def test_generate_ops_is_deterministic():
    a = generate_ops(123, 40)
    b = generate_ops(123, 40)
    assert a == b
    assert generate_ops(124, 40) != a


def test_generated_references_always_resolve():
    failure = run_ops(generate_ops(DEFAULT_SEED, 30))
    assert failure is None


def test_clean_runs_have_no_divergence():
    for seed in range(DEFAULT_SEED, DEFAULT_SEED + 10):
        failure = run_ops(generate_ops(seed, 20))
        assert failure is None, f"seed {seed}: {failure.detail}"


def test_injected_fault_shrinks_small(tmp_path):
    seed, ops, failure = find_injected_failure()
    minimal = shrink(ops, failure.signature, inject="nt-drop")
    assert len(minimal) <= MAX_REPRO_OPS
    final = run_ops(minimal, inject="nt-drop")
    assert final is not None and final.signature == failure.signature


def test_same_seed_same_minimal_reproducer():
    seed, ops, failure = find_injected_failure()
    first = shrink(ops, failure.signature, inject="nt-drop")
    again = shrink(generate_ops(seed, len(ops)), failure.signature, inject="nt-drop")
    assert first == again


def test_reproducer_roundtrip(tmp_path):
    seed, ops, failure = find_injected_failure()
    minimal = shrink(ops, failure.signature, inject="nt-drop")
    final = run_ops(minimal, inject="nt-drop")
    path = save_reproducer(
        tmp_path / "repro.json", seed=seed, ops=minimal, failure=final, inject="nt-drop"
    )
    doc = load_reproducer(path)
    assert doc["ops"] == minimal
    assert doc["machine"] == MACHINE_SPEC
    replayed = replay_reproducer(path)
    assert replayed is not None and replayed.signature == failure.signature


def test_load_reproducer_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "something/else", "ops": []}')
    with pytest.raises(ValueError):
        load_reproducer(path)


def test_shrink_rejects_non_failing_input():
    ops = generate_ops(DEFAULT_SEED, 10)
    with pytest.raises(ValueError):
        shrink(ops, ("outcome", "touch"))


def test_subsequences_are_safe_to_run():
    """Delta-debugging only works if any subsequence is a valid run."""
    ops = generate_ops(DEFAULT_SEED, 25)
    assert run_ops(ops[1::2]) is None  # drops mmaps/forks mid-stream
    assert run_ops(ops[::-1]) is None  # even reversed: refs skip cleanly


def test_selftest_passes(tmp_path):
    assert _selftest(DEFAULT_SEED, 20, tmp_path) == 0
    assert (tmp_path / "selftest-nt-drop.json").exists()


#: the check each injection mode trips: its Failure signature
INJECTION_SIGNATURES = {
    "nt-drop": ("divergence", "madv_nt"),
    "node-cache": ("invariant", "pte_consistency"),
    "ref-leak": ("invariant", "frame_refcounts"),
    "prot-drift": ("divergence", "mprotect"),
}


@pytest.mark.parametrize("inject", sorted(INJECTION_SIGNATURES))
def test_other_injection_modes_are_caught(inject):
    _seed, _ops, failure = find_injected_failure(inject=inject, base=4000, n_ops=25, attempts=60)
    assert failure.signature == INJECTION_SIGNATURES[inject]


def test_every_injection_mode_has_a_signature():
    assert set(INJECTION_SIGNATURES) == set(INJECTION_MODES)


def test_prot_drift_is_seen_only_by_the_layout_compare():
    """A kernel VMA whose protection drifted keeps every PTE and counter
    the oracle expects: the layout messages are the whole failure."""
    _seed, _ops, failure = find_injected_failure(inject="prot-drift", base=4000, n_ops=25,
                                                 attempts=60)
    assert failure.detail and all(" layout: kernel (" in line for line in failure.detail)


@pytest.mark.parametrize("inject", ["nt-dorp", ""])
def test_unknown_injection_mode_is_rejected(inject):
    with pytest.raises(ValueError, match="unknown injection mode"):
        DiffHarness(inject=inject)
    with pytest.raises(ValueError, match="unknown injection mode"):
        run_ops(generate_ops(DEFAULT_SEED, 5), inject=inject)


@pytest.mark.parametrize(
    "argv", [["--runs", "0"], ["--runs", "-1"], ["--ops", "0"], ["--ops", "-3"], ["--inject", "bogus"]]
)
def test_fuzzer_cli_rejects_requests_that_check_nothing(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--out", str(tmp_path)])
    assert exit_.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
