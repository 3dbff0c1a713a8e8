# Convenience targets for the repro project.
#
# All targets work from a bare checkout: PYTHONPATH gets src/ prepended
# so an editable install is optional.

PYTHON ?= python
PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

.PHONY: test verify perf fuzz fuzz-quick docs-check experiments examples loc clean

test:
	$(PYTHON) -m pytest tests/ -q

# The default local verification path: the tier-1 suite (which also
# runs the docs linter, tests/test_docs_check.py, and the CLI artifact
# checks of the observed flows and serve runs in tests/test_experiments.py),
# the quick differential fuzz run, and the host benchmark's tiny-size
# golden-digest check (bench/golden.json).
verify: test fuzz-quick
	$(PYTHON) -m pytest bench/ -q

# Differential fuzzing: random-but-seeded syscall workloads run against
# both the kernel and the reference oracle (src/repro/check/), with the
# invariant checkers on after every op. Failures shrink to replayable
# JSON reproducers under results/fuzz/. See docs/correctness.md.
fuzz:
	$(PYTHON) -m repro.check --runs 600 --ops 50 --selftest --out results/fuzz

# The tier-1-sized variant (~2s): 200 sequences plus the shrinker
# selftest (injects a fault, asserts it shrinks to a tiny reproducer).
# Part of `make verify`.
fuzz-quick:
	$(PYTHON) -m repro.check --runs 200 --ops 25 --selftest --out results/fuzz

# The host-speed benchmark: seven workloads, end-to-end and per-layer
# metrics, every simulated output checked against bench/golden.json.
# Writes its report under bench/out/. See bench/README.md.
perf:
	$(PYTHON) bench/run.py

# Fail if docs reference modules/files/CLI flags that don't exist.
docs-check:
	$(PYTHON) tools/docs_check.py

experiments:
	$(PYTHON) -m repro.experiments.cli all

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f; done

loc:
	find src tests examples tools -name '*.py' | xargs wc -l | tail -1

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
