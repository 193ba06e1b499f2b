# Convenience targets for the RegHD reproduction.

PYTHON ?= python
# Run the package from source, as the tier-1 command and CI do.
FROM_SRC = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH}

.PHONY: install test bench-test bench parity examples reproduce clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

# The tier-1 suite.
test:
	$(FROM_SRC) $(PYTHON) -m pytest -x -q

# The repository benchmark's own tests, as CI runs them: the serving
# workloads expect the automatic backend choice, so REPRO_BACKEND is unset.
bench-test:
	env -u REPRO_BACKEND PYTHONPATH=src $(PYTHON) -m pytest bench/tests -q

bench:
	$(FROM_SRC) $(PYTHON) -m pytest benchmarks/

# One SHA-256 over compiled-plan and stream outputs of this tree's src/.
# `python tests/fixtures/parity.py OTHER/src` hashes another tree; equal
# hashes under the same REPRO_BACKEND mean bit-identical outputs.
parity:
	$(PYTHON) tests/fixtures/parity.py src

# Run every example end to end (a few minutes total).
examples:
	set -e; for f in examples/*.py; do echo "=== $$f ==="; $(PYTHON) $$f; done

# Regenerate everything EXPERIMENTS.md quotes and capture the logs.
reproduce:
	$(FROM_SRC) $(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(FROM_SRC) $(PYTHON) -m pytest benchmarks/ 2>&1 | tee bench_output.txt
	@echo "benchmark tables written under benchmarks/results/"

clean:
	rm -rf .pytest_cache .benchmarks benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
