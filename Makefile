# Single entry point for "is this change shippable":
#
#   make verify     tier-1 pytest + the bench regression gate
#   make test       tier-1 pytest only
#   make bench      regenerate BENCH_transient.json (full workloads)
#   make bench-check  gate only: rerun committed workloads, fail on a
#                     >15% speedup regression vs BENCH_transient.json
#   make perfbench  the repo benchmark as BENCHMARK.json defines it:
#                   four user jobs timed end to end (perfbench/run.py)
#
# The bench gate compares hardware-independent *speedups* (seed engine
# and golden runs are timed live on the same machine), so it is
# meaningful on any host.

PYTHON ?= python
PYTHONPATH_PREFIX = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH}

.PHONY: verify test bench bench-check perfbench

verify: test bench-check

test:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -x -q

bench:
	$(PYTHONPATH_PREFIX) $(PYTHON) benchmarks/run_perf.py

bench-check:
	$(PYTHONPATH_PREFIX) $(PYTHON) benchmarks/run_perf.py --check

perfbench:
	$(PYTHON) perfbench/run.py --workload all --seed 1 --seconds 16 --trace 0
