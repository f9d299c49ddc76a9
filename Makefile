PY ?= python
export PYTHONPATH := src

.PHONY: verify test bench-tests bench-smoke bench bench-gate smoke-trace \
        profile-smoke chaos-smoke bench-help-policies bench-scaling-smoke \
        health-smoke sweep-smoke sdc-smoke

# default CI entry point: unit tests + the sdvm_bench benchmark's own
# tests + a one-second sdvm_bench run + trace smoke + benchmark gate +
# profiler smoke + chaos smoke + work-distribution policy matrix smoke +
# big-cluster scaling smoke + telemetry-plane smoke + sweep orchestrator
# smoke + silent-data-corruption defense smoke
verify: test bench-tests bench-smoke smoke-trace bench-gate profile-smoke \
        chaos-smoke bench-help-policies bench-scaling-smoke health-smoke \
        sweep-smoke sdc-smoke

test:
	$(PY) -m pytest -q

# the sdvm_bench benchmark's own tests (pytest's testpaths cover only
# tests/, so a plain `pytest` never collects them)
bench-tests:
	$(PY) -m pytest -q sdvm_bench/tests

# the sdvm_bench benchmark end to end for one second, traced: its ledger
# wraps SimNetwork.send and MessageManager.deliver_raw, so this is the
# check that those wrappers still fit the signatures.  Exits 1 on a wrong
# result or when the traced and untraced jobs' virtual figures diverge
bench-smoke:
	$(PY) sdvm_bench/run.py --workload table1-primes-s8 --seed 1 \
		--seconds 1 --trace 1

bench:
	$(PY) -m pytest -q benchmarks/ --benchmark-only

# fast deterministic benchmark regression gate: runs the gate suites and
# diffs BENCH_*.json against benchmarks/baselines/ (exit 1 on regression)
bench-gate:
	$(PY) -m repro.cli bench --check

# CI smoke for the observability pipeline: run one traced sim benchmark
# and validate the Chrome trace + stats artifacts it dumps
smoke-trace:
	$(PY) benchmarks/smoke_trace.py

# CI smoke for the profiling layer: a small primes run under cProfile
profile-smoke:
	$(PY) -m repro.cli profile primes --sites 2 --args 20 6 --top 12

# CI smoke for the fault-injection layer: replay the committed regression
# corpus, then a short seeded fuzz sweep (seeds verified green; a failure
# here means a recovery invariant regressed)
chaos-smoke:
	$(PY) -m repro.cli chaos corpus
	$(PY) -m repro.cli chaos fuzz --seeds 1 6

# CI smoke for the informed work-distribution layer: the gossip x steal
# batching x push policy matrix, each cell audited by the invariant checker
bench-help-policies:
	$(PY) benchmarks/bench_help_policies.py --smoke

# CI smoke for big-cluster work distribution: treesum at 64 sites (4x
# the gossip sample window) must beat one site by a wide margin
bench-scaling-smoke:
	$(PY) benchmarks/smoke_scaling.py

# CI smoke for the telemetry plane: metrics sampler -> sdvm-metrics/1
# JSONL -> health detectors (must stay quiet on a healthy run) -> the
# `repro health` / `repro top` CLIs
health-smoke:
	$(PY) benchmarks/smoke_health.py

# CI smoke for the multicore sweep orchestrator: a 2-config sweep over 2
# worker processes with the determinism self-check on (every point runs
# twice; journal fingerprints must match exactly)
sweep-smoke:
	$(PY) -m repro.cli sweep --sites 1,2 --seeds 0 --leaves 64 \
		--scale 500 --workers 2 --selfcheck

# CI smoke for the silent-data-corruption defense: the defended corpus
# plan completes correctly with exact detect/resolve accounting, the
# health detector sees the mismatches, and the undefended twin is
# flagged by the sdc_commit invariant
sdc-smoke:
	$(PY) benchmarks/smoke_sdc.py
