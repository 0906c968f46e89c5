# Developer entry points.  Everything runs from a plain clone — no
# install needed; PYTHONPATH picks up the src/ layout.

PYTHON      ?= python
PYTHONPATH  := src
export PYTHONPATH

.PHONY: test coverage lint lint-invariants bench-smoke perfbench-smoke bench-stream bench-batch bench-service bench-sessions bench-scale serve-smoke session-smoke obs-smoke scale-smoke examples-smoke bench docs-check check

## Full test suite (tier-1 gate; fast).
test:
	$(PYTHON) -m pytest -x -q

## Minimum line coverage enforced in CI (pytest-cov; see `make coverage`).
COV_MIN ?= 88

## Test suite under pytest-cov with the coverage floor CI enforces.
## Requires pytest-cov (`pip install pytest-cov`); plain `make test`
## stays dependency-light.
coverage:
	@$(PYTHON) -c "import pytest_cov" 2>/dev/null || \
		{ echo "pytest-cov is not installed: pip install pytest-cov"; exit 1; }
	$(PYTHON) -m pytest -q --cov=repro --cov-report=term-missing \
		--cov-fail-under=$(COV_MIN)

## Repo-specific invariant checker (src/repro/lintkit): AST rules for
## the concurrency/determinism contracts past PRs fixed by hand —
## blocking calls on the event loop, expensive builds under a lock,
## unrestored signal swaps, leaked shm mappings, nondeterministic
## canonical payloads, backend string ladders.  Stdlib-only; always
## runnable from a plain clone.
lint-invariants:
	$(PYTHON) -m repro.lintkit src/repro

## Lint + type gates: the invariant checker above, ruff
## (runtime-correctness rule tier, see ruff.toml) over the library,
## ruff's unused-import rule (F401) over the tests and benchmarks
## (tests/lint_fixtures holds deliberate lint bait, so it is skipped),
## and a `mypy --strict` pass over the engine layer (the dispatch seam
## every other layer builds on), the service layer (the network-facing
## surface, including the multi-tenant session module
## service/sessions.py), the observability layer (repro/obs/), the
## batch layer (resume/dedup correctness rides on its annotations)
## and the lintkit itself (the checker must clear the strictest bar
## it enforces on others).  Requires ruff + mypy
## (`pip install ruff mypy`); plain `make test` stays dependency-light.
lint: lint-invariants
	@$(PYTHON) -c "import ruff" 2>/dev/null || \
		{ echo "ruff is not installed: pip install ruff"; exit 1; }
	$(PYTHON) -m ruff check src examples
	$(PYTHON) -m ruff check --select F401 --extend-exclude tests/lint_fixtures tests benchmarks
	@$(PYTHON) -c "import mypy" 2>/dev/null || \
		{ echo "mypy is not installed: pip install mypy"; exit 1; }
	$(PYTHON) -m mypy --strict src/repro/engine src/repro/service src/repro/obs src/repro/batch src/repro/lintkit

## Scalability + streaming + batch + service + session gates:
## sparse-vs-python backend speedup (>= 5x at the largest planted
## size), incremental-engine speedup over snapshot recompute (>= 3x at
## the largest event count), batch-service speedup over the per-query
## serial loop (>= 2x on a 16-query sweep), warm query-service
## throughput over a per-query CLI subprocess loop (>= 5x on a
## 32-query sweep), and 8-tenant session throughput over 8 naive
## replays (>= 3x events/sec) — all with answer-parity checks — plus
## bench_ablation_peeling_backend.py, which times the heap,
## segment-tree and sparse peels on DBLP-C Weighted and checks they
## agree on subset and density.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_scalability.py benchmarks/bench_streaming.py benchmarks/bench_batch.py benchmarks/bench_service.py benchmarks/bench_sessions.py benchmarks/bench_service_scale.py benchmarks/bench_ablation_peeling_backend.py -q

## The repository benchmark's own tests, then one traced solve-large
## run.  The traced run wraps `newsea.new_sea`, `dcsad.greedy_peel`
## and `PreparedGraph` members, so a change to those call shapes breaks
## it and nothing else; the run must exit 0 (about 20 s on 2 vCPUs).
perfbench-smoke:
	$(PYTHON) -m pytest perfbench -q
	$(PYTHON) perfbench/run.py --workload solve-large --seed 1 --seconds 18 --trace 1

## Streaming benchmark only — incremental engine vs naive recompute,
## alert parity and the >= 3x speedup gate.
bench-stream:
	$(PYTHON) -m pytest benchmarks/bench_streaming.py -q

## Batch-service benchmark only — shared-prep executor vs per-query
## serial loop: >= 2x speedup, byte-identical results, cache-hit
## resubmission; writes benchmarks/output/batch_results.jsonl.
bench-batch:
	$(PYTHON) -m pytest benchmarks/bench_batch.py -q

## Query-service benchmark only — resident `repro serve` vs per-query
## CLI subprocess loop: >= 5x warm-cache throughput, envelopes
## byte-identical to `repro --json`.
bench-service:
	$(PYTHON) -m pytest benchmarks/bench_service.py -q

## Service smoke: spawn a real server, run the client round-trip tour
## (upload, solve, cached re-solve, batch, /metrics).
serve-smoke:
	$(PYTHON) examples/service_client.py

## Session benchmark only — K live tenants vs K naive replays:
## >= 3x events/sec, per-tenant alert parity, charge accounting.
bench-sessions:
	$(PYTHON) -m pytest benchmarks/bench_sessions.py -q

## Session smoke: spawn a real server, run the live-session tour
## (create, event batches, cursor + long-poll alerts, info, close).
session-smoke:
	$(PYTHON) examples/stream_session_client.py

## Cluster smoke: spawn `repro serve --workers 2`, walk the sharded
## topology (owner routing, shared-memory attach, session sid routing,
## merged /metrics), check byte-identity against --workers 1 and clean
## /dev/shm teardown on SIGTERM.
scale-smoke:
	$(PYTHON) examples/scale_smoke.py

## Multi-worker scale-out benchmark only — concurrent mixed traffic
## against 1 process vs a 4-worker cluster: sustained-throughput floor
## (CPU-count-aware), p95 report, byte-identical probe envelopes,
## prepare-once-per-host counters, clean segment teardown.
bench-scale:
	$(PYTHON) -m pytest benchmarks/bench_service_scale.py -q

## Observability smoke: spawn a real server, assert X-Request-Id
## echo/generation, traced per-phase solve timings, and a valid
## Prometheus /metrics exposition with non-zero phase counters.
obs-smoke:
	$(PYTHON) examples/obs_tour.py

## Examples smoke: run every standalone example end to end (the
## server tours run under serve-smoke, session-smoke, scale-smoke and
## obs-smoke, and custom_backend.py under docs-check).
EXAMPLES := quickstart anomaly_detection batch_queries emerging_communities \
	streaming_events streaming_monitor trend_detection

examples-smoke:
	@set -e; for name in $(EXAMPLES); do \
		echo "examples/$$name.py"; \
		$(PYTHON) examples/$$name.py > /dev/null; \
	done

## Every table/figure reproduction benchmark (slow; writes rendered
## artefacts to benchmarks/output/).
bench:
	$(PYTHON) -m pytest benchmarks -q

## Documentation examples must execute: doctest over the README's
## code blocks (and the doctested custom-backend example) fails the
## build on any broken example.
docs-check:
	$(PYTHON) -m doctest README.md
	$(PYTHON) -m doctest examples/custom_backend.py
	@echo "README + example doctests OK"

## Everything a PR should pass that needs no extra package: the
## invariant checker, the test suite, the doctests, the examples, the
## four server tours (serve, session, obs and scale smoke), the bench
## gates and the repository benchmark smoke.  `lint` and `coverage`
## need ruff, mypy and pytest-cov, so they stay out.
check: lint-invariants test docs-check examples-smoke serve-smoke session-smoke obs-smoke scale-smoke bench-smoke perfbench-smoke
