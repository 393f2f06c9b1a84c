# Convenience targets for the MPF reproduction.

PY ?= python
# Point-runner processes for figure sweeps; output is byte-identical to
# a serial run (each point is an independent deterministic simulation).
JOBS ?= 4

.PHONY: install test bench shapes figures figures-quick check trace-smoke \
	serve telemetry-smoke regress profile clean

install:
	pip install -e '.[dev]' || pip install -e '.[dev]' --no-build-isolation

test:
	$(PY) -m pytest tests/ -q

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only -q

shapes:
	$(PY) -m pytest benchmarks/ --benchmark-disable -q

# Model-check the primitives: every scenario over seeded schedules (must
# stay clean), plus one injected bug per fault family (the checker must
# catch it, or the target fails).  See docs/checking.md.
check:
	$(PY) -m repro.check explore --scenario fcfs-race --seeds 200
	$(PY) -m repro.check explore --scenario connect-churn --seeds 200
	$(PY) -m repro.check explore --scenario freelist-churn --seeds 200
	$(PY) -m repro.check explore --scenario mixed-protocol --seeds 200
	$(PY) -m repro.check explore --scenario ring-wrap --seeds 200
	$(PY) -m repro.check explore --scenario ring-wrap --seeds 200 --policy dfs
	$(PY) -m repro.check explore --scenario fcfs-race --seeds 200 --fault torn-send --expect-fail
	$(PY) -m repro.check explore --scenario mixed-protocol --seeds 50 --fault drop-wake --expect-fail
	$(PY) -m repro.check explore --scenario ring-wrap --seeds 50 --fault drop-wake --expect-fail
	$(PY) -m repro.check explore --scenario fcfs-race --runtime threads --repeats 10

# Causal-tracing smoke: run the fig4 contention sweep with per-message
# tracing, then validate the Prometheus exposition and the DOT flow
# graph it exported (per-runtime suffixed files).  See docs/tracing.md.
trace-smoke:
	$(PY) -m repro.bench trace fig4 --quick --causal \
		--prom /tmp/mpf_fig4.prom --flow /tmp/mpf_fig4.dot
	$(PY) -c "\
	from repro.obs import check_dot, parse_exposition; \
	[parse_exposition(open(f'/tmp/mpf_fig4-{k}.prom').read()) \
	 for k in ('sim', 'procs')]; \
	edges = [check_dot(open(f'/tmp/mpf_fig4-{k}.dot').read()) \
	         for k in ('sim', 'procs')]; \
	assert min(edges) > 0, edges; \
	print(f'trace smoke ok: flow edges {edges}')"

# Open-loop serving smoke: a CI-sized sweep on the simulator and on
# real threads, then validate the SLO JSON documents and the Prometheus
# exposition of the traced knee point.  See docs/serving.md.
serve:
	$(PY) -m repro.bench serve --quick \
		--json /tmp/mpf_serve_sim.json --prom /tmp/mpf_serve.prom
	$(PY) -m repro.bench serve --quick --runtime threads \
		--loads 60,200 --duration 1.5 --json /tmp/mpf_serve_threads.json
	$(PY) -c "\
	import json; \
	from repro.obs import parse_exposition; \
	from repro.serve import validate_slo; \
	docs = [json.load(open(f'/tmp/mpf_serve_{k}.json')) \
	        for k in ('sim', 'threads')]; \
	[validate_slo(d) for d in docs]; \
	parse_exposition(open('/tmp/mpf_serve.prom').read()); \
	print('serve smoke ok:', \
	      [f'{d[\"runtime\"]}: {d[\"total_mpf_messages\"]} msgs' \
	       for d in docs])"

# Windowed-telemetry smoke: a quick threads serve probe with the live
# scrape endpoint up, the archived mpf-serve-timeline/1 document
# re-validated strictly, and the mid-run scrape + health attribution
# tests (which poll /metrics while a real threads probe is in flight).
# See docs/telemetry.md.
telemetry-smoke:
	$(PY) -m repro.bench serve --quick --runtime threads \
		--loads 60,200 --duration 1.5 \
		--timeline /tmp/mpf_serve-timeline.json --live
	$(PY) -c "\
	import json; \
	from repro.serve.slo import validate_timeline; \
	doc = json.load(open('/tmp/mpf_serve-timeline.json')); \
	validate_timeline(doc); \
	print('telemetry smoke ok:', \
	      len(doc['timeline']['windows']), 'windows,', \
	      len(doc['findings']), 'finding(s),', \
	      'clock', doc['timeline']['clock'])"
	$(PY) -m pytest tests/obs/test_live.py tests/obs/test_health.py \
		tests/serve/test_timeline_doc.py -q

# Wall-clock trajectory gate over the committed BENCH_*.json archives:
# fails when the newest snapshot regressed figure-by-figure past the
# noise-aware threshold.  See docs/telemetry.md.
regress:
	$(PY) -m repro.bench regress

figures:
	$(PY) -m repro.bench all --jobs $(JOBS) \
		--json figures_full.json | tee figures_full.txt

figures-quick:
	$(PY) -m repro.bench all --quick --plot

# Re-measure against the committed archive (figures_full.json is reused
# as the reference, not regenerated).
compare:
	$(PY) -m repro.bench all --jobs $(JOBS) \
		--json /tmp/mpf_after.json >/dev/null && \
	$(PY) -m repro.bench.compare figures_full.json /tmp/mpf_after.json

# cProfile one figure plus the hottest-effect-label report.
# `make profile FIG=fig6` profiles another figure.
FIG ?= fig7
profile:
	$(PY) -m repro.bench profile $(FIG) --quick --top 10

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache \
	       $(shell find . -name __pycache__ -type d 2>/dev/null)
