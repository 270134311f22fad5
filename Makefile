# Tier-1 verification plus a smoke run of the observability path itself.

.PHONY: all build test smoke engines cost-models parallel bench-smoke report serve racecheck sweep bench-diff check bench bench-json clean

all: build

build:
	dune build

test:
	dune runtest

# exercise the profiling subsystem end to end: per-kernel JSON profile,
# Chrome trace, and the mapping-search trace
smoke: build
	dune exec bin/ppat.exe -- profile sum_rows --json /tmp/ppat_profile_smoke.json \
	  --chrome-trace /tmp/ppat_chrome_smoke.json > /dev/null
	dune exec bin/ppat.exe -- trace-search sum_cols > /dev/null
	@echo "smoke: profiling path OK"

# the engine differential suite under both PPAT_ENGINE defaults: the suite
# itself runs both engines against each other, so this mainly proves the
# env-var selection path and the suite are healthy from either default
engines: build
	PPAT_ENGINE=compiled dune exec test/main.exe -- test engine > /dev/null
	PPAT_ENGINE=reference dune exec test/main.exe -- test engine > /dev/null
	@echo "engines: differential suite OK under both defaults"

# one cheap end-to-end bench invocation per engine (no JSON, tiny subset is
# not supported, so reuse the profile path which runs a real simulation),
# then every malformed flag value, unknown figure or unwritable output path
# must fail as a named usage error (exit 2), never as an uncaught exception
bench-smoke: build
	dune exec bin/ppat.exe -- run sum_rows --engine compiled > /dev/null
	dune exec bin/ppat.exe -- run sum_rows --engine reference > /dev/null
	@for args in "bin/ppat.exe -- run sum_rows -s bogus" \
	    "bin/ppat.exe -- run sum_rows --engine bogus" \
	    "bin/ppat.exe -- run sum_rows --cost-model bogus" \
	    "bin/ppat.exe -- run sum_rows --sim-jobs x" \
	    "bin/ppat.exe -- figures fig99" \
	    "bin/ppat.exe -- profile sum_rows --json /nonexistent/x.json" \
	    "bin/ppat.exe -- profile sum_rows --chrome-trace /nonexistent/x.json" \
	    "bin/ppat.exe -- report sum_rows --json /nonexistent/x.json" \
	    "bin/ppat.exe -- trace-search sum_rows --json /nonexistent/x.json" \
	    "bench/main.exe -- --sim-jobs x"; do \
	  dune exec $$args > /dev/null 2> /tmp/ppat_usage_err.txt; code=$$?; \
	  if [ $$code -ne 2 ] || grep -q "Fatal error" /tmp/ppat_usage_err.txt; then \
	    echo "bench-smoke: '$$args' exited $$code, want a usage error (2):"; \
	    cat /tmp/ppat_usage_err.txt; exit 1; \
	  fi; \
	done
	@echo "bench-smoke: both engines validate sum_rows; bad flag values, figures and paths exit 2"

# tier-1 under both cost-model defaults (mapping-specific assertions pin
# Soft explicitly, everything else must hold under any model), plus a
# model-comparison smoke run against the simulator
cost-models: build
	PPAT_COST_MODEL=soft dune runtest --force
	PPAT_COST_MODEL=analytical dune runtest --force
	dune exec bin/ppat.exe -- modelcmp sum_rows --top 3 > /dev/null
	@echo "cost-models: tier-1 OK under soft and analytical; modelcmp OK"

# tier-1 under both serial and multi-domain simulator defaults (every
# statistic is bit-identical at any job count, so the whole suite must
# pass unchanged), plus a parallel bench smoke run
parallel: build
	PPAT_SIM_JOBS=1 dune runtest --force
	PPAT_SIM_JOBS=4 dune runtest --force
	dune exec bin/ppat.exe -- run sum_rows --sim-jobs 4 > /dev/null
	@echo "parallel: tier-1 OK at 1 and 4 sim jobs; --sim-jobs smoke OK"

# per-access-site attribution smoke: render the hot-spot table for three
# apps (one under multi-domain simulation) and check the emitted profile
# JSON (schema ppat-profile/4, with sites and metrics) still parses
report: build
	dune exec bin/ppat.exe -- report sum_rows --json /tmp/ppat_report_sum_rows.json > /dev/null
	dune exec bin/ppat.exe -- report sum_cols --json /tmp/ppat_report_sum_cols.json > /dev/null
	dune exec bin/ppat.exe -- report qpscd --sim-jobs 2 --json /tmp/ppat_report_qpscd.json > /dev/null
	python3 -m json.tool /tmp/ppat_report_sum_rows.json > /dev/null
	python3 -m json.tool /tmp/ppat_report_sum_cols.json > /dev/null
	python3 -m json.tool /tmp/ppat_report_qpscd.json > /dev/null
	@echo "report: hot-spot attribution path OK"

# mapping-service smoke: pipe three requests (the third repeats the first)
# through a stdin server and assert the repeat was answered from the staged
# plan cache
serve: build
	printf '%s\n' \
	  '{"app":"sum_rows","params":{"R":48,"C":32}}' \
	  '{"app":"sum_cols","params":{"R":32,"C":24}}' \
	  '{"app":"sum_rows","params":{"R":48,"C":32}}' \
	  | dune exec bin/ppat.exe -- serve > /tmp/ppat_serve_smoke.jsonl
	@test "$$(wc -l < /tmp/ppat_serve_smoke.jsonl)" -eq 3 \
	  || { echo "serve: expected 3 responses"; exit 1; }
	@grep -q '"plan": "hit"' /tmp/ppat_serve_smoke.jsonl \
	  || { echo "serve: repeated request was not a cache hit"; exit 1; }
	@echo "serve: stdin protocol OK, repeat request hit the plan cache"

# static race / barrier gate: every staged registry kernel must verify
# race-free under both lowering modes (smem trees and shuffle synthesis),
# and the shuffle differential suite must hold (bit-identical buffers
# under both engines at 1 and 4 simulation jobs, fewer barriers, no smem
# traffic for warp-fitting x reductions)
racecheck: build
	dune exec bin/ppat.exe -- racecheck --all > /dev/null
	dune exec bin/ppat.exe -- racecheck --all --shuffle > /dev/null
	dune exec test/main.exe -- test race > /dev/null
	@echo "racecheck: staged kernels race-free in both modes; shuffle differential OK"

# batched mapping-space sweep gate: run `ppat sweep` over every bench app.
# Each invocation asserts internally that every shape was staged exactly
# once (via the sweep.* metrics) and exits non-zero if calibrating the
# analytical predictor worsens its regret on that app. Budgets are sized
# so the whole target stays a few minutes; the full >= 200-candidate
# bit-identity evidence lives in the bench --sweep trajectory below.
sweep: build
	dune exec bin/ppat.exe -- sweep sum_rows --budget 64 --jobs 4 > /dev/null
	dune exec bin/ppat.exe -- sweep sum_cols --budget 64 --jobs 4 > /dev/null
	dune exec bin/ppat.exe -- sweep hotspot --budget 48 --jobs 4 > /dev/null
	dune exec bin/ppat.exe -- sweep qpscd --budget 32 --jobs 4 > /dev/null
	dune exec bin/ppat.exe -- sweep gemm --budget 24 --jobs 4 > /dev/null
	dune exec bin/ppat.exe -- sweep msm_cluster --budget 16 --jobs 4 > /dev/null
	@echo "sweep: stage-once metrics hold and calibration never worsens regret on any bench app"

# bench regression gate: regenerate the perf trajectory (single app worker
# so wall clocks are undistorted) and diff it against the frozen artifact
# of the previous PR — once with default lowering and once with shuffle
# synthesis on. Fails on a >10% (and >50 ms) per-app sim-wall regression
# or on any simulator-statistic drift.
bench-diff: build
	dune exec bench/main.exe -- -j 1 --best-of 3 --json /tmp/ppat_bench_gate.json
	dune exec bench/main.exe -- --compare BENCH_pr9_baseline.json /tmp/ppat_bench_gate.json
	PPAT_SHUFFLE=1 dune exec bench/main.exe -- -j 1 --best-of 3 --json /tmp/ppat_bench_shfl_gate.json
	dune exec bench/main.exe -- --compare BENCH_pr9.json /tmp/ppat_bench_shfl_gate.json
	dune exec bench/main.exe -- --serve 200 --zipf 1.1 --json /tmp/ppat_serve_gate.json
	dune exec bench/main.exe -- --compare BENCH_pr9_serve_baseline.json /tmp/ppat_serve_gate.json
	dune exec bench/main.exe -- --sweep -j 4 --json /tmp/ppat_sweep_gate.json
	dune exec bench/main.exe -- --compare BENCH_pr9_sweep.json /tmp/ppat_sweep_gate.json

check: build test smoke engines cost-models parallel bench-smoke report serve racecheck sweep bench-diff

bench:
	dune exec bench/main.exe -- --json BENCH_run.json

# fresh trajectories of every bench mode, written to gitignored
# BENCH_run_*.json files (single app worker so the per-app wall clocks
# are not distorted by co-scheduling). The committed BENCH_pr*.json
# artifacts are frozen runs that bench-diff gates against; they are
# never regenerated here — copy a run over one by hand to re-freeze it.
bench-json: build
	dune exec bench/main.exe -- -j 1 --best-of 3 --json BENCH_run_classic.json
	PPAT_SHUFFLE=1 dune exec bench/main.exe -- -j 1 --best-of 3 --json BENCH_run_shuffle.json
	dune exec bench/main.exe -- --serve 200 --zipf 1.1 --no-cache --json BENCH_run_serve_cold.json
	dune exec bench/main.exe -- --serve 200 --zipf 1.1 --json BENCH_run_serve.json
	dune exec bench/main.exe -- --sweep -j 4 --json BENCH_run_sweep.json

clean:
	dune clean
