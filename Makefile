# Tier-1 verification plus a smoke run of the observability path itself.

.PHONY: all build test smoke engines cost-models parallel bench-smoke report serve racecheck no-marshal check bench clean

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

# one cheap validated run per engine and three figures on two pool domains
# (ppat figures exits 1 if any cell fails validation), then every unknown
# command or app, missing APP, unknown or misplaced flag, malformed flag
# value, unknown figure, unwritable output path or malformed PPAT_*
# variable must fail as a named usage error (exit 2), never as an uncaught
# exception
bench-smoke: build
	dune exec bin/ppat.exe -- run sum_rows --engine compiled > /dev/null
	dune exec bin/ppat.exe -- run sum_rows --engine reference > /dev/null
	dune exec bin/ppat.exe -- figures fig3 fig16 fig17 --jobs 2 > /dev/null
	@for args in "bin/ppat.exe -- bogus" \
	    "bin/ppat.exe -- run" \
	    "bin/ppat.exe -- modelcmp sum_rows" \
	    "bin/ppat.exe -- sweep sum_rows" \
	    "bin/ppat.exe -- run sum_rows -s bogus" \
	    "bin/ppat.exe -- run sum_rows --engine bogus" \
	    "bin/ppat.exe -- run sum_rows --cost-model bogus" \
	    "bin/ppat.exe -- run sum_rows --sim-jobs x" \
	    "bin/ppat.exe -- figures fig99" \
	    "bin/ppat.exe -- profile sum_rows --json /nonexistent/x.json" \
	    "bin/ppat.exe -- profile sum_rows --chrome-trace /nonexistent/x.json" \
	    "bin/ppat.exe -- report sum_rows --json /nonexistent/x.json" \
	    "bin/ppat.exe -- trace-search sum_rows --json /nonexistent/x.json" \
	    "bin/ppat.exe -- run nosuchapp" \
	    "bin/ppat.exe -- explain nosuchapp" \
	    "bin/ppat.exe -- racecheck nosuchapp" \
	    "bin/ppat.exe -- run sum_rows --bogus" \
	    "bin/ppat.exe -- cuda sum_rows --bogus" \
	    "bin/ppat.exe -- cuda sum_rows --engine reference" \
	    "bin/ppat.exe -- mapspace sum_rows --budget 3" \
	    "bin/ppat.exe -- trace-search sum_rows --engine reference" \
	    "bin/ppat.exe -- run sum_rows --budget 3" \
	    "bin/ppat.exe -- run sum_rows --json /tmp/ppat_usage_out.json" \
	    "bin/ppat.exe -- report sum_rows --chrome-trace /tmp/ppat_usage_out.json" \
	    "bin/ppat.exe -- explain sum_rows extra" \
	    "bin/ppat.exe -- figures --jobs 0"; do \
	  dune exec $$args > /dev/null 2> /tmp/ppat_usage_err.txt; code=$$?; \
	  if [ $$code -ne 2 ] || grep -q "Fatal error" /tmp/ppat_usage_err.txt; then \
	    echo "bench-smoke: '$$args' exited $$code, want a usage error (2):"; \
	    cat /tmp/ppat_usage_err.txt; exit 1; \
	  fi; \
	done
	@for var in PPAT_SHUFFLE=maybe PPAT_ENGINE=turbo PPAT_SIM_JOBS=x \
	    PPAT_COST_MODEL=psychic; do \
	  env $$var dune exec bin/ppat.exe -- run sum_rows > /dev/null 2> /tmp/ppat_usage_err.txt; code=$$?; \
	  if [ $$code -ne 2 ] || grep -q "Fatal error" /tmp/ppat_usage_err.txt \
	      || ! grep -q "^ppat: $${var%%=*}" /tmp/ppat_usage_err.txt; then \
	    echo "bench-smoke: '$$var ppat run sum_rows' exited $$code, want a usage error (2) naming the variable:"; \
	    cat /tmp/ppat_usage_err.txt; exit 1; \
	  fi; \
	done
	@echo "bench-smoke: both engines validate sum_rows; fig3, fig16 and fig17 validate on 2 jobs; bad commands, apps, flags, figures, paths and PPAT_* values exit 2"

# tier-1 under both cost-model defaults (mapping-specific assertions pin
# Soft explicitly, everything else must hold under any model; test_mapspace
# pins every model's regret on the sweep apps), plus a mapping-space report
# against the simulator whose JSON must carry schema ppat-mapspace/1
cost-models: build
	PPAT_COST_MODEL=soft dune runtest --force
	PPAT_COST_MODEL=analytical dune runtest --force
	dune exec bin/ppat.exe -- mapspace sum_rows --top 3 --jobs 2 \
	  --json /tmp/ppat_mapspace_smoke.json > /dev/null
	python3 -m json.tool /tmp/ppat_mapspace_smoke.json > /dev/null
	@grep -q '"schema": "ppat-mapspace/1"' /tmp/ppat_mapspace_smoke.json \
	  || { echo "cost-models: mapspace JSON lacks schema ppat-mapspace/1"; exit 1; }
	@echo "cost-models: tier-1 OK under soft and analytical; mapspace OK"

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

# every digest and shape key is written through Ppat_ir.Enc: Marshal bytes
# follow OCaml's type layout, so a digest over them moves with no value
no-marshal:
	@if grep -rn 'Marshal\.' lib bin test; then \
	  echo "no-marshal: write digests and keys through Ppat_ir.Enc, not Marshal"; \
	  exit 1; \
	fi
	@echo "no-marshal: lib/, bin/ and test/ never call Marshal"

check: build test smoke engines cost-models parallel bench-smoke report serve racecheck no-marshal

# the repository benchmark (perfbench/README.md): the classic suite
# workload, end-to-end and per-layer metrics on this host
bench:
	bash perfbench/run.sh --workload suite

clean:
	dune clean
