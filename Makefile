GO ?= go

.PHONY: build test test-short vet race check golden bench experiments fuzz cover cover-check profile report model serve bench-serve bench-query bench-stream bench-repo

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Full unit-test suite (includes the fast golden-output checks that
# regenerate Table 1, Figure 2 and Figure 5 at full scale).
test:
	$(GO) test ./...

# Quick suite: skips the slow experiment grids (the CI entry point
# together with race).
test-short:
	$(GO) test -short ./...

# Race-detector pass over everything that finishes quickly; the slow
# experiment grids are excluded via testing.Short so this stays within
# a few minutes even on one core.
race:
	$(GO) test -race -short ./...

check: vet test race

# Regenerate the slow full-scale experiments (Table 2/3, Figures 6/7,
# Table 4) in-process and diff them against the checked-in
# *_output.txt files. Takes about 75 s on a 2-vCPU VM.
golden:
	TRANSER_GOLDEN=1 $(GO) test -run TestGoldenFull -timeout 300m -v ./internal/experiments/

# Reduced-scale experiment benchmarks, including the serial-vs-parallel
# worker sweeps recorded in EXPERIMENTS.md.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Full-scale regeneration of every table and figure.
experiments:
	$(GO) run ./cmd/experiments -exp all

# Machine-readable run report for one experiment (spans + metrics, see
# DESIGN.md §8). Override EXP/SCALE to profile a different workload:
#   make report EXP=table2 SCALE=0.5
EXP ?= table1
SCALE ?= 0.05
report:
	$(GO) run ./cmd/experiments -exp $(EXP) -scale $(SCALE) -metrics-out report-$(EXP).json
	@echo "wrote report-$(EXP).json"

# CPU/heap profiles plus an execution trace for one experiment; inspect
# with `go tool pprof cpu-$(EXP).out` / `go tool trace trace-$(EXP).out`.
profile:
	$(GO) run ./cmd/experiments -exp $(EXP) -scale $(SCALE) \
		-cpuprofile cpu-$(EXP).out -memprofile mem-$(EXP).out -exectrace trace-$(EXP).out
	@echo "wrote cpu-$(EXP).out mem-$(EXP).out trace-$(EXP).out"

# Train on the built-in bibliographic task (dblp-acm → dblp-scholar)
# and export a transer.model/v1 artifact for cmd/serve:
#   make model MODEL=model.json MODEL_SCALE=0.25
MODEL ?= model.json
MODEL_SCALE ?= 0.25
model:
	@mkdir -p .model-data
	$(GO) run ./cmd/datagen -dataset dblp-acm -scale $(MODEL_SCALE) -out .model-data
	$(GO) run ./cmd/datagen -dataset dblp-scholar -scale $(MODEL_SCALE) -out .model-data
	$(GO) run ./cmd/transer \
		-source-a .model-data/dblp-acm-a.csv -source-b .model-data/dblp-acm-b.csv \
		-target-a .model-data/dblp-scholar-a.csv -target-b .model-data/dblp-scholar-b.csv \
		-out .model-data/matches.csv -model-out $(MODEL)
	@echo "wrote $(MODEL)"

# Serve the exported artifact over the JSON HTTP API (trains one first
# if $(MODEL) is absent). See DESIGN.md §9 for the endpoints.
ADDR ?= :8080
serve: $(MODEL)
	$(GO) run ./cmd/serve -model $(MODEL) -addr $(ADDR)

$(MODEL):
	$(MAKE) model MODEL=$(MODEL)

# Serving latency baseline: the in-process benchmarks, then a real
# cmd/serve process replaying single-pair traffic whose shutdown run
# report is condensed into BENCH_serve.json via cmd/benchreport.
bench-serve: $(MODEL)
	$(GO) test -bench 'BenchmarkServe' -benchtime 100x -run '^$$' ./internal/serve/
	$(GO) build -o .model-data/serve-bin ./cmd/serve
	@./.model-data/serve-bin -model $(MODEL) -addr 127.0.0.1:18080 \
		-metrics-out .model-data/serve-report.json & pid=$$!; \
	for i in $$(seq 1 100); do curl -sf http://127.0.0.1:18080/healthz >/dev/null && break; sleep 0.1; done; \
	for i in $$(seq 1 200); do curl -sf -X POST http://127.0.0.1:18080/v1/match -d '{"a":{},"b":{}}' >/dev/null || exit 1; done; \
	kill -TERM $$pid; wait $$pid
	@./.model-data/serve-bin -model $(MODEL) -addr 127.0.0.1:18080 \
		-log-out .model-data/serve-events.jsonl -log-level debug \
		-metrics-out .model-data/serve-report-log.json & pid=$$!; \
	for i in $$(seq 1 100); do curl -sf http://127.0.0.1:18080/healthz >/dev/null && break; sleep 0.1; done; \
	for i in $$(seq 1 200); do curl -sf -X POST http://127.0.0.1:18080/v1/match -d '{"a":{},"b":{}}' >/dev/null || exit 1; done; \
	kill -TERM $$pid; wait $$pid
	$(GO) run ./cmd/benchreport -note "make bench-serve: 200x POST /v1/match against cmd/serve; run 1 logging disabled, run 2 -log-out JSONL at -log-level debug" \
		.model-data/serve-report.json .model-data/serve-report-log.json > BENCH_serve.json
	@echo "wrote BENCH_serve.json"

# Bounded fuzzing smoke: each native fuzz target runs for a short,
# fixed budget on top of its checked-in seed corpus (testdata/fuzz).
# The go tool accepts only one -fuzz target per invocation, hence one
# line per target. FuzzRecover's inputs are a whole snapshot and WAL,
# each run ingests records, and minimising one new input at the default
# budget would use up the whole smoke; its minimisation is capped at 2 s.
# Counterexamples land in testdata/fuzz/<Target>/ —
# commit them as regression seeds after fixing the bug they expose.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzLevenshtein$$' -fuzztime $(FUZZTIME) ./internal/strutil/
	$(GO) test -run '^$$' -fuzz '^FuzzJaroWinkler$$' -fuzztime $(FUZZTIME) ./internal/strutil/
	$(GO) test -run '^$$' -fuzz '^FuzzCSVDataset$$' -fuzztime $(FUZZTIME) ./internal/dataset/
	$(GO) test -run '^$$' -fuzz '^FuzzVectorKey$$' -fuzztime $(FUZZTIME) ./internal/kdtree/
	$(GO) test -run '^$$' -fuzz '^FuzzIngestRecord$$' -fuzztime $(FUZZTIME) ./internal/stream/
	$(GO) test -run '^$$' -fuzz '^FuzzRecover$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/stream/
	$(GO) test -run '^$$' -fuzz '^FuzzArtifactDecode$$' -fuzztime $(FUZZTIME) ./internal/model/
	$(GO) test -run '^$$' -fuzz '^FuzzSigmoid$$' -fuzztime $(FUZZTIME) ./internal/linalg/
	$(GO) test -run '^$$' -fuzz '^FuzzSourceMatchesMathRand$$' -fuzztime $(FUZZTIME) ./internal/seeded/

# Query-engine benchmark: one batch similarity join at serial and full
# parallelism, each run's operator spans condensed into one
# BENCH_query.json entry via cmd/benchreport. Compare the per-run
# block / compare / score phase totals; the result sets are identical
# for every worker count (DESIGN.md §11).
#   make bench-query QUERY_SCALE=0.3
QUERY_DATASET ?= DBLP-ACM
QUERY_SCALE ?= 0.3
QUERY_OUT ?= BENCH_query.json
bench-query:
	@mkdir -p .bench-query
	@for workers in 1 0; do \
		echo "== query $(QUERY_DATASET) @ $(QUERY_SCALE), workers=$$workers"; \
		$(GO) run ./cmd/query -dataset $(QUERY_DATASET) -scale $(QUERY_SCALE) \
			-threshold 0.9 -workers $$workers \
			-out /dev/null -metrics-out .bench-query/query-workers-$$workers.json || exit 1; \
	done
	$(GO) run ./cmd/benchreport -note "make bench-query: $(QUERY_DATASET) at scale $(QUERY_SCALE), workers 1 then 0 (one per CPU)" \
		.bench-query/query-workers-1.json .bench-query/query-workers-0.json > $(QUERY_OUT)
	@echo "wrote $(QUERY_OUT)"

# Streaming-store benchmark: replay one builtin pair through the live
# entity store (cmd/stream) across a worker-count sweep, with read-only
# resolve probes, each run's per-record ingest/resolve spans condensed
# into one BENCH_stream.json entry via cmd/benchreport. The store
# fingerprint — and so the final partition — is identical for every
# worker count (DESIGN.md §12); only the scoring wall time moves.
#   make bench-stream STREAM_SCALE=0.3
STREAM_DATASET ?= DBLP-ACM
STREAM_SCALE ?= 0.3
STREAM_OUT ?= BENCH_stream.json
bench-stream:
	@mkdir -p .bench-stream
	@for workers in 1 2 4 0; do \
		echo "== stream $(STREAM_DATASET) @ $(STREAM_SCALE), workers=$$workers"; \
		$(GO) run ./cmd/stream -dataset $(STREAM_DATASET) -scale $(STREAM_SCALE) \
			-threshold 0.6 -workers $$workers -resolve 200 \
			-out .bench-stream/summary-w$$workers.json \
			-metrics-out .bench-stream/stream-w$$workers.json || exit 1; \
	done
	$(GO) run ./cmd/benchreport -note "make bench-stream: replay $(STREAM_DATASET) at scale $(STREAM_SCALE) through the live entity store (cmd/stream), workers 1/2/4/auto, 200 resolve probes" \
		.bench-stream/stream-w1.json .bench-stream/stream-w2.json \
		.bench-stream/stream-w4.json .bench-stream/stream-w0.json > $(STREAM_OUT)
	@echo "wrote $(STREAM_OUT)"

# Model-repository benchmark: one repo bench run (signature build per
# builtin dataset, search latency against synthetic catalogs of 8/64/256
# models, ensemble-vs-single scoring overhead) condensed into
# BENCH_repo.json via cmd/benchreport. The sign/search phases are the
# cost centres DESIGN.md §14 budgets; search must stay linear in
# catalog size and the single-model path free (it delegates).
#   make bench-repo REPO_SCALE=0.25
REPO_SCALE ?= 0.1
REPO_OUT ?= BENCH_repo.json
bench-repo:
	@mkdir -p .bench-repo
	$(GO) run ./cmd/repo bench -scale $(REPO_SCALE) \
		-metrics-out .bench-repo/repo-report.json
	$(GO) run ./cmd/benchreport -note "make bench-repo: repo bench at scale $(REPO_SCALE) — signature build per builtin dataset, search sweep over catalogs of 8/64/256, single-vs-ensemble scoring" \
		.bench-repo/repo-report.json > $(REPO_OUT)
	@echo "wrote $(REPO_OUT)"

# Short-mode coverage over the whole module, with per-function summary.
# CI enforces a floor for internal/core and internal/testkit (the
# property harness must itself stay tested).
cover:
	$(GO) test -short -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Enforced coverage floors for the packages the testing subsystem most
# depends on. Floors sit ~10 points below measured coverage so routine
# changes pass while a gutted test suite fails loudly.
cover-check:
	@set -e; \
	check() { \
		pkg=$$1; floor=$$2; \
		$(GO) test -short -coverprofile=coverage-$$pkg.out ./internal/$$pkg/ >/dev/null; \
		pct=$$($(GO) tool cover -func=coverage-$$pkg.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
		echo "internal/$$pkg coverage: $$pct% (floor $$floor%)"; \
		awk -v p=$$pct -v f=$$floor 'BEGIN { exit !(p >= f) }' || { echo "internal/$$pkg below floor"; exit 1; }; \
	}; \
	check core 85.0; \
	check testkit 65.0
