# Tier-1 verification and benchmark targets. `make check` is the one
# command a PR must keep green: build, tests, vet, the race determinism
# suite and a short fuzz smoke in one run.

GO ?= go

# bench-compare knobs: the benchmark filter, sample count and output file.
# Typical use, before and after a change:
#   make bench-compare BENCH_OUT=old.txt
#   ...apply change...
#   make bench-compare BENCH_OUT=new.txt
#   benchstat old.txt new.txt
# The default filter is the guarded set the CI benchmark gate enforces.
BENCH ?= BenchmarkSelectEmpirically|BenchmarkMeasureThenRun|BenchmarkPartitionBuild|BenchmarkAppendEdges|BenchmarkRemoveEdges|BenchmarkRestoreVsRebuild|BenchmarkSparseFrontier|BenchmarkScalingSweep|BenchmarkScale/1M
BENCH_COUNT ?= 10
BENCH_OUT ?= bench.txt

.PHONY: all build test vet lint race bench bench-selftest bench-smoke bench-compare bench-scale bench-scale-xl scalebench loadgen-smoke dist-smoke fuzz fuzz-smoke compat check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Formatting + vet (+ staticcheck when installed) — the CI lint job.
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# Race determinism regression for the parallel partition build, the
# parallel hash assignment, the scratch-pool engine, the serving layer
# (store single-flight, Session mixed workload, cutfitd handlers), the
# delta-append path (root equivalence suite, graph generations, store
# chain, topology patching), the persistence layer (snap codecs, disk
# tier spill/restore, warm-start handlers) and the distributed runtime
# (coordinator/worker exchange over loopback sockets, equivalence and
# failure suites).
race:
	$(GO) test -race . ./cmd/cutfitd/... ./internal/graph/... ./internal/pregel/... ./internal/testutil/... ./internal/partition/... ./internal/store/... ./internal/snap/... ./internal/obsv/... ./internal/dist/...

# Hot-path benchmarks: partition construction (old vs new, and across
# dataset analogs × strategies), the sparse-frontier scan payoff,
# per-superstep allocation footprint, the single-pass selection pipeline
# and the compact worker sweep.
bench:
	$(GO) test -run='^$$' -bench='BenchmarkPartitionBuild|BenchmarkSparseFrontier' -benchmem ./internal/pregel/
	$(GO) test -run='^$$' -bench='BenchmarkPartitionBuild|BenchmarkSuperstepAllocs|BenchmarkSelectEmpirically|BenchmarkMeasureThenRun|BenchmarkScalingSweep' -benchmem .

# Full multi-core scaling sweep: worker ladder × components × dataset
# analogs, JSON for the benchgate efficiency gate plus a markdown table.
# The nightly workflow archives both artifacts.
SCALE_JSON ?= scalebench.json
SCALE_MD ?= scalebench.md
scalebench:
	$(GO) run ./cmd/scalebench -reps 5 -json $(SCALE_JSON) -md $(SCALE_MD)
	@cat $(SCALE_MD)

# Out-of-core scale family: the 1M and 10M R-MAT cells, dense vs block
# tier, one iteration each — the dense-vs-block peak-heap-MB and wall
# ratios the paper reproduction claims. Nightly runs this and archives
# the output; the 1M cells are also in the $(BENCH) guarded set above.
bench-scale:
	$(GO) test -run='^$$' -bench='BenchmarkScale/' -benchtime=1x -benchmem -timeout=30m .

# Opt-in 100M-edge cell (block tier only; needs ~2 GiB free and tens of
# minutes). Guarded by CUTFIT_SCALE_XL so it never runs in PR CI.
bench-scale-xl:
	CUTFIT_SCALE_XL=1 $(GO) test -run='^$$' -bench='BenchmarkScaleXL' -benchtime=1x -benchmem -timeout=120m .

# End-to-end load smoke: boot a real cutfitd, drive the default mixed
# workload at $(LOADGEN_RPS) req/s for $(LOADGEN_DURATION), then fail on
# any 5xx or transport error (loadgen's exit contract). The quantile
# table and a post-run /metrics scrape land in $(LOADGEN_OUT) /
# $(LOADGEN_METRICS); the nightly loadgen-smoke job archives both.
LOADGEN_ADDR ?= 127.0.0.1:18080
LOADGEN_RPS ?= 50
LOADGEN_DURATION ?= 30s
LOADGEN_OUT ?= loadgen-table.txt
LOADGEN_METRICS ?= loadgen-metrics.txt
loadgen-smoke:
	$(GO) build -o ./bin/cutfitd ./cmd/cutfitd
	$(GO) build -o ./bin/loadgen ./cmd/loadgen
	@set -e; \
	./bin/cutfitd -addr $(LOADGEN_ADDR) & daemon=$$!; \
	trap "kill $$daemon 2>/dev/null || true" EXIT; \
	./bin/loadgen -addr http://$(LOADGEN_ADDR) -rps $(LOADGEN_RPS) \
		-duration $(LOADGEN_DURATION) -out $(LOADGEN_OUT) -metrics-out $(LOADGEN_METRICS); \
	echo "loadgen-smoke: zero 5xx at $(LOADGEN_RPS) req/s for $(LOADGEN_DURATION)"

# Distributed-serving smoke: boot 2 cutfit-workers + a coordinator
# cutfitd (-workers) + a plain local daemon, run the loadgen mix at the
# coordinator (zero 5xx), assert /v1/run bodies are byte-equal between
# the two daemons before and after an edge append, and require every run
# to have dispatched distributed (zero fallbacks). The coordinator's
# final /metrics scrape lands in $(DIST_METRICS); nightly archives it.
DIST_RPS ?= 30
DIST_DURATION ?= 10s
DIST_OUT ?= dist-loadgen-table.txt
DIST_METRICS ?= dist-metrics.txt
dist-smoke:
	$(GO) build -o ./bin/cutfitd ./cmd/cutfitd
	$(GO) build -o ./bin/cutfit-worker ./cmd/cutfit-worker
	$(GO) build -o ./bin/loadgen ./cmd/loadgen
	$(GO) run ./cmd/distsmoke -bin-dir ./bin -rps $(DIST_RPS) \
		-duration $(DIST_DURATION) -out $(DIST_OUT) -metrics-out $(DIST_METRICS)

# Build, vet and self-test the cutfitbench benchmark (a nested module that
# root `go test ./...` does not build) against this checkout, so an API
# change the benchmark depends on fails here rather than at benchmark time.
bench-selftest:
	cd cutfitbench && $(GO) vet . && $(GO) test .

# One-iteration pass over the concurrent-serving benchmarks: fast enough
# for CI, still executes the pooled/fresh and hit/miss paths end to end.
bench-smoke:
	$(GO) test -run='^$$' -bench='BenchmarkConcurrentRuns|BenchmarkSessionCache' -benchtime=1x -benchmem .

# benchstat-friendly sampling: repeat the $(BENCH) benchmarks
# $(BENCH_COUNT) times into $(BENCH_OUT) so two runs can be compared with
# `benchstat old.txt new.txt`.
bench-compare:
	$(GO) test -run='^$$' -bench='$(BENCH)' -benchmem -count=$(BENCH_COUNT) . ./internal/pregel/ | tee $(BENCH_OUT)

# Longer fuzz session: the edge-list ingest path, the incremental topology
# patchers (delta append and shrink/slide-window, each cross-checked
# against a full rebuild), the dense/sparse/auto engine scan equivalence
# (including density-threshold crossovers mid-run), and the snapshot
# decoders (container parsing + the assignment codec, seeded from the
# golden corpus). FUZZTIME is per target; the nightly workflow raises it.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzReadEdgeList -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run='^$$' -fuzz=FuzzApplyDelta -fuzztime=$(FUZZTIME) ./internal/pregel/
	$(GO) test -run='^$$' -fuzz=FuzzApplyShrink -fuzztime=$(FUZZTIME) ./internal/pregel/
	$(GO) test -run='^$$' -fuzz=FuzzFrontierScanEquivalence -fuzztime=$(FUZZTIME) ./internal/pregel/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSnapshot -fuzztime=$(FUZZTIME) ./internal/snap/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeAssignment -fuzztime=$(FUZZTIME) ./internal/snap/

# Seconds-long fuzz smoke for make check: long enough to catch parser,
# delta-patch and snapshot-decoder regressions on the seed corpus, short
# enough for every PR.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadEdgeList -fuzztime=5s ./internal/graph/
	$(GO) test -run='^$$' -fuzz=FuzzApplyDelta -fuzztime=5s ./internal/pregel/
	$(GO) test -run='^$$' -fuzz=FuzzApplyShrink -fuzztime=5s ./internal/pregel/
	$(GO) test -run='^$$' -fuzz=FuzzFrontierScanEquivalence -fuzztime=5s ./internal/pregel/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSnapshot -fuzztime=5s ./internal/snap/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeAssignment -fuzztime=5s ./internal/snap/

# Golden-corpus compatibility gate: the committed format-v1 snapshots must
# re-encode byte-identically and decode to bit-identical artifacts. Run by
# the CI test job as its own step so a format break is named in the UI.
compat:
	$(GO) test -run='TestGolden' -count=1 ./internal/snap/

check: build test vet race fuzz-smoke
