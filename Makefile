# Standard gate for every change: build, vet, then the full test suite
# under the race detector (the parallel sweep engine and the memo caches
# are exercised concurrently by the determinism tests).

GO ?= go

# Per-package coverage floors enforced by make cover / CI, as
# "<import path>:<floor percent>" pairs.
COVER_PACKAGES ?= ./internal/server:70 ./internal/obs:80 ./internal/checkpoint:70 ./internal/simcache:85
# Per-target budget for the fuzz smoke pass (make fuzz).
FUZZTIME ?= 15s

.PHONY: check build vet test race bench bench-sweep bench-json bench-smoke repro serve cover fuzz metrics-smoke fault-smoke chaos-smoke race-resilience golden-update clean lint lint-self lint-sarif fmt-check

check: build lint lint-self race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting drift gate: fail with the offending file list instead of
# letting unformatted code merge silently.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt drift — run gofmt -w on:"; echo "$$out"; exit 1; \
	fi

# Full static-analysis gate: formatting, go vet, then the domain rulebook
# (internal/lint) that machine-checks the determinism/concurrency/error
# contracts, gated on the committed baseline — only *new* findings fail.
# Findings are suppressed in place with //lint:allow(rule).
lint: fmt-check vet
	$(GO) run ./cmd/supernpu-lint -baseline lint.baseline.json

# Self-application: the analyzer's own packages must pass its rulebook,
# including the interprocedural rules, with no baseline cushion.
lint-self:
	$(GO) run ./cmd/supernpu-lint -pkgs internal/lint,cmd/supernpu-lint

# Emit the findings as a SARIF 2.1.0 log for code-scanning upload.
# Always writes lint.sarif; the exit code still reflects the baseline gate.
lint-sarif:
	$(GO) run ./cmd/supernpu-lint -sarif -baseline lint.baseline.json > lint.sarif

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark sweep (regenerates every exhibit; slow).
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x .

# The sweep-engine comparison: serial vs parallel vs memoised.
bench-sweep:
	$(GO) test -run=NONE -bench='BenchmarkRunAll|BenchmarkSimulateC' -benchtime=5x .

# Recorded perf trajectory: run the solver and sweep benchmarks with
# allocation counting and check the measurements in as a sorted-key JSON
# artifact. Compare BENCH_PR*.json files across PRs with
# `go run ./cmd/benchjson -compare` to see the trend.
BENCH_JSON ?= BENCH_PR10.json
bench-json:
	$(GO) test -run=NONE -bench='BenchmarkRun|BenchmarkBiasMargins' -benchmem ./internal/jsim \
		> bench-json.tmp
	$(GO) test -run=NONE -bench='BenchmarkMarginSweepCold|BenchmarkJSIMTransient|BenchmarkFig20BufferSweepWarm' -benchmem . \
		>> bench-json.tmp
	$(GO) run ./cmd/benchjson < bench-json.tmp > $(BENCH_JSON)
	@rm -f bench-json.tmp
	@echo "wrote $(BENCH_JSON)"

# Regression gate for the -compare drift check: fail the smoke when a
# shared benchmark's recorded ns/op grew past this ratio.
BENCH_THRESHOLD ?= 1.5

# CI smoke: every benchmark must still compile and survive one iteration,
# plus a warm-sweep pass and the recorded-trajectory drift gate between
# the two committed artifacts.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(GO) test -run=NONE -bench='BenchmarkFig20BufferSweepWarm' -benchtime=3x .
	$(GO) run ./cmd/benchjson -compare -threshold $(BENCH_THRESHOLD) BENCH_PR6.json BENCH_PR10.json

repro:
	$(GO) run ./cmd/supernpu-repro -v

# Run the HTTP evaluation service on :8080.
serve:
	$(GO) run ./cmd/supernpu-serve

# Coverage gate: each package in COVER_PACKAGES must stay at or above its
# per-package floor (pkg:floor pairs).
cover:
	@for spec in $(COVER_PACKAGES); do \
		pkg=$${spec%:*}; floor=$${spec##*:}; \
		$(GO) test -coverprofile=cover.out $$pkg || exit 1; \
		$(GO) tool cover -func=cover.out | awk -v pkg="$$pkg" -v floor="$$floor" \
			'/^total:/ { pct = $$3; sub("%", "", pct); \
			if (pct + 0 < floor + 0) { printf "FAIL: %s coverage %s%% below the %s%% floor\n", pkg, pct, floor; exit 1 } \
			else { printf "%s coverage %s%% (floor %s%%)\n", pkg, pct, floor } }' || exit 1; \
	done

# Short fuzzing passes over the request decoders, the cache keys and the
# closed-form tile classes.
# Seed corpora are checked in under */testdata/fuzz and always run in
# `make test`; this target additionally mutates for FUZZTIME per target.
fuzz:
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzDecodeRequests -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/simcache -run='^$$' -fuzz=FuzzKeyInjectivity -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/mapper -run='^$$' -fuzz=FuzzTileClasses -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/obs -run='^$$' -fuzz=FuzzPromEscape -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/lint -run='^$$' -fuzz=FuzzSARIFEscape -fuzztime=$(FUZZTIME)

# CI smoke for the observability surface: scrape GET /metrics off a live
# test server and fail unless it parses as strict Prometheus text.
metrics-smoke:
	$(GO) test ./internal/server -run=TestMetricsEndpoint -count=1 -v

# Fault-injection smoke suite: the margin sweep runs end to end under a
# fixed seed and must be byte-identical between a parallel and a serial
# pass (scheduling independence of the seeded fault model).
fault-smoke:
	$(GO) run ./cmd/supernpu-explore -sweep margin -fault-seed 42 -parallel 4 > fault-smoke-par.out
	$(GO) run ./cmd/supernpu-explore -sweep margin -fault-seed 42 -seq > fault-smoke-seq.out
	cmp fault-smoke-par.out fault-smoke-seq.out
	@echo "fault-injection smoke: parallel and serial sweeps byte-identical"
	@rm -f fault-smoke-par.out fault-smoke-seq.out

# Chaos smoke: the fault-injected margin sweep under the race detector
# with an aggressive cancellation hammer (timeouts landing at staggered
# offsets across the sweep's lifetime). Asserts cancellations stay inside
# the guard taxonomy, leak no goroutines, and never poison a cache.
chaos-smoke:
	SUPERNPU_CHAOS=1 $(GO) test -race -count=1 -run TestChaosMarginSweepCancellationHammer ./internal/experiments -v

# Race-detector pass focused on the resilience subsystems.
race-resilience:
	$(GO) test -race -count=1 ./internal/faultinject ./internal/parallel ./internal/server ./internal/checkpoint

# Re-snapshot the golden exhibit files after an intentional model change.
golden-update:
	$(GO) test . -run TestGolden -update

clean:
	$(GO) clean ./...
	rm -f cover.out
