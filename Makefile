# Standard gate for every change: build, lint (gofmt, go vet and the
# domain rulebook), then the full test suite under the race detector (the
# parallel sweep engine and the memo caches are exercised concurrently by
# the determinism tests).

GO ?= go

# Per-package coverage floors enforced by make cover / CI, as
# "<import path>:<floor percent>" pairs.
COVER_PACKAGES ?= ./internal/server:70 ./internal/obs:80 ./internal/simcache:85 ./internal/lint:85
# Per-target budget for the fuzz smoke pass (make fuzz).
FUZZTIME ?= 15s

.PHONY: check build vet test race bench bench-sweep bench-smoke repro serve cover fuzz metrics-smoke fault-smoke margin-cert chaos-smoke race-resilience golden-update clean lint fmt-check examples

check: build lint race

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
# contracts over the whole module, the analyzer's own packages included.
# Any finding fails; a reviewed false positive is suppressed in place with
# //lint:allow(rule).
lint: fmt-check vet
	$(GO) run ./cmd/supernpu-lint

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

# CI smoke: every benchmark must still compile and survive one iteration,
# plus a warm-sweep pass, then the repository benchmark's own tests
# (_perfbench, a module of its own that replaces supernpu with ../): every
# workload runs twice untraced and once traced, and any failed operation,
# any difference in work counts or output digest, or any missing declared
# metric fails the smoke.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(GO) test -run=NONE -bench='BenchmarkFig20BufferSweepWarm' -benchtime=3x .
	cd _perfbench && $(GO) test ./...

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

# Short fuzzing passes over the request decoders, the cache keys, the
# closed-form tile classes and the Prometheus text escaping.
# Seed corpora are checked in under */testdata/fuzz and always run in
# `make test`; this target additionally mutates for FUZZTIME per target.
fuzz:
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzDecodeRequests -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/simcache -run='^$$' -fuzz=FuzzKeyInjectivity -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/mapper -run='^$$' -fuzz=FuzzTileClasses -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/obs -run='^$$' -fuzz=FuzzPromEscape -fuzztime=$(FUZZTIME)

# CI smoke for the observability surface: scrape GET /metrics off a live
# test server and fail unless it parses as strict Prometheus text.
metrics-smoke:
	$(GO) test ./internal/server -run=TestMetricsEndpoint -count=1 -v

# Fault-injection smoke suite: the margin sweep runs end to end under a
# fixed seed and must be byte-identical between a parallel and a serial
# pass (scheduling independence of the seeded fault model) and to its
# committed golden (so a change that shifts both passes still fails).
fault-smoke:
	$(GO) run ./cmd/supernpu-explore -sweep margin -fault-seed 42 -parallel 4 > fault-smoke-par.out
	$(GO) run ./cmd/supernpu-explore -sweep margin -fault-seed 42 -parallel 1 > fault-smoke-seq.out
	cmp fault-smoke-par.out fault-smoke-seq.out
	cmp fault-smoke-par.out testdata/golden/margin-seed42.golden
	@echo "fault-injection smoke: parallel and serial sweeps byte-identical to the golden"
	@rm -f fault-smoke-par.out fault-smoke-seq.out

# Margin-verdict certificate: every bisection probe of 1,501 fault variants
# (seeds 0-149 and 7919+6983k for k < 150, each at the sweep's five spreads,
# plus the nominal line) runs through the margin probe, which stops at a
# final verdict, and over its full window; any verdict that differs fails.
# About a minute on two cores, so it runs without -race.
margin-cert:
	$(GO) test ./internal/jsim -run '^TestMarginVerdictMatchesFullWindow$$' -count=1 -v -timeout 20m -margin-cert

# Example smoke: go build ./... only compiles the example programs, so run
# each one end to end; any non-zero exit fails. examples/validation is the
# only non-test caller of the storage-loop DFF demo.
examples:
	@for d in examples/*/; do \
		echo "== go run ./$$d"; \
		$(GO) run ./$$d || exit 1; \
	done

# Chaos smoke: the fault-injected margin sweep under the race detector
# with an aggressive cancellation hammer (timeouts landing at staggered
# offsets across the sweep's lifetime). Asserts a cancellation surfaces only
# as context.Canceled or context.DeadlineExceeded, leaks no goroutines, and
# never poisons a cache.
chaos-smoke:
	SUPERNPU_CHAOS=1 $(GO) test -race -count=1 -run TestChaosMarginSweepCancellationHammer ./internal/experiments -v

# Race-detector pass focused on the resilience subsystems. The pool's
# process-wide helper budget and the registry's concurrent first
# registrations depend on timing, so their packages run ten times over.
race-resilience:
	$(GO) test -race -count=1 ./internal/faultinject ./internal/server
	$(GO) test -race -count=10 ./internal/parallel ./internal/obs

# Re-snapshot the golden exhibit files after an intentional model change.
golden-update:
	$(GO) test . -run TestGolden -update

clean:
	$(GO) clean ./...
	rm -f cover.out
