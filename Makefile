# Developer workflow for the LEC reproduction. `make check` is the
# pre-commit gate: formatting, vet, build, the full test suite, and the
# race detector over the optimizer core.

GO ?= go

.PHONY: check fmt vet build test race serve-race fleet-race fleet-chaos bench bench-run bench-smoke perfbench-selftest cover fuzz calibrate

# Fuzz budget per target; override with `make fuzz FUZZTIME=1m`.
FUZZTIME ?= 10s

# Coverage floor for the observability-critical packages; `make cover` fails
# below it.
COVER_MIN ?= 70

check: fmt vet build test race serve-race fleet-race cover

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The unified engine shares memo tables and a plan arena across runs, and
# the level-synchronized parallel driver shares both across worker
# goroutines; run the optimizer package at -cpu 1,4 so the parallel DP's
# locking is exercised both starved and oversubscribed.
race:
	$(GO) test -race -cpu 1,4 ./internal/opt
	$(GO) test -race ./lec

# The serving layer is all shared mutable state (cache shards, admission
# channels, breakers, catalog RWMutex); run its suite twice under the race
# detector so single-flight and invalidation schedules get a second draw.
serve-race:
	$(GO) test -race -count=2 ./internal/serve/... ./internal/obs ./cmd/lecd/...

# The fleet layer races hedges against lookups, generation adoptions
# against propagation, and drain against snapshot writes; two runs under
# the race detector give the fault-injection schedules a second draw.
fleet-race:
	$(GO) test -race -count=2 ./internal/fleet/... ./internal/faultinject/...

# Extended seeded chaos soak: 25 rounds of kill/restart/join/leave under
# concurrent load with the race detector on, asserting zero request errors,
# view and generation convergence, and the one-DP-per-key budget every
# round. Override the length with `make fleet-chaos CHAOS_ROUNDS=100`.
CHAOS_ROUNDS ?= 25

fleet-chaos:
	LEC_CHAOS_ROUNDS=$(CHAOS_ROUNDS) $(GO) test -race -run TestFleetChaosSoak -v ./internal/fleet

# -cpu=1 pins GOMAXPROCS so ns/op is comparable across hosts and against
# the checked-in baseline (BenchmarkDPCoreParallel sizes its worker pool
# from GOMAXPROCS). For the multi-core scaling sweep run
# `go test -bench=BenchmarkDPCoreParallel -cpu 1,2,4 ./internal/opt`.
# BenchmarkFacadeCold is the public facade over a mixed 3-10 relation cold
# workload; its B/op and allocs/op track what one served plan costs the
# heap on the pooled-session path. BenchmarkServeHit and
# BenchmarkFleetPeerHit are the warm hit paths: a plan-cache hit in one
# serve.Service, and a peer hit across a two-node loopback fleet.
# BenchmarkFleetPeerHitHTTP is the same peer hit over HTTPTransport, so it
# also times the peer wire codec and the HTTP round trip.
bench:
	$(GO) test -bench='BenchmarkDPCore|BenchmarkTieredPlanning' -benchmem -cpu=1 -run=^$$ ./internal/opt
	$(GO) test -bench='BenchmarkFacadeCold' -benchmem -cpu=1 -run=^$$ ./lec
	$(GO) test -bench='BenchmarkServeHit' -benchmem -cpu=1 -run=^$$ ./internal/serve
	$(GO) test -bench='BenchmarkFleetPeerHit|BenchmarkFleetPeerHitHTTP' -benchmem -cpu=1 -run=^$$ ./internal/fleet

# Every Go benchmark in the optimizer, facade, serving and fleet packages,
# run once each: a compile-and-run check so benchmark code cannot rot. It
# gates on nothing timing-related.
bench-run:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./lec ./internal/serve ./internal/fleet ./internal/opt

# Combined coverage over the optimizer core, the serving layer, the
# observability package, and the calibration harness; fails below
# COVER_MIN percent.
cover:
	$(GO) test -coverprofile=/tmp/lec-cover.out ./internal/opt ./internal/serve ./internal/obs ./internal/calib
	@total=$$($(GO) tool cover -func=/tmp/lec-cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 < min+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% is below the $(COVER_MIN)% floor"; exit 1; }

# Re-run the DP-core and tiered-planning benchmarks and compare against the
# checked-in baseline with median-ratio normalization (see cmd/benchsmoke): a
# uniformly slower machine passes, a single benchmark drifting >30% from its
# peers fails.
bench-smoke:
	$(GO) test -bench='BenchmarkDPCore|BenchmarkTieredPlanning' -benchmem -cpu=1 -run=^$$ ./internal/opt > /tmp/lec-bench-cur.txt; \
		status=$$?; cat /tmp/lec-bench-cur.txt; exit $$status
	$(GO) run ./cmd/benchsmoke -base internal/opt/testdata/dpcore_bench_baseline.txt -cur /tmp/lec-bench-cur.txt

# The end-to-end benchmark's determinism self-test (about 6 s): each
# workload run twice at a small size must repeat its effort counts exactly.
# perfbench is a module of its own, so `make test` does not reach it.
perfbench-selftest:
	cd perfbench && $(GO) test ./...

# Closed-loop calibration on the seeded skewed workload: optimize, execute,
# measure q-error and P-error against the true-statistics oracle, feed the
# observations back, and re-optimize. -check makes it a gate: the run fails
# unless the median q-error and median P-error strictly improve (or start
# perfect) after feedback. Override the workload with CALIBRATE_FLAGS.
CALIBRATE_FLAGS ?= -seed 2 -rounds 3

calibrate:
	$(GO) run ./cmd/leccal $(CALIBRATE_FLAGS) -check

# Smoke the native fuzz targets: the parser/binder and the public optimizer
# facade must never panic on arbitrary input (see ISSUE robustness work),
# and the peer wire codec must decode arbitrary bytes without panicking or
# over-allocating, re-encoding whatever it accepts to the same bytes.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseSQL -fuzztime $(FUZZTIME) ./internal/sqlparse
	$(GO) test -run '^$$' -fuzz FuzzOptimize -fuzztime $(FUZZTIME) ./lec
	$(GO) test -run '^$$' -fuzz FuzzPeerWire -fuzztime $(FUZZTIME) ./internal/fleet
