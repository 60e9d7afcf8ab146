# Build/test/benchmark entry points for the King–Saia random peer
# reproduction. CI (.github/workflows/ci.yml) calls these same targets.

GO ?= go
PR ?= 1

# Build identity stamped into the binaries (reported by randpeerd's
# /healthz and its randpeerd_build_info metric).
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT  ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
LDFLAGS  = -X main.version=$(VERSION) -X main.commit=$(COMMIT)

.PHONY: all build test race vet fmt-check backend-switch-check bench bench-kernel handoff-check bench-smoke bench-snapshot benchdiff cluster-smoke slo-report staticcheck vuln profile alloc-check storage-check exp-golden examples clean

all: build test

build:
	$(GO) build -ldflags '$(LDFLAGS)' ./...

test:
	$(GO) test ./...

# The race job is the regression gate for the concurrent sampling
# engine: it runs the stress and determinism tests under the detector.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# A backend name becomes a network in exactly one place
# (internal/overlays.Build); everything above holds the overlay.Network
# handle. This fails when a switch arm on backend identity reappears in
# a non-test Go file outside the builder and Backend.String (bench/ is
# the frozen benchmark module and keeps its own).
backend-switch-check:
	@out=$$(grep -rnE 'case "(chord|kademlia)"|case (randompeer\.)?(Chord|Kademlia)Backend' --include='*.go' . \
		| grep -v -e '_test\.go:' -e '^\./bench/' -e '^\./internal/overlays/' \
		| grep -v -E '^\./randompeer\.go:[0-9]+:[[:space:]]case (Chord|Kademlia)Backend:$$'); \
	if [ -n "$$out" ]; then \
		echo "per-backend switch outside internal/overlays and Backend.String:"; echo "$$out"; exit 1; fi

# Key benchmarks as a smoke test (one iteration each, with allocation
# counts): the headline single-sample cost, the batch engine at one
# and two workers on every backend, the cross-backend lookup-cost comparison
# (oracle/chord/kademlia), the virtual-clock transport overhead on the
# sampling hot path, the kernel event-loop dispatch paths, bulk overlay
# construction, the async churn driver, one handler-side FIND_NODE
# selection, one wire RPC between two transports over loopback, and the
# ring's h (Successor) and placement (Generate) at 2^16, 10^6 and 10^7
# points, New's radix sort against slices.Sort on uniform, sorted
# and clustered input at 10^6, the batch engine's one-tally calls
# on the oracle from 64 to 10^6 peers at one and two workers, the
# oracle lane's h at 10^6 points, plain and warmed eight at a time, and
# one trial's walk there, over the lane's next and in its ring.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkUniformSample|BenchmarkBatchScaling|BenchmarkLookupCostBackends|BenchmarkSimTransportOverhead|BenchmarkKernelEventLoop|BenchmarkBuildStatic' -benchtime=1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkSampleNTally' -benchtime=1x -benchmem ./internal/engine/
	$(GO) test -run '^$$' -bench 'BenchmarkOracleLaneH' -benchtime=1x -benchmem ./internal/dht/
	$(GO) test -run '^$$' -bench 'BenchmarkOracleLaneWalk' -benchtime=1x -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkSuccessor|BenchmarkGenerate|BenchmarkNew' -benchtime=0.2s -benchmem ./internal/ring/
	$(GO) test -run '^$$' -bench 'BenchmarkCoreResolve' -benchtime=0.2s -benchmem ./internal/overlay/
	$(GO) test -run '^$$' -bench 'BenchmarkAsyncChurn' -benchtime=100x -benchmem ./internal/churn/
	$(GO) test -run '^$$' -bench 'BenchmarkClosestIntoSlot|BenchmarkResolveOwner' -benchtime=1000x -benchmem ./internal/kademlia/
	$(GO) test -run '^$$' -bench 'BenchmarkWireRemoteCall' -benchtime=2000x -benchmem ./internal/wire/

# Kernel event-loop microbenchmarks alone, at measurement benchtime:
# the proc fast path, the Post callback path and the forced coroutine
# handoff. CI runs this as the kernel perf smoke.
bench-kernel:
	$(GO) test -run '^$$' -bench 'BenchmarkKernelEventLoop' -benchtime=0.5s -benchmem .

# The kernel's coroutine handoff is picked by the toolchain (iter.Pull
# from Go 1.23, a channel pair before), so one toolchain only ever runs
# one of the two files: CI runs this on every leg of its Go matrix. The
# pinned trace, the per-event and per-spawn allocation budgets, the pool
# counts and release-on-drain, then the whole package counted under the
# race detector.
handoff-check:
	$(GO) test -run 'Alloc|Pooled|Determinism|Releases' ./internal/sim/
	$(GO) test -race -count=10 ./internal/sim/

# The repository benchmark (bench/, declared by BENCHMARK.json) is a
# module of its own, so `go build ./...` and `go test ./...` never
# compile it. This builds it and runs every workload but the daemon one
# at smoke scale (plain and traced passes, exact-count pins); drop
# -short to include chord-wire-3d.
bench-smoke:
	$(GO) test -C bench -short ./...

# The behavioural snapshot, recorded into the committed trajectory
# (BENCH_$(PR).json): the seeded scenario sections, the repository
# benchmark's traced-pass counters at a fixed -ops per workload, and the
# module's code lines. About a minute; wall clock is bench/'s job.
bench-snapshot:
	$(GO) run ./cmd/benchsnap -o BENCH_$(PR).json

# Compare the two most recent committed snapshots leaf by leaf (one
# markdown table): fails only on the leaves that repeat bit for bit,
# reports the rest, and names what it could not compare as SKIPPED.
benchdiff:
	$(GO) run ./cmd/benchdiff

# Multi-process cluster smoke: build randpeerd (or take the binary
# RANDPEERD_BIN names, as CI's race-built one), spawn a 3-daemon
# loopback cluster per backend, and run the conformance, determinism,
# differential, control-plane and kill/restart suites over real sockets.
cluster-smoke:
	$(GO) test -run 'TestCluster' -v ./internal/cluster/

# E28 per-backend SLO report (quick mode) — the markdown artifact the
# CI slo job uploads. Drop -quick (edit here or run the command by
# hand) for the full 512-peer scenario.
slo-report:
	$(GO) run ./cmd/experiments -run E28 -quick -slo-report slo-report.md
	@echo "wrote slo-report.md"

# Static analysis beyond vet. CI installs the tool; locally run
# `go install honnef.co/go/tools/cmd/staticcheck@2024.1.1` once.
staticcheck:
	staticcheck ./...

# Known-vulnerability scan over the module and its (stdlib-only)
# dependency graph. CI installs the tool; locally run
# `go install golang.org/x/vuln/cmd/govulncheck@v1.1.3` once.
vuln:
	govulncheck ./...

# CPU and allocation profiles of the batch-sampling hot path. Inspect
# with: go tool pprof -top cpu.pprof  (or mem.pprof; -http=: for flames)
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkBatchScaling/oracle/workers=1' -benchtime 5x \
		-cpuprofile cpu.pprof -memprofile mem.pprof -benchmem .
	@echo "wrote cpu.pprof and mem.pprof; view with: go tool pprof -top cpu.pprof"

# The allocation-budget regression gates alone (they also run as part
# of `make test`): per-op heap budgets for the oracle, chord and
# kademlia hot paths, the uniform sampler, one remote wire call, one
# bare transport Call (simnet.Direct, sim.Transport) with every fabric
# hook disarmed, and the batch engine's one tally a call at any worker
# count.
alloc-check:
	$(GO) test -run 'TestAllocBudget' -v ./internal/dht/ ./internal/core/ ./internal/chord/ ./internal/kademlia/ ./internal/wire/ ./internal/simnet/ ./internal/sim/ ./internal/engine/

# The shared overlay core's tests alone (they also run as part of `make
# test` and, counted, under the CI race matrix): seeded slot-arena
# histories on a fake overlay, and on both real overlays the GC-settled
# per-node memory budgets, slot recycling across crash/join cycles, and
# the copy-on-write membership snapshot contract.
storage-check:
	$(GO) test -v ./internal/overlay/

# Re-record the tables internal/exp's TestExperimentsRunQuick pins: every
# experiment's quick table at the test's seed, as the CSV cmd/experiments
# writes. E30's cells are measured heap bytes and wall time, so its file
# is removed and the test skips it. CI runs this and fails on a diff.
exp-golden:
	$(GO) run ./cmd/experiments -quick -seed 12345 -csv internal/exp/testdata/quick >/dev/null
	rm -f internal/exp/testdata/quick/E30.csv

# Build and run every example program.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d || exit 1; done

clean:
	$(GO) clean ./...
