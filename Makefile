GO ?= go

# Crash-point sampling seed for `make fuzz-crash` (short mode picks a
# seeded sample of power-cut boundaries per device). Reproduce a failing
# CI run by exporting the seed it printed: CRASHCHECK_SEED=<n> make fuzz-crash
CRASHCHECK_SEED ?= 1

.PHONY: build test check race bench fixtures profile fuzz-crash fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the tier-1 gate: vet, build, and the full test suite under the
# race detector (includes the fault-injection and crash-point fuzzing
# suites, and TestFixtures, which reruns every fixture experiment and
# compares it with its checked-in BENCH_*.json), the two examples that
# exit non-zero when their invariant breaks, plus the whole-stack crash
# harness sample. Run it before sending a change.
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) run ./examples/atomiccommit
	$(GO) run ./examples/filecopy
	$(MAKE) fuzz-crash

# fuzz-crash runs the whole-stack crash harness (internal/crashcheck) in
# short mode: for every engine x SHARE-mode cell (innodb DWB-on/SHARE,
# innodb+extended-cache, couch copy/SHARE, pgmini FPW-on/FPW-SHARE,
# sqlmini SHARE) it power-cuts the stack at a
# CRASHCHECK_SEED-sampled set of program/erase boundaries, reopens, and
# checks the durability oracle (no committed write lost, no uncommitted
# write surfaced). The seeded NAND fault-plan runs (seeds 7, 11, 13 for
# innodb/pgmini/couch) always execute in full. Long mode — plain
# `go test ./internal/crashcheck/` — visits every boundary exhaustively.
fuzz-crash:
	CRASHCHECK_SEED=$(CRASHCHECK_SEED) $(GO) test -short -count=1 ./internal/crashcheck/

# race is check without vet/build, for quick re-runs.
race:
	$(GO) test -race ./...

# bench regenerates the paper's tables/figures at test scale; see
# cmd/sharebench for full-scale runs.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# fixtures regenerates every checked-in BENCH_<id>.json (schema
# share-bench/v1) from a fresh default-Params run. The fixture set and
# the paper claims each report must show live in one table in
# internal/bench/fixtures_test.go; TestFixtures fails on any byte
# difference and TestFixtureClaims on any broken claim.
fixtures:
	$(GO) test ./internal/bench -run TestFixtures -update

# profile runs one experiment (PROFILE_EXP, default scale; e.g.
# `make profile PROFILE_EXP=fig6`) with CPU and allocation profiling;
# inspect with `go tool pprof cpu.pprof`. PROFILE_OPSCALE multiplies the
# op count of the experiments that honour -opscale (scale), keeping the
# measured loop hot long enough for a useful sample without changing
# device geometry or aging; the others ignore it.
PROFILE_EXP ?= scale
PROFILE_OPSCALE ?= 20
profile:
	$(GO) run ./cmd/sharebench -exp $(PROFILE_EXP) -opscale $(PROFILE_OPSCALE) \
		-cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof mem.pprof — inspect with: $(GO) tool pprof cpu.pprof"

fmt:
	gofmt -l -w .
