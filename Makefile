GO ?= go

.PHONY: all build test test-short lint lint-canary verify-static race fmt-check vet verify fma-check fuzz-smoke examples-smoke bench bench-smoke bench-scale perfbench-check perfbench-digests clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# lint runs the lbvet analyzer suite (internal/analysis): nodeterminism,
# floateq, specroundtrip, goroutineleak, shardsafety, hotalloc,
# checkpointsync and telemetryread — the static half of the determinism and
# conservation contract (see README "Determinism contract"). goroutineleak
# blesses one fan-out, shard.Run: every other go statement in engine code
# needs a context.Context. Exceptions need a justified //lint:allow.
lint:
	$(GO) run ./cmd/lbvet ./...

# lint-canary proves the suite still catches the defect classes it exists
# for: it plants a cross-shard write, a hot-path allocation and a bare
# goroutine in a scratch copy of the module and requires lint to flag all
# three (see TestSeededDefectCanary).
lint-canary:
	$(GO) test -run '^TestSeededDefectCanary$$' ./internal/analysis

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# verify-static is the no-execution half of verify: formatting, go vet and
# the lbvet analyzer suite.
verify-static: fmt-check vet lint

# race runs every package under the race detector with the runtime
# invariant checks compiled in (-tags=invariants): the sweep engine fans
# out goroutines across scenario cells, the engines run shard.Run workers
# inside a step, and the invariants assert conservation and
# column-stochasticity after every round while they race.
race:
	$(GO) test -race -short -tags=invariants ./...

# verify is the CI entry point: the static suite, a full build (including
# the examples/ packages, which have no tests of their own), the short test
# suite and the race+invariants pass.
verify: verify-static build test-short race
	@echo verify OK

# fma-check keeps the engine's floating point the same on every
# architecture. On arm64 the Go compiler may fuse x*y + z into one
# multiply-add that rounds once, where amd64 rounds the product first, so
# Ŷ could differ in its last bit from the goldens, which are recorded on
# amd64. An explicit float64(x*y) rounds the product and stops the fusion.
# The target compiles the engine packages for arm64 with -S and fails,
# naming file:line, on any fused multiply-add in their assembly, whatever
# source file it comes from: a generic function of another package (such
# as metrics.Potential, which core's switch policies call) is compiled into
# the package that instantiates it, and an inlined call into its caller.
FMA_PKGS = ./internal/core ./internal/actor
fma-check:
	@asm="$$(GOARCH=arm64 $(GO) build -gcflags=-S $(FMA_PKGS) 2>&1)" || { printf '%s\n' "$$asm"; exit 1; }; \
	printf '%s\n' "$$asm" | grep -q 'core\.(\*Discrete)\.passRound STEXT' || { echo "fma-check: no arm64 assembly for passRound"; exit 1; }; \
	hits="$$(printf '%s\n' "$$asm" | grep -E '[[:space:]](FMADDD|FMSUBD|FNMADDD|FNMSUBD)[[:space:]]' | \
		sed -n 's/.*(\([^()]*\.go:[0-9]*\)).*[[:space:]]\(F[A-Z]*D\)[[:space:]].*/\1 \2/p' | sort -u)"; \
	if [ -n "$$hits" ]; then echo "fma-check: fused multiply-add on arm64:"; printf '%s\n' "$$hits"; exit 1; fi; \
	echo "fma-check: no fused multiply-add in $(FMA_PKGS) on arm64"

# fuzz-smoke runs every fuzz target briefly (override FUZZTIME, e.g.
# FUZZTIME=60s) — the executable proof behind the specroundtrip analyzer's
# requirement that every FromSpec parser has a fuzz round-trip test. It
# finds the targets itself, from `go test -list` over ./... (which leaves
# out the analysis fixtures under testdata/), so a new target runs too.
FUZZTIME ?= 10s
fuzz-smoke:
	@list="$$($(GO) test -list '^Fuzz' ./...)" || { printf '%s\n' "$$list"; exit 1; }; \
	printf '%s\n' "$$list" | awk '/^Fuzz/ { f[n++] = $$1 } /^ok / { for (i = 0; i < n; i++) print $$2, f[i]; n = 0 }' | \
	while read -r pkg target; do \
		echo "fuzz-smoke: $$pkg $$target"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) "$$pkg" < /dev/null || exit 1; \
	done

# examples-smoke builds every program under examples/ (they have no tests
# of their own, so verify only compiles them) and runs each binary from its
# own temporary directory — visualize writes frames/ into its working
# directory. Any non-zero exit fails the target and prints the tail of that
# example's output.
examples-smoke:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	mkdir -p "$$tmp/bin" && $(GO) build -o "$$tmp/bin/" ./examples/... || exit 1; \
	for bin in "$$tmp"/bin/*; do \
		name="$$(basename "$$bin")"; dir="$$tmp/run/$$name"; mkdir -p "$$dir"; \
		echo "examples-smoke: $$name"; \
		if ! (cd "$$dir" && "$$bin" > stdout.txt); then \
			tail -n 20 "$$dir/stdout.txt"; echo "examples-smoke: $$name failed"; exit 1; \
		fi; \
	done

# bench produces real timings; override BENCHTIME (e.g. BENCHTIME=2s) or
# narrow with standard go test flags for serious measurement runs.
BENCHTIME ?= 1s
bench:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) ./...

# bench-smoke runs every benchmark exactly once — including the
# dynamic-workload and engine benchmarks — so the perf paths at least
# compile and execute on every CI run without the timing cost of `bench`.
# The scale benchmarks run shrunk to 16384 nodes (they default to 2^20).
bench-smoke:
	DIFFUSIONLB_SCALE_N=16384 $(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/...

# bench-scale measures the step path at paper scale (override BENCH_N,
# e.g. BENCH_N=4194304) and writes BENCH_10.json: node-updates/sec,
# bytes/node and allocs/round for FOS and SOS on a 2-d torus and a
# random-regular graph — on the shared-memory engine, the barrier actor
# runtime and the stale=2 actor runtime, each cell the median of 3 repeats
# with telemetry-off/on twin rows. See README "Memory layout & scale".
BENCH_N ?= 1048576
BENCH_OUT ?= BENCH_10.json
bench-scale:
	$(GO) run ./cmd/lbbench -n $(BENCH_N) -compare-telemetry -out $(BENCH_OUT)

# perfbench-check vets and tests the end-to-end benchmark (perfbench/), a
# module of its own that the root ./... patterns never compile. It builds
# against the checkout's sources through a replace directive and needs no
# network.
perfbench-check:
	cd perfbench && export GOFLAGS=-mod=mod GOPROXY=off && $(GO) vet ./... && $(GO) test ./...

# perfbench-digests pins the benchmark trajectories: it runs every
# perfbench workload briefly at seed 1 and fails unless each job's digest
# (series and final loads, see perfbench/README.md) equals the recorded
# one and the run's last line reports "correct":true. About 70 s on a
# 2-vCPU VM.
PERFBENCH_DIGESTS = torus-static=42247b981a257bf1 regular-reopt=0a2205168f04964d \
	torus-dynamic=1a909e0576fd6b5b regular-actor=c1106082e2978ea4
perfbench-digests:
	@for pair in $(PERFBENCH_DIGESTS); do \
		w="$${pair%%=*}"; want="$${pair#*=}"; \
		if ! out="$$(bash perfbench/run.sh --workload "$$w" --seed 1 --seconds 1 --trace 0 2>&1)"; then \
			printf '%s\n' "$$out" | tail -n 20; echo "perfbench-digests: $$w failed"; exit 1; \
		fi; \
		got="$$(printf '%s\n' "$$out" | sed -n 's/.* digest \([0-9a-f]*\),.*/\1/p')"; \
		if [ -z "$$got" ] || printf '%s\n' "$$got" | grep -qvx "$$want"; then \
			echo "perfbench-digests: $$w job digests" $$got "differ from $$want"; exit 1; \
		fi; \
		if ! printf '%s\n' "$$out" | tail -n 1 | grep -qF '"correct":true'; then \
			printf '%s\n' "$$out" | tail -n 1; echo "perfbench-digests: $$w is not correct"; exit 1; \
		fi; \
		echo "perfbench-digests: $$w $$want ok ($$(printf '%s\n' "$$got" | wc -l) jobs)"; \
	done

clean:
	$(GO) clean ./...
