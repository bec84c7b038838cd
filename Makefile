# Targets mirror .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test race allocs race-serve test-crash fuzz-smoke vet lint fmt fmt-check bench-parallel bench-build serve smoke-serve examples-smoke loc clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Allocation budgets: a call's heap allocations on a one-worker scheduler
# must not grow with the graph (a visit closure per block, never per
# vertex). testing.AllocsPerRun is not reliable under the race detector, so
# these tests skip there and run here without it.
allocs:
	$(GO) test -run 'Allocs' ./internal/ligra ./internal/core ./internal/graph ./internal/compress

# Double-run the race-prone packages (server concurrency: limiter fairness,
# async jobs, singleflight caches; scheduler internals; the benchmark's
# sharded-connectivity probe) under the race detector — -count=2 shakes out
# ordering-dependent races a single pass can miss. The serve, shard and
# parallel test binaries also fail when their tests leave goroutines running.
race-serve:
	$(GO) test -race -count=2 ./gbbs/serve/... ./gbbs/shard/... ./internal/parallel/...

# Fault-injected durability suite under the race detector: the crash-recovery
# property test (every filesystem op is a crash point), degraded-mode
# serving, corrupt-input rejection, and the vfs fault machinery itself.
test-crash:
	$(GO) test -race -run 'Crash|Recover|Degraded|Fault|Corrupt|WAL|Persist' ./gbbs/store/... ./gbbs/serve/... ./internal/vfs/... ./internal/graph/...

# Short-mode fuzz smoke: run each committed fuzz target for a few seconds so
# the harnesses (and their seed corpora) are exercised on every PR. The Go
# fuzzer takes one -fuzz target per invocation.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./gbbs -fuzz '^FuzzParseSource$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./gbbs -fuzz '^FuzzParseTransforms$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./gbbs/serve -fuzz '^FuzzRunRequestDecode$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./gbbs/store -fuzz '^FuzzWALRecord$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/graph -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/graph -fuzz '^FuzzReadAdjacency$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/core -fuzz '^FuzzTriangleCount$$' -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/bucket -fuzz '^FuzzBuckets$$' -fuzztime $(FUZZTIME) -run '^$$'

# Run the HTTP serving daemon (see cmd/gbbs-serve -h for flags).
serve:
	$(GO) run ./cmd/gbbs-serve

# Boot the daemon and drive it end to end over HTTP: /v1/run miss then
# result-cache hit, schema rejection, stored graphs and edge batches, async
# jobs (join, cancel, resubmit after cancel), then a SIGKILL and restart over
# the same -data-dir. Mirrors the CI smoke step.
smoke-serve:
	./scripts/smoke-serve.sh

# Run the five examples/ programs at small sizes; each must exit 0 in
# seconds (webgraph exits non-zero when the compressed and uncompressed
# graphs give different answers). Mirrors the CI examples step.
examples-smoke:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/roadnetwork -side 8
	$(GO) run ./examples/socialnetwork -scale 10
	$(GO) run ./examples/webcrawl -scale 10
	$(GO) run ./examples/webgraph -scale 10

vet:
	$(GO) vet ./...

# Run the repository's invariant analyzers (internal/analysis) over every
# package of the module, benchmark/ included: one in-process test that fails
# on any finding. See ARCHITECTURE.md, "Enforced invariants", for what each
# analyzer checks.
lint:
	$(GO) test ./internal/analysis -run '^TestRepoHasNoFindings$$'

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Compile-and-smoke the scheduler microbenchmarks (dispatch latency,
# fork-join depth, round-based proxy, pooled vs spawn baseline). CI runs
# this so benchmark code cannot rot; drop -benchtime 1x for real numbers.
# Everything else is measured by `bash benchmark/run.sh` (see bench-build).
bench-parallel:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./internal/parallel

# The repo's benchmark (BENCHMARK.json) is its only measurement system. It
# lives in its own module under benchmark/, which the root `go build ./...`
# and `go test ./...` never compile: vet it and run its tests here, including
# the four-workload smoke (benchmark/smoke_test.go), so a gbbs/serve API
# change that breaks it fails in CI instead of at the next benchmark run.
bench-build:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Product size: non-blank, non-comment lines of non-test Go per package
# directory, then the total. A line counts as a comment when its first
# non-blank characters are //. The separate benchmark/ module and testdata/
# directories (analyzer fixtures, which are test inputs) are left out.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.git/*' ! -path '*/testdata/*' -print0 | \
		xargs -0 awk '{ t = $$0; gsub(/^[ \t]+|[ \t]+$$/, "", t) } \
			t == "" || substr(t, 1, 2) == "//" { next } \
			{ d = FILENAME; sub(/\/[^\/]*$$/, "", d); sub(/^\.\//, "", d); n[d]++; total++ } \
			END { for (d in n) printf "%6d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d  total\n", total }'

clean:
	$(GO) clean ./...
