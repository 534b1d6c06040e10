GO ?= go

.PHONY: build test quick race vet fmt check serve equivalence scenarios-check bench bench-smoke bench-fleet figures loadtest loadtest-ramp fuzz-short bench-wire loadtest-wire recover-test bench-wal bench-bins bench-run bench-opt loc race-soak experiments-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## quick: the -short tier — soak tests skipped, large-fleet scenarios 10x smaller
quick:
	$(GO) test -short ./...

fmt:
	@files="$$(gofmt -l .)"; \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -short ./...

## check: the full local gate — formatting, vet, the race-enabled suite, the
## wire codec's zero-allocation proof and the client's ops/frame floor
## (bench-wire asserts 0 allocs/op, and at least 6 ops per Batch frame for
## 64 callers), the ledger's and the placement's zero-allocation and
## bounded-state proofs (bench-bins), the OPT_total solver's allocation
## pin (bench-opt), and the benchmark's own vet and smoke test
check: fmt vet race test bench-wire bench-bins bench-opt bench-smoke

## bench: the repository's one benchmark (bench/README.md) — two sets of the
## four workloads, each metric compared against its bound in BENCHMARK.json;
## writes bench/out/report.json
bench:
	$(GO) run -C bench dbp/bench -sets 2

## bench-smoke: vet the nested bench module and run its unit tests and its
## 1/100-scale smoke of every workload and the layer ladder
bench-smoke:
	$(GO) vet -C bench ./...
	$(GO) test -C bench -count=1 ./...

## serve: launch the allocation daemon with sensible defaults (HTTP on
## :8080, binary wire protocol on :9090)
serve:
	$(GO) run ./cmd/dbpserved -addr :8080 -wire-addr :9090 -algo firstfit

## loadtest: load a running dbpserved (start one with `make serve`) over
## HTTP at a fixed open-loop rate and print the latency summary
loadtest:
	$(GO) run ./cmd/dbpload -target http -addr localhost:8080 -mode open -rate 5000 -warmup 2s -measure 10s

## loadtest-ramp: find the max rate a running dbpserved sustains under a 5ms p99 SLO
loadtest-ramp:
	$(GO) run ./cmd/dbpload -target http -addr localhost:8080 -ramp -slo-p99 5ms

## loadtest-wire: load a running dbpserved (start one with `make serve`)
## over the binary wire protocol at a fixed open-loop rate
loadtest-wire:
	$(GO) run ./cmd/dbpload -target wire -wire-addr localhost:9090 -mode open -rate 100000 -warmup 2s -measure 10s

## race-soak: the service stack under the race detector, three passes of
## the full (not -short) suites of serve, wal, wire and load: the shard
## owners, the WAL's sync paths, the wire client's writer and reader and
## the load driver
race-soak:
	$(GO) test -race -count=3 ./internal/serve/ ./internal/wal/ ./internal/wire/ ./internal/load/...

## experiments-check: EXPERIMENTS.md below its "# Generated tables" line
## is dbpexp -md's output — regenerate it (full sweeps, ≈16 s) and diff,
## the "*(generated in …)*" timing lines dropped on both sides; skipped
## off amd64, where float results may differ in the last bits, as
## internal/experiments' TestQuickTablesGolden is
experiments-check:
	@if [ "$$($(GO) env GOARCH)" != amd64 ]; then \
		echo "experiments-check: skipped on $$($(GO) env GOARCH)"; exit 0; \
	fi; \
	out=$$(mktemp); trap 'rm -f '"$$out" EXIT; \
	$(GO) run ./cmd/dbpexp -md | grep -v '^\*(generated in ' > "$$out" || exit 1; \
	sed '1,/^# Generated tables/d' EXPERIMENTS.md | sed '1{/^$$/d;}' | \
		grep -v '^\*(generated in ' | diff -u - "$$out" && \
		echo "experiments-check: EXPERIMENTS.md matches dbpexp -md"

## equivalence: the cross-engine oracle (indexed vs linear, every policy,
## Run and Stream paths) under the race detector
equivalence:
	$(GO) test -race -count=1 -run Equivalent ./internal/packing/

## scenarios-check: the workload-registry gate — the registry smoke and
## statistics tests (every scenario generates, seed determinism, zipf
## slope, hotspot share, diurnal modulation, equal-duration bound, the
## -list-workloads golden, the adversarial and statistical digests), the
## batch-path half of the cross-engine oracle, which packs every
## registered scenario bit-identically on both engines, and the root
## declaration audit, which type-checks both modules and fails on a
## declaration of internal/ or cmd/ (a workload generator, a scenario
## hook's helper) that no non-test code uses, or on an exported internal
## name that no other package uses or reaches through a signature
scenarios-check:
	$(GO) test -count=1 ./internal/workload/
	$(GO) test -count=1 -run 'TestEnginesEquivalent' ./internal/packing/
	$(GO) test -count=1 -run 'TestInternal(Names|Methods)HaveAUser' .

## bench-fleet: run the large-fleet Go benchmarks once each — among them
## BenchmarkLargeFleetKeepAliveScaling, ns/event per policy × engine from 500
## to 100k jobs (peak_open ≈ 25 to 3k servers), d=1 and d=2 (an O(B) path
## shows as a ~10x ratio at 10x size, as the scoring rules that scan the
## open list do on both engines; the linear/indexed crossover is
## DESIGN.md §8's B* table)
bench-fleet:
	$(GO) test -run '^$$' -bench LargeFleet -benchtime 1x .

## bench-wire: the wire codec's perf ledger; the accompanying
## TestCodecZeroAlloc asserts 0 allocs/op on the encode and decode paths,
## TestClientFramesCarryReadyCallers prints ops/frame, the ops the
## client's writer puts in one Batch frame for 64 callers on one
## connection (and asserts at least 6), and BenchmarkWirePipelined prints
## ops/applybatch, the ops the server merges into one ApplyBatch for the
## same shape
bench-wire:
	$(GO) test -v -run 'CodecZeroAlloc|ClientFramesCarryReadyCallers' -bench Wire -benchmem ./internal/wire/

## fuzz-short: a CI-scale smoke run of the wire codec and WAL record fuzzers,
## of the streaming WAL segment walker against the whole-file reader it
## replaced, of the binary snapshot codec (an accepted input re-encodes
## byte for byte), of the stream-vs-reference-model fuzzer, of the one demand rule across
## the four front ends (Run, RunFleet, Replay, Stream.Arrive) on boundary
## sizes, of the ledger's job table
## against a map, of the gap tree's First Fit and Last Fit queries against
## linear scans at d = 1, 2 and 3, of the batch event order against the stable sort it
## replaced and of the timeline sweep against a rescan of the whole list
## at every event time, of the OPT solver's bound sandwich
## (L1 <= L2 <= exact <= FFD) and of the CSV and JSON trace readers (go's
## native fuzzing allows one target per invocation)
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzDecodeOp -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDecodeResult -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDecodeBatch -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 5s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzWalkSegment -fuzztime 5s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzSnapshotBinary -fuzztime 5s ./internal/packing/
	$(GO) test -run '^$$' -fuzz FuzzStreamVsModel -fuzztime 5s ./internal/packing/
	$(GO) test -run '^$$' -fuzz FuzzDemandRule -fuzztime 5s ./internal/packing/
	$(GO) test -run '^$$' -fuzz FuzzIDTable -fuzztime 5s ./internal/bins/
	$(GO) test -run '^$$' -fuzz FuzzGapTree -fuzztime 5s ./internal/bins/
	$(GO) test -run '^$$' -fuzz FuzzOrder -fuzztime 5s ./internal/item/
	$(GO) test -run '^$$' -fuzz FuzzSegments -fuzztime 5s ./internal/item/
	$(GO) test -run '^$$' -fuzz FuzzBoundSandwich -fuzztime 5s ./internal/opt/
	$(GO) test -run '^$$' -fuzz FuzzReadCSV -fuzztime 5s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzReadJSON -fuzztime 5s ./internal/trace/

## recover-test: the crash-injection suite under the race detector — builds a
## real dbpserved with -race, SIGKILLs it mid-barrage at randomized points, and
## verifies recovery (triple-entry accounting, bit-identical journal replay,
## restart idempotence, meta guard), so the restarted daemon's parallel shard
## recovery is race-checked in a real process
recover-test:
	$(GO) test -race -run 'CrashRecovery|DataDirConfigGuard' -count=1 -v ./cmd/dbpserved/

## bench-bins: the ledger holds live state only — TestZeroAllocLevelChange
## asserts 0 allocs for a place + remove on an open bin with every index
## structure built (the gap tree of integer gap keys, min-gap and
## total-gap level lists),
## TestZeroAllocTightestFittingVec 0 for the vector Best Fit walk,
## TestZeroAllocPlacement 0 for every registered policy's steady-state
## arrival + departure at d = 1 and 2,
## TestBoundedAllocsOpenCycle at most 1 (the Bin) for
## an opening, four placements and the drain that closes it, and the other
## TestBounded* tests that a long replay's index, reachable bins, stream
## heap and restore cost follow the open fleet, not the history, and that
## the index builds only the structure its queries read (First Fit, Best
## Fit and d=2 vector Best Fit replays); TestBoundedRunAllocs pins a
## 100k-job vectorbestfit d=2 Run at half the 44,415 allocations it made
## with a slice per server, and at 17.3 MB allocated (38.3 MB while it
## copied an event per step and kept an ID -> server map, 20.1 MB while
## its Result copied every job); TestBoundedResultBytes holds the live
## heap that Run's Result keeps beyond its list to 16 B a job;
## TestBoundedVerifyAllocs holds one Verify of a 10k- and of a 100k-job
## d=2 Result to the same 64 allocations (17,935 at 100k while it
## allocated per server)
bench-bins:
	$(GO) test -count=1 -run 'ZeroAlloc|Bounded' ./internal/bins/ ./internal/packing/

## bench-run: the batch path — BenchmarkEventOrder (List.Steps on 100k jobs)
## and BenchmarkRunBatch (one packing.Run of vectorbestfit, d=2, keep-alive
## 0.5, at 10k and 100k jobs, and of firstfit on 100k zipfian jobs at d=1:
## ns/event, B/op, allocs/op and retained-B/job, the live heap the last
## Result holds beyond its list; the 10k-vs-100k ratio of vectorbestfit's
## ns/event is the steady-state version of sim_vector's tail_over_head),
## then BenchmarkVerify (Result.Verify alone on the vectorbestfit and the
## firstfit 100k-job Result: ns/job, B/op, allocs/op) at -cpu 1,2, since
## Verify checks its servers on up to GOMAXPROCS goroutines and the
## one-CPU run shows the per-server check's own cost.
## In CI, so a benchmark that breaks fails the build
bench-run:
	$(GO) test -run '^$$' -bench 'EventOrder|RunBatch' -benchtime 5x .
	$(GO) test -run '^$$' -bench 'Verify' -benchtime 5x -cpu 1,2 .

## bench-opt: the OPT_total solver — internal/opt's
## TestExactSearchAllocsBounded asserts at most 32 allocations (its setup,
## none per node) for an exactBinsLimit call that spends the whole
## two-million-node budget; BenchmarkBinpackExact24 (one 24-item segment,
## 36,111 nodes, in internal/opt) and BenchmarkOptExactSegment (one exact
## OPT_total sweep of 60 jobs) print ns/op and allocs/op
bench-opt:
	$(GO) test -count=1 -run 'ExactSearchAllocsBounded' -bench 'BinpackExact24' -benchmem ./internal/opt/
	$(GO) test -run '^$$' -bench 'OptExactSegment' -benchmem .

## bench-wal: the WAL append hot path; TestAppendZeroAlloc asserts 0 allocs/op
## with fsync off for Append and AppendGroup, and serve's
## TestGroupCommitOneFsyncPerEnvelope pins group commit: one fsync per
## ApplyBatch envelope under fsync=always; serve's BenchmarkRecover times
## the restart alone (serve.New on a populated data directory, at 2 and 8
## shards, closed cleanly or a crash image with a tail after its snapshot)
bench-wal:
	$(GO) test -run 'AppendZeroAlloc' -bench Append -benchmem ./internal/wal/
	$(GO) test -run 'GroupCommitOneFsyncPerEnvelope' -count=1 -v ./internal/serve/
	$(GO) test -run '^$$' -bench Recover -benchtime 20x -benchmem ./internal/serve/

figures:
	$(GO) run ./cmd/dbpplot

## loc: the Go lines added, removed and net outside bench/, from BASE
## (default HEAD) to the working tree, untracked files included — the
## non-test figure a change reports, then the test files' apart, so code
## moved into tests shows on both lines (make loc BASE=main)
BASE ?= HEAD
loc:
	@for kind in non-test test; do \
	  if [ $$kind = test ]; then set -- '*_test.go'; else set -- '*.go' ':!*_test.go'; fi; \
	  { git diff --numstat --no-renames $(BASE) -- "$$@" ':!bench/'; \
	    git ls-files --others --exclude-standard -- "$$@" ':!bench/' | \
	    xargs -r wc -l | awk '$$2 != "total" {print $$1 "\t0\t" $$2}'; } | \
	  awk -v kind=$$kind '{a += $$1; r += $$2} END {printf "%s Go outside bench/: +%d -%d (net %+d)\n", kind, a, r, a - r}'; \
	done
