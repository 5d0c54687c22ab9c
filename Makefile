# Same targets CI runs (.github/workflows/ci.yml) — keep them in sync
# so humans and the pipeline always execute identical commands.

GO ?= go

.PHONY: all build test race bench bench-submit bench-json bench-check allocs-gate cluster-smoke crash-smoke fuzz-smoke profile profile-query fmt vet figures loc clean ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmark smoke: one iteration of every figure regeneration, no unit
# tests. The figures are deterministic virtual-time runs, so a single
# iteration is meaningful.
bench:
	$(GO) test -bench . -benchtime=1x -run '^$$' ./...

# Contention smoke: the submission-plane and topology-read benchmarks at
# -cpu 1,4, so a regression that re-serializes the entry (a lock on the
# hot path scales visibly worse at 4) shows up in CI, plus the live
# partition handoff under load (BenchmarkRebalance: gate, drain, handoff,
# reopen on the same submission gate). Short benchtime —
# this watches the slope, not absolute throughput. Allocation regressions
# are allocs-gate's job, absolute ns/op the repo benchmark's
# (BENCHMARK.json); the other root micro-benchmarks run on demand with
# `go test -bench`.
bench-submit:
	$(GO) test -run '^$$' -bench 'BenchmarkSubmitContention|BenchmarkRebalance' -benchmem -benchtime 0.3s -cpu 1,4 .
	$(GO) test -run '^$$' -bench 'BenchmarkTopologyRead' -benchmem -benchtime 0.3s -cpu 1,4 ./internal/core

# Machine-readable benchmark summary: per-policy + adaptive throughput
# on the evolving workload, gated byte for byte against the committed
# benchdata/BENCH_determinism.json (CI uploads the fresh copy as an
# artifact). Deterministic virtual-time runs — the short phase keeps it
# a smoke, shapes are scale-invariant.
bench-json:
	$(GO) run ./cmd/anydb-bench -phase-ms 6 -json BENCH_determinism.json
	cmp BENCH_determinism.json benchdata/BENCH_determinism.json

# The repo's benchmark (BENCHMARK.json, benchmark/) is its own module
# and links internal packages, so `go test ./...` at the root never
# compiles it: vet and test it, then run one short traced oltp_durable
# pass end to end — layer probes, the closed-loop run, and its
# correctness gate (Verify, YTD, close -> reopen -> replay). run.sh exits
# non-zero on a build failure or a failed gate, so an internal API
# change that breaks the benchmark fails the PR that makes it.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	bash benchmark/run.sh --workload oltp_durable --seed 1 --seconds 2 --trace 1

# Deterministic allocation gate: the pipelined payment path (with
# Durability=Off — the default; BenchmarkPaymentPipelined never sets
# Config.Durability, so a WAL hook leaking onto the undurable hot path
# shows up here), a streaming shared-scan registration on unchanged
# data (BenchmarkScanFlush: a replay of the kept output, every chunk's
# stamp checked and the kept batches sent by reference), the same under a
# dictionary-code and a frame-of-reference range predicate
# (BenchmarkFilteredScan: a replay), a c_state LIKE pass after a
# c_state write in every chunk (BenchmarkStaleFilteredScan: the typed
# filter loops, the selection stored into the memo, the gather, and the
# sent batches held and kept as one record), a join's probe-side scan under its
# build-key filter on unchanged data (BenchmarkKeyedScan: a replay),
# the same pass after an o_entry_d write in every chunk
# (BenchmarkStaleKeyedScan: range checks and key-box bitmap tests off
# the encoded columns, the survivors stored into the memo, gathered,
# held and kept),
# one hash-join probe of a 1 024-row batch (BenchmarkJoinProbe: table
# lookups, match gather, output emission), one key-only distinct build
# closed and one 1 024-row batch forwarded with no hash table
# (BenchmarkKeyBoxJoin: the key box's bitmap, projected forward),
# a dictionary-grouped COUNT+SUM registration on unchanged data
# (BenchmarkGroupedPass: a replay of the kept output, every chunk's
# stamp checked and the kept partial sent by reference), the same registration
# after one c_balance write in every chunk (BenchmarkStaleChunkPass: the
# one stale column re-encoded into its vector's capacity, the dense
# fold, the partial sorted into group order, finish keeping it and its
# chunk versions as the kept record, in the slices of a freed record,
# the group table back to its pool), a
# sink merging four ordered 676-group COUNT+SUM partial runs and
# releasing its table (BenchmarkSinkMerge: run heads, tied heads and
# per-run slot lists in the pooled table), the same four runs received
# again as held batches (BenchmarkSinkResultReplay: the runs held back,
# the kept result sent by reference), one ~8 k-row hash-join build
# released to its pool (BenchmarkJoinBuild), the same build's eight held
# batches delivered again (BenchmarkJoinBuildReuse: the kept box and
# table reused), a join on its kept build fed the probe batches of the last
# join of its spec (BenchmarkJoinOutputReplay: the probe batches held
# back, the kept output sent by reference), a 676 x 3 grouped result
# drained through Rows.Next and Rows.Scan (BenchmarkRowsScan: the typed
# column vectors read in place) and the typed row heap's write path
# (BenchmarkHeapWrite: a keyed insert of a stack row, a keyless append,
# a Field read and an UpdateAt) must report exactly 0 allocs/op.
# Fixed iteration counts keep
# the gate reproducible on any machine; the payment path and the heap
# writes run 100000x so cold-pool warm-up and page and index growth
# amortize below the integer allocs/op floor (a reintroduced per-op
# allocation still shows as >= 1).
allocs-gate:
	@set -e; \
	out1="$$($(GO) test -run '^$$' -bench 'BenchmarkPaymentPipelined|BenchmarkRowsScan' -benchmem -benchtime 100000x -cpu 4 .)"; \
	out2="$$($(GO) test -run '^$$' -bench 'BenchmarkScanFlush|BenchmarkFilteredScan|BenchmarkStaleFilteredScan|BenchmarkKeyedScan|BenchmarkStaleKeyedScan|BenchmarkJoinProbe|BenchmarkKeyBoxJoin|BenchmarkGroupedPass|BenchmarkStaleChunkPass|BenchmarkSinkMerge|BenchmarkSinkResultReplay|BenchmarkJoinBuild|BenchmarkJoinBuildReuse|BenchmarkJoinOutputReplay' -benchmem -benchtime 100x ./internal/olap)"; \
	out3="$$($(GO) test -run '^$$' -bench 'BenchmarkHeapWrite' -benchmem -benchtime 100000x ./internal/storage)"; \
	printf '%s\n%s\n%s\n' "$$out1" "$$out2" "$$out3"; \
	printf '%s\n%s\n%s\n' "$$out1" "$$out2" "$$out3" | awk '/^Benchmark/ { n++; a=$$(NF-1)+0; if (a != 0) { print "ALLOCS GATE FAIL: " $$1 " = " a " allocs/op"; bad=1 } } END { if (n != 17) { print "ALLOCS GATE FAIL: " n " benchmarks ran, want 17"; bad=1 } exit bad }'; \
	echo "allocs gate OK: 0 allocs/op on the payment, shared-scan replay, filtered-scan (replay and memo miss), keyed-scan (replay and memo miss), join-probe, key-box-join, grouped-pass replay, stale-chunk-pass (fold and store), sink-merge, sink-result replay, join-build, join-build reuse, join-output replay, rows-scan and heap-write hot paths"

# Two-process cluster smoke: builds the member binary, then runs the
# head + member demo end to end (payments, new-orders, SQL, and a live
# cross-process migration, finishing with Verify + exactly-once).
cluster-smoke:
	$(GO) build ./cmd/anydbd
	$(GO) run ./examples/cluster

# Fault smoke, blocking in CI: the kill-and-restart recovery tests
# (SIGKILL with a 16-deep window in flight under Batch durability,
# a legacy per-dispatcher WALDir, Close under a pipelined burst — each
# reopened, Verify-clean with exactly-once acked effects) plus the
# member-death cluster tests (futures resolve typed, partitions pulled
# home, traffic resumes). Run under -race: the failure paths are the
# racy ones.
crash-smoke:
	$(GO) test -race -count=1 -run 'TestCrashRecovery|TestMemberDeath|TestMemberReconnect|TestSessionAcrossMemberDeath' -v .

# On-demand fuzz smoke, deliberately not part of ci (random inputs would
# make the pipeline nondeterministic): the wire codec's event and data
# decoders, the WAL's frame and record decoders, the row heap against
# its map model (FuzzTableHeap), the blocked primary index against its
# map model (FuzzHashIndex) and the group order's comparator against
# value order and the group key map (FuzzGroupKeys), FUZZTIME each (one
# target per `go test -fuzz` run), on two fuzz workers. `go test ./...`
# already replays every committed seed and testdata/fuzz corpus entry;
# a new crasher lands in the package's testdata/fuzz for committing.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzEventCodec$$' -fuzztime $(FUZZTIME) -parallel 2 ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzDataMsgCodec$$' -fuzztime $(FUZZTIME) -parallel 2 ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzWALDecode$$' -fuzztime $(FUZZTIME) -parallel 2 ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecord$$' -fuzztime $(FUZZTIME) -parallel 2 ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzTableHeap$$' -fuzztime $(FUZZTIME) -parallel 2 ./internal/storage
	$(GO) test -run '^$$' -fuzz '^FuzzHashIndex$$' -fuzztime $(FUZZTIME) -parallel 2 ./internal/storage
	$(GO) test -run '^$$' -fuzz '^FuzzGroupKeys$$' -fuzztime $(FUZZTIME) -parallel 2 ./internal/olap

# CPU + allocation profiles of the parallel submission hot path (the
# public API entry under GOMAXPROCS submitters). Inspect with `go tool
# pprof cpu.prof` / `go tool pprof -sample_index=alloc_objects mem.prof`;
# add -mutexprofile to verify the uncontended entry takes no mutex.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkSubmitContention/NoChurn' -benchtime 3s \
		-cpuprofile cpu.prof -memprofile mem.prof -mutexprofile mutex.prof -o anydb-profile.test .
	@echo "wrote cpu.prof, mem.prof, mutex.prof (binary: anydb-profile.test)"

# CPU and allocation profiles of the analytical path:
# BenchmarkQueryShapes, the repo benchmark's four olap_shared statements
# from eight goroutines with every answer checked, its plans compiled
# and memos filled before the timer starts. Inspect with `go tool pprof
# -top cpu.prof` / `go tool pprof -sample_index=alloc_objects mem.prof`.
# Profile the churn variant with the same go test line and -bench '^BenchmarkQueryShapesChurn$'.
profile-query:
	$(GO) test -run '^$$' -bench '^BenchmarkQueryShapes$$' -benchtime 3s -benchmem \
		-cpuprofile cpu.prof -memprofile mem.prof -o anydb-profile.test .
	@echo "wrote cpu.prof, mem.prof (binary: anydb-profile.test)"

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Regenerate every paper figure at full scale.
figures:
	$(GO) run ./cmd/anydb-bench -fig all

# Non-test Go lines of the root package and internal/ — the figure a
# "net negative LoC" claim in CHANGES.md is computed from (parent vs change).
loc:
	@cat $$(ls *.go | grep -v _test.go) $$(find internal -name '*.go' ! -name '*_test.go') | wc -l

# Remove generated build/bench artifacts (everything .gitignore lists).
clean:
	rm -f cpu.prof mem.prof mutex.prof anydb-profile.test anydbd \
		BENCH_determinism.json

ci: fmt vet build race bench bench-submit bench-json crash-smoke bench-check cluster-smoke allocs-gate
