# Convenience targets; everything is plain `go` underneath.

.PHONY: build test test-race vet chaos bench bench-module bench-json bench-cascade bench-approx bench-approx-smoke cover cover-check fuzz-smoke golden golden-update soak experiments experiments-full examples clean

build:
	go build ./...

# Static checks: go vet plus a gofmt drift check (fails listing the files).
vet:
	go vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi

# Default test path: static checks, the full suite (includes the golden
# e2e corpus and the short soak), a race-detector run of the
# concurrency-heavy packages (distance cascade, index search and shards,
# HTTP middleware/observability, replication, live feeds), the
# crash-recovery, replication and feed fault-injection matrices, and the
# coverage ratchet.
test: vet
	go test ./...
	go test -race ./internal/dist ./internal/index ./internal/server ./internal/replica ./internal/feed
	$(MAKE) chaos
	$(MAKE) cover-check

test-race:
	go test -race ./...

# The fault-injection matrices, all under the race detector.
# Crash recovery: every WAL prefix (including mid-record tears), torn
# snapshots, rotation crash states, and bit flips in both containers,
# under the internal/faultfs injection filesystem; and the log-chain
# byte-cut matrix (TestChainCrashMatrix: every cut through create,
# appends, rotation with and without a head record, checkpoint and prune,
# for a checkpoint outside the chain and one inside it).
# Replication: every replica-side apply prefix under a dying disk,
# tampered and torn wire batches, a primary killed and restarted
# mid-stream, a resume position rotated off the retained WAL, and planted
# matched-position divergence caught by anti-entropy.
# Live feeds: the journal crash matrices (TestFeedCrashMatrix: sync
# failures at every point over feed checkpoints;
# TestFeedCrashMatrixWriteBudget: torn writes at every byte cut, torn
# rotation checkpoints included), a damaged journal refused and kept,
# durable restart mid-feed with duplicate re-sends, a journal whose
# checkpoint still carries the old preview builder's state, an epoch commit
# that must not rebuild what the feed already tracked, the
# feed/subscription soak (writers, subscribers and churn against one
# engine, with read-your-writes and sequence-monotonicity asserted
# throughout; STRG_SOAK_MS stretches it), and the dispatch differential
# test (subscription index, probe boxes and bounded k-NN evaluation against
# the walk-everything reference).
chaos:
	go test -race -count=1 -run 'Crash|EveryPrefix|Durable|BitFlip|Torn|Atomic' \
		./internal/wal ./internal/faultfs ./internal/core
	go test -race -count=1 \
		-run 'ReplicaCrash|ReplicaCorrupt|ReplicaTorn|ReplicaResume|ReplicaWALGone|ReplicaAntiEntropy' \
		./internal/replica
	STRG_SOAK_MS=$(STRG_SOAK_MS) go test -race -count=1 \
		-run 'FeedCrashMatrix|FeedDamagedJournal|FeedDurableRestartResume|FeedLegacyCheckpoint|FeedCommitDoesNotRebuild|FeedSoak|DispatchMatchesBruteForce' \
		./internal/feed

cover:
	go test -cover ./internal/...

# Coverage ratchet for the packages where a silent regression is most
# dangerous (the index owns query correctness under concurrent ingest, the
# WAL owns durability, core owns recovery, dist owns the bit-identity
# contracts of the columnar and batched kernels, query owns the
# DSL/planner contract behind /v1/query, rtree owns the pruning superset
# guarantee, embed owns the approximate tier's candidate generation and
# its recall-monotonicity contract, strg owns the Add ≡ Build contract a
# live feed's commits rest on). Floors were set ~3 points under the coverage of the day;
# measured at PR 15: index 94.0%, wal 77.8%, dist 98.1%, query 91.1%,
# rtree 96.0%, embed 90.2%, replica 82.1%, feed 83.9%; wal 89.4% and
# core 80.6% once the log chain landed; strg 94.5% once a feed committed
# its own STRG. Raise them as coverage rises —
# never lower them to make a build pass.
cover-check:
	@status=0; for spec in internal/index:91.0 internal/wal:86.4 internal/core:77.6 internal/dist:94.0 internal/query:86.0 internal/rtree:93.0 internal/embed:87.0 internal/replica:78.0 internal/feed:80.0 internal/strg:91.5; do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		pct=$$(go test -cover ./$$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "FAIL: no coverage output for $$pkg"; status=1; continue; fi; \
		if awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit !(p >= f) }'; then \
			echo "ok   $$pkg coverage $$pct% (floor $$floor%)"; \
		else \
			echo "FAIL $$pkg coverage $$pct% dropped below floor $$floor%"; status=1; \
		fi; \
	done; exit $$status

# Fuzz smoke: run each fuzz target for a bounded budget (override with
# FUZZTIME=5m for a long soak). Minimization is capped — an interesting
# input otherwise eats the whole budget shrinking itself.
FUZZTIME ?= 30s
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzWALScan$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 16x ./internal/wal
	go test -run '^$$' -fuzz '^FuzzSnapshotLoad$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 16x ./internal/core
	go test -run '^$$' -fuzz '^FuzzEGEDKernels$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 16x ./internal/dist
	go test -run '^$$' -fuzz '^FuzzColumnarKernels$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 16x ./internal/dist
	go test -run '^$$' -fuzz '^FuzzParseQuery$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 16x ./internal/query
	go test -run '^$$' -fuzz '^FuzzReplicaBatchDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 16x ./internal/replica
	go test -run '^$$' -fuzz '^FuzzSubscriptionRegister$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 16x ./internal/feed

# Golden end-to-end corpus: deterministic synthetic video in, bit-exact
# query answers out, at shard counts 1, 2 and 4.
golden:
	go test -run TestGoldenE2E -count=1 ./internal/core

# Regenerate the committed corpus after an INTENDED answer change; review
# the diff of internal/core/testdata/golden_e2e.json before committing.
golden-update:
	go test -run TestGoldenE2E -count=1 ./internal/core -args -update-golden

# Concurrency soak under the race detector: mixed ingest / k-NN / range /
# checkpoint goroutines against one shared database. Override the storm
# duration with STRG_SOAK_MS (default here: 5 s; plain `go test` uses a
# shorter 1.5 s budget).
STRG_SOAK_MS ?= 5000
soak:
	STRG_SOAK_MS=$(STRG_SOAK_MS) go test -race -run TestSharedDBSoak -count=1 -v ./internal/core

bench:
	go test -bench=. -benchmem .

# bench/ is a nested module (BENCHMARK.json's harness), so `go build ./...`
# and `go test ./...` from the root never compile it: a change that deletes
# exported API can break the benchmark silently. This vets and tests it
# against the tree it lives in.
bench-module:
	cd bench && go vet ./... && go test ./...

# Worker-sweep benchmarks of the parallel distance engine plus the
# columnar kernel benchmarks and the planner micro-benchmark, as JSON,
# then the perf-floor check: batched leaf DP >= 2.5x per-pair everywhere
# and the planner's rtree-assisted select >= 2x the full scan on the ring
# workload in <= 12 allocs/op.
# The columnar repeat count is high because the check keeps the fastest
# run per name — on a noisy single-core host the min needs several
# samples to converge.
bench-json:
	go test -run='^$$' -bench='STRGBuildParallel|Figure6ClusterBuildParallel|Figure7KNNParallel' -benchmem . \
		| go run ./cmd/benchjson > BENCH_parallel.json
	go test -run='^$$' -bench='BatchedLeafDP|ColumnarKNNExact|RankStage|ApproxRerank' -benchmem -count=8 . \
		| go run ./cmd/benchjson > BENCH_columnar.json
	go test -run='^$$' -bench='PlannerSelect' -benchmem -count=2 . \
		| go run ./cmd/benchjson > BENCH_planner.json
	go run ./cmd/benchjson -check BENCH_parallel.json BENCH_columnar.json BENCH_planner.json

# Approximate-tier experiment grid at the committed million-OG spec:
# bulk-load 1M synthetic OGs with the IVF tier on, sweep nprobe against
# exact ground truth, write BENCH_approx.json, then enforce the
# acceptance gate (>= 5x exact at recall@10 >= 0.95). Takes a few
# minutes; bench-approx-smoke replays a 2k-OG spec in seconds for CI.
bench-approx:
	go run ./cmd/strg-bench -grid internal/experiments/grids/approx-1m.json -grid-out BENCH_approx.json
	go run ./cmd/benchjson -check BENCH_approx.json

bench-approx-smoke:
	go run ./cmd/strg-bench -grid internal/experiments/grids/approx-smoke.json

# Filter-and-refine cascade benchmarks (DP cells and per-stage pruning as
# custom /op metrics), as JSON.
bench-cascade:
	go test -run='^$$' -bench='Cascade' -benchmem . \
		| go run ./cmd/benchjson > BENCH_cascade.json

# Regenerate the paper's tables and figures (quick scale: tens of seconds).
experiments:
	go run ./cmd/strg-bench -scale quick

# Paper-sized magnitudes (minutes).
experiments-full:
	go run ./cmd/strg-bench -scale full

examples:
	go run ./examples/quickstart
	go run ./examples/patterns
	go run ./examples/traffic
	go run ./examples/surveillance
	go run ./examples/live

clean:
	go clean ./...
