# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test race bench bench-check bench-baseline figures chaos theory walcrash trace-smoke kv-smoke loc ci

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./internal/stm/ ./internal/core/ ./internal/txmap/ ./internal/txbtree/ ./internal/txhash/ ./internal/chaos/ ./internal/bench/ ./internal/vacation/ ./internal/wal/ ./internal/kv/
	go test -race -short ./internal/harness/

# What the GitHub workflow runs (.github/workflows/ci.yml).
ci:
	go build ./...
	go vet ./...
	go test -race -short ./...
	go -C benchmark test -race -short ./...
	go test -count=20 ./internal/telemetry/ ./internal/stm/

# Bounded iterations so the full matrix stays minutes, not hours.
bench:
	go test -bench=. -benchmem -benchtime=300x ./...

# The CI regression gate: rerun the baseline cells and compare with
# cmd/benchcmp (fails on >10% ns/op regression against bench_baseline.txt).
# The baseline spans two packages: the data-structure workloads in
# internal/bench and the frame-clock cells in internal/core.
BASELINE_BENCH = 'BenchmarkSetOps/(list|rbtree|skiplist)|BenchmarkListParallel$$|BenchmarkReadOnlyCommitted|BenchmarkRBTreeParallel/M16$$|BenchmarkVacationParallel/M16$$|BenchmarkWriteHeavyParallel$$|BenchmarkCommittedWrite$$'
LAZY_BENCH = 'BenchmarkLazyCommittedRead$$|BenchmarkLazyCommittedWrite$$|BenchmarkLazyListParallel$$'
CORE_BENCH = 'BenchmarkFrameClockCommitParallel$$|BenchmarkDynamicManagerList/M16$$|BenchmarkManagerUncontendedCommit$$'
DURABLE_BENCH = 'BenchmarkDurableCommit$$'
TRACE_BENCH = 'BenchmarkTraceOverhead/(off|sampled64)$$|BenchmarkTraceRecorderUnsampled$$'
BTREE_BENCH = 'BenchmarkTxBTreeLookup$$|BenchmarkTxBTreeParallel/M(8|16)$$'
KV_BENCH = 'BenchmarkKVLocalOp/(get|set)$$|BenchmarkKVPipelined$$'
bench-check:
	go test -run xxx -bench $(BASELINE_BENCH) -benchmem -benchtime 1s -count 5 ./internal/bench/ | tee /tmp/bench_new.txt
	go test -run xxx -bench $(LAZY_BENCH) -benchmem -benchtime 1s -count 5 ./internal/bench/ | tee -a /tmp/bench_new.txt
	go test -run xxx -bench $(TRACE_BENCH) -benchmem -benchtime 1s -count 5 ./internal/bench/ | tee -a /tmp/bench_new.txt
	go test -run xxx -bench $(BTREE_BENCH) -benchmem -benchtime 1s -count 5 ./internal/bench/ | tee -a /tmp/bench_new.txt
	go test -run xxx -bench $(CORE_BENCH) -benchmem -benchtime 1s -count 5 ./internal/core/ | tee -a /tmp/bench_new.txt
	go test -run xxx -bench $(DURABLE_BENCH) -benchmem -benchtime 1s -count 5 ./internal/harness/ | tee -a /tmp/bench_new.txt
	go test -run xxx -bench $(KV_BENCH) -benchmem -benchtime 1s -count 5 ./internal/kv/ | tee -a /tmp/bench_new.txt
	go run ./cmd/benchcmp -threshold 0.10 bench_baseline.txt /tmp/bench_new.txt
	grep 'BenchmarkManagerUncontendedCommit' /tmp/bench_new.txt | awk '{ if ($$NF != "allocs/op" || $$(NF-1) != 0) exit 1 }'
	grep 'BenchmarkTraceRecorderUnsampled' /tmp/bench_new.txt | awk '{ if ($$NF != "allocs/op" || $$(NF-1) != 0) exit 1 }'
	grep 'BenchmarkLazyCommittedRead' /tmp/bench_new.txt | awk '{ if ($$NF != "allocs/op" || $$(NF-1) != 0) exit 1 }'
	grep 'BenchmarkLazyCommittedWrite' /tmp/bench_new.txt | awk '{ if ($$NF != "allocs/op" || $$(NF-1) != 0) exit 1 }'
	grep 'BenchmarkTxBTreeLookup' /tmp/bench_new.txt | awk '{ if ($$NF != "allocs/op" || $$(NF-1) != 0) exit 1 }'
	grep 'BenchmarkKVLocalOp/get' /tmp/bench_new.txt | awk '{ if ($$NF != "allocs/op" || $$(NF-1) != 0) exit 1 }'
	grep 'BenchmarkKVPipelined' /tmp/bench_new.txt | awk '{ if ($$NF != "allocs/op" || $$(NF-1) != 0) exit 1 }'

# Refresh the checked-in baseline after an intentional performance change.
bench-baseline:
	go test -run xxx -bench $(BASELINE_BENCH) -benchmem -benchtime 1s -count 5 ./internal/bench/ | tee bench_baseline.txt
	go test -run xxx -bench $(LAZY_BENCH) -benchmem -benchtime 1s -count 5 ./internal/bench/ | tee -a bench_baseline.txt
	go test -run xxx -bench $(TRACE_BENCH) -benchmem -benchtime 1s -count 5 ./internal/bench/ | tee -a bench_baseline.txt
	go test -run xxx -bench $(BTREE_BENCH) -benchmem -benchtime 1s -count 5 ./internal/bench/ | tee -a bench_baseline.txt
	go test -run xxx -bench $(CORE_BENCH) -benchmem -benchtime 1s -count 5 ./internal/core/ | tee -a bench_baseline.txt
	go test -run xxx -bench $(DURABLE_BENCH) -benchmem -benchtime 1s -count 5 ./internal/harness/ | tee -a bench_baseline.txt
	go test -run xxx -bench $(KV_BENCH) -benchmem -benchtime 1s -count 5 ./internal/kv/ | tee -a bench_baseline.txt

# Reproduce the paper's figures (CI-scale; add -paper for the full regime).
figures:
	go run ./cmd/winbench -fig all

# Robustness matrix: every manager under deterministic fault injection.
chaos:
	go run ./cmd/winbench -fig chaos

# Crash-recovery gate: >= 100 randomized crash points, all must recover.
walcrash:
	go run ./cmd/walcrash -seeds 8 -rounds 13

# KV service smoke: winkv serves Zipfian winload traffic (including
# cross-shard transactions), /metrics scrapes, commits flow, and the
# watchdog never trips.
kv-smoke:
	go build -o /tmp/winkv-smoke ./cmd/winkv
	go build -o /tmp/winload-smoke ./cmd/winload
	/tmp/winkv-smoke -addr 127.0.0.1:7390 -shards 4 -threads 2 -metrics 127.0.0.1:7391 & \
	KV=$$!; sleep 1; \
	/tmp/winload-smoke -addr 127.0.0.1:7390 -sessions 8 -keys 100000 -theta 0.9 \
		-dur 3s -depth 4 -mset 0.1 -mget 0.1 || { kill $$KV; exit 1; }; \
	curl -fsS http://127.0.0.1:7391/metrics > /tmp/kv_metrics.out || { kill $$KV; exit 1; }; \
	status=0; \
	grep -q 'wincm_kv_shard_commits{shard="3"}' /tmp/kv_metrics.out || status=1; \
	awk '/^wincm_kv_shard_commits/ { s += $$2 } END { exit (s > 0 ? 0 : 1) }' /tmp/kv_metrics.out || status=1; \
	grep -q '^wincm_kv_watchdog_trips_total 0$$' /tmp/kv_metrics.out || status=1; \
	kill -INT $$KV; wait $$KV; exit $$status

# Flight-recorder smoke: a traced run must emit a Perfetto-loadable trace.
trace-smoke:
	go run ./cmd/winbench -fig trace -dur 300ms -trace-out /tmp/wincm-trace.json
	go run ./cmd/tracecheck /tmp/wincm-trace.json

theory:
	go run ./cmd/wintheory
	go run ./cmd/wintheory -ratio

loc:
	@find . -name '*.go' | xargs wc -l | tail -1
