# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test race bench figures figures-smoke theory kv-smoke telemetry-smoke loc ci

all: build vet test

build:
	go build ./...

vet:
	go vet ./...
	test -z "$$(gofmt -l .)"

test:
	go test ./...

race:
	go test -race -short ./...

# What the GitHub workflow's test job runs (.github/workflows/ci.yml).
# quickstart panics if money is not conserved; the two wintheory runs are
# each mode at one small point. The -count=20 line runs its packages in
# parallel, the load under which kv's live-heap test has to hold.
ci: build vet race figures-smoke
	go -C benchmark test -race -short ./...
	go test -count=20 ./internal/telemetry/ ./internal/stm/ ./internal/kv/
	go test -run '^$$' -fuzz FuzzParseRequest -fuzztime 10s ./internal/kv/
	go test -run '^$$' -fuzz FuzzReadReply -fuzztime 10s ./internal/kv/
	go run ./examples/quickstart > /dev/null
	go run ./cmd/wintheory -m 8 -n 4 -reps 1 -c 2,8 > /dev/null
	go run ./cmd/wintheory -ratio -m 8 -n 4 -reps 1 -s 2,8 > /dev/null

# The figure drivers end to end, outside unit tests, all from the one flag
# set. -fig all: one benchmark, two thread counts, 50 ms cells (16 timed
# cells + Fig. 5's fixed-work ones at the largest M). -fig btree: every
# registered manager on the rbtree/btree pair at two thread counts (40
# cells). -fig trace: one flight-recorded run and its timeline, under the
# default window manager and under two classic ones, which have no frame
# clock to hook; backoff's self-aborts carry restart delays the runtime
# waits out. The last run samples 1 in 16 and writes -trace-out, which must
# parse as JSON (what else Perfetto needs of it is held by
# TestRunWithTraceRecorder).
figures-smoke:
	go run ./cmd/winbench -fig all -bench list -threads 2,4 -dur 50ms -reps 1 -total 500 > /dev/null
	go run ./cmd/winbench -fig btree -threads 2,4 -dur 50ms -reps 1 > /dev/null
	go run ./cmd/winbench -fig trace -dur 100ms > /dev/null
	go run ./cmd/winbench -fig trace -manager polka -threads 4 -dur 50ms > /dev/null
	go run ./cmd/winbench -fig trace -manager backoff -threads 4 -dur 50ms > /dev/null
	go run ./cmd/winbench -fig trace -threads 4 -dur 50ms -trace-sample 16 -trace-out /tmp/winbench-smoke-trace.json > /dev/null
	python3 -m json.tool /tmp/winbench-smoke-trace.json > /dev/null

# Every Benchmark* cell, for reading while you work. Bounded iterations so
# the full matrix stays minutes, not hours. Nothing gates on these numbers:
# the regression referee is the repo benchmark (benchmark/run.sh -compare)
# and the zero-alloc criteria are tier-1 tests.
bench:
	go test -bench=. -benchmem -benchtime=300x ./...

# Regenerate every output EXPERIMENTS.md quotes into the git-ignored
# $(RESULTS)/: Figures 2-5 and the extended metrics off one grid (each
# distinct cell run once) and the theory bounds.
# CI-scale by default; `make figures FIGFLAGS=-paper` is the full regime.
RESULTS ?= results
FIGFLAGS ?=
figures:
	mkdir -p $(RESULTS)
	go run ./cmd/winbench -fig all $(FIGFLAGS) > $(RESULTS)/figures.txt
	go run ./cmd/wintheory -m 32 -n 16 -reps 5 > $(RESULTS)/theory.txt
	go run ./cmd/wintheory -ratio -m 32 -n 16 -reps 5 > $(RESULTS)/ratio.txt

# KV service smoke: winkv serves Zipfian winload traffic (including
# cross-shard transactions), /metrics scrapes, commits flow, the abort
# series is published, leaves split (winload's keys are inserts), the
# watchdog never trips, and once winload has left every shard's thread
# pool is full again (wincm_kv_pool_idle = -threads: no STM thread leaked).
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
	grep -q 'wincm_kv_shard_aborts{shard="0"}' /tmp/kv_metrics.out || status=1; \
	awk '$$1 == "wincm_btree_structural_ops_total" { s = $$2 } END { exit (s > 0 ? 0 : 1) }' /tmp/kv_metrics.out || status=1; \
	awk '/^wincm_kv_shard_commits/ { s += $$2 } END { exit (s > 0 ? 0 : 1) }' /tmp/kv_metrics.out || status=1; \
	grep -q '^wincm_kv_watchdog_trips_total 0$$' /tmp/kv_metrics.out || status=1; \
	awk '/^wincm_kv_pool_idle\{/ { n++; if ($$2 != 2) bad = 1 } END { exit (n == 4 && !bad ? 0 : 1) }' /tmp/kv_metrics.out || status=1; \
	kill -INT $$KV; wait $$KV; exit $$status

# Telemetry smoke: a live -fig telemetry run serves Prometheus text with the
# commit counter, the response histogram, the runtime's verdict series
# (restart delays included) and the window gauges, and pprof.
telemetry-smoke:
	go build -o /tmp/winbench-smoke ./cmd/winbench
	/tmp/winbench-smoke -fig telemetry -telemetry-addr 127.0.0.1:9180 -dur 2s & \
	BENCH=$$!; sleep 1; \
	curl -fsS http://127.0.0.1:9180/metrics > /tmp/telemetry_metrics.out || { kill $$BENCH; exit 1; }; \
	status=0; \
	grep -q '^wincm_commits_total ' /tmp/telemetry_metrics.out || status=1; \
	grep -q '^wincm_response_ns_bucket{' /tmp/telemetry_metrics.out || status=1; \
	grep -q '^wincm_resolve_abort_enemy_total ' /tmp/telemetry_metrics.out || status=1; \
	grep -q '^wincm_cm_wait_ns_total ' /tmp/telemetry_metrics.out || status=1; \
	grep -q '^wincm_restart_delay_ns_total ' /tmp/telemetry_metrics.out || status=1; \
	grep -q '^wincm_window_' /tmp/telemetry_metrics.out || status=1; \
	curl -fsS http://127.0.0.1:9180/debug/pprof/ > /dev/null || status=1; \
	wait $$BENCH || status=1; exit $$status

theory:
	go run ./cmd/wintheory
	go run ./cmd/wintheory -ratio

# The size ROADMAP tracks: non-test Go lines outside benchmark/.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l
