# Build/test entry points. `make ci` is the gate CI runs: it includes
# the race detector, which protects the engine locking discipline and
# the concurrent-load tests in internal/server.

GO ?= go
GOFMT ?= gofmt

.PHONY: build test race vet fmt-check lint lint-report lint-cache-smoke ci bench bench-guard cover replication-smoke loadgen-smoke cluster-smoke report-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: gofmt -l names every file whose layout differs from
# gofmt's; any name fails the target.
fmt-check:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt -l: not formatted:"; echo "$$out"; exit 1; fi

# Static analysis: gofmt, go vet plus auditlint, the repo's custom stdlib-only
# analyzer suite (cmd/auditlint, docs/LINTING.md) enforcing the
# determinism, locking and persistence invariants the replay/replication
# layers depend on. -cache reuses the summary cache (.auditlint-cache/,
# gitignored) keyed on source + export-data hashes, so warm runs skip
# the load-and-analyze phase entirely.
lint: fmt-check vet
	$(GO) run ./cmd/auditlint -cache ./...

# Machine-readable findings report (schema 2, with witness chains) for
# the CI artifact. Exit code is the same 0/1/2 contract as `lint`.
LINT_REPORT ?= auditlint-findings.json
lint-report:
	$(GO) run ./cmd/auditlint -cache -json ./... > $(LINT_REPORT)

# Warm-vs-cold cache smoke: over the real module, the second (warm)
# auditlint run must beat the cold one. Wall-clock assertions belong on
# a deliberate invocation, so the test is env-gated like bench-guard.
lint-cache-smoke:
	LINT_CACHE_SMOKE=1 $(GO) test -run TestCacheWarmFasterThanCold -count=1 -v ./cmd/auditlint

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

ci: build lint race loadgen-smoke report-smoke

# End-to-end failover drill across real OS processes: build the binary,
# run a primary and a streaming replica, push 50 queries, diff the
# per-session transcript digests, SIGKILL the primary, promote the
# replica over HTTP, and keep serving writes. Exercises the paper's
# simulatability argument (§2.2: auditor state is a pure function of the
# decision history) as an operational failover guarantee.
replication-smoke:
	$(GO) test -run TestReplicationSmoke -count=1 -v ./cmd/auditserver

# End-to-end capacity-harness drill: build auditserver and loadgen as
# real binaries, drive a short mixed workload (all aggregate kinds,
# churned sessions, Zipf statement repetition) over HTTP, and validate
# the LOADGEN report artifact — every request classified, zero
# transport/5xx errors, ordered latency percentiles.
loadgen-smoke:
	$(GO) test -run TestLoadgenSmoke -count=1 -v ./cmd/loadgen

# End-to-end sharded-fleet drill: two shard pairs (primary + streaming
# replica each) plus the auditrouter, all real OS processes, driven by
# the real loadgen binary. Validates the even per-shard request split in
# the LOADGEN report, bit-identical replica transcripts on both pairs,
# then SIGKILLs one primary mid-churn, promotes its replica over HTTP,
# and requires the router to converge onto the promoted member with zero
# transcript divergence — the paper's simulatability argument stretched
# across a horizontally sharded fleet.
cluster-smoke:
	$(GO) test -run TestClusterSmoke -count=1 -v ./cmd/auditrouter

# End-to-end retrospective-auditing drill: auditserver + loadgen +
# auditreport as real binaries. loadgen emits the workload as an ndjson
# audit log, the server exports the matching session journals over
# /v1/journal, and auditreport replays both shapes offline through a
# construction-identical stack (full and prob) with -verify: zero
# live/offline verdict mismatches, and two pipeline runs over the same
# inputs produce byte-identical reports.
report-smoke:
	$(GO) test -run TestReportSmoke -count=1 -v ./cmd/auditreport

# Monte Carlo engine benchmarks — the per-worker Decide sweeps
# {1,2,4,8} with samples-evaluated columns, the deployment-default
# budget latency, the multi-analyst aggregate-QPS sweep over the shared
# scheduler (decisions/s and process CPU ms per decision), and the
# coloring chain — plus the session-manager
# benchmarks (hot-path lookup and the 1000-analyst eviction/replay
# churn) and the query-resolution benchmarks (naive scan vs indexed
# resolver, and the full HTTP Ask path with allocs/op), archived as a
# dated JSON stream of test2json events so runs are diffable across
# machines and commits.
BENCH_OUT ?= BENCH_$(shell date +%Y-%m-%d).json
bench:
	$(GO) test -run='^$$' -bench='Decide$$|DecideDefaultBudget$$|AggregateDecideQPS$$|ColoringChain|^BenchmarkSession|^BenchmarkResolve|^BenchmarkServeAsk' -benchmem -json . ./internal/session ./internal/server > $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"

# Wall-clock tripwire for the workers>1 regression: a parallel
# per-decision cap must not cost materially more than the sequential run
# of the identical decision. Env-gated out of plain `go test` because
# wall-clock assertions belong on a quiet machine, run deliberately.
bench-guard:
	MC_BENCH_GUARD=1 $(GO) test -run TestSumProbWorkerScalingGuard -count=1 -v .

# Coverage with a floor for the session subsystem: the replay/eviction
# machinery is the correctness core of multi-analyst mode, so its
# statement coverage must not rot below the floor.
SESSION_COVER_FLOOR ?= 70.0
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -1
	@pct=$$($(GO) test -cover ./internal/session 2>/dev/null | \
		sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	echo "internal/session coverage: $$pct% (floor $(SESSION_COVER_FLOOR)%)"; \
	awk -v p="$$pct" -v f="$(SESSION_COVER_FLOOR)" \
		'BEGIN { if (p+0 < f+0) { print "FAIL: internal/session coverage below floor"; exit 1 } }'
