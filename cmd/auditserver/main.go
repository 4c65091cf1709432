// Command auditserver serves an audited statistical database over HTTP —
// the census-bureau deployment shape of the paper's introduction. It
// loads (or generates) a company-salary table, guards it with the
// full-disclosure auditors, and answers a JSON API:
//
//	auditserver -n 300 -addr :8080 [-session-snapshot sessions.json]
//
//	curl -s localhost:8080/v1/schema
//	curl -s -X POST localhost:8080/v1/query \
//	     -H 'X-Analyst-ID: alice' \
//	     -d '{"sql":"SELECT sum(salary) WHERE age BETWEEN 30 AND 40"}'
//	curl -s -X POST localhost:8080/v1/queryset \
//	     -H 'X-Analyst-ID: alice' -d '{"kind":"max","indices":[0,1,2,3]}'
//	curl -s -H 'X-Analyst-ID: alice' localhost:8080/v1/stats
//	curl -s localhost:8080/v1/sessions
//	curl -s localhost:8080/v1/metrics
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/readyz
//
// # Multi-analyst sessions
//
// Every request runs in the session of the analyst named by its
// X-Analyst-ID header (or ?analyst= parameter; neither means the shared
// "default" session). Each session is an isolated auditor stack built
// from the same factories, so one analyst's denials never depend on
// another's history — the paper's per-adversary compromise model.
// -max-sessions bounds admitted analysts (beyond it: 503 + Retry-After),
// -session-max-live bounds materialized engines (idle sessions are
// evicted down to their compact query log and rebuilt bit-identically by
// replay on return), -session-ttl expires idle sessions outright, and
// -session-shards sizes the session table's lock striping.
//
// With -auditors=prob the table is instead guarded by the probabilistic
// (λ, δ, γ, T) auditors of Section 3 — maxminprob on max/min, sumprob on
// sum — whose Monte Carlo decisions run on one shared scheduler: an
// assist pool sized by -mc-workers (0 = GOMAXPROCS; its CPU slots are
// capped at GOMAXPROCS) multiplexed across every session's concurrent
// decisions, with -mc-workers also capping each single decision's share. -mc-adaptive-alpha arms the adaptive
// sample budget (early stopping once a decision's outcome is
// statistically pinned). Decisions are bit-identical at any worker
// count for a fixed -prob-seed; /v1/metrics exports the mc_* and
// mcsched_* counters (samples per decision, early-exit savings,
// parallel speedup, assist-pool split, declined assist tokens, samples
// cancelled by a certificate).
//
// With -session-snapshot every session's query log is restored at
// startup (if the file exists) and written back on SIGINT/SIGTERM; the
// server reports ready on /readyz only after replay completes. Works for
// both auditor families (replay reconstructs Monte Carlo state exactly,
// given the same -prob-seed and parameters). The older -snapshot flag
// persists the default session's sum auditor trail directly
// (full-disclosure only) and is mutually exclusive with
// -session-snapshot.
//
// Shutdown is graceful: on the first SIGINT/SIGTERM the server stops
// accepting connections, drains in-flight requests (bounded by
// -shutdown-timeout), flushes the snapshots, and logs the final protocol
// and HTTP counters. A second signal aborts immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"io/fs"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"queryaudit/internal/audit/sumfull"
	"queryaudit/internal/auditlog"
	"queryaudit/internal/core"
	"queryaudit/internal/field"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/metrics"
	"queryaudit/internal/persist"
	"queryaudit/internal/query"
	"queryaudit/internal/replica"
	"queryaudit/internal/server"
	"queryaudit/internal/session"
)

func main() {
	var (
		n           = flag.Int("n", 300, "number of records in the synthetic table")
		seed        = flag.Int64("seed", 1, "random seed for the synthetic table")
		addr        = flag.String("addr", ":8080", "listen address")
		snapshot    = flag.String("snapshot", "", "path for the default session's sum auditor trail (full auditors only; see -session-snapshot)")
		sessSnap    = flag.String("session-snapshot", "", "path for the per-analyst session logs (restored by replay at startup)")
		maxSessions = flag.Int("max-sessions", 4096, "maximum admitted analyst sessions (0 = unlimited; beyond it new analysts get 503)")
		maxLive     = flag.Int("session-max-live", 256, "maximum materialized session engines before LRU eviction to logs (0 = unlimited)")
		sessTTL     = flag.Duration("session-ttl", time.Hour, "idle time before a session (log included) expires (0 = never)")
		sessShards  = flag.Int("session-shards", 16, "lock shards for the session table")
		maxBody     = flag.Int64("max-body-bytes", 1<<20, "maximum POST body size in bytes")
		maxIndices  = flag.Int("max-indices", 100_000, "maximum indices per query set")
		noQIndex    = flag.Bool("no-query-index", false, "resolve SQL with the naive per-request dataset scan instead of the shared query index (baseline/debug)")
		queryCache  = flag.Int("query-cache-entries", 0, "statement/predicate memo size for the query resolver (0 = shared default, negative = unbounded)")
		perClient   = flag.Int("per-client-concurrency", 0, "maximum in-flight requests per client IP (0 = unlimited)")
		drain       = flag.Duration("shutdown-timeout", 10*time.Second, "graceful drain window on SIGINT/SIGTERM")
		quietAccess = flag.Bool("quiet", false, "disable per-request access logging")
		auditors    = flag.String("auditors", "full", "auditor family: full (exact disclosure auditors) or prob (Section 3 probabilistic auditors)")
		mcWorkers   = flag.Int("mc-workers", 0, "per-decision cap on the shared Monte Carlo scheduler for prob auditors (0 = GOMAXPROCS, 1 = sequential); the assist pool itself is sized to this cap and multiplexed across all sessions' decisions, and its CPU slots are capped at GOMAXPROCS, so a larger value adds no speculation")
		mcAlpha     = flag.Float64("mc-adaptive-alpha", 0, "prob auditors: adaptive sample-budget error bound α (0 disables; e.g. 0.01 stops a decision early once its outcome is pinned with 99% confidence — still deterministic per seed)")
		probLambda  = flag.Float64("prob-lambda", 0.45, "prob auditors: tolerated posterior/prior drift λ in (0,1)")
		probGamma   = flag.Int("prob-gamma", 4, "prob auditors: partition intervals γ")
		probDelta   = flag.Float64("prob-delta", 0.2, "prob auditors: attacker winning-probability bound δ")
		probT       = flag.Int("prob-t", 12, "prob auditors: game rounds T")
		probSeed    = flag.Int64("prob-seed", 1, "prob auditors: Monte Carlo seed (decisions are reproducible per seed)")

		role          = flag.String("role", "standalone", "replication role: standalone (no replication), primary (ships its journal), or replica (read-only follower)")
		primaryURL    = flag.String("primary-url", "", "replica: base URL of the primary to stream from (e.g. http://127.0.0.1:8080)")
		replicaListen = flag.String("replica-listen", "", "replica: listen address override (defaults to -addr)")
		replRetention = flag.Int("replication-retention", 4096, "records retained in the replication journal tail (followers further behind resync from a snapshot)")
		replPollWait  = flag.Duration("replication-poll-wait", 10*time.Second, "how long a stream long-poll is held open (heartbeat interval when idle)")
		replMaxBatch  = flag.Int("replication-max-batch", 256, "maximum records per stream response")

		clusterConfig = flag.String("cluster-config", "", "fleet descriptor for sharded deployments (requires -shard-id; see docs/DEPLOYMENT.md §14)")
		shardID       = flag.String("shard-id", "", "this node's shard ID in the -cluster-config descriptor")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "auditserver ", log.LstdFlags|log.Lmsgprefix)
	if *snapshot != "" && *sessSnap != "" {
		logger.Fatalf("-snapshot and -session-snapshot are mutually exclusive (the session snapshot already carries the default session)")
	}
	cview, fleetDesc, err := clusterSetup(*clusterConfig, *shardID, *snapshot)
	if err != nil {
		logger.Fatalf("cluster: %v", err)
	}
	switch *role {
	case "standalone", "primary":
	case "replica":
		if *primaryURL == "" {
			logger.Fatalf("-role=replica requires -primary-url")
		}
		if *replicaListen != "" {
			*addr = *replicaListen
		}
	default:
		logger.Fatalf("unknown -role %q (want standalone, primary or replica)", *role)
	}
	if *role != "replica" && (*primaryURL != "" || *replicaListen != "") {
		logger.Fatalf("-primary-url and -replica-listen only apply to -role=replica")
	}

	// StackConfig is the shared construction path with the offline
	// pipeline (internal/auditlog): an auditreport run handed the same
	// family/N/seed/prob parameters builds a bit-identical stack, which
	// is what makes retrospective verdicts reproduce live ones.
	stack := auditlog.StackConfig{
		Family: *auditors, N: *n, Seed: *seed,
		Lambda: *probLambda, Gamma: *probGamma, Delta: *probDelta, T: *probT,
		MCWorkers: *mcWorkers, AdaptiveAlpha: *mcAlpha, ProbSeed: *probSeed,
	}
	if err := stack.Validate(); err != nil {
		logger.Fatalf("%v (unknown -auditors? want full or prob)", err)
	}
	if *auditors == "prob" && *snapshot != "" {
		logger.Fatalf("-snapshot only supports -auditors=full (use -session-snapshot, which replays either family)")
	}
	ds := stack.NewDataset()

	// One spec builds every session's engine: identical fresh auditors,
	// observers installed at construction (never mid-flight).
	reg := metrics.NewRegistry()
	spec := core.NewEngineSpec(ds)
	spec.SetObserver(metrics.NewEngineCollector(reg))
	spec.SetMCObserver(metrics.NewMCCollector(reg))
	spec.SetMCWorkers(*mcWorkers)
	if err := stack.RegisterAuditors(spec); err != nil {
		logger.Fatalf("auditors: %v", err)
	}
	if *auditors == "prob" {
		// One assist pool for the whole process: every session's decisions
		// multiplex over it, so concurrent analysts share the machine
		// instead of each fanning out their own goroutines.
		sched := mcpar.NewScheduler(*mcWorkers)
		sched.SetObserver(metrics.NewSchedCollector(reg))
		spec.SetMCScheduler(sched)
		logger.Printf("probabilistic auditors: lambda=%g gamma=%d delta=%g T=%d mc-workers=%d sched-pool=%d adaptive-alpha=%g (sensitive values normalized to [0,1])",
			*probLambda, *probGamma, *probDelta, *probT, *mcWorkers, sched.Size(), *mcAlpha)
	}

	mgr, err := session.NewManager(spec, session.Config{
		MaxSessions: *maxSessions,
		MaxLive:     *maxLive,
		TTL:         *sessTTL,
		Shards:      *sessShards,
		Observer:    metrics.NewSessionCollector(reg, *sessShards),
	})
	if err != nil {
		logger.Fatalf("sessions: %v", err)
	}
	defer mgr.Close()

	// Legacy single-analyst trail: restore the sum auditor directly and
	// pin it as the default session (a hand-restored engine is not
	// rebuildable from factories, so it must never be evicted).
	var sumAud *sumfull.Auditor[field.Elem61, field.GF61]
	if *snapshot != "" {
		sumAud = sumfull.New(*n)
		if a, ok := loadSnapshot(logger, *snapshot, *n); ok {
			sumAud = a
		}
		eng, err := spec.Build()
		if err != nil {
			logger.Fatalf("engine: %v", err)
		}
		eng.Use(sumAud, query.Sum)
		mgr.AdoptDefault(eng)
	}

	// Replication node: wired before the server so role gating and the
	// /v1/replication endpoints are in place for the first request. The
	// epoch is adopted from the session snapshot during restore (below),
	// so a restarted node rejoins with the fence it last held.
	var node *replica.Node
	if *role != "standalone" {
		r := replica.RolePrimary
		if *role == "replica" {
			r = replica.RoleReplica
		}
		node = replica.NewNode(mgr, r, 0, *primaryURL, replica.Config{
			Retention: *replRetention,
			PollWait:  *replPollWait,
			MaxBatch:  *replMaxBatch,
			Logger:    logger,
			Observer:  metrics.NewReplicaCollector(reg),
		})
		// A clustered pair boots at the epoch the descriptor last recorded
		// for its shard, so a restarted shard resumes its fence.
		if fleetDesc != nil {
			if sp, ok := fleetDesc.Shard(*shardID); ok && sp.Epoch > 0 {
				node.AdoptEpoch(sp.Epoch)
			}
		}
	}

	opts := server.Defaults()
	opts.MaxBodyBytes = *maxBody
	opts.MaxIndices = *maxIndices
	opts.PerClientConcurrency = *perClient
	opts.ShutdownTimeout = *drain
	opts.DisableQueryIndex = *noQIndex
	opts.QueryCacheEntries = *queryCache
	if !*quietAccess {
		opts.AccessLog = logger
	}
	srvOpts := []server.Option{
		server.WithOptions(opts), server.WithMetrics(reg), server.WithReadinessGate(),
	}
	if node != nil {
		srvOpts = append(srvOpts, server.WithReplication(node))
	}
	if cview != nil {
		srvOpts = append(srvOpts, server.WithCluster(cview))
		logger.Printf("cluster: serving shard %s of %d (descriptor %s)",
			cview.ShardID(), len(fleetDesc.Shards), *clusterConfig)
	}
	srv := server.NewWithSessions(mgr, "salary", srvOpts...)

	// First SIGINT/SIGTERM cancels ctx (graceful drain); a second signal
	// restores default handling, so it kills the process outright. A
	// failed session restore also cancels, via the same context.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithCancel(sigCtx)
	defer cancel()

	logger.Printf("%s", ds.Describe())
	ready := make(chan net.Addr, 1)
	go func() {
		a, ok := <-ready
		if !ok {
			return
		}
		// Restore session logs while the listener already accepts:
		// /healthz answers (liveness) but /readyz and the session-scoped
		// endpoints stay 503 until replay finishes. The "listening on"
		// line is the external go-signal (scripts and the e2e test key
		// on it), so it is only printed once the server is ready.
		if *sessSnap != "" {
			epoch, err := restoreSessions(logger, mgr, *sessSnap)
			if err != nil {
				logger.Printf("session restore failed: %v", err)
				cancel()
				return
			}
			if node != nil && epoch > 0 {
				node.AdoptEpoch(epoch)
				logger.Printf("replication: rejoined at persisted epoch %d", epoch)
			}
		}
		// A replica starts streaming before it reports ready: the follower
		// loop's first act is a full snapshot resync from the primary, so
		// by the time reads land the node serves current (or quarantined)
		// state, not whatever a stale local snapshot held.
		if node != nil && node.Role() == replica.RoleReplica {
			if err := node.StartFollower(ctx); err != nil {
				logger.Printf("replication: %v", err)
				cancel()
				return
			}
		}
		srv.MarkReady()
		if node != nil {
			logger.Printf("replication: role=%s epoch=%d primary=%q", node.Role(), node.Epoch(), node.PrimaryURL())
		}
		logger.Printf("listening on %s", a)
		logger.Printf("ready (sessions live=%d tracked=%d)", mgr.Live(), mgr.Tracked())
	}()
	err = srv.Run(ctx, *addr, ready)
	stop()
	if err != nil {
		logger.Printf("serve: %v", err)
	}

	// Post-drain: stop replication first so no shipped record lands
	// mid-snapshot, then flush the audit trails and report counters.
	if node != nil {
		node.StopFollower()
	}
	exit := 0
	if *snapshot != "" {
		if err := saveSnapshot(*snapshot, sumAud); err != nil {
			logger.Printf("snapshot save failed: %v", err)
			exit = 1
		} else {
			logger.Printf("audit trail saved to %s (rank %d)", *snapshot, sumAud.Rank())
		}
	}
	if *sessSnap != "" {
		logs := mgr.LogSnapshots()
		var epoch uint64
		if node != nil {
			epoch = node.Epoch()
		}
		if err := saveSessions(*sessSnap, logs, epoch); err != nil {
			logger.Printf("session snapshot save failed: %v", err)
			exit = 1
		} else {
			logger.Printf("session logs saved to %s (%d sessions, epoch %d)", *sessSnap, len(logs), epoch)
		}
	}
	st := mgr.Stats(session.DefaultAnalyst)
	logger.Printf("final stats: answered=%d denied=%d records=%d modifications=%d",
		st.Answered, st.Denied, st.Records, st.Modifications)
	snap := reg.Snapshot()
	logger.Printf("sessions: created=%d evicted=%d expired=%d rejected=%d replayed=%d live=%d",
		snap.Counters["sessions_created_total"], snap.Counters["sessions_evicted_total"],
		snap.Counters["sessions_expired_total"], snap.Counters["sessions_rejected_total"],
		snap.Counters["sessions_replayed_total"], snap.Gauges["sessions_live"])
	logger.Printf("http: requests=%d 2xx=%d 4xx=%d 5xx=%d throttled=%d",
		snap.Counters["http_requests_total"], snap.Counters["http_responses_total_2xx"],
		snap.Counters["http_responses_total_4xx"], snap.Counters["http_responses_total_5xx"],
		snap.Counters["http_throttled_total"])
	if h, ok := snap.Histograms["engine_decide_seconds"]; ok && h.Count > 0 {
		logger.Printf("engine: decisions=%d p50=%.4fs p99=%.4fs", h.Count, h.Quantile(0.5), h.Quantile(0.99))
	}
	if err != nil {
		exit = 1
	}
	os.Exit(exit)
}

// restoreSessions replays persisted session logs into the manager and
// returns the persisted replication epoch; a missing file is a clean
// first boot.
func restoreSessions(logger *log.Logger, mgr *session.Manager, path string) (uint64, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	snaps, epoch, err := persist.LoadSessionState(f)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := mgr.Restore(snaps); err != nil {
		return 0, err
	}
	logger.Printf("restored %d session logs from %s in %s", len(snaps), path, time.Since(start).Round(time.Millisecond))
	return epoch, nil
}

// saveSessions writes the session logs durably (temp file + fsync +
// atomic rename), tagged with the replication epoch the node last held.
func saveSessions(path string, logs []session.LogSnapshot, epoch uint64) error {
	return persist.WriteAtomic(path, func(w io.Writer) error {
		return persist.SaveSessionState(w, logs, epoch)
	})
}

// loadSnapshot restores the sum auditor from path when present and
// compatible; a missing file is a clean first boot.
func loadSnapshot(logger *log.Logger, path string, n int) (*sumfull.Auditor[field.Elem61, field.GF61], bool) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false
	}
	if err != nil {
		logger.Printf("snapshot: %v (starting fresh)", err)
		return nil, false
	}
	defer f.Close()
	restored, kind, err := persist.Load(f)
	if err != nil {
		logger.Printf("snapshot: %v (starting fresh)", err)
		return nil, false
	}
	a, ok := restored.(*sumfull.Auditor[field.Elem61, field.GF61])
	if !ok || kind != persist.KindSumFull || a.N() != n {
		logger.Printf("snapshot: kind %q / n mismatch (starting fresh)", kind)
		return nil, false
	}
	logger.Printf("restored sum audit trail from %s (rank %d)", path, a.Rank())
	return a, true
}

// saveSnapshot writes the trail durably (temp file + fsync + atomic
// rename), so a crash mid-write cannot truncate a previously good
// snapshot and a crash just after cannot lose the rename.
func saveSnapshot(path string, a *sumfull.Auditor[field.Elem61, field.GF61]) error {
	return persist.WriteAtomic(path, func(w io.Writer) error {
		return persist.Save(w, a)
	})
}
