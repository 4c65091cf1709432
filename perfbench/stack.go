package main

import (
	"fmt"
	"os"
	"time"

	"queryaudit/internal/audit"
	"queryaudit/internal/auditlog"
	"queryaudit/internal/core"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/metrics"
	"queryaudit/internal/persist"
	"queryaudit/internal/query"
	"queryaudit/internal/server"
	"queryaudit/internal/session"
)

// Stack is the auditserver stack built in-process, the same way
// cmd/auditserver builds it: auditlog.StackConfig → core.EngineSpec →
// session.NewManager → server.NewWithSessions with server.Defaults().
type Stack struct {
	Server *server.Server
	Mgr    *session.Manager
	Spec   *core.EngineSpec
	// Restore is how long restoring a session snapshot took (0 when
	// there was none).
	Restore time.Duration
}

// stackConfig mirrors auditserver's flag defaults for the workload.
func stackConfig(w *Workload) auditlog.StackConfig {
	return auditlog.StackConfig{
		Family: w.Family, N: w.N, Seed: dataSeed,
		Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 12, ProbSeed: 1,
	}
}

// buildStack builds the stack. A non-nil tracer wraps every auditor in
// a timing decorator and tees every public observer hook into itself;
// nil builds the stack exactly as the binary does. A non-empty snapshot
// is restored eagerly before the server is marked ready.
func buildStack(w *Workload, tr *Tracer, snapshot string) (*Stack, error) {
	cfg := stackConfig(w)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	spec := core.NewEngineSpec(cfg.NewDataset())
	var engObs core.Observer = metrics.NewEngineCollector(reg)
	var mcObs mcpar.Observer = metrics.NewMCCollector(reg)
	sessObs := session.Observer(metrics.NewSessionCollector(reg, 16))
	if tr != nil {
		engObs = teeEngine{engObs, tr}
		mcObs = teeMC{mcObs, tr}
		sessObs = teeSession{sessObs, tr}
	}
	spec.SetObserver(engObs)
	spec.SetMCObserver(mcObs)
	spec.SetMCWorkers(0)
	if tr == nil {
		if err := cfg.RegisterAuditors(spec); err != nil {
			return nil, err
		}
	} else if err := registerDecorated(cfg, spec, tr); err != nil {
		return nil, err
	}
	if w.Family == "prob" {
		sched := mcpar.NewScheduler(0)
		sched.SetObserver(metrics.NewSchedCollector(reg))
		spec.SetMCScheduler(sched)
	}
	mgr, err := session.NewManager(spec, session.Config{
		MaxSessions: 4096, MaxLive: w.MaxLive, TTL: time.Hour, Shards: 16, Observer: sessObs,
	})
	if err != nil {
		return nil, err
	}
	srv := server.NewWithSessions(mgr, "salary",
		server.WithOptions(server.Defaults()), server.WithMetrics(reg), server.WithReadinessGate())
	if tr != nil {
		mgr.Resolver().SetObserver(teeQIndex{metrics.NewQIndexCollector(reg), tr})
	}
	st := &Stack{Server: srv, Mgr: mgr, Spec: spec}
	if snapshot != "" {
		if err := st.restore(snapshot); err != nil {
			mgr.Close()
			return nil, err
		}
	}
	srv.MarkReady()
	return st, nil
}

func (st *Stack) restore(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	snaps, _, err := persist.LoadSessionState(f)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := st.Mgr.Restore(snaps); err != nil {
		return err
	}
	st.Restore = time.Since(t0)
	return nil
}

// auditorKinds lists the kinds an auditor family may register.
var auditorKinds = []query.Kind{query.Sum, query.Max, query.Min, query.Avg, query.Count}

// registerDecorated registers the family's auditors wrapped in the
// tracer's timing decorator. The auditors come from the family's own
// public registration (StackConfig.RegisterAuditors on a probe spec), so
// their construction cannot drift from the binary's; kinds served by
// one instance (the joint max∧min auditor) stay registered together.
func registerDecorated(cfg auditlog.StackConfig, spec *core.EngineSpec, tr *Tracer) error {
	probe := core.NewEngineSpec(spec.Dataset())
	if err := cfg.RegisterAuditors(probe); err != nil {
		return err
	}
	eng, err := probe.Build()
	if err != nil {
		return err
	}
	var groups [][]query.Kind
	seen := map[audit.Auditor]int{}
	for _, k := range auditorKinds {
		a, ok := eng.Auditor(k)
		if !ok {
			continue
		}
		if g, ok := seen[a]; ok {
			groups[g] = append(groups[g], k)
			continue
		}
		seen[a] = len(groups)
		groups = append(groups, []query.Kind{k})
	}
	for _, kinds := range groups {
		kind := kinds[0]
		spec.Register(func() (audit.Auditor, error) {
			e, err := probe.Build()
			if err != nil {
				return nil, err
			}
			a, ok := e.Auditor(kind)
			if !ok {
				return nil, fmt.Errorf("probe engine lost its %v auditor", kind)
			}
			return tr.wrap(a), nil
		}, kinds...)
	}
	return nil
}
