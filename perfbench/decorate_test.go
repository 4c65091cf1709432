package main

import (
	"sort"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/maxminfull"
	"queryaudit/internal/audit/maxminprob"
	"queryaudit/internal/audit/sumfull"
	"queryaudit/internal/audit/sumprob"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
)

// bare implements audit.Auditor and nothing else.
type bare struct{}

func (bare) Name() string                               { return "bare" }
func (bare) Decide(query.Query) (audit.Decision, error) { return audit.Deny, nil }
func (bare) Record(query.Query, float64)                {}

func TestDecoratorForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	mm, err := maxminprob.New(20, maxminprob.Params{Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sumprob.New(20, sumprob.Params{Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 12, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []audit.Auditor{bare{}, sumfull.New(20), maxminfull.New(20), mm, sp} {
		d := decorate(a, &auditorStats{})
		if got, want := optionalMask(d), optionalMask(a); got != want {
			t.Errorf("%s: decorator implements mask %04b, wrapped auditor %04b", layerName(a), got, want)
		}
	}
	// Every composition in the table carries exactly its mask.
	for mask, compose := range composers {
		if got := optionalMask(compose(&timed{inner: bare{}, st: &auditorStats{}})); got != mask {
			t.Errorf("composer %04b builds mask %04b", mask, got)
		}
	}
}

// mcReach builds one engine from the stack's spec and reports whether it
// supports updates and how many auditors the MC hooks reach.
func mcReach(t *testing.T, st *Stack) (updates bool, workers, sched int) {
	t.Helper()
	eng, err := st.Spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return eng.SupportsUpdates(), eng.SetMCWorkers(1), eng.SetMCScheduler(mcpar.NewScheduler(1))
}

func TestDecoratedStackMatchesUndecorated(t *testing.T) {
	cfg := testConfig(t)
	names := make([]string, 0, len(cfg.Workloads))
	for name := range cfg.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := cfg.Workloads[name]
		t.Run(name, func(t *testing.T) {
			plain, err := buildStack(w, nil, "")
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Mgr.Close()
			tr := newTracer()
			traced, err := buildStack(w, tr, "")
			if err != nil {
				t.Fatal(err)
			}
			defer traced.Mgr.Close()

			pu, pw, ps := mcReach(t, plain)
			tu, tw, ts := mcReach(t, traced)
			if pu != tu || pw != tw || ps != ts {
				t.Errorf("SupportsUpdates/MC workers/MC scheduler reach: plain %v/%d/%d, decorated %v/%d/%d", pu, pw, ps, tu, tw, ts)
			}
			if w.Family == "prob" && (tw == 0 || ts == 0) {
				t.Errorf("MC hooks reach no decorated prob auditor")
			}

			all, err := buildSchedule(w, 0, 16)
			if err != nil {
				t.Fatal(err)
			}
			ops := all[:min(len(all), 60)]
			pr, err := applySequential(plain, ops)
			if err != nil {
				t.Fatal(err)
			}
			tres, err := applySequential(traced, ops)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ops {
				if pr[i] != tres[i] {
					t.Fatalf("op %d: plain %+v, decorated %+v", i, pr[i], tres[i])
				}
				if pr[i].Failed() {
					t.Fatalf("op %d failed: %s", i, pr[i].Err)
				}
			}
			ph, _, _ := digestOf(plain.Mgr.Sessions())
			th, _, _ := digestOf(traced.Mgr.Sessions())
			if ph != th {
				t.Errorf("final digest hash: plain %s, decorated %s", ph, th)
			}
			if len(tr.auditors) == 0 {
				t.Errorf("decorator recorded no auditor")
			}
		})
	}
}
