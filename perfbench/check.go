package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"queryaudit/internal/core"
	"queryaudit/internal/query"
	"queryaudit/internal/session"
)

// quantile returns the q-quantile of ds by nearest rank (0 for none).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Outcome tallies a run's responses.
type Outcome struct {
	Answered, Denied, Failed int
	// Updates counts updates applied (they are neither answered nor
	// denied).
	Updates int
}

// tally counts the verdicts of a run's results.
func tally(ops []Op, res []Result) Outcome {
	var o Outcome
	for i, r := range res {
		switch {
		case r.Failed():
			o.Failed++
		case ops[i].Update:
			o.Updates++
		case r.Answered:
			o.Answered++
		case r.Denied:
			o.Denied++
		}
	}
	return o
}

// digestOf hashes every session's (analyst, seq, digest), sorted by
// analyst, and totals the sessions' own verdict tallies.
func digestOf(infos []session.Info) (hash string, answered, denied int) {
	sort.Slice(infos, func(i, j int) bool { return infos[i].Analyst < infos[j].Analyst })
	h := sha256.New()
	for _, in := range infos {
		fmt.Fprintf(h, "%s %d %s\n", in.Analyst, in.Seq, in.Digest)
		answered += in.Answered
		denied += in.Denied
	}
	return hex.EncodeToString(h.Sum(nil))[:16], answered, denied
}

// fetchSessions reads GET /v1/sessions.
func fetchSessions(base string) ([]session.Info, error) {
	resp, err := http.Get(base + "/v1/sessions")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/sessions: status %d", resp.StatusCode)
	}
	var body struct {
		Sessions []session.Info `json:"sessions"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		return nil, err
	}
	return body.Sessions, nil
}

// checker verifies a run's outputs against the benchmark's own copy of
// the generated table.
type checker struct {
	w      *Workload
	errors []string
}

func (c *checker) failf(format string, args ...any) {
	if len(c.errors) < 20 {
		c.errors = append(c.errors, fmt.Sprintf(format, args...))
	}
}

// checkAnswers walks the schedule in order over a private copy of the
// table, applying its updates, and checks that every answer equals the
// aggregate of the rows the request names. SQL statements are resolved
// by a plain scan of the copy, not by the server's query index.
func (c *checker) checkAnswers(ops []Op, res []Result) {
	ds := stackConfig(c.w).NewDataset()
	resolved := map[string]query.Query{}
	for i, op := range ops {
		r := res[i]
		if op.Update {
			if !r.Failed() {
				ds.SetSensitive(op.Index, op.Value)
			}
			continue
		}
		if !r.Answered {
			continue
		}
		var q query.Query
		if op.SQL != "" {
			var ok bool
			if q, ok = resolved[op.SQL]; !ok {
				var err error
				if q, err = core.ResolveSQL(ds, "salary", op.SQL); err != nil {
					c.failf("op %d: resolving %q: %v", i, op.SQL, err)
					continue
				}
				resolved[op.SQL] = q
			}
		} else {
			kind, err := query.ParseKind(op.Kind)
			if err != nil {
				c.failf("op %d: %v", i, err)
				continue
			}
			idx := make([]int, 0, op.Hi-op.Lo)
			for j := op.Lo; j < op.Hi; j++ {
				idx = append(idx, j)
			}
			q = query.New(kind, idx...)
		}
		if want := ds.Eval(q); r.Answer != want {
			c.failf("op %d (%s %s): answer %v, table says %v", i, op.Analyst, opLabel(op), r.Answer, want)
		}
	}
	if ds.HasDuplicates() {
		c.failf("updates left duplicate values in the table")
	}
}

func opLabel(op Op) string {
	if op.SQL != "" {
		return strconv.Quote(op.SQL)
	}
	return fmt.Sprintf("%s[%d,%d)", op.Kind, op.Lo, op.Hi)
}

// checkOutcome checks the run's tallies for internal consistency and
// failures, against the server's own session tallies, and against the
// pin when one is given.
func (c *checker) checkOutcome(label string, o Outcome, attempted int, infos []session.Info, pin *Pin) {
	hash, sa, sd := digestOf(infos)
	if o.Answered+o.Denied+o.Failed+o.Updates != attempted {
		c.failf("%s: answered %d + denied %d + failed %d + updates %d != attempted %d",
			label, o.Answered, o.Denied, o.Failed, o.Updates, attempted)
	}
	if o.Failed > 0 {
		c.failf("%s: %d of %d requests failed", label, o.Failed, attempted)
	}
	if sa != o.Answered || sd != o.Denied {
		c.failf("%s: sessions report answered=%d denied=%d, responses say %d/%d", label, sa, sd, o.Answered, o.Denied)
	}
	if pin != nil && (pin.Answered != o.Answered || pin.Denied != o.Denied || pin.Digest != hash) {
		c.failf("%s: outcome answered=%d denied=%d digest=%s differs from pin answered=%d denied=%d digest=%s",
			label, o.Answered, o.Denied, hash, pin.Answered, pin.Denied, pin.Digest)
	}
}
