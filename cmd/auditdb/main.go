// Command auditdb is an interactive audited statistical database: it
// loads a synthetic company-salary table and answers SQL-ish aggregate
// queries through the paper's simulatable auditors, denying any query
// whose answer could be stitched together with past answers to reveal an
// individual salary.
//
// Usage:
//
//	auditdb [-n 300] [-seed 1] [-mode full|partial]
//
// Session commands:
//
//	SELECT sum(salary) WHERE age BETWEEN 30 AND 40
//	SELECT max(salary) WHERE zip = '94305'
//	SELECT avg(salary) WHERE dept = 'eng' AND age >= 40
//	.schema      describe the table
//	.stats       protocol counters
//	.update I V  modify record I's salary to V (full-disclosure mode)
//	.quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"queryaudit/internal/audit"

	"queryaudit/internal/audit/maxfull"
	"queryaudit/internal/audit/maxminfull"
	"queryaudit/internal/audit/maxprob"
	"queryaudit/internal/audit/sumfull"
	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
	"queryaudit/internal/trace"
)

func main() {
	var (
		n       = flag.Int("n", 300, "number of records")
		seed    = flag.Int64("seed", 1, "random seed for the synthetic table")
		mode    = flag.String("mode", "full", "privacy mode: full (classical compromise), maxmin (joint §4 max/min auditing), or partial (probabilistic, max only)")
		record  = flag.String("record", "", "append a JSONL trace of the session to this file")
		csvPath = flag.String("csv", "", "load the table from a headered CSV instead of generating one")
		csvSens = flag.String("sensitive", "salary", "sensitive column name for -csv")
		csvNum  = flag.String("numeric", "age", "comma-separated numeric public columns for -csv")
	)
	flag.Parse()

	rng := randx.New(*seed)
	var ds *dataset.Dataset
	if *csvPath != "" {
		f, err := os.Open(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		loaded, err := dataset.LoadCSV(f, dataset.CSVOptions{
			Sensitive:       *csvSens,
			Numeric:         strings.Split(*csvNum, ","),
			RequireDistinct: *mode != "full", // max/min auditors need it
		})
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ds = loaded
		*n = ds.N()
	} else {
		ds = dataset.GenerateCompany(rng, dataset.DefaultCompanyConfig(*n))
	}
	eng := core.NewEngine(ds)

	switch *mode {
	case "full":
		eng.Use(sumfull.New(*n), query.Sum)
		eng.Use(maxfull.New(*n), query.Max)
	case "maxmin":
		eng.Use(sumfull.New(*n), query.Sum)
		joint := maxminfull.New(*n)
		eng.Use(joint, query.Max, query.Min)
	case "partial":
		a, err := maxprob.New(*n, maxprob.Params{
			Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 100, Samples: 64, Seed: *seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		eng.Use(a, query.Max)
		eng.Use(sumfull.New(*n), query.Sum)
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}

	var rec *trace.Recorder
	if *record != "" {
		//auditlint:allow atomicwrite append-only live trace stream; whole-file atomic rewrite does not apply
		f, err := os.OpenFile(*record, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		rec = trace.NewRecorder(eng, f)
		fmt.Printf("recording session to %s\n", *record)
	}

	sdb := core.NewSDB(eng, *csvSens)
	fmt.Printf("auditdb: %s (mode=%s)\n", ds.Describe(), *mode)
	fmt.Println(`type SQL ("SELECT sum(salary) WHERE age BETWEEN 30 AND 40"), or .help`)

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("auditdb> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ".") {
			if !command(line, eng, rec, ds, *mode) {
				return
			}
			continue
		}
		var resp core.Response
		var err error
		if rec != nil {
			// Route through the recorder so the trace captures the
			// resolved query set.
			var stmt core.Statement
			stmt, err = core.Parse(line)
			if err == nil && stmt.Target != *csvSens {
				err = fmt.Errorf("unknown aggregate target %q (sensitive attribute is %q)", stmt.Target, *csvSens)
			}
			if err == nil {
				set := eng.Dataset().Select(stmt.Predicate())
				if len(set) == 0 {
					err = fmt.Errorf("predicate selects no records")
				} else {
					resp, err = rec.Ask(query.Query{Set: set, Kind: stmt.Agg})
				}
			}
		} else {
			resp, err = sdb.Query(line)
		}
		switch {
		case err != nil:
			fmt.Printf("error: %v\n", err)
		case resp.Denied:
			fmt.Println("DENIED (answering could compromise an individual's salary)")
		default:
			fmt.Printf("%.2f\n", resp.Answer)
		}
	}
}

// printKnowledge shows per-record attacker exposure from every auditor
// that can report it (optionally restricted to one record index).
func printKnowledge(eng *core.Engine, fields []string) {
	only := -1
	if len(fields) == 2 {
		if v, err := strconv.Atoi(fields[1]); err == nil {
			only = v
		}
	}
	shown := false
	seen := map[string]bool{}
	for _, k := range []query.Kind{query.Sum, query.Max, query.Min} {
		a, ok := eng.Auditor(k)
		if !ok || seen[a.Name()] {
			continue
		}
		seen[a.Name()] = true
		kr, ok := a.(audit.KnowledgeReporter)
		if !ok {
			continue
		}
		shown = true
		fmt.Printf("-- %s --\n", a.Name())
		for _, e := range kr.Knowledge() {
			if only >= 0 && e.Index != only {
				continue
			}
			if only < 0 && math.IsInf(e.Lower, -1) && math.IsInf(e.Upper, 1) && !e.Pinned {
				continue // nothing derived; keep the listing short
			}
			lo, hi := "(-inf", "+inf)"
			if !math.IsInf(e.Lower, -1) {
				b := "("
				if !e.LowerStrict {
					b = "["
				}
				lo = fmt.Sprintf("%s%.2f", b, e.Lower)
			}
			if !math.IsInf(e.Upper, 1) {
				b := ")"
				if !e.UpperStrict {
					b = "]"
				}
				hi = fmt.Sprintf("%.2f%s", e.Upper, b)
			}
			pin := ""
			if e.Pinned {
				pin = "  PINNED"
			}
			fmt.Printf("  x[%3d] ∈ %s, %s%s\n", e.Index, lo, hi, pin)
		}
	}
	if !shown {
		fmt.Println("no registered auditor reports knowledge")
	}
}

// command handles dot-commands; it returns false on .quit.
func command(line string, eng *core.Engine, rec *trace.Recorder, ds *dataset.Dataset, mode string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".quit", ".exit":
		return false
	case ".help":
		fmt.Println(".schema | .stats | .know [I] | .update I V | .quit")
	case ".know":
		printKnowledge(eng, fields)
	case ".schema":
		fmt.Println(ds.Describe())
		fmt.Println("sensitive attribute: salary (aggregate target)")
	case ".stats":
		fmt.Printf("answered=%d denied=%d records=%d modifications=%d\n",
			eng.Answered(), eng.Denied(), ds.N(), ds.Modifications())
	case ".update":
		if mode != "full" {
			fmt.Println("updates are supported in full-disclosure mode only")
			return true
		}
		if len(fields) != 3 {
			fmt.Println("usage: .update INDEX VALUE")
			return true
		}
		idx, err1 := strconv.Atoi(fields[1])
		val, err2 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil {
			fmt.Println("usage: .update INDEX VALUE")
			return true
		}
		var err error
		if rec != nil {
			err = rec.Update(idx, val) // recorded so replays reproduce
		} else {
			err = eng.Update(idx, val)
		}
		if err != nil {
			fmt.Printf("error: %v\n", err)
		} else {
			fmt.Printf("record %d updated\n", idx)
		}
	default:
		fmt.Printf("unknown command %s (try .help)\n", fields[0])
	}
	return true
}
