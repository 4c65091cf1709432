package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

const (
	// dataSeed is the generated table's seed (auditserver -seed) on
	// every workload.
	dataSeed = 1
	// contentSeed, mixed with a hash of the workload's name, fixes the
	// statement pool and what each analyst asks (see buildSchedule).
	contentSeed = 1
)

// Workload is one named traffic mix, read from workloads.json. Every
// size and rate that shapes a run lives there, so a run is a function of
// (workload, seed, seconds) and nothing else. workloads.json also
// records, per workload, why it exists and which layers it loads and
// bypasses ("why", "loads", "bypasses"); the driver does not read them.
type Workload struct {
	Name string `json:"-"`

	// Server stack.
	Family  string `json:"family"` // "full" or "prob"
	N       int    `json:"n"`
	MaxLive int    `json:"session_max_live"`

	// Traffic shape. Shape is "sql" (a fixed statement pool drawn with
	// Zipf skew) or "ranges" (contiguous-range sums via /v1/queryset).
	Shape        string  `json:"shape"`
	Analysts     int     `json:"analysts"`
	NewcomerFrac float64 `json:"newcomer_frac"`
	Statements   int     `json:"statements"`
	Zipf         float64 `json:"zipf"`
	Mix          string  `json:"mix"`
	RangeMin     int     `json:"range_min"`
	RangeMax     int     `json:"range_max"`
	UpdateEvery  int     `json:"update_every"`

	// Prep is the per-analyst prefix sent to an untimed prep server and
	// persisted as the measured server's -session-snapshot (0 = none).
	Prep int `json:"prep_per_analyst"`
	// Warmup requests run untimed before the closed phase.
	Warmup int `json:"warmup"`
	// ClosedQPS and OpenRate size the fixed work of the two measured
	// phases: the closed phase sends ClosedQPS × ClosedSeconds requests
	// back to back, the open phase OpenRate × OpenSeconds Poisson
	// arrivals at OpenRate per second. ClosedSeconds + OpenSeconds is
	// the benchmark's run_seconds; another --seconds scales both.
	ClosedQPS     float64 `json:"closed_qps"`
	ClosedSeconds float64 `json:"closed_seconds"`
	OpenRate      float64 `json:"open_rate"`
	OpenSeconds   float64 `json:"open_seconds"`
	// SLOms is the open-phase latency limit behind qps_within_slo.
	SLOms float64 `json:"slo_ms"`
	// Boots is how many times set-up runs per benchmark run (setup_s is
	// their median).
	Boots int `json:"boots"`
}

// Config is the whole of workloads.json.
type Config struct {
	Workloads map[string]*Workload `json:"workloads"`
	// Layers maps each per-layer metric to the end-to-end metric and
	// workloads it should move.
	Layers []LayerNote `json:"layers"`
}

// LayerNote names one per-layer metric and its unit. In workloads.json
// each also records which way is better and which end-to-end metric it
// should move on which workload ("better", "moves").
type LayerNote struct {
	Metric string `json:"metric"`
	Unit   string `json:"unit"`
}

func loadConfig(dir string) (*Config, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "workloads.json"))
	if err != nil {
		return nil, err
	}
	var c Config
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for name, w := range c.Workloads {
		w.Name = name
		if w.Boots < 1 {
			return nil, fmt.Errorf("workloads.json: %s: boots must be >= 1", name)
		}
	}
	return &c, nil
}

func (c *Config) workload(name string) (*Workload, error) {
	w, ok := c.Workloads[name]
	if !ok {
		names := make([]string, 0, len(c.Workloads))
		for n := range c.Workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
	}
	return w, nil
}

// phaseCounts returns the fixed request counts of the closed and open
// phases for a run of the given length.
func (w *Workload) phaseCounts(seconds float64) (closed, open int) {
	scale := seconds / (w.ClosedSeconds + w.OpenSeconds)
	closed = int(math.Round(w.ClosedQPS * w.ClosedSeconds * scale))
	open = int(math.Round(w.OpenRate * w.OpenSeconds * scale))
	return max(closed, 1), max(open, 1)
}

// Pin is the pinned outcome of a workload's schedule: the same for
// every seed (see buildSchedule).
type Pin struct {
	Answered int    `json:"answered"`
	Denied   int    `json:"denied"`
	Digest   string `json:"digest"`
}

// Pins maps workload → run length → pinned outcome.
type Pins map[string]map[string]Pin

func pinKey(seconds float64) string {
	return fmt.Sprintf("%gs", seconds)
}

func loadPins(dir string) (Pins, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "pins.json"))
	if err != nil {
		return nil, err
	}
	p := Pins{}
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}
