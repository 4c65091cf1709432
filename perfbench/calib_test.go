package main

import "testing"

func TestSpeedScaleIsReferenceOverMedian(t *testing.T) {
	if w, c := speedScale(nil); w != 1 || c != 1 {
		t.Fatalf("no samples: scales %v, %v, want 1, 1", w, c)
	}
	half := calibRef / 2
	samples := []calibSample{{4 * calibRef, calibRef}, {half, calibRef}, {half / 2, 2 * calibRef}}
	if w, c := speedScale(samples); w != 2 || c != 1 {
		t.Fatalf("wall median %v, CPU median %v: scales %v, %v, want 2, 1", half, calibRef, w, c)
	}
	if s := calibUnit(); s.wall <= 0 || s.cpu <= 0 {
		t.Fatalf("calibUnit took %v wall, %v CPU", s.wall, s.cpu)
	}
}
