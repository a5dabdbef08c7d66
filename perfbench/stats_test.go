package main

import (
	"math"
	"testing"
)

func seq(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		name       string
		in         samples
		value, pct float64
		beyond     int
	}{
		// 100 samples: the 11th largest (90) has exactly 10 above it.
		{"hundred", seq(100), 90, 90, 10},
		// 1000 samples: p99 with 10 beyond.
		{"thousand", seq(1000), 990, 99, 10},
		// 11 samples: the smallest is the only value with 10 above it.
		{"eleven", seq(11), 1, 100.0 / 11, 10},
		// Ten or fewer: nothing can have 10 beyond; report the maximum.
		{"ten", seq(10), 10, 100, 0},
		// Ties at the cut move it down until 10 samples lie strictly above.
		{"ties", samples{1, 2, 3, 4, 5, 6, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, 6, 100 * 6.0 / 17, 11},
		// All equal: no sample lies above any other.
		{"flat", samples{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, 2, 100, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, pct, beyond := tc.in.tail()
			if v != tc.value || math.Abs(pct-tc.pct) > 1e-9 || beyond != tc.beyond {
				t.Fatalf("tail = (%v, p%v, %d beyond), want (%v, p%v, %d beyond)", v, pct, beyond, tc.value, tc.pct, tc.beyond)
			}
			above := 0
			for _, x := range tc.in {
				if x > v {
					above++
				}
			}
			if above != beyond {
				t.Fatalf("%d samples lie above %v, tail reports %d", above, v, beyond)
			}
		})
	}
}

func TestTailIgnoresOrder(t *testing.T) {
	s := samples{9, 1, 8, 2, 7, 3, 6, 4, 5, 10, 12, 11}
	v, _, beyond := s.tail()
	if v != 2 || beyond != 10 {
		t.Fatalf("tail = %v with %d beyond, want 2 with 10", v, beyond)
	}
}

func TestQuantile(t *testing.T) {
	s := samples{4, 1, 3, 2}
	if got := s.p50(); got != 2.5 {
		t.Fatalf("p50 = %v, want 2.5", got)
	}
	if got := s.quantile(1); got != 4 {
		t.Fatalf("max quantile = %v, want 4", got)
	}
	if !math.IsNaN(samples(nil).p50()) {
		t.Fatal("median of nothing must be NaN")
	}
}

func TestWindowedTail(t *testing.T) {
	// Two windows of 110: 1..110 has tail 100, 111..220 has tail 210; a
	// third window holding one slow burst cannot move the median.
	s := seq(330)
	for i := 220; i < 330; i++ {
		s[i] = 1000 + float64(i)
	}
	v, pct, beyond, windows := s.windowedTail(110)
	if windows != 3 || v != 210 || beyond != 10 || math.Abs(pct-100*100.0/110) > 1e-9 {
		t.Fatalf("windowed tail = (%v, p%v, %d beyond, %d windows), want (210, p90.9, 10, 3)", v, pct, beyond, windows)
	}
	// Under two windows' worth the rule covers the whole run.
	v, _, beyond, windows = seq(200).windowedTail(110)
	if windows != 1 || v != 190 || beyond != 10 {
		t.Fatalf("short run tail = (%v, %d beyond, %d windows), want (190, 10, 1)", v, beyond, windows)
	}
}
