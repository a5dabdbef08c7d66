package main

import (
	"math"
	"sort"
	"time"
)

// samples is a list of measurements of one quantity, in the metric's unit.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

// addDur appends d converted to the given unit.
func (s *samples) addDur(d, unit time.Duration) { s.add(float64(d) / float64(unit)) }

func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between closest ranks; NaN for an empty list.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := s.sorted()
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	if lo >= len(c)-1 {
		return c[len(c)-1]
	}
	frac := pos - float64(lo)
	return c[lo] + frac*(c[lo+1]-c[lo])
}

func (s samples) p50() float64 { return s.quantile(0.5) }

// tailMinBeyond is how many samples must lie above a reported tail value.
const tailMinBeyond = 10

// tail applies the benchmark's tail rule: report the highest percentile
// that still has at least tailMinBeyond samples strictly above it. With n
// samples sorted ascending that is the (tailMinBeyond+1)-th largest value,
// whose rank puts it at percentile 100·(n−tailMinBeyond)/n. Ties with the
// chosen value push the cut down until enough samples lie strictly above.
// With too few samples the maximum is returned with beyond = 0.
func (s samples) tail() (value, percentile float64, beyond int) {
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), 0
	}
	c := s.sorted()
	if n <= tailMinBeyond {
		return c[n-1], 100, 0
	}
	k := n - tailMinBeyond - 1
	for k > 0 && c[k] == c[k+1] {
		k--
	}
	beyond = n - 1 - k
	if c[k] == c[k+1] {
		// Every sample ties with the cut: nothing lies strictly above.
		return c[n-1], 100, 0
	}
	return c[k], 100 * float64(k+1) / float64(n), beyond
}

// tailWindow is the window the run's epochs are cut into for the reported
// tail: 110 epochs, so each window's tail is its p90.9 with 10 beyond.
const tailWindow = 110

// windowedTail cuts the samples, in the order they were taken, into
// contiguous windows of at least w samples, applies the tail rule to each
// window, and returns the median window tail with the median window's
// percentile and beyond count. A burst of outside interference then moves
// one window's tail, not the run's. Fewer than 2w samples form one window,
// which is the tail rule over the whole run.
func (s samples) windowedTail(w int) (value, percentile float64, beyond, windows int) {
	k := len(s) / w
	if k < 2 {
		v, p, b := s.tail()
		return v, p, b, 1
	}
	var vals, pcts, bey samples
	for i := 0; i < k; i++ {
		v, p, b := s[i*len(s)/k : (i+1)*len(s)/k].tail()
		vals.add(v)
		pcts.add(p)
		bey.add(float64(b))
	}
	return vals.p50(), pcts.p50(), int(bey.p50()), k
}
