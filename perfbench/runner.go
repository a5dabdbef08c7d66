package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// jobOut is what one job of a workload measured. A job sets the system up,
// runs a fixed number of epochs in a timed phase, and checks the outputs.
type jobOut struct {
	setup   time.Duration
	epochMS samples
	timed   time.Duration
	// epochs is the number of epochs timed; 0 means one per epochMS sample.
	epochs int
	// exact holds the job's exact counters; every job of one seed must
	// reproduce them bit for bit.
	exact map[string]float64
}

func (o *jobOut) epochCount() int {
	if o.epochs > 0 {
		return o.epochs
	}
	return len(o.epochMS)
}

// runner accumulates one run's measurements across jobs.
type runner struct {
	o          opts
	minJobs    int
	ops, fails atomic.Int64

	jobs, epochs int
	epochMS      samples
	setupS       samples
	scoreMS      samples
	jobEPS       samples // each untraced job's epochs per timed second
	timed        time.Duration
	peakHeap     uint64
	heapSamples  []metrics.Sample

	// Traced phase: the tracer shared by every traced job, its epoch count
	// and timed total, and the untraced figures they are compared with.
	tr                     *tracer
	tracedEpochs           int
	tracedTimed            time.Duration
	untracedEPS, tracedEPS float64

	mu     sync.Mutex
	layer  map[string]*samples // per-layer samples from traced jobs
	counts map[string]float64  // per-layer totals from traced jobs

	exact   map[string]float64
	drift   []string
	metrics []*metric
	byName  map[string]*metric
}

func newRunner(o opts) *runner {
	return &runner{
		o: o, minJobs: 2,
		heapSamples: []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		},
		layer:  map[string]*samples{},
		counts: map[string]float64{},
		byName: map[string]*metric{},
	}
}

// op counts one attempted operation and, when err is non-nil, one failure.
func (r *runner) op(err error) error {
	r.ops.Add(1)
	if err != nil {
		r.fails.Add(1)
	}
	return err
}

// sampleHeap records HeapInuse (heap objects plus unused heap spans, the
// runtime/metrics form that needs no stop-the-world) at an epoch boundary.
func (r *runner) sampleHeap() {
	metrics.Read(r.heapSamples)
	v := r.heapSamples[0].Value.Uint64() + r.heapSamples[1].Value.Uint64()
	if v > r.peakHeap {
		r.peakHeap = v
	}
}

// sample adds a per-layer sample; a no-op outside traced jobs.
func (r *runner) sample(tr *tracer, name string, v float64) {
	if tr == nil {
		return
	}
	r.mu.Lock()
	s := r.layer[name]
	if s == nil {
		s = &samples{}
		r.layer[name] = s
	}
	s.add(v)
	r.mu.Unlock()
}

// count adds to a per-layer total; a no-op outside traced jobs.
func (r *runner) count(tr *tracer, name string, v float64) {
	if tr == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

// loop runs jobs: one warm-up job (job(nil, true), typically shorter) whose
// epochs and exact counters are discarded, then untraced jobs until their
// timed phases add up to the run's seconds (half of them with --trace 1),
// then, with --trace 1, traced jobs for the other half. Every job's set-up
// time is a setup_s sample, and every job's exact counters are compared
// with the earlier jobs'.
func (r *runner) loop(job func(tr *tracer, warm bool) (*jobOut, error)) error {
	absorb := func(out *jobOut) {
		r.setupS.add(out.setup.Seconds())
		if r.exact == nil {
			r.exact = map[string]float64{}
		}
		// Traced jobs add counters untraced ones do not have; a counter
		// both have must agree bit for bit.
		for _, k := range sortedKeys(out.exact) {
			v, ok := r.exact[k]
			switch {
			case !ok:
				r.exact[k] = out.exact[k]
			case math.Float64bits(v) != math.Float64bits(out.exact[k]):
				r.drift = append(r.drift, fmt.Sprintf("%s = %v in one job, %v in an earlier one", k, out.exact[k], v))
			}
		}
	}
	out, err := job(nil, true)
	if err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	r.setupS.add(out.setup.Seconds())

	// Jobs run while one more job brings the timed total closer to the
	// budget than stopping would.
	budget := r.phaseBudget()
	more := func(n int, timed time.Duration) bool {
		if n < max(r.minJobs, 1) {
			return true
		}
		return timed+timed/time.Duration(2*n) < budget
	}
	for n := 0; more(n, r.timed); n++ {
		out, err := job(nil, false)
		if err != nil {
			return fmt.Errorf("job %d: %w", r.jobs+1, err)
		}
		absorb(out)
		r.jobs++
		r.epochs += out.epochCount()
		r.epochMS = append(r.epochMS, out.epochMS...)
		r.timed += out.timed
		r.jobEPS.add(float64(out.epochCount()) / out.timed.Seconds())
	}
	r.untracedEPS = float64(r.epochs) / r.timed.Seconds()
	if !r.o.trace {
		return nil
	}
	r.tr = newTracer()
	for n := 0; more(n, r.tracedTimed); n++ {
		out, err := job(r.tr, false)
		if err != nil {
			return fmt.Errorf("traced job %d: %w", n+1, err)
		}
		absorb(out)
		r.tracedEpochs += out.epochCount()
		r.tracedTimed += out.timed
	}
	r.tracedEPS = float64(r.tracedEpochs) / r.tracedTimed.Seconds()
	return nil
}

// phaseBudget is the timed length of the untraced phase and, with --trace
// 1, of the traced one: the run's seconds, or half of them each.
func (r *runner) phaseBudget() time.Duration {
	b := time.Duration(r.o.seconds * float64(time.Second))
	if r.o.trace {
		b /= 2
	}
	return b
}

// tmpDir is the run's scratch directory inside the work directory.
func (r *runner) tmpDir() string {
	d := filepath.Join(r.o.workdir, "tmp")
	if err := os.MkdirAll(d, 0o755); err != nil {
		return r.o.workdir
	}
	return d
}

// set records a metric. layer marks a per-layer metric, printed only by
// traced runs.
func (r *runner) set(name, unit string, value float64, n int, note string, layer bool) {
	m := &metric{name: name, unit: unit, value: value, n: n, note: note, layer: layer}
	if old, ok := r.byName[name]; ok {
		*old = *m
		return
	}
	r.metrics = append(r.metrics, m)
	r.byName[name] = m
}

// e2e and lay are set for end-to-end and per-layer metrics.
func (r *runner) e2e(name, unit string, value float64, n int, note string) {
	r.set(name, unit, value, n, note, false)
}

func (r *runner) lay(name, unit string, value float64, n int, note string) {
	r.set(name, unit, value, n, note, true)
}

// layP50 reports the median of a per-layer sample list ("idle" when the
// workload never made the call).
func (r *runner) layP50(name, key, unit string) {
	s := r.layer[key]
	if s == nil || len(*s) == 0 {
		r.lay(name, unit, 0, 0, "idle")
		return
	}
	r.lay(name, unit, s.p50(), len(*s), "")
}

// deriveGeneric sets the metrics every workload has: the end-to-end
// timings, set-up time and heap, the layers' shares of traced epoch time
// and the tracing overhead; and writes the trace.
func (r *runner) deriveGeneric() {
	r.e2e("setup_s", "s", r.setupS.p50(), len(r.setupS), "median set-up")
	r.e2e("epochs_per_s", "1/s", r.jobEPS.p50(), r.epochs, fmt.Sprintf("median over %d jobs", len(r.jobEPS)))
	r.e2e("epoch_p50_ms", "ms", r.epochMS.p50(), len(r.epochMS), "")
	v, pct, beyond, windows := r.epochMS.windowedTail(tailWindow)
	r.e2e("epoch_tail_ms", "ms", v, len(r.epochMS),
		fmt.Sprintf("p%.2f with %d beyond, median of %d windows", pct, beyond, windows))
	r.e2e("peak_heap_mb", "MB", float64(r.peakHeap)/(1<<20), 0, "max HeapInuse at epoch boundaries")
	r.e2e("fail_frac", "frac", float64(r.fails.Load())/float64(max(r.ops.Load(), 1)), int(r.ops.Load()), "failed / attempted")
	r.writeJSON(fmt.Sprintf("epochs-%s-seed%d.json", r.o.workload, r.o.seed), r.epochMS)
	if !r.o.trace {
		return
	}
	spans := r.tr.closed()
	// Shares count only spans inside timed epochs, not set-up or checks.
	var timed []span
	for _, s := range spans {
		if s.Epoch > 0 {
			timed = append(timed, s)
		}
	}
	shares := layerSelf(timed)
	total := float64(r.tracedTimed.Nanoseconds())
	for _, l := range []string{"driver", "fednet", "hfl", "core", "shapley", "vfl"} {
		r.lay(l+".self_frac", "frac", float64(shares[l])/total, 0, "self time / traced epoch time")
	}
	r.layP50("driver.encode_us_p50", "driver.encode_us", "us")
	r.lay("obs.trace_overhead_frac", "frac", 1-r.tracedEPS/r.untracedEPS, r.tracedEpochs,
		fmt.Sprintf("traced %.4g vs untraced %.4g epochs/s", r.tracedEPS, r.untracedEPS))
	r.writeJSON(fmt.Sprintf("trace-%s-seed%d.json", r.o.workload, r.o.seed), spans)
}

// writeJSON stores v in the work directory; a failure is reported and
// does not fail the run.
func (r *runner) writeJSON(name string, v any) {
	path := filepath.Join(r.o.workdir, name)
	b, err := json.Marshal(v)
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		fmt.Printf("  %s not written: %v\n", path, err)
		return
	}
	fmt.Printf("  wrote %s\n", path)
}
