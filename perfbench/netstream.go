package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"digfl/internal/core"
	"digfl/internal/fednet"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/sampling"
	"digfl/internal/tensor"
)

// streamShape sizes the net-stream workload: the streamed round of the
// roadmap, a sampled cohort out of a large joined population.
type streamShape struct {
	pop, cohort, dim, epochs int
}

// A job runs 1000 rounds, so that joining 100k participants, which
// dominates its set-up, is paid a few times per run, not dozens.
var streamFull = streamShape{pop: 100_000, cohort: 64, dim: 2000, epochs: 1000}

// streamWarmEpochs is the warm-up job's length: the set-up is the same, the
// rounds only need to warm the pools and the heap.
const streamWarmEpochs = 100

// netStream runs sampled, streamed rounds over the digfl-fednet/2 codec
// with the Alg. 2 estimator on the coordinator.
func netStream(r *runner) error {
	cohorts := streamCohorts(r.o.seed, streamFull)
	if err := r.loop(func(tr *tracer, warm bool) (*jobOut, error) {
		s := streamFull
		if warm {
			s.epochs = streamWarmEpochs
		}
		return streamJob(r, s, cohorts, tr, nil)
	}); err != nil {
		return err
	}
	bytesPer := r.exact["bytes_per_update"]
	r.e2e("bytes_per_update", "B", bytesPer, 0, "request+response bodies per accepted update; exact")
	if r.o.trace {
		r.layP50("fednet.update_us_p50", "fednet.update_us", "us")
		r.layP50("fednet.bcast_us_p50", "fednet.bcast_us", "us")
		r.layP50("fednet.close_wait_ms_p50", "fednet.close_wait_ms", "ms")
		r.layP50("fednet.join_us_p50", "fednet.join_us", "us")
		r.lay("fednet.allocs_per_update", "count", r.counts["mallocs"]/r.counts["updates"], int(r.counts["updates"]), "")
		r.lay("fednet.rx_bytes_per_update", "B", r.exact["rx_bytes_per_update"], 0, "exact")
		r.lay("fednet.tx_bytes_per_update", "B", r.exact["tx_bytes_per_update"], 0, "exact")
		r.layP50("hfl.fold_add_us_p50", "hfl.fold_add_us", "us")
		r.layP50("core.estimator_round_us_p50", "core.estimator_round_us", "us")
	}
	return nil
}

// streamCfg is the training configuration the coordinator and the
// reference share.
func streamCfg(s streamShape, seed int64) hfl.Config {
	return hfl.Config{
		Epochs: s.epochs, LR: 0.05,
		Participants: s.pop,
		Sample:       sampling.MustNew(sampling.Config{Seed: seed, Size: s.cohort}),
		Runtime:      obs.Runtime{Workers: workers},
	}
}

// streamCohorts draws every round's cohort once per run, before any job:
// the driver's inputs. Drawing a cohort scores the whole population, so
// drawing it inside the timed loop would bill the coordinator's epoch for
// the driver's copy of that work.
func streamCohorts(seed int64, s streamShape) [][]int {
	population := make([]int, s.pop)
	for i := range population {
		population[i] = i
	}
	smp := sampling.MustNew(sampling.Config{Seed: seed, Size: s.cohort})
	out := make([][]int, s.epochs+1)
	for t := 1; t <= s.epochs; t++ {
		out[t] = append([]int(nil), smp.Cohort(t, population)...)
	}
	return out
}

// streamJob is one net-stream job: set up a coordinator and join the
// population, drive s.epochs rounds, then check the run against an
// in-process trainer fed the same updates.
func streamJob(r *runner, s streamShape, cohorts [][]int, tr *tracer, tp *tamper) (*jobOut, error) {
	seed := r.o.seed
	t0 := time.Now()
	syn := newSynth(seed, s.dim)
	val := valSet(seed, s.dim)
	est := core.NewHFLEstimator(s.pop, s.dim, core.ResourceSaving, nil)
	est.TotalsOnly = true
	est.Runtime.Workers = workers
	coord := &fednet.Coordinator{
		N: s.pop, Model: nn.NewLinearRegression(s.dim, false), Val: val,
		Cfg: streamCfg(s, seed), Stream: hfl.MeanStream{}, Estimator: est,
	}
	if tr != nil {
		coord.Cfg.Runtime.Sink = captureSink{r, tr}
		est.Runtime.Sink = captureSink{r, tr}
	}
	c := &client{r: r, h: coord.Handler(), tr: tr}
	type runOut struct {
		res *hfl.Result
		err error
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan runOut, 1)
	go func() {
		res, err := coord.Run(ctx)
		done <- runOut{res, err}
	}()
	// A failed job stops the coordinator and waits for it to return.
	abort := func(err error) (*jobOut, error) {
		cancel()
		<-done
		return nil, err
	}
	if err := c.join(s.pop); err != nil {
		return abort(err)
	}
	out := &jobOut{setup: time.Since(t0)}

	delta := tensor.GetVec(s.dim)
	defer tensor.PutVec(delta)
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	c.counting = true
	updates := 0
	var epochSpan int
	var epochStart, timedStart time.Time
	for t := 1; t <= s.epochs; t++ {
		for k, gi := range cohorts[t] {
			span := "fednet.bcast"
			switch {
			case k == 0 && t == 1:
				span = "fednet.first_poll"
			case k == 0:
				span = "fednet.close_wait"
			}
			rec, d, err := c.serve(span, epochSpan, "GET", pollTarget(t, gi), "", nil, http.StatusOK)
			if err != nil {
				return abort(err)
			}
			if rec.Header().Get("Content-Type") != fednet.CodecV2.ContentType() {
				return abort(r.op(fmt.Errorf("round %d poll for cohort member %d: no broadcast: %s", t, gi, rec.Body.String())))
			}
			if k == 0 {
				now := time.Now()
				if t == 1 {
					timedStart = now
				} else {
					out.epochMS.addDur(now.Sub(epochStart), time.Millisecond)
					r.sample(tr, "fednet.close_wait_ms", float64(d)/float64(time.Millisecond))
				}
				tr.end(epochSpan)
				tr.newEpoch()
				epochSpan = tr.begin("driver.epoch", 0)
				epochStart = now
				r.sampleHeap()
			} else {
				r.sample(tr, "fednet.bcast_us", float64(d)/float64(time.Microsecond))
			}
			body, err := c.encodeUpdate(epochSpan, syn, delta, t, gi)
			if err != nil {
				return abort(err)
			}
			_, d, err = c.serve("fednet.update", epochSpan, "POST", "/v1/update", fednet.CodecV2.ContentType(), body, http.StatusOK)
			tensor.PutBytes(body)
			if err != nil {
				return abort(err)
			}
			r.sample(tr, "fednet.update_us", float64(d)/float64(time.Microsecond))
			updates++
		}
	}
	// The last round ends when its close completes and Run returns.
	waitID := tr.begin("fednet.close_wait", epochSpan)
	got := <-done
	tr.end(waitID)
	now := time.Now()
	out.epochMS.addDur(now.Sub(epochStart), time.Millisecond)
	out.timed = now.Sub(timedStart)
	tr.end(epochSpan)
	tr.endEpochs()
	c.counting = false
	if tr != nil {
		runtime.ReadMemStats(&m1)
		r.count(tr, "mallocs", float64(m1.Mallocs-m0.Mallocs))
		r.count(tr, "updates", float64(updates))
	}
	if err := r.op(got.err); err != nil {
		return nil, fmt.Errorf("coordinator run: %w", err)
	}

	want, wantPhi, err := streamReference(r, s, tr)
	if err != nil {
		return nil, err
	}
	phi := tensor.Clone(est.Attribution().Totals)
	tp.apply(got.res.Model.Params(), phi)
	if err := checkRun(got.res, want, phi, wantPhi); err != nil {
		return nil, err
	}
	out.exact = map[string]float64{
		"bytes_per_update":    float64(c.rx+c.tx) / float64(updates),
		"rx_bytes_per_update": float64(c.rx) / float64(updates),
		"tx_bytes_per_update": float64(c.tx) / float64(updates),
	}
	return out, nil
}

// streamSource is the in-process reference round source: the same
// synthetic updates, folded in cohort order with the coordinator's rule.
type streamSource struct {
	r   *runner
	tr  *tracer
	syn *synth
}

func (s *streamSource) Round(_ context.Context, spec *hfl.RoundSpec) (*hfl.RoundResult, error) {
	fold := hfl.MeanStream{}.NewFold(s.syn.dim, len(spec.Active), spec.ValGrad)
	d := make([]float64, s.syn.dim)
	for k, gi := range spec.Active {
		s.syn.fill(d, gi)
		id := s.tr.begin("hfl.fold_add", 0)
		t0 := time.Now()
		err := fold.Add(k, d)
		s.r.sample(s.tr, "hfl.fold_add_us", float64(time.Since(t0))/float64(time.Microsecond))
		s.tr.end(id)
		if err := s.r.op(err); err != nil {
			return nil, err
		}
	}
	fr, err := fold.Close()
	if err := s.r.op(err); err != nil {
		return nil, err
	}
	return &hfl.RoundResult{Agg: fr.Sum, Dots: fr.Dots}, nil
}

// streamReference trains the same rounds in process with an attached Alg. 2
// estimator and returns the result and its φ totals.
func streamReference(r *runner, s streamShape, tr *tracer) (*hfl.Result, []float64, error) {
	seed := r.o.seed
	est := core.NewHFLEstimator(s.pop, s.dim, core.ResourceSaving, nil)
	est.TotalsOnly = true
	est.Runtime.Workers = workers
	ref := &hfl.Trainer{
		Model:    nn.NewLinearRegression(s.dim, false),
		Val:      valSet(seed, s.dim),
		Cfg:      streamCfg(s, seed),
		Rounds:   &streamSource{r: r, tr: tr, syn: newSynth(seed, s.dim)},
		Stream:   hfl.MeanStream{},
		Observer: func(ep *hfl.Epoch) { est.Observe(ep) },
	}
	res, err := ref.RunContext(context.Background())
	if err := r.op(err); err != nil {
		return nil, nil, fmt.Errorf("reference run: %w", err)
	}
	return res, est.Attribution().Totals, nil
}
