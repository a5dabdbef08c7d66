package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"digfl/internal/core"
	"digfl/internal/faults"
	"digfl/internal/fednet"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/tensor"
)

// asyncShape sizes the net-async-wal workload: full participation, a
// K-of-N quorum below N, seeded straggler lag within a staleness window.
type asyncShape struct {
	n, dim, epochs, quorum, maxStale int
	straggler                        float64
}

var asyncFull = asyncShape{n: 32, dim: 500, epochs: 120, quorum: 24, maxStale: 2, straggler: 0.3}

// netAsyncWAL runs asynchronous buffered rounds with the write-ahead
// journal on a file and one /v1/score read per round.
func netAsyncWAL(r *runner) error {
	if err := r.loop(func(tr *tracer, _ bool) (*jobOut, error) {
		return asyncJob(r, asyncFull, tr, nil)
	}); err != nil {
		return err
	}
	r.e2e("bytes_per_update", "B", r.exact["bytes_per_update"], 0, "request+response bodies per accepted update; exact")
	r.e2e("score_p50_ms", "ms", r.scoreMS.p50(), len(r.scoreMS), "GET /v1/score while a round is open")
	if r.o.trace {
		r.layP50("fednet.update_us_p50", "fednet.update_us", "us")
		r.layP50("fednet.close_wait_ms_p50", "fednet.close_wait_ms", "ms")
		r.lay("fednet.rx_bytes_per_update", "B", r.exact["rx_bytes_per_update"], 0, "exact")
		r.lay("fednet.tx_bytes_per_update", "B", r.exact["tx_bytes_per_update"], 0, "exact")
		r.lay("fednet.buffered_frac", "frac", r.exact["buffered_frac"], 0, "202 replies / accepted updates; exact")
		r.layP50("fednet.wal_write_us_p50", "fednet.wal_write_us", "us")
		r.lay("fednet.wal_writes_per_epoch", "count", r.exact["wal_writes_per_epoch"], 0, "exact")
		r.lay("fednet.wal_bytes_per_epoch", "B", r.exact["wal_bytes_per_epoch"], 0, "exact")
		r.layP50("hfl.async_commit_us_p50", "hfl.async_commit_us", "us")
		r.layP50("core.estimator_round_us_p50", "core.estimator_round_us", "us")
	}
	return nil
}

func (s asyncShape) policy() *hfl.AsyncConfig {
	return &hfl.AsyncConfig{Quorum: s.quorum, MaxStaleness: s.maxStale}
}

func (s asyncShape) faults(seed int64) faults.Config {
	return faults.Config{Seed: seed, Straggler: s.straggler}
}

func asyncCfg(s asyncShape, seed int64) hfl.Config {
	return hfl.Config{
		Epochs: s.epochs, LR: 0.05, Participants: s.n,
		Faults:  faults.MustNew(s.faults(seed)),
		Runtime: obs.Runtime{Workers: workers},
	}
}

// asyncCoordinator builds a coordinator for the workload; journal may be nil.
func asyncCoordinator(s asyncShape, seed int64, journal *journal) (*fednet.Coordinator, *core.HFLEstimator) {
	est := core.NewHFLEstimator(s.n, s.dim, core.ResourceSaving, nil)
	est.Runtime.Workers = workers
	c := &fednet.Coordinator{
		N: s.n, Model: nn.NewLinearRegression(s.dim, false), Val: valSet(seed, s.dim),
		Cfg: asyncCfg(s, seed), Stream: hfl.MeanStream{}, Async: s.policy(), Estimator: est,
	}
	if journal != nil {
		c.Journal = journal
	}
	return c, est
}

// journal is the coordinator's WAL writer: a file, wrapped to time and
// count every record write. A tamper can make it lose one write.
type journal struct {
	r      *runner
	tr     *tracer
	parent *atomic.Int64 // the driver's open request span
	f      *os.File

	mu            sync.Mutex
	writes, bytes int64
	lastOff       int64 // file offset where the latest record starts
	off           int64
	drop          int
}

func (j *journal) Write(p []byte) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.writes++
	j.bytes += int64(len(p))
	if j.writes == int64(j.drop) {
		return len(p), nil
	}
	id := j.tr.begin("fednet.wal_write", int(j.parent.Load()))
	t0 := time.Now()
	n, err := j.f.Write(p)
	j.r.sample(j.tr, "fednet.wal_write_us", float64(time.Since(t0))/float64(time.Microsecond))
	j.tr.end(id)
	j.lastOff = j.off
	j.off += int64(n)
	return n, err
}

// asyncJob is one net-async-wal job: a journaled async coordinator, all N
// participants joined, s.epochs rounds driven with one score read each;
// then the run is checked against an in-process AsyncPlanner reference and
// the journal is recovered.
func asyncJob(r *runner, s asyncShape, tr *tracer, tp *tamper) (*jobOut, error) {
	seed := r.o.seed
	t0 := time.Now()
	dir, err := os.MkdirTemp(r.tmpDir(), "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	f, err := os.Create(filepath.Join(dir, "journal"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var cur atomic.Int64
	j := &journal{r: r, tr: tr, parent: &cur, f: f}
	if tp != nil {
		j.drop = tp.dropWrite
	}
	syn := newSynth(seed, s.dim)
	coord, est := asyncCoordinator(s, seed, j)
	col := &obs.Collector{}
	if tr != nil {
		sink := obs.Tee(col, captureSink{r, tr})
		coord.Cfg.Runtime.Sink = sink
		est.Runtime.Sink = sink
	}
	c := &client{r: r, h: coord.Handler(), tr: tr, cur: &cur}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type runOut struct {
		res *hfl.Result
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := coord.Run(ctx)
		done <- runOut{res, err}
	}()
	abort := func(err error) (*jobOut, error) {
		cancel()
		<-done
		return nil, err
	}
	if err := c.join(s.n); err != nil {
		return abort(err)
	}
	out := &jobOut{setup: time.Since(t0)}

	delta := tensor.GetVec(s.dim)
	defer tensor.PutVec(delta)
	c.counting = true
	accepted, buffered := 0, 0
	var epochSpan int
	var epochStart, timedStart time.Time
	fresh := make([]int, 0, s.n)
	for t := 1; t <= s.epochs; t++ {
		// Poll every participant before anyone posts, so the round cannot
		// close under a poll: a participant still in flight from an earlier
		// round is told it is excluded.
		fresh = fresh[:0]
		for i := 0; i < s.n; i++ {
			span := "fednet.poll"
			switch {
			case i == 0 && t == 1:
				span = "fednet.first_poll"
			case i == 0:
				span = "fednet.close_wait"
			}
			rec, d, err := c.serve(span, epochSpan, "GET", pollTarget(t, i), "", nil, http.StatusOK)
			if err != nil {
				return abort(err)
			}
			if i == 0 {
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
			}
			// A fresh participant gets the binary broadcast; one still in
			// flight gets a JSON reply marking it excluded.
			if rec.Header().Get("Content-Type") == fednet.CodecV2.ContentType() {
				fresh = append(fresh, i)
			} else if !bytes.Contains(rec.Body.Bytes(), []byte(`"excluded":true`)) {
				return abort(r.op(fmt.Errorf("round %d poll for %d: neither a broadcast nor excluded: %s", t, i, rec.Body.String())))
			}
		}
		// One score read per round, while the round is open.
		c.counting = false
		_, d, err := c.serve("fednet.score", epochSpan, "GET", "/v1/score", "", nil, http.StatusOK)
		c.counting = true
		if err != nil {
			return abort(err)
		}
		r.scoreMS.addDur(d, time.Millisecond)
		for _, i := range fresh {
			body, err := c.encodeUpdate(epochSpan, syn, delta, t, i)
			if err != nil {
				return abort(err)
			}
			rec, d, err := c.serve("fednet.update", epochSpan, "POST", "/v1/update", fednet.CodecV2.ContentType(), body,
				http.StatusOK, http.StatusAccepted)
			tensor.PutBytes(body)
			if err != nil {
				return abort(err)
			}
			r.sample(tr, "fednet.update_us", float64(d)/float64(time.Microsecond))
			accepted++
			if rec.Code == http.StatusAccepted {
				buffered++
			}
		}
	}
	waitID := tr.begin("fednet.close_wait", epochSpan)
	got := <-done
	tr.end(waitID)
	now := time.Now()
	out.epochMS.addDur(now.Sub(epochStart), time.Millisecond)
	out.timed = now.Sub(timedStart)
	tr.end(epochSpan)
	tr.endEpochs()
	c.counting = false
	if err := r.op(got.err); err != nil {
		return nil, fmt.Errorf("coordinator run: %w", err)
	}

	want, wantPhi, err := asyncReference(r, s, tr)
	if err != nil {
		return nil, err
	}
	phi := tensor.Clone(est.Attribution().Totals)
	tp.apply(got.res.Model.Params(), phi)
	if err := checkRun(got.res, want, phi, wantPhi); err != nil {
		return nil, err
	}
	if err := checkJournal(r, s, f.Name(), j); err != nil {
		return nil, err
	}
	if n := col.Snapshot().WALAppends; tr != nil && n != j.writes {
		return nil, fmt.Errorf("the coordinator counted %d journal appends, its writer saw %d", n, j.writes)
	}
	out.exact = map[string]float64{
		"bytes_per_update":     float64(c.rx+c.tx) / float64(accepted),
		"rx_bytes_per_update":  float64(c.rx) / float64(accepted),
		"tx_bytes_per_update":  float64(c.tx) / float64(accepted),
		"buffered_frac":        float64(buffered) / float64(accepted),
		"wal_writes_per_epoch": float64(j.writes) / float64(s.epochs),
		"wal_bytes_per_epoch":  float64(j.bytes) / float64(s.epochs),
	}
	return out, nil
}

// checkJournal recovers the finished journal twice: whole, Recover must
// report a completed run; without its final run-close record, Recover must
// replay every other record the coordinator wrote and resume after the
// last epoch.
func checkJournal(r *runner, s asyncShape, path string, j *journal) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// The two replays are independent; they run side by side.
	var wholeErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		whole, _ := asyncCoordinator(s, r.o.seed, nil)
		_, wholeErr = whole.Recover(bytes.NewReader(data))
	}()
	var ev obs.Event
	prefix, _ := asyncCoordinator(s, r.o.seed, nil)
	prefix.Cfg.Runtime.Sink = sinkFunc(func(e obs.Event) {
		if e.Kind == obs.KindRecover {
			ev = e
		}
	})
	cut := data[:j.lastOff]
	n, err := prefix.Recover(bytes.NewReader(cut))
	wg.Wait()
	r.op(nil)
	if wholeErr == nil || !strings.Contains(wholeErr.Error(), "completed run") {
		return fmt.Errorf("recovering the finished journal: got %v, want a completed-run refusal", wholeErr)
	}
	if err := r.op(err); err != nil {
		return fmt.Errorf("recovering the journal before run close: %w", err)
	}
	if n != int64(len(cut)) || ev.T != s.epochs+1 || ev.N != j.writes-1 {
		return fmt.Errorf("journal replay consumed %d of %d bytes, %d of %d records, resumes at epoch %d of %d",
			n, len(cut), ev.N, j.writes-1, ev.T, s.epochs+1)
	}
	return nil
}

// sinkFunc adapts a function to obs.Sink.
type sinkFunc func(obs.Event)

func (f sinkFunc) Emit(e obs.Event) { f(e) }

// asyncSource is the in-process reference: the same synthetic updates
// through the same hfl.AsyncPlanner Schedule/Commit calls that
// fednet.AsyncLocalSource makes.
type asyncSource struct {
	r    *runner
	tr   *tracer
	s    asyncShape
	seed int64
	syn  *synth
	plan *hfl.AsyncPlanner
}

func (a *asyncSource) Round(_ context.Context, spec *hfl.RoundSpec) (*hfl.RoundResult, error) {
	if a.plan == nil {
		pl, err := hfl.NewAsyncPlanner(*a.s.policy(), faults.MustNew(a.s.faults(a.seed)), nil)
		if err := a.r.op(err); err != nil {
			return nil, err
		}
		a.plan = pl
	}
	sched := a.plan.Schedule(spec.T, spec.Active)
	deltas := make(map[int][]float64, len(sched.Fresh))
	for _, i := range sched.Fresh {
		d := make([]float64, a.syn.dim)
		a.syn.fill(d, i)
		deltas[i] = d
	}
	id := a.tr.begin("hfl.async_commit", 0)
	t0 := time.Now()
	ac, err := a.plan.Commit(spec.T, len(spec.Theta), hfl.MeanStream{}, spec.ValGrad, sched, deltas)
	a.r.sample(a.tr, "hfl.async_commit_us", float64(time.Since(t0))/float64(time.Microsecond))
	a.tr.end(id)
	if err := a.r.op(err); err != nil {
		return nil, err
	}
	return &hfl.RoundResult{Reported: ac.Reported, Agg: ac.Agg, Dots: ac.Dots}, nil
}

func asyncReference(r *runner, s asyncShape, tr *tracer) (*hfl.Result, []float64, error) {
	seed := r.o.seed
	est := core.NewHFLEstimator(s.n, s.dim, core.ResourceSaving, nil)
	est.Runtime.Workers = workers
	ref := &hfl.Trainer{
		Model: nn.NewLinearRegression(s.dim, false), Val: valSet(seed, s.dim),
		Cfg:      asyncCfg(s, seed),
		Rounds:   &asyncSource{r: r, tr: tr, s: s, seed: seed, syn: newSynth(seed, s.dim)},
		Stream:   hfl.MeanStream{},
		Observer: func(ep *hfl.Epoch) { est.Observe(ep) },
	}
	res, err := ref.RunContext(context.Background())
	if err := r.op(err); err != nil {
		return nil, nil, fmt.Errorf("reference run: %w", err)
	}
	return res, est.Attribution().Totals, nil
}
