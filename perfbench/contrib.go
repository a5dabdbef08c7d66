package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/metrics"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/shapley"
	"digfl/internal/tensor"
)

// contribShape sizes the hfl-contrib workload: n participants with graded
// label corruption training an MNIST-like MLP.
type contribShape struct {
	n, samples, hidden, epochs int
	lr                         float64
}

var contribFull = contribShape{n: 8, samples: 1000, hidden: 16, epochs: 10, lr: 0.3}

// hflContrib trains in process and scores every epoch online with DIG-FL
// Alg. 1 and Alg. 2 and with the gtg and exact-parallel Shapley engines.
func hflContrib(r *runner) error {
	if err := r.loop(func(tr *tracer, warm bool) (*jobOut, error) {
		s := contribFull
		if warm {
			s.epochs = 2
		}
		return contribJob(r, s, tr, nil)
	}); err != nil {
		return err
	}
	r.e2e("utility_evals_per_epoch", "count", r.exact["gtg_evals_per_epoch"], 0, "gtg distinct validation-loss evaluations; exact")
	r.e2e("rank_tau", "tau", r.exact["rank_tau"], 0, "lower Kendall tau-b of Alg. 1 and gtg against exact-parallel; exact")
	if r.o.trace {
		r.layP50("hfl.train_self_ms_p50", "hfl.train_self_ms", "ms")
		r.layP50("core.alg1_observe_ms_p50", "core.alg1_observe_ms", "ms")
		r.layP50("core.alg2_observe_us_p50", "core.alg2_observe_us", "us")
		r.layP50("core.hvp_us_p50", "core.hvp_us", "us")
		r.lay("core.hvp_calls_per_epoch", "count", r.exact["hvp_calls_per_epoch"], 0, "exact")
		r.layP50("core.estimator_round_us_p50", "core.estimator_round_us", "us")
		r.layP50("shapley.gtg_observe_ms_p50", "shapley.gtg_observe_ms", "ms")
		r.layP50("shapley.exact_observe_ms_p50", "shapley.exact_observe_ms", "ms")
		r.lay("shapley.exact_evals_per_epoch", "count", r.exact["exact_evals_per_epoch"], 0, "exact")
		r.layP50("shapley.valloss_us_p50", "shapley.valloss_us", "us")
		r.lay("shapley.valloss_calls_per_epoch", "count", r.exact["valloss_calls_per_epoch"], 0, "exact")
	}
	return nil
}

// contribProblem is the federation: participant i mislabels i/n of its
// shard, so the true contribution ranking is well separated.
func contribProblem(s contribShape, seed int64) (nn.Model, []dataset.Dataset, dataset.Dataset) {
	rng := tensor.NewRNG(seed)
	train, val := dataset.MNISTLike(s.samples, seed).Split(0.2, rng)
	parts := dataset.PartitionIID(train, s.n, rng)
	for i := 1; i < s.n; i++ {
		parts[i] = dataset.Mislabel(parts[i], float64(i)/float64(s.n), rng.Split(int64(i)))
	}
	return nn.NewMLP(train.Dim(), s.hidden, train.Classes, tensor.NewRNG(seed)), parts, val
}

// valLossFactory returns independent validation-loss oracles, each over its
// own model clone.
func valLossFactory(model nn.Model, val dataset.Dataset) func() shapley.ValLoss {
	return func() shapley.ValLoss {
		m := model.Clone()
		return func(theta []float64) float64 {
			m.SetParams(theta)
			return m.Loss(val.X, val.Y)
		}
	}
}

// scorers are the four online contribution scorers of one job.
type scorers struct {
	alg1, alg2      *core.HFLEstimator
	gtg, exact      shapley.Engine
	hvpCalls, evals atomic.Int64
}

// contribJob is one hfl-contrib job: build the federation and the scorers,
// train s.epochs epochs with the scorers observing each one online, then
// replay the log offline and serially through fresh scorers.
func contribJob(r *runner, s contribShape, tr *tracer, tp *tamper) (*jobOut, error) {
	seed := r.o.seed
	t0 := time.Now()
	model, parts, val := contribProblem(s, seed)
	p := model.NumParams()
	newLoss := valLossFactory(model, val)
	// The open scorer span, parent of the HVP and loss spans it causes.
	var cur atomic.Int64
	sc := &scorers{}
	localHVP := core.LocalHVP(model, parts)
	hvp := localHVP
	wrapLoss := func(l shapley.ValLoss) shapley.ValLoss { return l }
	if tr != nil {
		hvp = func(theta []float64, i int, v []float64) []float64 {
			id := tr.begin("core.hvp", int(cur.Load()))
			t := time.Now()
			out := localHVP(theta, i, v)
			r.sample(tr, "core.hvp_us", float64(time.Since(t))/float64(time.Microsecond))
			tr.end(id)
			sc.hvpCalls.Add(1)
			return out
		}
		wrapLoss = func(l shapley.ValLoss) shapley.ValLoss {
			return func(theta []float64) float64 {
				id := tr.begin("shapley.valloss", int(cur.Load()))
				t := time.Now()
				v := l(theta)
				r.sample(tr, "shapley.valloss_us", float64(time.Since(t))/float64(time.Microsecond))
				tr.end(id)
				sc.evals.Add(1)
				return v
			}
		}
	}
	sc.alg1 = core.NewHFLEstimator(s.n, p, core.Interactive, hvp)
	sc.alg2 = core.NewHFLEstimator(s.n, p, core.ResourceSaving, nil)
	for _, e := range []*core.HFLEstimator{sc.alg1, sc.alg2} {
		e.Runtime.Workers = workers
		if tr != nil {
			e.Runtime.Sink = captureSink{r, tr}
		}
	}
	var err error
	if sc.gtg, err = shapley.NewEngine("gtg", shapley.EngineSpec{N: s.n, Loss: wrapLoss(newLoss()), Seed: seed}); r.op(err) != nil {
		return nil, err
	}
	if sc.exact, err = shapley.NewEngine("exact-parallel", shapley.EngineSpec{N: s.n,
		Loss: wrapLoss(shapley.PooledValLoss(newLoss)), Seed: seed, Workers: workers}); r.op(err) != nil {
		return nil, err
	}
	out := &jobOut{}
	// observe times one scorer call under its span.
	observe := func(span, key string, unit time.Duration, parent int, f func()) time.Duration {
		id := tr.begin(span, parent)
		cur.Store(int64(id))
		t := time.Now()
		f()
		d := time.Since(t)
		tr.end(id)
		r.sample(tr, key, float64(d)/float64(unit))
		r.op(nil)
		return d
	}
	var epochSpan int
	var last time.Time
	trainer := &hfl.Trainer{
		Model: model, Parts: parts, Val: val,
		Cfg: hfl.Config{Epochs: s.epochs, LR: s.lr, KeepLog: true, Runtime: obs.Runtime{Workers: workers}},
		Observer: func(ep *hfl.Epoch) {
			scoring := observe("core.alg1_observe", "core.alg1_observe_ms", time.Millisecond, epochSpan, func() { sc.alg1.Observe(ep) })
			scoring += observe("core.alg2_observe", "core.alg2_observe_us", time.Microsecond, epochSpan, func() { sc.alg2.Observe(ep) })
			scoring += observe("shapley.gtg_observe", "shapley.gtg_observe_ms", time.Millisecond, epochSpan, func() { sc.gtg.Observe(ep) })
			scoring += observe("shapley.exact_observe", "shapley.exact_observe_ms", time.Millisecond, epochSpan, func() { sc.exact.Observe(ep) })
			now := time.Now()
			d := now.Sub(last)
			out.epochMS.addDur(d, time.Millisecond)
			out.timed += d
			r.sample(tr, "hfl.train_self_ms", float64(d-scoring)/float64(time.Millisecond))
			tr.end(epochSpan)
			r.sampleHeap()
			tr.newEpoch()
			epochSpan = tr.begin("hfl.epoch", 0)
			last = time.Now()
		},
	}
	out.setup = time.Since(t0)
	tr.newEpoch()
	epochSpan = tr.begin("hfl.epoch", 0)
	last = time.Now()
	res, err := trainer.RunContext(context.Background())
	tr.endEpochs()
	if err := r.op(err); err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}

	a1, g, ex := sc.alg1.Attribution(), sc.gtg.Finalize(), sc.exact.Finalize()
	phi := tensor.Clone(a1.Totals)
	tp.apply(nil, phi)
	if err := checkReplay(r, s, res.Log, model, parts, newLoss,
		[]*core.Attribution{{PerEpoch: a1.PerEpoch, Totals: phi}, sc.alg2.Attribution()},
		[]*shapley.Report{g, ex}); err != nil {
		return nil, err
	}
	out.exact = map[string]float64{
		"gtg_evals_per_epoch":   float64(g.Cost.UtilityEvals) / float64(s.epochs),
		"exact_evals_per_epoch": float64(ex.Cost.UtilityEvals) / float64(s.epochs),
		"rank_tau":              math.Min(metrics.Kendall(ex.Totals, a1.Totals), metrics.Kendall(ex.Totals, g.Totals)),
	}
	if tr != nil {
		out.exact["hvp_calls_per_epoch"] = float64(sc.hvpCalls.Load()) / float64(s.epochs)
		out.exact["valloss_calls_per_epoch"] = float64(sc.evals.Load()) / float64(s.epochs)
	}
	return out, nil
}

// checkReplay replays the training log offline through core.EstimateHFL
// (serial) and fresh serial gtg and exact engines: every online φ — per
// epoch and total, from two workers — must match bit for bit.
func checkReplay(r *runner, s contribShape, log []*hfl.Epoch, model nn.Model, parts []dataset.Dataset,
	newLoss func() shapley.ValLoss, online []*core.Attribution, engines []*shapley.Report) error {
	// The four replays are independent and each is serial; they run side
	// by side.
	var offline [2]*core.Attribution
	var reports [2]*shapley.Report
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		offline[0] = core.EstimateHFL(log, s.n, core.Interactive, core.LocalHVP(model, parts))
	}()
	go func() {
		defer wg.Done()
		offline[1] = core.EstimateHFL(log, s.n, core.ResourceSaving, nil)
	}()
	for k, name := range []string{"gtg", "exact"} {
		go func() {
			defer wg.Done()
			eng, err := shapley.NewEngine(name, shapley.EngineSpec{N: s.n, Loss: newLoss(), Seed: r.o.seed, Workers: 1})
			if errs[k] = r.op(err); err != nil {
				return
			}
			for _, ep := range log {
				eng.Observe(ep)
			}
			reports[k] = eng.Finalize()
		}()
	}
	wg.Wait()
	for k, name := range []string{"Alg. 1", "Alg. 2"} {
		r.op(nil)
		if !sameMatrix(online[k].PerEpoch, offline[k].PerEpoch) || !sameBits(online[k].Totals, offline[k].Totals) {
			return fmt.Errorf("%s online φ differs from the serial offline replay", name)
		}
	}
	for k, rep := range reports {
		if errs[k] != nil {
			return errs[k]
		}
		if !sameMatrix(engines[k].PerEpoch, rep.PerEpoch) || !sameBits(engines[k].Totals, rep.Totals) {
			return fmt.Errorf("online %s φ differs from the serial offline replay", engines[k].Name)
		}
	}
	return nil
}

func sameMatrix(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}
