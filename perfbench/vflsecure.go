package main

import (
	"crypto/rand"
	"fmt"
	"math"
	"time"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/obs"
	"digfl/internal/paillier"
	"digfl/internal/tensor"
	"digfl/internal/vfl"
)

// vflShape sizes the vfl-secure workload: Algorithm 3 on a vertical linear
// regression split across parties, with a keyBits Paillier key.
type vflShape struct {
	rows, feats, parties, epochs, keyBits int
	lr                                    float64
}

var vflFull = vflShape{rows: 16, feats: 8, parties: 4, epochs: 1, keyBits: 1024, lr: 0.05}

// vflSecure runs back-to-back secure jobs, each Algorithm 3 with the Eq. 27
// contributions computed inside the protocol.
func vflSecure(r *runner) error {
	// One job is one epoch sample; the tail needs at least eleven.
	r.minJobs = 12
	if err := r.loop(func(tr *tracer, _ bool) (*jobOut, error) {
		return vflJob(r, vflFull, tr, nil)
	}); err != nil {
		return err
	}
	if r.o.trace {
		r.layP50("paillier.keygen_s", "paillier.keygen_s", "s")
		for _, op := range []string{"enc", "dec", "add", "mulplain"} {
			r.lay("paillier."+op+"_per_epoch", "count", r.exact["paillier_"+op+"_per_epoch"], 0, "exact")
		}
		r.lay("vfl.comm_bytes_per_epoch", "B", r.exact["comm_bytes_per_epoch"], 0, "exact")
	}
	return nil
}

// vflProblem is the vertical split of a seeded regression problem.
func vflProblem(s vflShape, seed int64) *vfl.Problem {
	full := dataset.SynthTabular(dataset.TabularConfig{
		Name: "benchvfl", N: s.rows, D: s.feats, Task: dataset.Regression,
		Informative: s.feats - 1, Noise: 0.2, Seed: seed,
	})
	train, val := full.Split(0.25, tensor.NewRNG(seed))
	return &vfl.Problem{Train: train, Val: val, Blocks: dataset.VerticalBlocks(s.feats, s.parties), Kind: vfl.LinReg}
}

// vflJob is one vfl-secure job: provision a key, run one secure job, and
// check θ and the per-epoch φ against the plaintext trainer.
func vflJob(r *runner, s vflShape, tr *tracer, tp *tamper) (*jobOut, error) {
	seed := r.o.seed
	t0 := time.Now()
	prob := vflProblem(s, seed)
	// The key is provisioned from crypto/rand, like the protocol's own
	// encryption randomness: neither reaches a plaintext output, and fresh
	// keys make the median key-generation time a stable set-up figure.
	kid := tr.begin("paillier.keygen", 0)
	k0 := time.Now()
	sk, err := paillier.GenerateKey(rand.Reader, s.keyBits)
	r.sample(tr, "paillier.keygen_s", time.Since(k0).Seconds())
	tr.end(kid)
	if err := r.op(err); err != nil {
		return nil, err
	}
	out := &jobOut{setup: time.Since(t0)}

	cfg := vfl.SecureConfig{Epochs: s.epochs, LR: s.lr, Key: sk, MaskSeed: seed,
		Runtime: obs.Runtime{Workers: workers}}
	col := &obs.Collector{}
	if tr != nil {
		cfg.Runtime.Sink = col
	}
	tr.newEpoch()
	id := tr.begin("vfl.secure_job", 0)
	j0 := time.Now()
	sec, err := vfl.RunSecureN(prob, cfg)
	d := time.Since(j0)
	tr.end(id)
	tr.endEpochs()
	if err := r.op(err); err != nil {
		return nil, err
	}
	out.timed = d
	out.epochs = s.epochs
	out.epochMS.addDur(d/time.Duration(s.epochs), time.Millisecond)
	r.sampleHeap()

	if tp != nil && tp.flipModelBit {
		sec.Theta[0] += 2e-6
	}
	if tp != nil && tp.perturbPhi {
		sec.PerEpoch[0][0] += 2e-6 * (1 + math.Abs(sec.PerEpoch[0][0]))
	}
	if err := checkSecure(r, s, prob, sec); err != nil {
		return nil, err
	}
	e := float64(s.epochs)
	out.exact = map[string]float64{"comm_bytes_per_epoch": float64(sec.CommBytes) / e}
	if tr != nil {
		snap := col.Snapshot()
		out.exact["paillier_enc_per_epoch"] = float64(snap.PaillierEnc) / e
		out.exact["paillier_dec_per_epoch"] = float64(snap.PaillierDec) / e
		out.exact["paillier_add_per_epoch"] = float64(snap.PaillierAdd) / e
		out.exact["paillier_mulplain_per_epoch"] = float64(snap.PaillierMulPlain) / e
	}
	return out, nil
}

// checkSecure compares a secure run with the plaintext trainer and the
// offline Eq. 27 estimator, within the protocol's fixed-point tolerance.
func checkSecure(r *runner, s vflShape, prob *vfl.Problem, sec *vfl.SecureNResult) error {
	plain := &vfl.Trainer{Problem: prob, Cfg: vfl.Config{Epochs: s.epochs, LR: s.lr, KeepLog: true}}
	res, err := plain.RunE()
	if err := r.op(err); err != nil {
		return fmt.Errorf("plaintext run: %w", err)
	}
	want := core.EstimateVFL(res.Log, prob.Blocks, core.ResourceSaving, nil)
	r.op(nil)
	for j, v := range res.Model.Params() {
		if math.Abs(sec.Theta[j]-v) > 1e-6 {
			return fmt.Errorf("θ[%d]: secure %v, plaintext %v", j, sec.Theta[j], v)
		}
	}
	for t, row := range want.PerEpoch {
		for i, w := range row {
			if got := sec.PerEpoch[t][i]; math.Abs(got-w) > 1e-6*(1+math.Abs(w)) {
				return fmt.Errorf("epoch %d party %d: secure φ %v, plaintext %v", t+1, i, got, w)
			}
		}
	}
	return nil
}
