package vfl

import (
	"crypto/rand"
	"fmt"
	"math"
	"math/big"
	"runtime"
	"sync"
	"time"

	"digfl/internal/faults"
	"digfl/internal/obs"
	"digfl/internal/paillier"
	"digfl/internal/parallel"
	"digfl/internal/tensor"
)

// SecureConfig parameterizes the encrypted two-party vertical linear
// regression of Algorithm 3 (the paper's running example, after Yang et
// al.). Participant 1 holds the label and the first feature block;
// participant 2 holds the second block; a trusted third party holds the
// Paillier key pair.
type SecureConfig struct {
	Epochs  int
	LR      float64
	KeyBits int // Paillier modulus size; the paper uses 1024
	// Key optionally supplies a pre-generated third-party key pair,
	// skipping per-run key generation — production deployments provision
	// the trusted third party once and amortize it across runs. KeyBits is
	// ignored when Key is set.
	Key *paillier.PrivateKey
	// MaskSeed seeds the gradient masks M₁, M₂ (Algorithm 3 step 4).
	MaskSeed int64
	// Runtime is the unified worker-budget-plus-observability surface.
	// Runtime.Workers bounds the pool used for the per-element Paillier
	// operations (vector encryption, the ring folds, the per-feature
	// ciphertext accumulations, and decryption); 1 forces the serial path
	// and 0 or negative selects GOMAXPROCS (the protocol's historical
	// default — Paillier is compute-bound, so serial-by-default would
	// only hide cores). Every decrypted result is bit-identical for any
	// worker count — modular arithmetic is exact, so the accumulation
	// order cannot perturb the plaintexts.
	//
	// Runtime.Sink receives exact PaillierOp counter events (Enc, Dec,
	// Add, MulPlain) alongside the protocol's pool batches, so the paper's
	// computation-cost tables come from real counters: for a run with
	// known dimensions the collected counts equal the closed form implied
	// by Algorithm 3 (asserted in this package's tests).
	Runtime obs.Runtime
	// Faults optionally injects deterministic transient secure-round
	// failures (and straggler delays for individual parties). An injected
	// failure models message loss before the round consumes any entropy,
	// so a retried round is bit-identical to one that never failed.
	Faults *faults.Injector
	// MaxRetries bounds how many times a failed encrypted gradient round
	// is retried (so a round runs at most 1+MaxRetries attempts); when the
	// budget is exhausted the run fails with faults.ErrRetriesExhausted.
	MaxRetries int
	// RetryBase is the base of the capped exponential backoff between
	// attempts (delay = RetryBase·2^attempt, clamped to RetryCap); 0
	// disables sleeping, which is what deterministic tests use.
	RetryBase time.Duration
	// RetryCap clamps the backoff delay; 0 means uncapped.
	RetryCap time.Duration
}

// workers resolves the effective Paillier pool size through the unified
// obs.Runtime.Resolve rule. The protocol's zero default is GOMAXPROCS, not
// serial.
func (c SecureConfig) workers() int {
	if c.Runtime.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Runtime.Resolve()
}

// SecureResult reports the outcome of a secure run together with the
// DIG-FL per-epoch contributions computed inside the protocol (Eq. 27) and
// the exact communication cost of the encrypted exchanges.
type SecureResult struct {
	// Theta is the final global model (block 1 ‖ block 2); in the real
	// protocol each party only ever sees its own block.
	Theta []float64
	// PerEpoch[t][i] is φ̂_{t+1,i} for party i ∈ {0, 1}.
	PerEpoch [][2]float64
	// Shapley is the aggregated contribution Σ_t φ̂_{t,i} (Eq. 15).
	Shapley [2]float64
	// CommBytes counts every ciphertext and masked plaintext exchanged.
	CommBytes int64
}

// secureParty is one participant's private state.
type secureParty struct {
	x     *tensor.Matrix // local training features
	xv    *tensor.Matrix // local validation features
	theta []float64
}

// residualSpec captures how a model family's gradient factors through the
// shared encrypted residual [[d]] = [[p1Res(u₁, y)]] ⊕ u2Coeff·u₂:
//
//	∇loss_j = scale(m) · Σ_i d_i · x_ij
//
// Linear regression uses d = u₁+u₂−y with scale 2/m (the exact MSE
// gradient); logistic regression uses the Hardy et al. second-order Taylor
// approximation of the cross-entropy around z = 0, whose gradient is
// (1/m)·Σ (z/4 − ỹ/2)·x with ỹ = 2y−1.
type residualSpec struct {
	p1Res   func(u1, y float64) float64
	u2Coeff float64
	scale   func(m int) float64
}

func specFor(kind ModelKind) residualSpec {
	if kind == LinReg {
		return residualSpec{
			p1Res:   func(u1, y float64) float64 { return u1 - y },
			u2Coeff: 1,
			scale:   func(m int) float64 { return 2 / float64(m) },
		}
	}
	return residualSpec{
		p1Res:   func(u1, y float64) float64 { return 0.25*u1 - 0.5*(2*y-1) },
		u2Coeff: 0.25,
		scale:   func(m int) float64 { return 1 / float64(m) },
	}
}

// RunSecureLinReg executes Algorithm 3 for the paper's vertical
// linear-regression running example. It is RunSecure restricted to LinReg.
func RunSecureLinReg(prob *Problem, cfg SecureConfig) (*SecureResult, error) {
	if prob.Kind != LinReg {
		return nil, fmt.Errorf("vfl: RunSecureLinReg needs a linear-regression problem, got %v", prob.Kind)
	}
	return RunSecure(prob, cfg)
}

// SecureNResult is the n-party analogue of SecureResult.
type SecureNResult struct {
	// Theta is the final global model (block 1 ‖ … ‖ block n); in the real
	// protocol each party only ever sees its own block.
	Theta []float64
	// PerEpoch[t][i] is φ̂_{t+1,i} for party i.
	PerEpoch [][]float64
	// Shapley is the aggregated contribution Σ_t φ̂_{t,i} (Eq. 15).
	Shapley []float64
	// CommBytes counts every ciphertext and masked plaintext exchanged.
	CommBytes int64
}

// RunSecure executes the two-party encrypted protocol of Algorithm 3:
// cooperative computation of the training gradient, the validation gradient,
// and the per-epoch DIG-FL contributions, with additive masks hiding each
// party's gradient from the trusted third party. Labels (train and
// validation) belong to party 1. Linear regression uses the exact encrypted
// MSE gradient; logistic regression uses the Taylor-approximated
// cross-entropy gradient of Hardy et al. (the standard trick, since Paillier
// cannot evaluate the sigmoid).
func RunSecure(prob *Problem, cfg SecureConfig) (*SecureResult, error) {
	if prob.Parties() != 2 {
		return nil, fmt.Errorf("vfl: RunSecure is two-party, got %d parties (use RunSecureN)", prob.Parties())
	}
	n, err := RunSecureN(prob, cfg)
	if err != nil {
		return nil, err
	}
	res := &SecureResult{
		Theta:     n.Theta,
		Shapley:   [2]float64{n.Shapley[0], n.Shapley[1]},
		CommBytes: n.CommBytes,
	}
	for _, pe := range n.PerEpoch {
		res.PerEpoch = append(res.PerEpoch, [2]float64{pe[0], pe[1]})
	}
	return res, nil
}

// RunSecureN generalizes Algorithm 3 to any number of parties: party 1 (the
// label holder) starts the encrypted residual [[e]], every other party folds
// in its local result along a ring, the last party broadcasts the completed
// [[d]] to everyone, and each party then accumulates its masked encrypted
// gradient block for the third party to decrypt — the structure of the
// multi-party frameworks (FDML, Liu et al.) the paper says DIG-FL applies to.
func RunSecureN(prob *Problem, cfg SecureConfig) (*SecureNResult, error) {
	if err := prob.validate(); err != nil {
		return nil, err
	}
	if prob.Parties() < 2 {
		return nil, fmt.Errorf("vfl: secure protocol needs at least 2 parties, got %d", prob.Parties())
	}
	if cfg.Epochs <= 0 || cfg.LR <= 0 {
		return nil, fmt.Errorf("vfl: invalid secure config %+v", cfg)
	}
	// Trusted third party: key generation (Algorithm 3 step 1), or a
	// pre-provisioned key pair.
	sk := cfg.Key
	if sk == nil {
		bits := cfg.KeyBits
		if bits == 0 {
			bits = 1024
		}
		var err error
		sk, err = paillier.GenerateKey(rand.Reader, bits)
		if err != nil {
			return nil, fmt.Errorf("vfl: third party keygen: %w", err)
		}
	}
	pk := &sk.PublicKey
	ctBytes := int64(pk.Bytes())

	parties := make([]*secureParty, prob.Parties())
	for i, b := range prob.Blocks {
		idx := make([]int, 0, b.Size())
		for j := b.Lo; j < b.Hi; j++ {
			idx = append(idx, j)
		}
		parties[i] = &secureParty{
			x:     prob.Train.X.SelectCols(idx),
			xv:    prob.Val.X.SelectCols(idx),
			theta: make([]float64, b.Size()),
		}
	}
	maskRNG := tensor.NewRNG(cfg.MaskSeed)
	spec := specFor(prob.Kind)
	workers := cfg.workers()
	sink := cfg.Runtime.Sink

	inj := cfg.Faults
	// secureRound wraps one encrypted gradient round (round 0: training,
	// round 1: validation) with the transient-failure retry loop: an
	// injected failure is retried with capped exponential backoff up to
	// MaxRetries times. Failures are injected before the round consumes
	// any mask entropy, so the eventual successful attempt produces
	// ciphertexts and plaintexts bit-identical to a run that never failed.
	secureRound := func(t, round int, y []float64, useVal bool) ([][]float64, int64, error) {
		for attempt := 0; ; attempt++ {
			if inj.SecureRoundFails(t, round, attempt) {
				if attempt >= cfg.MaxRetries {
					return nil, 0, fmt.Errorf("vfl: epoch %d secure round %d failed %d times: %w",
						t, round, attempt+1, faults.ErrRetriesExhausted)
				}
				obs.Emit(sink, obs.Event{Kind: obs.KindRetry, T: t, N: int64(attempt + 1)})
				if d := faults.Backoff(attempt, cfg.RetryBase, cfg.RetryCap); d > 0 {
					time.Sleep(d)
				}
				continue
			}
			return secureGradientN(sk, parties, y, useVal, spec, maskRNG, workers, sink)
		}
	}

	res := &SecureNResult{Shapley: make([]float64, len(parties))}
	for t := 1; t <= cfg.Epochs; t++ {
		obs.Emit(sink, obs.Event{Kind: obs.KindEpochStart, T: t})
		epochStart := obs.Start(sink)
		// Injected straggler delays: a slow party holds up the synchronous
		// ring without changing any result.
		for i := range parties {
			if d, ok := inj.Straggles(t, i); ok {
				obs.Emit(sink, obs.Event{Kind: obs.KindStraggler, T: t, Part: i, Dur: d})
				time.Sleep(d)
			}
		}
		// Jointly compute the (unmasked-to-owner) training gradient blocks.
		grads, comm, err := secureRound(t, 0, prob.Train.Y, false)
		if err != nil {
			return nil, fmt.Errorf("vfl: epoch %d training gradient: %w", t, err)
		}
		res.CommBytes += comm * ctBytes
		// And the validation gradient blocks (Algorithm 3 line 4).
		vals, comm2, err := secureRound(t, 1, prob.Val.Y, true)
		if err != nil {
			return nil, fmt.Errorf("vfl: epoch %d validation gradient: %w", t, err)
		}
		res.CommBytes += comm2 * ctBytes
		// Per-epoch contributions (Eq. 27): each party computes the inner
		// product of its validation-gradient block with its block of
		// G_t = α·∇loss and reports the scalar to the third party.
		phis := make([]float64, len(parties))
		for i := range parties {
			phis[i] = cfg.LR * tensor.Dot(vals[i], grads[i])
			res.Shapley[i] += phis[i]
		}
		res.PerEpoch = append(res.PerEpoch, phis)
		res.CommBytes += int64(len(parties)) * 8
		// Local model updates (Algorithm 3 line 6).
		for i, p := range parties {
			tensor.AXPY(-cfg.LR, grads[i], p.theta)
		}
		obs.Emit(sink, obs.Event{Kind: obs.KindEpochEnd, T: t,
			Dur: obs.Since(sink, epochStart)})
	}
	for _, p := range parties {
		res.Theta = append(res.Theta, p.theta...)
	}
	return res, nil
}

// secureGradientN runs Algorithm 3 steps 2–5 for n parties on the given
// labels (owned by party 1). It returns every party's plaintext gradient
// block and the number of ciphertexts exchanged. The per-element Paillier
// operations run on the shared bounded pool with the given worker budget;
// the decrypted outputs are bit-identical for any budget. Each stage emits
// its exact homomorphic-operation count to the sink: per call with m
// samples, n parties and D total features that is m encryptions,
// m·(n−1) + D·m additions (ring folds, accumulation combines, masks),
// m·D plaintext multiplications and D decryptions. Before a party encodes
// any of its values it checks them against its share of the key's
// fixed-point headroom (see headroom), so a non-finite value stops the
// protocol with ErrNonFinite and a value the key could not carry with
// paillier.ErrOutOfRange, never with a silently wrapped plaintext.
func secureGradientN(sk *paillier.PrivateKey, parties []*secureParty, y []float64, useVal bool, spec residualSpec, maskRNG *tensor.RNG, workers int, sink obs.Sink) (grads [][]float64, ciphertexts int64, err error) {
	pk := &sk.PublicKey
	feats := func(p *secureParty) *tensor.Matrix {
		if useVal {
			return p.xv
		}
		return p.x
	}
	if feats(parties[0]).Rows != len(y) {
		return nil, 0, fmt.Errorf("labels (%d) do not match feature rows (%d)", len(y), feats(parties[0]).Rows)
	}
	m := len(y)
	room := newHeadroom(pk, len(parties))

	// Step 2: party 1 starts the residual ring with its encrypted share.
	u1 := tensor.MatVec(feats(parties[0]), parties[0].theta)
	e := make([]float64, m)
	for i := range e {
		e[i] = spec.p1Res(u1[i], y[i])
	}
	if err := within("party 1 residual share", e, room.share); err != nil {
		return nil, 0, err
	}
	encD, err := pk.EncryptVecN(rand.Reader, e, workers)
	if err != nil {
		return nil, 0, err
	}
	ciphertexts += int64(m)
	obs.Emit(sink, obs.Event{Kind: obs.KindPaillierEnc, N: int64(m)})

	// Step 3 (ring): every other party folds in its local result; the
	// completed [[d]] is then broadcast to all n parties.
	for pi, p := range parties[1:] {
		u := tensor.MatVec(feats(p), p.theta)
		for i := range u {
			u[i] *= spec.u2Coeff
		}
		if err := within(fmt.Sprintf("party %d residual share", pi+2), u, room.share); err != nil {
			return nil, 0, err
		}
		shares, err := pk.EncodeVec(u, 1)
		if err != nil {
			return nil, 0, err
		}
		parallel.ForObs(m, workers, sink, func(i int) {
			encD[i] = pk.AddPlain(encD[i], shares[i])
		})
		obs.Emit(sink, obs.Event{Kind: obs.KindPaillierAdd, N: int64(m)})
		ciphertexts += int64(m) // forwarding [[d]] along the ring
	}
	ciphertexts += int64(m * (len(parties) - 1)) // broadcast of the final [[d]]

	// Step 4: each party accumulates its masked encrypted gradient block
	// [[∂loss/∂θ_j + M_j]] = Σ_i [[d_i]]·scale·x_ij ⊕ [[M_j]].
	grads = make([][]float64, len(parties))
	for pi, p := range parties {
		x := feats(p)
		d := x.Cols
		masks := maskRNG.NormalVec(d, 0, 10)
		enc := make([]*paillier.Ciphertext, d)
		scale := spec.scale(m)
		norms := make([]float64, d)
		for j := range norms {
			for i := 0; i < m; i++ {
				norms[j] += math.Abs(scale * x.At(i, j))
			}
		}
		if err := within(fmt.Sprintf("party %d feature column ℓ1 norm", pi+1), norms, room.column); err != nil {
			return nil, 0, err
		}
		if err := within(fmt.Sprintf("party %d mask", pi+1), masks, room.mask); err != nil {
			return nil, 0, err
		}
		// ks[j][i] encodes the scalar scale·x_ij.
		ks := make([][]*big.Int, d)
		col := make([]float64, m)
		for j := range ks {
			for i := range col {
				col[i] = scale * x.At(i, j)
			}
			if ks[j], err = pk.EncodeVec(col, 1); err != nil {
				return nil, 0, err
			}
		}
		maskInts, err := pk.EncodeVec(masks, 2)
		if err != nil {
			return nil, 0, err
		}
		// Each feature's accumulation Σ_i [[d_i]]·scale·x_ij is a modular
		// product, so any association yields the same ciphertext bits.
		// Parallelize across features when there are enough of them to
		// feed the pool; otherwise chunk the sample dimension with the
		// shared map/reduce (a wide-but-short gradient block).
		accumulate := func(j, innerWorkers int) *paillier.Ciphertext {
			return parallel.MapReduce(m, innerWorkers, 0, func(i int) *paillier.Ciphertext {
				return pk.MulPlain(encD[i], ks[j][i])
			}, pk.Add)
		}
		if d >= workers {
			parallel.ForObs(d, workers, sink, func(j int) {
				enc[j] = pk.AddPlain(accumulate(j, 1), maskInts[j])
			})
		} else {
			for j := 0; j < d; j++ {
				enc[j] = pk.AddPlain(accumulate(j, workers), maskInts[j])
			}
		}
		// Per feature: m plaintext multiplications, m−1 accumulation
		// combines, one masking addition — batched into exact counters.
		obs.Emit(sink, obs.Event{Kind: obs.KindPaillierMulPlain, N: int64(m) * int64(d)})
		obs.Emit(sink, obs.Event{Kind: obs.KindPaillierAdd, N: int64(m) * int64(d)})
		ciphertexts += int64(2 * d) // masked ciphertexts out, plaintexts back
		// Step 5: third party decrypts; the party removes its mask.
		out := make([]float64, d)
		var decErr error
		var decMu sync.Mutex
		parallel.ForObs(d, workers, sink, func(j int) {
			v, err := sk.DecryptFloatAtScale(enc[j], 2)
			if err != nil {
				decMu.Lock()
				if decErr == nil {
					decErr = err
				}
				decMu.Unlock()
				return
			}
			out[j] = v - masks[j]
		})
		if decErr != nil {
			return nil, 0, decErr
		}
		obs.Emit(sink, obs.Event{Kind: obs.KindPaillierDec, N: int64(d)})
		grads[pi] = out
	}
	return grads, ciphertexts, nil
}

// headroom holds the limits each party checks its own values against before
// it encodes them, so that no Step 4 plaintext wraps mod n. Feature j's
// decrypted integer is Σ_i X_ij·D_i + M_j at Scale², where X_ij encodes
// scale·x_ij, D_i is the sum of the P parties' encoded residual shares and
// M_j the mask, and it reads back correctly only while its magnitude stays
// within h = ⌊n/2⌋. No party sees D_i, so the bound is split: every residual
// share within √h/P (then |D_i| ≤ √h), every column's Σ_i |X_ij| within √h/4
// and every mask within h/4. The worst case is h/2, and the spare factor 2
// absorbs float rounding in the checks. Limits are in value units, i.e.
// divided by Scale (Scale² for the mask).
type headroom struct{ share, column, mask float64 }

func newHeadroom(pk *paillier.PublicKey, parties int) headroom {
	h := new(big.Int).Rsh(pk.N, 1)
	root := new(big.Int).Sqrt(h)
	quo := func(x *big.Int, d float64) float64 {
		f, _ := new(big.Float).Quo(new(big.Float).SetInt(x), big.NewFloat(d)).Float64()
		return f
	}
	return headroom{
		share:  quo(root, float64(parties)*paillier.Scale),
		column: quo(root, 4*paillier.Scale),
		mask:   quo(h, 4*paillier.Scale*paillier.Scale),
	}
}

// within reports the first of vals that is non-finite (ErrNonFinite) or
// larger in magnitude than limit (paillier.ErrOutOfRange).
func within(what string, vals []float64, limit float64) error {
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s %d is %v: %w", what, i, v, ErrNonFinite)
		}
		if math.Abs(v) > limit {
			return fmt.Errorf("%s %d = %g exceeds the key's fixed-point limit %g: %w",
				what, i, v, limit, paillier.ErrOutOfRange)
		}
	}
	return nil
}
