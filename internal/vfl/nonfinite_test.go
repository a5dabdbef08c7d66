package vfl

import (
	"errors"
	"math"
	"strings"
	"testing"

	"digfl/internal/obs"
	"digfl/internal/paillier"
)

// nanWeights poisons one party's block weight.
type nanWeights struct{ n int }

func (r nanWeights) Weights(ep *Epoch) []float64 {
	w := make([]float64, r.n)
	for i := range w {
		w[i] = 1
	}
	w[0] = math.NaN()
	return w
}

func TestFailNonFiniteOffByDefault(t *testing.T) {
	// A divergent learning rate drives the loss to non-finite; the default
	// config keeps the historical propagate-NaN behavior and finishes.
	tr := &Trainer{Problem: regProblem(7), Cfg: Config{Epochs: 60, LR: 1e4}}
	res, err := tr.RunE()
	if err != nil {
		t.Fatalf("default config must not abort: %v", err)
	}
	if !math.IsNaN(res.FinalLoss) && !math.IsInf(res.FinalLoss, 0) {
		t.Skip("run did not diverge; cannot exercise propagation")
	}
}

func TestFailNonFiniteAbortsDivergence(t *testing.T) {
	tr := &Trainer{Problem: regProblem(7), Cfg: Config{Epochs: 60, LR: 1e4, FailNonFinite: true}}
	_, err := tr.RunE()
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	if !strings.Contains(err.Error(), "epoch ") {
		t.Errorf("error does not name the epoch: %v", err)
	}
}

func TestFailNonFiniteAbortsPoisonedUpdate(t *testing.T) {
	prob := regProblem(8)
	tr := &Trainer{
		Problem:    prob,
		Cfg:        Config{Epochs: 10, LR: 0.05, FailNonFinite: true},
		Reweighter: nanWeights{n: prob.Parties()},
	}
	_, err := tr.RunE()
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	if !strings.Contains(err.Error(), "update") {
		t.Errorf("error does not name the update: %v", err)
	}
}

func TestFailNonFiniteBitIdentityWhenHealthy(t *testing.T) {
	run := func(guard bool) *Result {
		tr := &Trainer{Problem: regProblem(9), Cfg: Config{Epochs: 30, LR: 0.05, FailNonFinite: guard}}
		res, err := tr.RunE()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(false), run(true)
	pa, pb := a.Model.Params(), b.Model.Params()
	for j := range pa {
		if pa[j] != pb[j] {
			t.Fatalf("param %d differs: %v vs %v", j, pa[j], pb[j])
		}
	}
	for k := range a.ValLossCurve {
		if a.ValLossCurve[k] != b.ValLossCurve[k] {
			t.Fatalf("loss curve differs at %d", k)
		}
	}
}

// A divergent secure run must stop with an error once a value outgrows the
// key's fixed-point headroom. Without the check the Scale² accumulation
// wraps mod n and the run returns a θ₀ near 1e56 where the plaintext
// trainer reaches −3.9e87.
func TestSecureRejectsFixedPointOverflow(t *testing.T) {
	_, err := RunSecureN(regProblem(7), SecureConfig{Epochs: 20, LR: 1e4, KeyBits: 256, MaskSeed: 1})
	if !errors.Is(err, paillier.ErrOutOfRange) {
		t.Fatalf("err = %v, want paillier.ErrOutOfRange", err)
	}
}

// A non-finite value in any party's data must stop the secure protocol with
// ErrNonFinite before it is encoded, on the serial and the pooled path.
func TestSecureRejectsNonFinite(t *testing.T) {
	for _, c := range []struct {
		name   string
		poison func(*Problem)
	}{
		{"train label", func(p *Problem) { p.Train.Y[3] = math.NaN() }},
		{"party 3 train feature", func(p *Problem) { p.Train.X.Set(5, 4, math.Inf(1)) }},
		{"party 2 val feature", func(p *Problem) { p.Val.X.Set(1, 2, math.Inf(-1)) }},
	} {
		for _, workers := range []int{1, 4} {
			prob := regProblem(8)
			c.poison(prob)
			_, err := RunSecureN(prob, SecureConfig{Epochs: 2, LR: 0.05, KeyBits: 256, MaskSeed: 1,
				Runtime: obs.Runtime{Workers: workers}})
			if !errors.Is(err, ErrNonFinite) {
				t.Fatalf("%s, workers=%d: err = %v, want ErrNonFinite", c.name, workers, err)
			}
		}
	}
}
