package hfl

import (
	"math"
	"strings"
	"testing"

	"digfl/internal/tensor"
)

// foldDeltas builds k deterministic pseudo-random deltas of dimension p.
func foldDeltas(k, p int, seed int64) [][]float64 {
	rng := tensor.NewRNG(seed)
	out := make([][]float64, k)
	for i := range out {
		d := make([]float64, p)
		for j := range d {
			d[j] = rng.NormFloat64()
		}
		out[i] = d
	}
	return out
}

// Arrival order must not change a single bit of the fold's output: the
// in-order commit rule fixes the reduction order at slot order.
func TestMeanFoldArrivalOrderInvariant(t *testing.T) {
	const k, p = 7, 11
	deltas := foldDeltas(k, p, 1)
	vg := foldDeltas(1, p, 2)[0]
	orders := [][]int{
		{0, 1, 2, 3, 4, 5, 6},
		{6, 5, 4, 3, 2, 1, 0},
		{3, 0, 6, 1, 5, 2, 4},
	}
	var want *FoldResult
	for _, order := range orders {
		f := MeanStream{Seg: 3}.NewFold(p, k, vg)
		for _, s := range order {
			if err := f.Add(s, append([]float64(nil), deltas[s]...)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !sameVec(want.Sum, got.Sum) || !sameVec(want.Dots, got.Dots) {
			t.Fatalf("fold output depends on arrival order %v", order)
		}
	}
	for j, s := range want.Slots {
		if s != j {
			t.Fatalf("slots %v not in slot order", want.Slots)
		}
	}
}

// The canonical reduction order is segmented: per-segment sums in slot
// order, partials merged in segment order, one final 1/m scale.
func TestMeanFoldSegmentedReduction(t *testing.T) {
	const k, p, seg = 8, 5, 3
	deltas := foldDeltas(k, p, 3)
	f := MeanStream{Seg: seg}.NewFold(p, k, nil)
	for s, d := range deltas {
		if err := f.Add(s, d); err != nil {
			t.Fatal(err)
		}
	}
	got, err := f.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the same operations, spelled out.
	acc := make([]float64, p)
	for lo := 0; lo < k; lo += seg {
		segAcc := make([]float64, p)
		for s := lo; s < lo+seg && s < k; s++ {
			tensor.AXPY(1, deltas[s], segAcc)
		}
		tensor.AXPY(1, segAcc, acc)
	}
	tensor.Scale(1.0/k, acc)
	if !sameVec(acc, got.Sum) {
		t.Fatal("segmented fold differs from the spelled-out reduction")
	}
}

// A fold with gaps (stragglers that never report) averages over the arrived
// updates and commits parked out-of-order slots at Close.
func TestMeanFoldGaps(t *testing.T) {
	const k, p = 6, 4
	deltas := foldDeltas(k, p, 4)
	f := MeanStream{}.NewFold(p, k, nil)
	// Slots 0 and 3 never arrive; 4 and 5 arrive before 1 and 2.
	for _, s := range []int{4, 5, 2, 1} {
		if err := f.Add(s, deltas[s]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := f.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, p)
	for _, s := range []int{1, 2, 4, 5} {
		tensor.AXPY(1, deltas[s], want)
	}
	tensor.Scale(1.0/4, want)
	if !sameVec(want, got.Sum) {
		t.Fatal("gap fold averaged wrong")
	}
	if len(got.Slots) != 4 || got.Slots[0] != 1 || got.Slots[3] != 5 {
		t.Fatalf("gap fold slots %v", got.Slots)
	}
}

func TestMeanFoldRejects(t *testing.T) {
	f := MeanStream{}.NewFold(3, 2, nil)
	if err := f.Add(2, make([]float64, 3)); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if err := f.Add(0, make([]float64, 2)); err == nil {
		t.Fatal("wrong-length delta accepted")
	}
	if err := f.Add(0, make([]float64, 3)); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(0, make([]float64, 3)); err == nil {
		t.Fatal("duplicate slot accepted")
	}
	if _, err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Close(); err == nil {
		t.Fatal("double Close accepted")
	}
	if err := f.Add(1, make([]float64, 3)); err == nil {
		t.Fatal("Add after Close accepted")
	}
}

// A streamed run must train like the buffered run (same math, reduction
// order differs only in the last ulp), be bit-identical run-to-run, and
// carry DeltaDots that match the buffered run's ∇loss^v·δ exactly — the
// deltas and the validation gradient are the same bits in both runs.
func TestStreamedRunMatchesBuffered(t *testing.T) {
	buf, _ := setup(t, 21)
	bufRes := buf.Run()

	mk := func() *Trainer {
		tr, _ := setup(t, 21)
		tr.Stream = MeanStream{}
		return tr
	}
	a := mk().Run()
	b := mk().Run()
	if !sameVec(a.Model.Params(), b.Model.Params()) || !sameVec(a.ValLossCurve, b.ValLossCurve) {
		t.Fatal("two streamed runs differ — streaming broke determinism")
	}
	if a.FinalLoss >= a.InitLoss {
		t.Fatalf("streamed run failed to train: %v -> %v", a.InitLoss, a.FinalLoss)
	}
	for i, ep := range a.Log {
		if ep.Deltas != nil {
			t.Fatalf("streamed epoch %d retained raw deltas", ep.T)
		}
		if len(ep.DeltaDots) != len(buf.Parts) {
			t.Fatalf("streamed epoch %d has %d dots", ep.T, len(ep.DeltaDots))
		}
		bep := bufRes.Log[i]
		// Epoch 1 shares θ with the buffered run bit-for-bit, so its dots
		// must match exactly; later epochs drift by the streamed aggregate's
		// last-ulp difference, so compare loosely.
		for k, dot := range ep.DeltaDots {
			want := tensor.Dot(bep.ValGrad, bep.Deltas[k])
			if i == 0 && dot != want {
				t.Fatalf("epoch 1 dot %d: %v != buffered %v", k, dot, want)
			}
			if math.Abs(dot-want) > 1e-6 {
				t.Fatalf("epoch %d dot %d drifted: %v vs %v", ep.T, k, dot, want)
			}
		}
	}
	if math.Abs(a.FinalLoss-bufRes.FinalLoss) > 1e-9 {
		t.Fatalf("streamed final loss %v far from buffered %v", a.FinalLoss, bufRes.FinalLoss)
	}
}

func TestStreamRefusesBufferedPlugins(t *testing.T) {
	tr, _ := setup(t, 5)
	tr.Stream = MeanStream{}
	tr.Screen = noopScreener{}
	if _, err := tr.RunE(); err == nil || !strings.Contains(err.Error(), "Stream") {
		t.Fatalf("Stream+Screen accepted: %v", err)
	}
}

type noopScreener struct{}

func (noopScreener) Screen(*Epoch, []int) ([]int, error) { return nil, nil }

// ReleaseAfterObserve frees each epoch's raw deltas once the Observer has
// run — the observer still sees them, the log keeps the slim record, and
// the training outputs are untouched.
func TestRetainDeltasRelease(t *testing.T) {
	keep, _ := setup(t, 9)
	want := keep.Run()

	rel, _ := setup(t, 9)
	rel.Cfg.RetainDeltas = ReleaseAfterObserve
	sawDeltas := 0
	rel.Observer = func(ep *Epoch) {
		if len(ep.Deltas) > 0 {
			sawDeltas++
		}
	}
	got := rel.Run()

	if sawDeltas != rel.Cfg.Epochs {
		t.Fatalf("observer saw deltas in %d/%d epochs", sawDeltas, rel.Cfg.Epochs)
	}
	for _, ep := range got.Log {
		if ep.Deltas != nil {
			t.Fatalf("epoch %d retained deltas under ReleaseAfterObserve", ep.T)
		}
		if ep.ValGrad == nil || ep.Theta == nil {
			t.Fatalf("epoch %d lost its slim record", ep.T)
		}
	}
	if !sameVec(want.Model.Params(), got.Model.Params()) || !sameVec(want.ValLossCurve, got.ValLossCurve) {
		t.Fatal("releasing deltas perturbed the run")
	}
}

// Segment partials reproduce the canonical reduction: summing each segment
// with SumStream and handing the sums to a SegmentFold as partials gives
// MeanStream{Seg}'s bits over the raw deltas — a cohort tree's edges and
// root, at unit scale. A missing slot inside a segment stays a gap.
func TestSegmentFoldPartialsMatchMeanStream(t *testing.T) {
	const k, p, seg = 8, 6, 3
	deltas := foldDeltas(k, p, 5)
	vg := foldDeltas(1, p, 6)[0]
	arrived := []int{0, 1, 2, 4, 5, 6, 7} // slot 3 never arrives

	flat := MeanStream{Seg: seg}.NewFold(p, k, vg)
	for _, s := range arrived {
		if err := flat.Add(s, deltas[s]); err != nil {
			t.Fatal(err)
		}
	}
	want, err := flat.Close()
	if err != nil {
		t.Fatal(err)
	}

	root := NewSegmentFold(p, k, vg, func(s int) int { return s / seg })
	for lo := k - k%seg; lo >= 0; lo -= seg { // segments arrive in reverse
		var slots []int
		for _, s := range arrived {
			if s >= lo && s < lo+seg {
				slots = append(slots, s)
			}
		}
		edge := SumStream{}.NewFold(p, len(slots), vg)
		for j, s := range slots {
			if err := edge.Add(j, deltas[s]); err != nil {
				t.Fatal(err)
			}
		}
		part, err := edge.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := root.AddPartial(slots, part.Sum, part.Dots); err != nil {
			t.Fatal(err)
		}
	}
	got, err := root.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !sameVec(want.Sum, got.Sum) || !sameVec(want.Dots, got.Dots) || !sameInts(want.Slots, got.Slots) {
		t.Fatalf("partial fold differs from MeanStream:\nwant %v %v\ngot  %v %v", want.Slots, want.Sum, got.Slots, got.Sum)
	}
}

// A direct update for a slot inside a partial's range folds into the same
// segment, to the same bits in either arrival order, and Slots/Dots come
// back in slot order.
func TestSegmentFoldPartialBesideDirect(t *testing.T) {
	const k, p = 4, 5
	deltas := foldDeltas(k, p, 7)
	vg := foldDeltas(1, p, 8)[0]
	sum := tensor.Add(deltas[0], deltas[2])
	dots := []float64{tensor.Dot(vg, deltas[0]), tensor.Dot(vg, deltas[2])}
	run := func(directFirst bool) *FoldResult {
		f := NewSegmentFold(p, k, vg, func(int) int { return 0 })
		add := func() {
			if err := f.Add(1, append([]float64(nil), deltas[1]...)); err != nil {
				t.Fatal(err)
			}
		}
		if directFirst {
			add()
		}
		if err := f.AddPartial([]int{0, 2}, append([]float64(nil), sum...), append([]float64(nil), dots...)); err != nil {
			t.Fatal(err)
		}
		if !directFirst {
			add()
		}
		res, err := f.Close()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(true), run(false)
	if !sameVec(a.Sum, b.Sum) || !sameVec(a.Dots, b.Dots) {
		t.Fatal("partial-beside-direct fold depends on arrival order")
	}
	if !sameInts(a.Slots, []int{0, 1, 2}) || a.Dots[1] != tensor.Dot(vg, deltas[1]) || a.Dots[2] != dots[1] {
		t.Fatalf("slots %v dots %v not in slot order", a.Slots, a.Dots)
	}
	want := make([]float64, p)
	tensor.AXPY(1, sum, want)
	tensor.AXPY(1, deltas[1], want)
	tensor.Scale(1.0/3, want)
	if !sameVec(want, a.Sum) {
		t.Fatalf("sum %v, want %v", a.Sum, want)
	}
}

func TestSegmentFoldPartialRejects(t *testing.T) {
	f := NewSegmentFold(2, 4, nil, func(s int) int { return s / 2 })
	one := []float64{1, 1}
	cases := []struct {
		name  string
		slots []int
		sum   []float64
		dots  []float64
	}{
		{"spans segments", []int{1, 2}, one, []float64{0, 0}},
		{"out of order", []int{1, 0}, one, []float64{0, 0}},
		{"out of range", []int{4}, one, []float64{0}},
		{"short sum", []int{0}, []float64{1}, []float64{0}},
		{"dots mismatch", []int{0}, one, nil},
	}
	for _, c := range cases {
		if err := f.AddPartial(c.slots, c.sum, c.dots); err == nil {
			t.Errorf("%s: partial accepted", c.name)
		}
	}
	if err := f.Add(0, one); err != nil {
		t.Fatal(err)
	}
	if err := f.AddPartial([]int{0, 1}, one, []float64{0, 0}); err == nil {
		t.Error("partial re-claiming a folded slot accepted")
	}
	if err := NewRetainFold(2, 2).AddPartial([]int{0}, one, []float64{0}); err == nil {
		t.Error("retaining fold took a partial")
	}
}

// The retaining fold keeps every added delta, reports them in slot order,
// and says it holds them (so pooling callers never recycle them).
func TestRetainFold(t *testing.T) {
	deltas := foldDeltas(4, 3, 9)
	f := NewRetainFold(3, 4)
	for _, s := range []int{3, 0, 2} {
		if err := f.Add(s, deltas[s]); err != nil {
			t.Fatal(err)
		}
	}
	if f.Pending() != 3 {
		t.Fatalf("retaining fold holds %d deltas, want 3", f.Pending())
	}
	res, err := f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != nil || res.Dots != nil || !sameInts(res.Slots, []int{0, 2, 3}) {
		t.Fatalf("retain result: slots %v sum %v dots %v", res.Slots, res.Sum, res.Dots)
	}
	for j, s := range res.Slots {
		if &res.Deltas[j][0] != &deltas[s][0] {
			t.Fatalf("slot %d delta is not the added vector", s)
		}
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
