package hfl

import (
	"fmt"

	"digfl/internal/tensor"
)

// Fold is one round's streaming accumulator: local updates are folded in as
// they arrive and released, instead of being slotted into a population- (or
// even cohort-) sized buffer. Implementations commit updates in slot order
// regardless of arrival order, so the reduction order — and therefore the
// aggregate's float bits — never depends on network timing. An update that
// arrives out of order is parked until its predecessors commit (worst case
// the fold briefly holds the cohort, never the population).
//
// Folds are not safe for concurrent use; callers serialize Add (the
// coordinator folds under its lock, the trainer folds serially).
type Fold interface {
	// Add folds the update at slot — its position in the round's active
	// order. Each slot may be added at most once; a wrong-length delta or an
	// out-of-range slot is an error. A reducing fold never retains delta
	// beyond the commit that consumes it; a retaining fold (NewRetainFold)
	// hands it back from Close.
	Add(slot int, delta []float64) error
	// Close finalizes the round over the slots that actually arrived
	// (committing any still-parked updates in slot order) and returns the
	// aggregate. Close may be called once.
	Close() (*FoldResult, error)
}

// FoldResult is a closed fold's output.
type FoldResult struct {
	// Sum is the aggregated global update G_t over the arrived updates —
	// for MeanStream, their uniform mean. Nil when nothing arrived.
	Sum []float64
	// Slots lists the arrived slots in slot order.
	Slots []int
	// Dots[j] = ∇loss^v(θ_{t-1})·δ for the update at Slots[j] — the
	// resource-saving estimator's per-participant first term, computed at
	// fold time so contribution evaluation survives the deltas' release.
	// Nil when the fold was opened without a validation gradient.
	Dots []float64
	// Deltas[j] is the update added at Slots[j]; set only by a retaining
	// fold (NewRetainFold), which leaves Sum and Dots nil.
	Deltas [][]float64
}

// StreamAggregator supplies per-round Folds — the streaming aggregation
// seam. A rule that cannot stream (coordinate median, trimmed mean, the
// Krum family: they need every update of the round materialized at once)
// does not implement this interface and instead declares itself through
// BufferedRule; such rules keep the buffered Aggregator path.
type StreamAggregator interface {
	// NewFold opens one round's accumulator for k active slots of dimension
	// p. valGrad, when non-nil, is ∇loss^v(θ_{t-1}); the fold then reports
	// per-update dot products alongside the aggregate.
	NewFold(p, k int, valGrad []float64) Fold
}

// BufferedRule is implemented by aggregation rules that cannot fold updates
// on arrival: they need the round's full update buffer (coordinate median,
// trimmed mean, Krum/Multi-Krum). Callers consult it to refuse a streaming
// configuration explicitly instead of silently buffering.
type BufferedRule interface {
	// NeedsBuffer reports whether the rule requires every update of a round
	// materialized simultaneously.
	NeedsBuffer() bool
}

// MeanStream is the streaming uniform-mean aggregation rule: G_t =
// (1/m)·Σ δ over the m arrived updates, folded on arrival. The canonical
// reduction order is segmented: slots are partitioned into contiguous
// segments of width Seg, each segment is summed in slot order from a zero
// accumulator, non-empty segment partials are merged in segment order, and
// the merged total is scaled once by 1/m. A two-level cohort tree whose
// edge sub-aggregators each own Seg slots performs exactly these operations
// in exactly this order, so tree, flat-streamed, and in-process streamed
// runs are bit-identical (see fednet.TreeSource).
//
// Seg ≤ 0 means one segment spanning the whole round — the flat streaming
// order. Note the streamed aggregate differs from the buffered trainer path
// in the last ulp (the buffered path scales each delta before summing);
// streamed runs are bit-identical to each other, not to buffered runs.
type MeanStream struct {
	// Seg is the segment width of the canonical reduction order; match it
	// to the edge width of a cohort tree to make flat and tree runs
	// bit-identical. 0 folds the round as a single segment.
	Seg int
}

// NewFold implements StreamAggregator.
func (m MeanStream) NewFold(p, k int, valGrad []float64) Fold {
	seg := m.Seg
	if seg <= 0 {
		return newSegmentFold(p, k, valGrad, nil, true, false)
	}
	return newSegmentFold(p, k, valGrad, func(slot int) int { return slot / seg }, true, false)
}

// SumStream folds a round into the unscaled single-segment sum Σ δ of the
// arrived updates, in slot order from a zero accumulator — exactly one
// MeanStream segment before the 1/m scale. A cohort tree's edge folds its
// members with it and ships the result to the root as a segment partial
// (SegmentFold.AddPartial).
type SumStream struct{}

// NewFold implements StreamAggregator.
func (SumStream) NewFold(p, k int, valGrad []float64) Fold {
	return newSegmentFold(p, k, valGrad, nil, false, false)
}

// NewSegmentFold opens a MeanStream fold whose slot-to-segment map is
// explicit: seg(slot) names each slot's segment and must be non-decreasing
// in slot. A cohort-tree root passes each member's edge, so its fold can
// take an edge's whole segment as one pre-folded partial (AddPartial) next
// to the updates its members sent the root directly.
func NewSegmentFold(p, k int, valGrad []float64, seg func(slot int) int) *SegmentFold {
	return newSegmentFold(p, k, valGrad, seg, true, false)
}

// NewRetainFold opens a fold that keeps the arrived deltas instead of
// reducing them: Close reports them in slot order in FoldResult.Deltas
// (Sum and Dots nil), for rounds whose aggregation needs the buffer.
func NewRetainFold(p, k int) *SegmentFold {
	return newSegmentFold(p, k, nil, nil, false, true)
}

func newSegmentFold(p, k int, valGrad []float64, seg func(int) int, mean, retain bool) *SegmentFold {
	f := &SegmentFold{p: p, k: k, valGrad: valGrad, seg: seg, mean: mean,
		seen: make([]bool, k), curSeg: -1}
	if retain {
		f.deltas = make([][]float64, k)
	} else if valGrad != nil {
		f.dots = make([]float64, k)
	}
	return f
}

// SegmentFold is the one implementation of the canonical segmented
// reduction (see MeanStream) with in-order commit. Updates and segment
// partials commit in slot order — a partial at its first slot — whatever
// their arrival order, so the fold's output is a pure function of the set
// of slots added.
type SegmentFold struct {
	p, k    int
	valGrad []float64
	seg     func(slot int) int // nil: one segment
	mean    bool               // scale the total by 1/count at Close
	deltas  [][]float64        // by slot; non-nil: retain instead of reducing

	seen     []bool    // slots added: parked, committed, or in a partial
	dots     []float64 // by slot; nil without a validation gradient
	next     int       // smallest slot neither committed nor in a committed partial
	curSeg   int
	count    int // added updates
	segCount int // committed updates in the current segment
	acc      []float64
	segAcc   []float64
	pending  map[int]foldItem // parked out-of-order items, by first slot
	closed   bool
}

// foldItem is one parked commit: a single update (slots nil) or a segment
// partial with its member slots and dots.
type foldItem struct {
	vec   []float64
	slots []int
	dots  []float64
}

// Add implements Fold.
func (f *SegmentFold) Add(slot int, delta []float64) error {
	switch {
	case f.closed:
		return fmt.Errorf("hfl: fold already closed")
	case slot < 0 || slot >= f.k:
		return fmt.Errorf("hfl: fold slot %d outside [0,%d)", slot, f.k)
	case len(delta) != f.p:
		return fmt.Errorf("hfl: fold slot %d delta has %d params, want %d", slot, len(delta), f.p)
	case f.seen[slot]:
		return fmt.Errorf("hfl: fold slot %d added twice", slot)
	}
	f.seen[slot] = true
	f.count++
	if f.deltas != nil {
		f.deltas[slot] = delta
		return nil
	}
	f.put(slot, foldItem{vec: delta})
	return nil
}

// AddPartial folds one pre-folded segment partial: slots (ascending, all in
// one segment), the unscaled sum of their updates in slot order, and their
// dots aligned with slots. The partial commits as a unit at its first slot,
// so an update another path delivered for a slot the partial lacks still
// folds into the same segment. An empty partial is a no-op.
func (f *SegmentFold) AddPartial(slots []int, sum, dots []float64) error {
	switch {
	case f.closed:
		return fmt.Errorf("hfl: fold already closed")
	case len(slots) == 0:
		return nil
	case f.deltas != nil:
		return fmt.Errorf("hfl: a retaining fold takes no partials")
	case len(sum) != f.p || len(dots) != len(slots):
		return fmt.Errorf("hfl: partial has %d params and %d dots for %d slots, want %d params",
			len(sum), len(dots), len(slots), f.p)
	}
	for j, s := range slots {
		switch {
		case s < 0 || s >= f.k:
			return fmt.Errorf("hfl: fold slot %d outside [0,%d)", s, f.k)
		case j > 0 && s <= slots[j-1]:
			return fmt.Errorf("hfl: partial slots out of order")
		case f.segment(s) != f.segment(slots[0]):
			return fmt.Errorf("hfl: partial spans segments %d and %d", f.segment(slots[0]), f.segment(s))
		case f.seen[s]:
			return fmt.Errorf("hfl: fold slot %d added twice", s)
		}
	}
	for _, s := range slots {
		f.seen[s] = true
	}
	f.count += len(slots)
	f.put(slots[0], foldItem{vec: sum, slots: slots, dots: dots})
	return nil
}

func (f *SegmentFold) segment(slot int) int {
	if f.seg == nil {
		return 0
	}
	return f.seg(slot)
}

// put commits an item at its first slot when every earlier slot is settled,
// then drains the parked items it unblocked; otherwise it parks the item.
func (f *SegmentFold) put(key int, it foldItem) {
	if key != f.next {
		if f.pending == nil {
			f.pending = make(map[int]foldItem)
		}
		f.pending[key] = it
		return
	}
	f.commit(key, it)
	for f.next < f.k && f.seen[f.next] {
		// A seen slot at next is either a parked item's first slot or a
		// member of an already committed partial.
		if p, ok := f.pending[f.next]; ok {
			delete(f.pending, f.next)
			f.commit(f.next, p)
			continue
		}
		f.next++
	}
}

// commit folds one item at its first slot; callers guarantee slot order.
func (f *SegmentFold) commit(key int, it foldItem) {
	if s := f.segment(key); s != f.curSeg {
		f.flush()
		f.curSeg = s
	}
	if f.segAcc == nil {
		f.segAcc = make([]float64, f.p)
	}
	tensor.AXPY(1, it.vec, f.segAcc)
	switch {
	case it.slots != nil:
		f.segCount += len(it.slots)
		if f.dots != nil {
			for j, s := range it.slots {
				f.dots[s] = it.dots[j]
			}
		}
	default:
		f.segCount++
		if f.dots != nil {
			f.dots[key] = tensor.Dot(f.valGrad, it.vec)
		}
	}
	f.next = key + 1
}

// flush merges a non-empty segment partial into the running total. The
// first segment becomes the total outright: a sum started from +0 never
// holds -0, so 0 + x == x bit for bit and the copy is skipped.
func (f *SegmentFold) flush() {
	if f.segCount == 0 {
		return
	}
	if f.acc == nil {
		f.acc, f.segAcc = f.segAcc, nil
	} else {
		tensor.AXPY(1, f.segAcc, f.acc)
		clear(f.segAcc)
	}
	f.segCount = 0
}

// Close implements Fold.
func (f *SegmentFold) Close() (*FoldResult, error) {
	if f.closed {
		return nil, fmt.Errorf("hfl: fold closed twice")
	}
	f.closed = true
	// Items parked behind permanent gaps (stragglers that never reported)
	// commit now, in slot order.
	for s := f.next; s < f.k && len(f.pending) > 0; s++ {
		if it, ok := f.pending[s]; ok {
			delete(f.pending, s)
			f.commit(s, it)
		}
	}
	f.flush()
	res := &FoldResult{}
	if f.deltas != nil {
		res.Deltas = make([][]float64, 0, f.count)
	}
	if f.count > 0 {
		res.Slots = make([]int, 0, f.count)
		if f.dots != nil {
			res.Dots = make([]float64, 0, f.count)
		}
	}
	for s, added := range f.seen {
		if !added {
			continue
		}
		res.Slots = append(res.Slots, s)
		if f.deltas != nil {
			res.Deltas = append(res.Deltas, f.deltas[s])
		}
		if f.dots != nil {
			res.Dots = append(res.Dots, f.dots[s])
		}
	}
	if f.acc != nil {
		if f.mean {
			tensor.Scale(1/float64(f.count), f.acc)
		}
		res.Sum = f.acc
	}
	return res, nil
}

// Pending reports how many added vectors the fold still references —
// updates parked awaiting predecessors, or every delta a retaining fold
// keeps. A caller that pools its vectors recycles one only when its Add
// left Pending unchanged.
func (f *SegmentFold) Pending() int {
	if f.deltas != nil {
		return f.count
	}
	return len(f.pending)
}
