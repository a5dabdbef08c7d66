package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced call: a name whose prefix before the first dot names
// the layer, start and end offsets from the tracer's origin, the span that
// caused it (0 for a root), and the epoch it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Epoch  int    `json:"epoch"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// layer is the span name's prefix before the first dot.
func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the workload ends. A nil *tracer is
// the untraced mode: every method is a no-op, so call sites need no checks.
// Spans may open and close from several goroutines at once.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	epoch  int // id given to spans opened now; 0 outside timed epochs
	epochs int // epoch ids handed out so far
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newEpoch tags spans opened from now on with a fresh epoch id.
func (t *tracer) newEpoch() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.epochs++
	t.epoch = t.epochs
	t.mu.Unlock()
}

// endEpochs tags spans opened from now on as outside any timed epoch.
func (t *tracer) endEpochs() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.epoch = 0
	t.mu.Unlock()
}

// begin opens a span and returns its id (0 when untraced).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Epoch: t.epoch, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval covered by its direct children. Children may nest (a grandchild
// lies inside its parent, which is what is subtracted) and may overlap each
// other (concurrent workers): the union of the children's intervals,
// clipped to the parent, is subtracted once.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals within [lo, hi].
func covered(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.layer()] += self[s.ID]
	}
	return out
}
