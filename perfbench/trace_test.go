package main

import "testing"

func TestSelfTimeNested(t *testing.T) {
	// root [0,100) ⊃ child [10,40) ⊃ grandchild [15,25); child2 [50,60).
	spans := []span{
		{ID: 1, Name: "driver.epoch", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "fednet.update", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "fednet.wal_write", Start: 15, End: 25},
		{ID: 4, Parent: 1, Name: "driver.encode", Start: 50, End: 60},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 60, 2: 20, 3: 10, 4: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
	layers := layerSelf(spans)
	if layers["driver"] != 70 || layers["fednet"] != 30 {
		t.Errorf("layer self = %v, want driver 70 fednet 30", layers)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Two workers' children overlap on [30,40); one child spills past the
	// parent's end and is clipped. Covered: [20,40) ∪ [60,80) = 40.
	spans := []span{
		{ID: 1, Name: "shapley.exact_observe", Start: 0, End: 80},
		{ID: 2, Parent: 1, Name: "shapley.valloss", Start: 20, End: 40},
		{ID: 3, Parent: 1, Name: "shapley.valloss", Start: 30, End: 35},
		{ID: 4, Parent: 1, Name: "shapley.valloss", Start: 60, End: 90},
	}
	if got := selfTimes(spans)[1]; got != 40 {
		t.Fatalf("parent self = %d, want 40", got)
	}
}

func TestSelfTimeIdenticalAndAdjacentChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "core.alg1_observe", Start: 0, End: 50},
		{ID: 2, Parent: 1, Name: "core.hvp", Start: 10, End: 20},
		{ID: 3, Parent: 1, Name: "core.hvp", Start: 10, End: 20},
		{ID: 4, Parent: 1, Name: "core.hvp", Start: 20, End: 30},
	}
	if got := selfTimes(spans)[1]; got != 30 {
		t.Fatalf("parent self = %d, want 30", got)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x.y", 0)
	tr.end(id)
	tr.newEpoch()
	if id != 0 || tr.closed() != nil {
		t.Fatal("a nil tracer must record nothing")
	}
}

func TestTracerEpochsAndParents(t *testing.T) {
	tr := newTracer()
	tr.newEpoch()
	root := tr.begin("driver.epoch", 0)
	kid := tr.begin("fednet.update", root)
	tr.end(kid)
	tr.end(root)
	tr.endEpochs()
	open := tr.begin("fednet.join", 0)
	_ = open
	got := tr.closed()
	if len(got) != 2 {
		t.Fatalf("%d closed spans, want 2 (an open span is not written)", len(got))
	}
	if got[1].Parent != root || got[0].Epoch != 1 || got[1].Epoch != 1 {
		t.Fatalf("spans %+v: want the child under the root, both in epoch 1", got)
	}
}
