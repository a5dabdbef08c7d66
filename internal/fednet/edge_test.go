package fednet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"digfl/internal/hfl"
	"digfl/internal/tensor"
)

// TestEdgeFailoverAckedUpdateFolded pins the root's exactly-once rule on an
// edge-mode round: a member whose edge died reports directly and is acked
// 200, and its edge then posts a survivors-only partial without it. The
// acked update must fold into the edge's segment beside the partial — in
// either arrival order, to the same bits — never be acked and then dropped.
// A partial that claims the directly folded member is refused before any
// ack instead.
func TestEdgeFailoverAckedUpdateFolded(t *testing.T) {
	type post struct {
		path   string
		body   any
		status int
	}
	run := func(order []string) (*hfl.Epoch, []float64) {
		t.Helper()
		model, _, val := problemN(1, 2)
		cfg := testConfig()
		cfg.Epochs = 1
		var ep *hfl.Epoch
		coord := &Coordinator{N: 2, Model: model, Val: val, Cfg: cfg,
			Stream: hfl.MeanStream{}, Edges: 1,
			Observer: func(e *hfl.Epoch) { ep = e }}
		srv := httptest.NewServer(coord.Handler())
		defer srv.Close()
		htr := &http.Transport{}
		defer htr.CloseIdleConnections()
		client := &http.Client{Transport: htr}
		send := func(p post) {
			t.Helper()
			b, _ := json.Marshal(p.body)
			resp, err := client.Post(srv.URL+p.path, "application/json", bytes.NewReader(b))
			if err != nil {
				t.Fatalf("POST %s: %v", p.path, err)
			}
			resp.Body.Close()
			if resp.StatusCode != p.status {
				t.Fatalf("POST %s: status %d, want %d", p.path, resp.StatusCode, p.status)
			}
		}
		for i := 0; i < 2; i++ {
			send(post{"/v1/join", joinRequest{Protocol: Protocol, Index: i}, http.StatusOK})
		}
		done := make(chan error, 1)
		var res *hfl.Result
		go func() {
			var err error
			res, err = coord.Run(context.Background())
			done <- err
		}()

		var rr roundReply
		resp, err := client.Get(srv.URL + "/v1/round?t=1&vg=1")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&rr)
		resp.Body.Close()
		if err != nil || rr.State != StateOpen || rr.ValGrad == nil {
			t.Fatalf("round 1 poll: state %q err %v", rr.State, err)
		}
		d0, d1 := make([]float64, len(rr.Theta)), make([]float64, len(rr.Theta))
		for j := range d0 {
			d0[j], d1[j] = 0.01*float64(j%7+1), -0.02*float64(j%5+1)
		}
		posts := map[string]post{
			"direct": {"/v1/update", updateRequest{Protocol: Protocol, T: 1, Index: 1, Delta: d1}, http.StatusOK},
			"partial": {"/v1/partial", partialRequest{Protocol: Protocol, T: 1, Edge: 0,
				Indices: []int{0}, Sum: d0, Dots: []float64{tensor.Dot(rr.ValGrad, d0)}}, http.StatusOK},
			"claim": {"/v1/partial", partialRequest{Protocol: Protocol, T: 1, Edge: 0,
				Indices: []int{0, 1}, Sum: tensor.Add(d0, d1),
				Dots: []float64{tensor.Dot(rr.ValGrad, d0), tensor.Dot(rr.ValGrad, d1)}}, http.StatusConflict},
		}
		for _, name := range order {
			send(posts[name])
		}
		if err := <-done; err != nil {
			t.Fatalf("run: %v", err)
		}
		return ep, res.Model.Params()
	}

	a, thetaA := run([]string{"direct", "partial"})
	b, thetaB := run([]string{"partial", "direct"})
	for _, ep := range []*hfl.Epoch{a, b} {
		if ep.Reported != nil || len(ep.DeltaDots) != 2 {
			t.Fatalf("epoch lost the acked failover update: Reported=%v with %d dots",
				ep.Reported, len(ep.DeltaDots))
		}
	}
	if !sameVec(a.DeltaDots, b.DeltaDots) || !sameVec(thetaA, thetaB) {
		t.Fatalf("fold depends on arrival order: dots %v vs %v", a.DeltaDots, b.DeltaDots)
	}
	// The reverse conflict: the direct update folded first, so a partial
	// that also claims the member is superseded with 409 stale_round; the
	// edge's survivors-only retry then folds.
	c, thetaC := run([]string{"direct", "claim", "partial"})
	if c.Reported != nil || !sameVec(a.DeltaDots, c.DeltaDots) || !sameVec(thetaA, thetaC) {
		t.Fatalf("superseded partial changed the epoch: Reported=%v dots %v", c.Reported, c.DeltaDots)
	}
}
