package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"digfl/internal/dataset"
	"digfl/internal/fednet"
	"digfl/internal/hfl"
	"digfl/internal/obs"
	"digfl/internal/tensor"
)

// client plays participants against a coordinator's wire handler with
// direct ServeHTTP calls from one closed-loop goroutine: no sockets, so
// the measured time and bytes are the protocol's own.
type client struct {
	r  *runner
	h  http.Handler
	tr *tracer
	// rx and tx count request and response body bytes while counting is on.
	rx, tx   int64
	counting bool
	// cur, when set, holds the id of the request span ServeHTTP is in, so
	// work the request causes elsewhere (a journal write) can name it.
	cur *atomic.Int64
}

// serve sends one request, times ServeHTTP alone under the named span, and
// checks the status against the expected set. It returns the recorder and
// the ServeHTTP duration.
func (c *client) serve(span string, parent int, method, target, ctype string, body []byte, want ...int) (*httptest.ResponseRecorder, time.Duration, error) {
	req := request(method, target, ctype, body)
	rec := httptest.NewRecorder()
	id := c.tr.begin(span, parent)
	if c.cur != nil {
		c.cur.Store(int64(id))
	}
	t0 := time.Now()
	c.h.ServeHTTP(rec, req)
	d := time.Since(t0)
	if c.cur != nil {
		c.cur.Store(int64(parent))
	}
	c.tr.end(id)
	if c.counting {
		c.rx += int64(len(body))
		c.tx += int64(rec.Body.Len())
	}
	ok := false
	for _, w := range want {
		ok = ok || rec.Code == w
	}
	var err error
	if !ok {
		err = fmt.Errorf("%s %s: status %d, want %v: %s", method, target, rec.Code, want, rec.Body.String())
	}
	return rec, d, c.r.op(err)
}

// request builds the request the handler sees directly, without parsing
// request text the way httptest.NewRequest does, so the driver's own cost
// per call stays small beside the handler's.
func request(method, target, ctype string, body []byte) *http.Request {
	path, query, _ := strings.Cut(target, "?")
	req := &http.Request{
		Method: method, URL: &url.URL{Path: path, RawQuery: query},
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, Host: "perfbench", RequestURI: target, Body: http.NoBody,
	}
	if body != nil {
		req.Header["Content-Type"] = []string{ctype}
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
	}
	return req
}

// pollTarget is participant i's broadcast poll for round t in the binary
// codec.
func pollTarget(t, i int) string {
	return "/v1/round?t=" + strconv.Itoa(t) + "&i=" + strconv.Itoa(i) + "&c=2"
}

// join claims every slot in [0, n), offering the binary codec the way
// fednet.Participant does. Every 100th join is traced.
func (c *client) join(n int) error {
	for i := 0; i < n; i++ {
		body := []byte(`{"protocol":"` + fednet.Protocol + `","index":` + strconv.Itoa(i) +
			`,"accept":["` + fednet.ProtocolV2 + `"]}`)
		tr := c.tr
		if i%100 != 0 {
			c.tr = nil
		}
		_, d, err := c.serve("fednet.join", 0, "POST", "/v1/join", "application/json", body, http.StatusOK)
		c.tr = tr
		if err != nil {
			return err
		}
		if i%100 == 0 {
			c.r.sample(tr, "fednet.join_us", float64(d)/float64(time.Microsecond))
		}
	}
	return nil
}

// synth is the source of the networked workloads' local updates: cheap,
// deterministic in (seed, participant), and full precision. Participant i's
// update is a window of a seeded vector, scaled like a small SGD step.
type synth struct {
	dim  int
	base []float64
}

func newSynth(seed int64, dim int) *synth {
	s := &synth{dim: dim, base: make([]float64, 2*dim)}
	tensor.NewRNG(seed).Normal(s.base, 0, 1e-3)
	return s
}

// fill writes participant i's update into dst.
func (s *synth) fill(dst []float64, i int) {
	off := (i * 7919) % s.dim
	copy(dst, s.base[off:off+s.dim])
}

// valSet is the coordinator's validation data for a d-parameter linear model.
func valSet(seed int64, d int) dataset.Dataset {
	return dataset.SynthTabular(dataset.TabularConfig{
		Name: "benchval", N: 24, D: d, Task: dataset.Regression,
		Informative: 8, Noise: 0.3, Seed: seed,
	})
}

// encodeUpdate builds participant i's round-t update and its v2 frame under
// the driver.encode span. The caller returns the frame with tensor.PutBytes.
func (c *client) encodeUpdate(parent int, s *synth, delta []float64, t, i int) ([]byte, error) {
	id := c.tr.begin("driver.encode", parent)
	t0 := time.Now()
	s.fill(delta, i)
	body, err := fednet.CodecV2.EncodeUpdate(t, i, delta)
	c.r.sample(c.tr, "driver.encode_us", float64(time.Since(t0))/float64(time.Microsecond))
	c.tr.end(id)
	return body, c.r.op(err)
}

// captureSink records the durations the program already emits for
// estimator rounds; it rides obs.Tee beside an obs.Collector in traced jobs.
type captureSink struct {
	r  *runner
	tr *tracer
}

func (s captureSink) Emit(e obs.Event) {
	if e.Kind == obs.KindEstimatorRound {
		s.r.sample(s.tr, "core.estimator_round_us", float64(e.Dur)/float64(time.Microsecond))
	}
}

// tamper injects one defect into a job's outputs or journal, so tests can
// show that each correctness check fails a wrong run.
type tamper struct {
	flipModelBit bool // flip the lowest bit of the first model parameter
	perturbPhi   bool // move the first φ total by one ulp
	dropWrite    int  // drop the k-th journal write (1-based); 0 drops none
}

func (tp *tamper) apply(params, phi []float64) {
	if tp == nil {
		return
	}
	if tp.flipModelBit && len(params) > 0 {
		params[0] = math.Float64frombits(math.Float64bits(params[0]) ^ 1)
	}
	if tp.perturbPhi {
		phi[0] = math.Nextafter(phi[0], math.Inf(1))
	}
}

// sameBits is bitwise slice equality.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkRun compares a networked run with its in-process reference: model
// bits, loss curve and φ totals must be identical.
func checkRun(got, want *hfl.Result, gotPhi, wantPhi []float64) error {
	switch {
	case !sameBits(got.Model.Params(), want.Model.Params()):
		return fmt.Errorf("model bits differ from the in-process reference")
	case !sameBits(got.ValLossCurve, want.ValLossCurve):
		return fmt.Errorf("loss curve differs from the in-process reference")
	case !sameBits(gotPhi, wantPhi):
		return fmt.Errorf("φ totals differ from the in-process reference")
	}
	return nil
}
