package main

import (
	"strconv"
	"strings"
	"testing"
)

// Each correctness check must fail a run that is wrong by one bit, one ulp
// of φ or one lost journal write, so a change that skips work cannot pass
// by being fast. Every test first shows the untampered job passes.

func testRunner(t *testing.T) *runner {
	t.Helper()
	return newRunner(opts{seed: 3, seconds: 1, workdir: t.TempDir()})
}

var (
	streamSmall  = streamShape{pop: 300, cohort: 8, dim: 64, epochs: 3}
	asyncSmall   = asyncShape{n: 6, dim: 32, epochs: 6, quorum: 4, maxStale: 2, straggler: 0.5}
	contribSmall = contribShape{n: 4, samples: 240, hidden: 4, epochs: 2, lr: 0.3}
	vflSmall     = vflShape{rows: 24, feats: 8, parties: 4, epochs: 2, keyBits: 256, lr: 0.05}
)

func wantFail(t *testing.T, err error, what string) {
	t.Helper()
	if err == nil {
		t.Fatalf("a run with %s passed its correctness check", what)
	}
	t.Logf("%s: %v", what, err)
}

func TestStreamCheckBites(t *testing.T) {
	r := testRunner(t)
	cohorts := streamCohorts(r.o.seed, streamSmall)
	if _, err := streamJob(r, streamSmall, cohorts, nil, nil); err != nil {
		t.Fatalf("untampered job: %v", err)
	}
	_, err := streamJob(r, streamSmall, cohorts, nil, &tamper{flipModelBit: true})
	wantFail(t, err, "one flipped model bit")
	_, err = streamJob(r, streamSmall, cohorts, nil, &tamper{perturbPhi: true})
	wantFail(t, err, "one perturbed φ")
}

func TestAsyncCheckBites(t *testing.T) {
	r := testRunner(t)
	out, err := asyncJob(r, asyncSmall, nil, nil)
	if err != nil {
		t.Fatalf("untampered job: %v", err)
	}
	if out.exact["buffered_frac"] == 0 {
		t.Fatal("no update was buffered: the lag schedule never fired")
	}
	_, err = asyncJob(r, asyncSmall, nil, &tamper{flipModelBit: true})
	wantFail(t, err, "one flipped model bit")
	_, err = asyncJob(r, asyncSmall, nil, &tamper{perturbPhi: true})
	wantFail(t, err, "one perturbed φ")
	writes := int(out.exact["wal_writes_per_epoch"] * float64(asyncSmall.epochs))
	for _, k := range []int{2, writes / 2, writes - 1, writes} {
		_, err = asyncJob(r, asyncSmall, nil, &tamper{dropWrite: k})
		wantFail(t, err, "journal write "+strconv.Itoa(k)+" of "+strconv.Itoa(writes)+" dropped")
	}
}

func TestContribCheckBites(t *testing.T) {
	r := testRunner(t)
	if _, err := contribJob(r, contribSmall, nil, nil); err != nil {
		t.Fatalf("untampered job: %v", err)
	}
	_, err := contribJob(r, contribSmall, nil, &tamper{perturbPhi: true})
	wantFail(t, err, "one perturbed φ")
}

func TestContribTracedCounters(t *testing.T) {
	r := testRunner(t)
	r.o.trace = true
	out, err := contribJob(r, contribSmall, newTracer(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Alg. 1 makes one HVP per participant per epoch; exact enumerates
	// every non-empty coalition of the n participants.
	if got := out.exact["hvp_calls_per_epoch"]; got != float64(contribSmall.n) {
		t.Errorf("hvp calls per epoch = %v, want %d", got, contribSmall.n)
	}
	if got, want := out.exact["exact_evals_per_epoch"], float64(int(1)<<contribSmall.n-1); got < want {
		t.Errorf("exact evals per epoch = %v, want at least %v", got, want)
	}
}

func TestSecureCheckBites(t *testing.T) {
	r := testRunner(t)
	if _, err := vflJob(r, vflSmall, nil, nil); err != nil {
		t.Fatalf("untampered job: %v", err)
	}
	_, err := vflJob(r, vflSmall, nil, &tamper{flipModelBit: true})
	wantFail(t, err, "θ moved beyond tolerance")
	_, err = vflJob(r, vflSmall, nil, &tamper{perturbPhi: true})
	wantFail(t, err, "φ moved beyond tolerance")
}

func TestExactDriftIsReported(t *testing.T) {
	r := testRunner(t)
	r.o.seconds = 1e-9
	r.minJobs = 3
	jobs := []map[string]float64{{"bytes_per_update": 100}, {"bytes_per_update": 100}, {"bytes_per_update": 101}}
	n := 0
	err := r.loop(func(*tracer, bool) (*jobOut, error) {
		out := &jobOut{exact: jobs[min(n, len(jobs)-1)], epochMS: samples{1}, timed: 1}
		n++
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.drift) == 0 || !strings.Contains(r.drift[0], "bytes_per_update") {
		t.Fatalf("drift %v, want bytes_per_update reported", r.drift)
	}
}
