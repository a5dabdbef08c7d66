// Command perfbench is the repository's benchmark: it drives the federation
// runtime from outside, through the public entry points of fednet, hfl,
// core, shapley, vfl and paillier, on one named workload per run.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run checks that the outputs it timed are correct, prints every metric
// by name and unit, and ends with one JSON line: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. See README.md for
// the workloads, the metrics and which layer each one loads.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workers is the worker budget every obs.Runtime in the benchmark gets.
const workers = 2

// workloads maps each workload name to its driver.
var workloads = map[string]func(r *runner) error{
	"net-stream":    netStream,
	"net-async-wal": netAsyncWAL,
	"hfl-contrib":   hflContrib,
	"vfl-secure":    vflSecure,
}

// e2eKeys and layerKeys are the metrics the final JSON line carries, in
// BENCHMARK.json order. Every workload reports all of them: end-to-end
// metrics are defined on every workload; a per-layer metric of a layer the
// workload leaves idle reads 0.
var e2eKeys = []string{"setup_s", "epochs_per_s", "epoch_p50_ms", "epoch_tail_ms", "peak_heap_mb"}

var layerKeys = []string{
	"driver.self_frac", "fednet.self_frac", "hfl.self_frac", "core.self_frac",
	"shapley.self_frac", "vfl.self_frac",
	"fednet.allocs_per_update", "fednet.rx_bytes_per_update", "fednet.tx_bytes_per_update",
	"fednet.buffered_frac", "fednet.wal_writes_per_epoch", "fednet.wal_bytes_per_epoch",
	"core.hvp_calls_per_epoch", "shapley.exact_evals_per_epoch", "shapley.valloss_calls_per_epoch",
	"paillier.enc_per_epoch", "paillier.dec_per_epoch", "paillier.add_per_epoch",
	"paillier.mulplain_per_epoch", "vfl.comm_bytes_per_epoch", "obs.trace_overhead_frac",
}

// layerUnits gives the unit of each per-layer JSON metric.
var layerUnits = map[string]string{
	"fednet.allocs_per_update": "count", "fednet.rx_bytes_per_update": "B",
	"fednet.tx_bytes_per_update": "B", "fednet.wal_writes_per_epoch": "count",
	"fednet.wal_bytes_per_epoch": "B", "core.hvp_calls_per_epoch": "count",
	"shapley.exact_evals_per_epoch": "count", "shapley.valloss_calls_per_epoch": "count",
	"paillier.enc_per_epoch": "count", "paillier.dec_per_epoch": "count",
	"paillier.add_per_epoch": "count", "paillier.mulplain_per_epoch": "count",
	"vfl.comm_bytes_per_epoch": "B",
}

func main() {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds of timed work")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	// Journals, traces and the exact-counter record go where run.sh puts
	// the build: under the checkout, which is the working directory.
	o.workdir = ".bench_build"
	drive, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(workers)
	r := newRunner(o)
	err := drive(r)
	if err == nil {
		err = r.finish()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", o.workload, err)
	}
	line, jerr := r.jsonLine(err == nil)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", o.workload, jerr)
		os.Exit(1)
	}
	fmt.Println(line)
	if err != nil {
		os.Exit(1)
	}
}

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

// metric is one reported value; n is its sample count (0 for counters) and
// note says how the value was taken when the name alone does not.
type metric struct {
	name, unit string
	value      float64
	n          int
	note       string
	layer      bool
}

// finish derives the generic metrics, runs the exact-counter self-check
// against earlier runs of the same seed, and prints the metric table.
func (r *runner) finish() error {
	r.deriveGeneric()
	if err := r.crossRunExact(); err != nil {
		return err
	}
	r.printTable()
	if len(r.drift) > 0 {
		return fmt.Errorf("exact counters drifted: %s", strings.Join(r.drift, "; "))
	}
	return nil
}

// printTable writes every metric, end-to-end then per-layer, with its
// sample count.
func (r *runner) printTable() {
	fmt.Printf("workload %s seed %d trace %v: %d jobs, %d timed epochs, %d attempted, %d failed\n",
		r.o.workload, r.o.seed, r.o.trace, r.jobs, r.epochs, r.ops.Load(), r.fails.Load())
	for _, m := range r.metrics {
		kind := "e2e  "
		if m.layer {
			if !r.o.trace {
				continue
			}
			kind = "layer"
		}
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf("n=%d", m.n)
		}
		fmt.Printf("  %s %-34s %16.6g %-6s %-9s %s\n", kind, m.name, m.value, m.unit, n, m.note)
	}
}

// jsonLine renders the result line the contract asks for.
func (r *runner) jsonLine(correct bool) (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: correct, Attempted: max(r.ops.Load(), 1), Failed: r.fails.Load(), Metrics: map[string]val{}}
	if correct {
		keys := e2eKeys
		if r.o.trace {
			keys = layerKeys
		}
		for _, k := range keys {
			m, ok := r.byName[k]
			switch {
			case ok:
				out.Metrics[k] = val{m.value, m.unit}
			case r.o.trace:
				out.Metrics[k] = val{0, layerUnit(k)}
			default:
				return "", fmt.Errorf("end-to-end metric %s was not measured", k)
			}
			if v := out.Metrics[k].Value; math.IsNaN(v) || math.IsInf(v, 0) {
				return "", fmt.Errorf("metric %s is %v", k, v)
			}
		}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

func layerUnit(k string) string {
	if u, ok := layerUnits[k]; ok {
		return u
	}
	return "frac"
}

// crossRunExact compares this run's exact counters with the record left by
// earlier runs of the same workload and seed in the work directory, and
// extends the record with counters it did not hold yet.
func (r *runner) crossRunExact() error {
	if len(r.exact) == 0 {
		return nil
	}
	dir := filepath.Join(r.o.workdir, "exact")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	build, err := buildID()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", r.o.workload, r.o.seed, build))
	prev := map[string]float64{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for _, k := range sortedKeys(r.exact) {
		v := r.exact[k]
		if p, ok := prev[k]; ok && math.Float64bits(p) != math.Float64bits(v) {
			r.drift = append(r.drift, fmt.Sprintf("%s = %v, an earlier run of this seed had %v", k, v, p))
		}
		prev[k] = v
	}
	b, err := json.Marshal(prev)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// buildID names this benchmark binary by a hash of its bytes, so a record
// left by a different build of the program is never compared against.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
