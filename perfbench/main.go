// Command perfbench is the repository benchmark: it runs one named
// out-of-core mesh-generation workload on an in-process 2-node cluster for a
// fixed wall-clock window, verifies every result, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run) as
// one JSON object on the last line of standard output.
//
//	perfbench --workload updr-ooc --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, the metric definitions and the layer to
// end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed (cluster randomness and the S-UPDR conflict draw)")
	seconds := flag.Int("seconds", 30, "measurement window in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from traced runs")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	work := filepath.Join(".bench_build", "work", fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{name: *name, w: w, seed: *seed, work: work}
	window := time.Duration(*seconds) * time.Second
	var res result
	if *traced == 1 {
		res = b.runTraced(window, spec.PerLayer)
	} else {
		res = b.runUntraced(window, spec.EndToEnd)
	}
	if err := os.RemoveAll(work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: remove work dir:", err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the metrics each
// kind of run must print, so the names and units have one source.
type spec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(path string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// bench runs the iterations of one workload.
type bench struct {
	name string
	w    *workload
	seed int64
	work string
	n    int // operations started, for unique directories

	attempted, failed int
}

// sample is the metric values of one iteration.
type sample map[string]float64

// attempt runs one operation of the workload in a fresh directory and
// counts it; a failed operation returns nil.
func (b *bench) attempt(what string, op func(env) (sample, error), traced bool) sample {
	b.n++
	b.attempted++
	dir := filepath.Join(b.work, fmt.Sprintf("op%03d", b.n))
	s, err := op(env{dir: dir, seed: b.seed, traced: traced})
	if rmErr := os.RemoveAll(dir); err == nil && rmErr != nil {
		err = fmt.Errorf("remove %s: %w", dir, rmErr)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s %s %d failed: %v\n", b.name, what, b.n, err)
		return nil
	}
	return s
}

// iterate runs one verified iteration.
func (b *bench) iterate(traced bool) sample {
	s := b.attempt("iteration", b.w.iterate, traced)
	if s != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d traced=%v mesh_s=%.4f job_s=%.4f live_heap_mb=%.2f\n",
			b.name, b.n, traced, s["mesh_s"], s["job_s"], s["live_heap_mb"])
	}
	return s
}

// measure runs the warm-up iteration and then iterations until the window
// is spent, never starting one that the last iteration's duration says
// would overrun it (but always at least min). Measured iteration k is
// traced when traced(k) says so; the verified samples come back split into
// untraced and traced ones.
func (b *bench) measure(window time.Duration, min int, traced func(k int) bool) (plain, tr []sample) {
	// The warm-up iteration keeps first-call costs (heap growth, page
	// faults, lazily built tables) out of the measured medians. It is
	// verified and counted like any other.
	if b.iterate(false) == nil {
		return nil, nil
	}
	start := time.Now()
	var last time.Duration
	for k := 0; k < min || time.Since(start)+last <= window; k++ {
		t0 := time.Now()
		if traced(k) {
			if s := b.iterate(true); s != nil {
				tr = append(tr, s)
			}
		} else if s := b.iterate(false); s != nil {
			plain = append(plain, s)
		}
		last = time.Since(t0)
	}
	return plain, tr
}

// setupReps is the number of set-ups an untraced run times on their own,
// besides the one of every iteration: set-up takes about a millisecond, so
// its median needs more samples than the iterations give.
const setupReps = 20

func (b *bench) runUntraced(window time.Duration, defs []metricDef) result {
	samples, _ := b.measure(window, 1, func(int) bool { return false })
	if len(samples) == 0 {
		return b.result(defs, nil)
	}
	setups := column(samples, "setup_s")
	for i := 0; i < setupReps; i++ {
		if s := b.attempt("set-up", b.w.setUpOnly, false); s != nil {
			setups = append(setups, s["setup_s"])
		}
	}
	res := b.result(defs, samples)
	if m, ok := res.Metrics["setup_s"]; ok {
		res.Metrics["setup_s"] = metric{median(setups), m.Unit}
	}
	return res
}

func (b *bench) runTraced(window time.Duration, defs []metricDef) result {
	// Traced and untraced iterations alternate so the tracing overhead is
	// measured on the same machine state.
	plain, traced := b.measure(window, 2, func(k int) bool { return k%2 == 1 })
	if len(traced) > 0 && len(plain) > 0 {
		overhead := 100 * (median(column(traced, "mesh_s"))/median(column(plain, "mesh_s")) - 1)
		for _, s := range traced {
			s["trace.overhead_pct"] = overhead
		}
	}
	return b.result(defs, traced)
}

// result folds the samples into medians of the named metrics.
func (b *bench) result(defs []metricDef, samples []sample) result {
	res := result{
		Correct:   b.failed == 0 && len(samples) > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	if len(samples) == 0 {
		return res
	}
	var na []string
	for _, d := range defs {
		vals := column(samples, d.Name)
		if len(vals) == 0 {
			na = append(na, d.Name)
			res.Metrics[d.Name] = metric{0, d.Unit}
			continue
		}
		res.Metrics[d.Name] = metric{median(vals), d.Unit}
	}
	if len(na) > 0 {
		fmt.Printf("not applicable to %s (reported as 0): %s\n", b.name, strings.Join(na, " "))
	}
	return res
}

// column collects one metric across samples.
func column(samples []sample, name string) []float64 {
	var out []float64
	for _, s := range samples {
		if v, ok := s[name]; ok && !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
