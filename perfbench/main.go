// Command perfbench is gnnlab's repository benchmark. One invocation runs
// one workload for a fixed time, checks the workload's outputs and prints
// one JSON result line as the last line of standard output:
//
//	perfbench --workload serve-zipf --seed 3 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// all tracing off. With --trace 1 it holds the per-layer metrics, timed
// from outside each layer around calls into its exported functions, and
// the run writes a Perfetto trace of those calls to the -out directory.
// README.md lists every metric and the workload it comes from.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"gnnlab/internal/obs"
	"gnnlab/internal/rng"
)

// workloadDef is one named workload and the reason it is in the benchmark.
type workloadDef struct {
	name string
	why  string
	run  func(r *run) error
}

// workloads are the benchmark's workloads; each why is the one in
// BENCHMARK.json.
var workloads = []workloadDef{
	{"train-conv", "Live factored Train on CONV: forward+backward is ~57 of each ~62 ms minibatch, so nn/tensor changes show here and sampling, off the critical path, should not", runTrainConv},
	{"serve-zipf", "Open-loop Zipf traffic at 1000/4000/8000 req/s on a live server: admission and per-Step cost at low load, microbatching at the knee, capacity past it; reranks write the cache", runServeZipf},
	{"sim-sweep-pa", "Table 4 reproduction on PA/2, 4 designs x 3 models: real sampling over 8M edges, PreSC ranking and the simulator with no nn, so sampling/graph/cache/sim changes show here", runSimSweep},
}

// run is the state of one benchmark invocation shared by the workloads.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	// rec collects spans and program counters in a traced run; nil in
	// an untraced run, which keeps every instrumented path disabled.
	rec      *obs.Recorder
	recStart time.Time
	log      io.Writer

	metrics    map[string]float64
	liveHeapMB float64
	attempted  int64
	failed     int64
	failures   []string
}

// inputSeed derives the seed of one input stream from the run's seed, so
// the same --seed always yields the same inputs.
func (r *run) inputSeed(stream uint64) uint64 {
	return rng.New(r.seed).Split(stream).Uint64()
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// setDist reports a distribution as name_p50<suffix> and
// name_tail<suffix>, and logs the tail's percentile and sample count.
func (r *run) setDist(name, suffix string, d *dist) {
	r.set(name+"_p50"+suffix, d.median())
	v, q := d.tail()
	r.set(name+"_tail"+suffix, v)
	r.logf("%s_tail%s = %s", name, suffix, describeTail(q, d.n()))
}

// noteLiveHeap collects garbage and records the heap still reachable, so
// the run reports the most memory a unit of work's results held. Callers
// invoke it outside timed regions, with the results still referenced.
func (r *run) noteLiveHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.liveHeapMB = max(r.liveHeapMB, float64(ms.HeapAlloc)/(1<<20))
}

// check records a failed output check; a run with any failure is not
// correct.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "# "+format+"\n", args...)
}

// deadline is when the measured phase that starts now must end.
func (r *run) deadline() time.Time {
	return time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultOf assembles the printed result: every metric of the catalog the
// run's mode reports. A per-layer metric of a layer this workload does not
// exercise reads 0, and end-to-end figures a traced run measures on the
// way are left out; a metric in neither catalog is a bug in the benchmark.
func (r *run) resultOf() (result, error) {
	catalog := endToEnd
	if r.trace {
		catalog = perLayer
	}
	known := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[m.name] = true
	}
	res := result{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range catalog {
		v, ok := r.metrics[m.name]
		if !ok && !r.trace {
			return res, fmt.Errorf("end-to-end metric %s not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	for name := range r.metrics {
		if !known[name] {
			return res, fmt.Errorf("metric %s is not in the catalog", name)
		}
	}
	if res.Attempted < 1 {
		return res, errors.New("no operation attempted")
	}
	return res, nil
}

// commit is the VCS revision the binary was built from, when known.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run, 0 for end-to-end")
	out := fs.String("out", ".bench_build/perfbench", "directory for traces")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var w *workloadDef
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", *seconds)
	}
	r := &run{
		workload: w.name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		out: *out, log: stdout, metrics: map[string]float64{},
	}
	r.logf("perfbench workload=%s seed=%d seconds=%g trace=%d", w.name, r.seed, r.seconds, *trace)
	r.logf("why: %s", w.why)
	r.logf("nproc=%d GOMAXPROCS=%d go=%s commit=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	var tracePath string
	if r.trace {
		r.rec = obs.NewRecorder()
		r.recStart = time.Now()
		tracePath = filepath.Join(r.out, fmt.Sprintf("trace-%s-seed%d.json", w.name, r.seed))
	}
	if err := w.run(r); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if !r.trace {
		r.set("live_heap_mb", r.liveHeapMB)
	} else if err := writeTrace(r.rec, tracePath); err != nil {
		return err
	} else {
		r.logf("trace: %s", tracePath)
	}
	res, err := r.resultOf()
	if err != nil {
		return err
	}
	for _, f := range r.failures {
		r.logf("CHECK FAILED: %s", f)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.logf("%-34s %14.6g %s", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

// writeTrace writes the recorder's spans as Perfetto trace-event JSON.
func writeTrace(rec *obs.Recorder, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
