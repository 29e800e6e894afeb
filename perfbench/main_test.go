package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gnnlab/internal/rng"
	"gnnlab/internal/serve"
)

func TestTailQuantileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5000, 0.99}, {1000, 0.99}, {999, 0.90}, {100, 0.90}, {99, 0.50}, {20, 0.50}, {3, 0.50}, {1, 0.50},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// 1000 samples 1..1000: p99 is the 990th, leaving ten beyond it.
	var d dist
	for i := 1000; i >= 1; i-- {
		d.add(float64(i))
	}
	if v, q := d.tail(); v != 990 || q != 0.99 {
		t.Errorf("tail of 1..1000 = %g at q=%g, want 990 at 0.99", v, q)
	}
	if m := d.median(); m != 500 {
		t.Errorf("median of 1..1000 = %g, want 500", m)
	}
	var empty dist
	if v, _ := empty.tail(); v != 0 || empty.median() != 0 {
		t.Errorf("empty sample reads %g / %g, want 0", v, empty.median())
	}
}

func TestServeLedger(t *testing.T) {
	for _, c := range []struct {
		sent, served, shed, expired int64
		ok                          bool
	}{
		{10, 10, 0, 0, true},
		{10, 7, 2, 1, true},
		{10, 7, 2, 0, false}, // one request unaccounted for
		{10, 8, 2, 1, false}, // one request counted twice
	} {
		if got := conserved(c.sent, c.served, c.shed, c.expired); got != c.ok {
			t.Errorf("conserved(%d, %d, %d, %d) = %v, want %v", c.sent, c.served, c.shed, c.expired, got, c.ok)
		}
	}
}

// TestServePhaseLedger offers a live server a light load, slow enough for
// the race detector, and checks that every request is accounted for.
func TestServePhaseLedger(t *testing.T) {
	r := &run{seed: 3, log: io.Discard, metrics: map[string]float64{}}
	d, err := convDataset(r.inputSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(d, serveOptions(r.inputSeed(2)))
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.New(r.inputSeed(3)).Perm(d.NumVertices())
	seen := &seenSet{at: make([]int64, d.NumVertices())}
	p, err := runPhase(r, s, d, perm, seen, rng.New(4), 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.failures) != 0 || r.failed != 0 {
		t.Fatalf("ledger failures: %v", r.failures)
	}
	t.Logf("sent %d, served %d", p.gen.sent, p.served)
	if p.served == 0 || p.served+p.expired+p.gen.shedFull+p.gen.shedDeadline != p.gen.sent {
		t.Fatalf("sent %d, served %d, expired %d, shed %d+%d", p.gen.sent, p.served, p.expired, p.gen.shedFull, p.gen.shedDeadline)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names, docNames []string
	for _, w := range workloads {
		names = append(names, w.name+": "+w.why)
	}
	for _, w := range doc.Workloads {
		docNames = append(docNames, w.Name+": "+w.Why)
	}
	if !reflect.DeepEqual(names, docNames) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", names, docNames)
	}
	check := func(kind string, want []metricDef, got []struct{ Name, Unit, Better string }) {
		var g []metricDef
		for _, m := range got {
			g = append(g, metricDef{m.Name, m.Unit, m.Better})
		}
		if !reflect.DeepEqual(want, g) {
			t.Errorf("%s metrics differ from the catalog:\ncatalog %v\njson    %v", kind, want, g)
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
}

// TestSmoke runs every workload briefly in both modes, checks the printed
// result and, for traced runs, validates the trace with scripts/tracecheck.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about a minute")
	}
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var stdout bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "7", "--seconds", "0.5", "--trace", trace, "-out", out}
				if err := mainErr(args, &stdout); err != nil {
					t.Fatalf("%v\n%s", err, stdout.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				catalog := endToEnd
				if trace == "1" {
					catalog = perLayer
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(catalog) {
					t.Fatalf("result %+v", res)
				}
				if trace == "0" {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end %s = %g, want > 0", name, m.Value)
						}
					}
					return
				}
				path := filepath.Join(out, "trace-"+w.name+"-seed7.json")
				cmd := exec.Command("go", "run", "./scripts/tracecheck", path)
				cmd.Dir = ".."
				if msg, err := cmd.CombinedOutput(); err != nil {
					t.Fatalf("tracecheck: %v\n%s", err, msg)
				}
			})
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout bytes.Buffer
	if err := mainErr([]string{"--workload", "nope"}, &stdout); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if strings.Contains(stdout.String(), "{") {
		t.Fatalf("printed a result: %s", stdout.String())
	}
}
