package experiments

import (
	"runtime"
	"testing"
)

// Rendered tables are byte-identical at any Workers setting: cells write
// only pre-sized slots and the per-cell measurement engine is itself
// deterministic. table1 covers the core.Run path (six system variants) and
// table6 core.Preprocess's PreSC ranking; figure10, the two ranking
// ablations and drift cover the analytic cache path (footprints, every
// policy's ranking, PreSC scores).
func assertRenderStable(t *testing.T, ids ...string) {
	t.Helper()
	for _, id := range ids {
		assertOneRenderStable(t, id)
	}
}

func assertOneRenderStable(t *testing.T, id string) {
	t.Helper()
	fn, ok := Lookup(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	render := func(workers int) string {
		o := Quick()
		o.Workers = workers
		tbl, err := fn(o)
		if err != nil {
			t.Fatalf("%s at Workers=%d: %v", id, workers, err)
		}
		return tbl.Render()
	}
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	base := render(counts[0])
	for _, w := range counts[1:] {
		if got := render(w); got != base {
			t.Errorf("%s renders differently at Workers=1 vs %d:\n--- Workers=1 ---\n%s\n--- Workers=%d ---\n%s",
				id, w, base, w, got)
		}
	}
}

func TestTable1RenderStableAcrossWorkers(t *testing.T) {
	assertRenderStable(t, "table1", "table6")
}

func TestFigure10RenderStableAcrossWorkers(t *testing.T) {
	assertRenderStable(t, "figure10", "ablation-subgraph", "ablation-coupling", "drift")
}
