// Package graph implements the compressed-sparse-row (CSR) graph store that
// every other subsystem operates on: samplers read neighbor lists from it,
// the device model accounts its bytes when it is loaded into simulated GPU
// memory, and the generators in internal/gen produce it.
//
// Vertex IDs are dense int32 values in [0, NumVertices). Edges are directed;
// Adj(v) lists the out-neighbors of v, which for sample-based GNN training
// are the vertices whose features v aggregates.
package graph

import (
	"errors"
	"fmt"
)

// VertexID identifies a vertex. IDs are dense, starting at 0.
type VertexID = int32

// CSR is an immutable directed graph in compressed-sparse-row form — the
// base implementation of View.
// The out-neighbors of vertex v are ColIdx[RowPtr[v]:RowPtr[v+1]].
// If Weights is non-nil it is parallel to ColIdx and holds per-edge weights
// (e.g. the "registration year" used by weighted neighborhood sampling).
type CSR struct {
	RowPtr  []int64   // len NumVertices+1, monotonically non-decreasing
	ColIdx  []int32   // len NumEdges
	Weights []float32 // nil, or len NumEdges

	// maxDeg memoizes MaxDegree: 0 means "unknown" (struct-literal CSRs
	// never pay for what they don't use), so Build/ReadBinaryFrom/Compact
	// set it once at construction and MaxDegree becomes O(1) for every
	// graph on the normal path. An all-isolated-vertices graph stays at 0
	// and recomputes, which is the correct answer anyway.
	maxDeg int64
}

var _ View = (*CSR)(nil)

// NumVertices returns the number of vertices.
func (g *CSR) NumVertices() int { return len(g.RowPtr) - 1 }

// NumEdges returns the number of directed edges.
func (g *CSR) NumEdges() int64 { return g.RowPtr[len(g.RowPtr)-1] }

// Degree returns the out-degree of v.
func (g *CSR) Degree(v VertexID) int64 { return g.RowPtr[v+1] - g.RowPtr[v] }

// Adj returns the out-neighbor slice of v. The slice aliases graph storage
// and must not be modified.
func (g *CSR) Adj(v VertexID) []int32 { return g.ColIdx[g.RowPtr[v]:g.RowPtr[v+1]] }

// AdjWeights returns the weights parallel to Adj(v), or nil when the graph
// is unweighted.
func (g *CSR) AdjWeights(v VertexID) []float32 {
	if g.Weights == nil {
		return nil
	}
	return g.Weights[g.RowPtr[v]:g.RowPtr[v+1]]
}

// Weighted reports whether the graph carries edge weights.
func (g *CSR) Weighted() bool { return g.Weights != nil }

// TopologyBytes returns the in-memory size of the topology (row pointers +
// column indices + weights). This is the quantity the paper calls Vol_G and
// what a Sampler must fit in GPU memory.
func (g *CSR) TopologyBytes() int64 {
	b := int64(len(g.RowPtr))*8 + int64(len(g.ColIdx))*4
	if g.Weights != nil {
		b += int64(len(g.Weights)) * 4
	}
	return b
}

// TopologyBytesUnweighted returns the topology size excluding edge
// weights — what a Sampler loads for an unweighted sampling algorithm.
func (g *CSR) TopologyBytesUnweighted() int64 {
	return int64(len(g.RowPtr))*8 + int64(len(g.ColIdx))*4
}

// Validate checks structural invariants and returns a descriptive error for
// the first violation found.
func (g *CSR) Validate() error {
	if len(g.RowPtr) == 0 {
		return errors.New("graph: empty RowPtr")
	}
	if g.RowPtr[0] != 0 {
		return fmt.Errorf("graph: RowPtr[0] = %d, want 0", g.RowPtr[0])
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if g.RowPtr[v+1] < g.RowPtr[v] {
			return fmt.Errorf("graph: RowPtr not monotone at vertex %d", v)
		}
	}
	if got, want := int64(len(g.ColIdx)), g.RowPtr[n]; got != want {
		return fmt.Errorf("graph: len(ColIdx) = %d, want RowPtr[n] = %d", got, want)
	}
	for i, dst := range g.ColIdx {
		if dst < 0 || int(dst) >= n {
			return fmt.Errorf("graph: edge %d targets out-of-range vertex %d (n=%d)", i, dst, n)
		}
	}
	if g.Weights != nil {
		if len(g.Weights) != len(g.ColIdx) {
			return fmt.Errorf("graph: len(Weights) = %d, want %d", len(g.Weights), len(g.ColIdx))
		}
		for i, w := range g.Weights {
			if w < 0 || w != w { // negative or NaN
				return fmt.Errorf("graph: invalid weight %v at edge %d", w, i)
			}
		}
	}
	return nil
}

// OutDegrees returns the out-degree of every vertex.
func (g *CSR) OutDegrees() []int64 {
	n := g.NumVertices()
	d := make([]int64, n)
	for v := 0; v < n; v++ {
		d[v] = g.RowPtr[v+1] - g.RowPtr[v]
	}
	return d
}

// InDegrees returns the in-degree of every vertex.
func (g *CSR) InDegrees() []int64 {
	d := make([]int64, g.NumVertices())
	for _, dst := range g.ColIdx {
		d[dst]++
	}
	return d
}

// MaxDegree returns the largest out-degree in the graph — O(1) when the
// graph came from Builder.Build, ReadBinary or Delta.Compact (the value
// is memoized at construction), O(|V|) for hand-assembled struct
// literals. It never writes the memo itself: a CSR is shared by
// concurrent samplers, so lazily storing here would race.
func (g *CSR) MaxDegree() int64 {
	if g.maxDeg > 0 {
		return g.maxDeg
	}
	return g.computeMaxDegree()
}

func (g *CSR) computeMaxDegree() int64 {
	var m int64
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(int32(v)); d > m {
			m = d
		}
	}
	return m
}

// memoizeDegreeStats records the degree stats that are O(|V|) to scan,
// called once by every construction path before the graph is published.
func (g *CSR) memoizeDegreeStats() {
	g.maxDeg = g.computeMaxDegree()
}

// Reverse returns the transpose graph (every edge u->v becomes v->u).
// Weights, if present, follow their edges.
func (g *CSR) Reverse() *CSR {
	n := g.NumVertices()
	rowPtr := make([]int64, n+1)
	for _, dst := range g.ColIdx {
		rowPtr[dst+1]++
	}
	for v := 0; v < n; v++ {
		rowPtr[v+1] += rowPtr[v]
	}
	colIdx := make([]int32, len(g.ColIdx))
	var weights []float32
	if g.Weights != nil {
		weights = make([]float32, len(g.Weights))
	}
	next := make([]int64, n)
	copy(next, rowPtr[:n])
	for src := 0; src < n; src++ {
		base := g.RowPtr[src]
		for i, dst := range g.Adj(int32(src)) {
			p := next[dst]
			next[dst]++
			colIdx[p] = int32(src)
			if weights != nil {
				weights[p] = g.Weights[base+int64(i)]
			}
		}
	}
	rg := &CSR{RowPtr: rowPtr, ColIdx: colIdx, Weights: weights}
	rg.memoizeDegreeStats()
	return rg
}
