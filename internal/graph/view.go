package graph

import (
	"math/bits"
	"sort"
)

// View is the read-only graph contract every subsystem above this layer
// operates on: samplers read neighbor lists from it, the cache layer
// derives hotness metrics over it, and the device model accounts its
// topology bytes. CSR is the immutable base implementation; Snapshot is
// the delta-overlay implementation a Delta hands out for dynamic graphs.
//
// Implementations must be immutable once published: a View handed to a
// sampler never changes, so in-flight epochs and concurrent executors
// always see a consistent graph (snapshot isolation). Adj and AdjWeights
// return slices aliasing graph storage — callers must not modify them.
type View interface {
	// NumVertices returns the number of vertices; IDs are dense in
	// [0, NumVertices).
	NumVertices() int
	// NumEdges returns the number of directed edges.
	NumEdges() int64
	// Degree returns the out-degree of v.
	Degree(v VertexID) int64
	// Adj returns the out-neighbor slice of v, sorted by destination ID.
	Adj(v VertexID) []int32
	// AdjWeights returns the weights parallel to Adj(v), or nil when the
	// graph is unweighted.
	AdjWeights(v VertexID) []float32
	// Weighted reports whether the graph carries edge weights.
	Weighted() bool

	// Degree-stat helpers shared by the cache policies, the generators'
	// shape checks and the CLI stat printers.
	TopologyBytes() int64
	TopologyBytesUnweighted() int64
	OutDegrees() []int64
	InDegrees() []int64
	MaxDegree() int64
}

// NeighborDecoder is the optional decode fast path a compressed View
// implements alongside View. AdjInto decodes the out-neighbors of v into
// buf when cap(buf) suffices, into a freshly allocated slice otherwise,
// and returns the decoded row. Unlike View.Adj the result never aliases
// graph storage: it is owned by the caller, who may mutate it in place
// and should keep the returned slice as the next call's buf so decode
// capacity is reused (the sampling scratch arenas thread one such buffer
// per arena, keeping pooled steady-state sampling at 0 allocs/op).
//
// Views whose Adj already returns an aliasing slice at O(1) cost (CSR,
// Snapshot) deliberately do not implement this interface: for them Adj
// is the fast path and a decode copy would be pure overhead. Samplers
// type-assert once per Sample call and fall back to Adj.
type NeighborDecoder interface {
	AdjInto(v VertexID, buf []int32) []int32
}

// SelectTop partially sorts ids so that ids[:k] holds the least k elements
// under less, in sorted order — the O(|V|) expected-time introselect
// behind the cache layer's RankTop and top-set selection. less must be a strict
// total order (callers break ties by ascending vertex ID), which makes the
// k-prefix — and its sorted order — the unique top-k regardless of
// partition pivots: results are bit-identical to sorting everything and
// truncating. A depth cutoff bounds the adversarial case at O(|V| log |V|);
// the routine draws no randomness at all.
func SelectTop(ids []int32, k int, less func(a, b int32) bool) {
	if k <= 0 {
		return
	}
	if k >= len(ids) {
		sort.Slice(ids, func(a, b int) bool { return less(ids[a], ids[b]) })
		return
	}
	lo, hi := 0, len(ids)
	// Depth budget before falling back to sorting the remaining window:
	// quickselect halves the window in expectation each round.
	budget := 2 * bits.Len(uint(len(ids)))
	for lo < hi {
		if hi-lo <= 32 || budget == 0 {
			// Small window (or pathological pivots): sorting it settles
			// every remaining boundary position at once.
			w := ids[lo:hi]
			sort.Slice(w, func(a, b int) bool { return less(w[a], w[b]) })
			break
		}
		budget--
		p := selPartition(ids, lo, hi, less)
		if p == k-1 {
			break
		}
		if p < k-1 {
			lo = p + 1
		} else {
			hi = p
		}
	}
	prefix := ids[:k]
	sort.Slice(prefix, func(a, b int) bool { return less(prefix[a], prefix[b]) })
}

// selPartition is a Lomuto partition of ids[lo:hi] around a median-of-three
// pivot; it returns the pivot's final index.
func selPartition(ids []int32, lo, hi int, less func(a, b int32) bool) int {
	mid := lo + (hi-lo)/2
	last := hi - 1
	// Median of first/middle/last lands at `last` to serve as the pivot.
	if less(ids[mid], ids[lo]) {
		ids[mid], ids[lo] = ids[lo], ids[mid]
	}
	if less(ids[last], ids[lo]) {
		ids[last], ids[lo] = ids[lo], ids[last]
	}
	if less(ids[mid], ids[last]) {
		ids[mid], ids[last] = ids[last], ids[mid]
	}
	pivot := ids[last]
	store := lo
	for i := lo; i < last; i++ {
		if less(ids[i], pivot) {
			ids[i], ids[store] = ids[store], ids[i]
			store++
		}
	}
	ids[store], ids[last] = ids[last], ids[store]
	return store
}
