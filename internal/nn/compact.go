// Package nn implements real GNN models — GCN, GraphSAGE and a
// PinSAGE-style convolution — with hand-written forward and backward
// passes over the tensor substrate. It exists so the convergence
// experiment (§7.7, Fig 16) trains a real model to a real accuracy target
// rather than simulating loss curves; it is also what a Trainer executes
// in the live runtime of internal/train.
package nn

import (
	"fmt"

	"gnnlab/internal/sampling"
)

// Compact is a sampling.Sample reshaped for GNN computation: a per-vertex
// sampled-neighbor CSR over local IDs, plus the per-level active prefix.
//
// GNNLab's sampler deduplicates vertices across hops (Figure 1): each
// unique vertex's neighborhood is sampled once, when first discovered, and
// reused by every GNN layer that needs it. Because local IDs are assigned
// in discovery order, the set of vertices a GNN level operates on is
// always a prefix of the local ID space.
type Compact struct {
	NumVertices int
	NumSeeds    int
	NumLevels   int // == number of GNN layers L

	// Needed[l] is how many local vertices need activations at level l:
	// Needed[0] = NumVertices (raw features), Needed[L] = NumSeeds.
	Needed []int

	// AdjStart/AdjNbr is a CSR of each local vertex's sampled neighbors.
	// Leaves (vertices never expanded) have empty lists.
	AdjStart []int32
	AdjNbr   []int32

	// Build scratch, reused across NewCompactInto calls on the same
	// Compact: per-vertex degree counts, the CSR fill cursor, and the
	// generation-stamped global-ID dedup table (the renumber-check
	// analogue of sampling's localizer — reset is a counter bump, not a
	// reallocation).
	counts []int32
	next   []int32
	dedup  stampTable
}

// NewCompactInto rebuilds c from s, reusing c's slices and dedup table;
// a zero Compact is ready to use. It returns an error when the sample's
// layer structure is inconsistent. The result does not depend on what c
// held before; in steady state (shapes no larger than a previous call's)
// it performs zero heap allocations. The rebuilt Compact is valid until
// the next NewCompactInto on the same c.
func NewCompactInto(c *Compact, s *sampling.Sample) error {
	if err := c.validateSample(s); err != nil {
		return err
	}
	l := len(s.Layers)
	c.NumVertices = len(s.Input)
	c.NumSeeds = len(s.Seeds)
	c.NumLevels = l
	c.Needed = growInts(c.Needed, l+1)
	c.Needed[0] = len(s.Input)
	for lv := 1; lv <= l; lv++ {
		// After GNN level lv, activations cover vertices known after
		// sampling hop L-lv.
		hop := l - lv
		if hop == 0 {
			c.Needed[lv] = len(s.Seeds)
		} else {
			c.Needed[lv] = s.Layers[hop-1].NumVertices
		}
	}

	counts := growInt32s(c.counts, c.NumVertices+1)
	clear(counts)
	for _, layer := range s.Layers {
		for _, d := range layer.Dst {
			counts[d+1]++
		}
	}
	c.counts = counts
	c.AdjStart = growInt32s(c.AdjStart, c.NumVertices+1)
	c.AdjStart[0] = 0
	for v := 0; v < c.NumVertices; v++ {
		c.AdjStart[v+1] = c.AdjStart[v] + counts[v+1]
	}
	c.AdjNbr = growInt32s(c.AdjNbr, int(c.AdjStart[c.NumVertices]))
	next := growInt32s(c.next, c.NumVertices)
	copy(next, c.AdjStart[:c.NumVertices])
	for _, layer := range s.Layers {
		for i, d := range layer.Dst {
			c.AdjNbr[next[d]] = layer.Src[i]
			next[d]++
		}
	}
	c.next = next
	return nil
}

// validateSample performs the structural checks of sampling's
// Sample.Validate without its per-call map allocation: the duplicate-
// global check runs on c's generation-stamped hash table instead.
func (c *Compact) validateSample(s *sampling.Sample) error {
	if len(s.Input) < len(s.Seeds) {
		return fmt.Errorf("nn: %d inputs but %d seeds", len(s.Input), len(s.Seeds))
	}
	for i, seed := range s.Seeds {
		if s.Input[i] != seed {
			return fmt.Errorf("nn: input[%d] = %d, want seed %d", i, s.Input[i], seed)
		}
	}
	c.dedup.reset(len(s.Input))
	for local, global := range s.Input {
		if !c.dedup.add(global) {
			return fmt.Errorf("nn: duplicate global vertex %d at local %d", global, local)
		}
	}
	if s.CachedMask != nil && len(s.CachedMask) != len(s.Input) {
		return fmt.Errorf("nn: CachedMask covers %d vertices, input has %d", len(s.CachedMask), len(s.Input))
	}
	known := len(s.Seeds)
	for li, l := range s.Layers {
		if len(l.Src) != len(l.Dst) {
			return fmt.Errorf("nn: layer %d: len(Src)=%d len(Dst)=%d", li, len(l.Src), len(l.Dst))
		}
		dstBound := known
		if s.Subgraph {
			// Induced subgraphs target every member of the layer.
			dstBound = l.NumVertices
		}
		for _, d := range l.Dst {
			if d < 0 || int(d) >= dstBound {
				return fmt.Errorf("nn: layer %d targets unknown local %d (bound %d)", li, d, dstBound)
			}
		}
		for _, src := range l.Src {
			if src < 0 || int(src) >= l.NumVertices {
				return fmt.Errorf("nn: layer %d: src local %d out of range %d", li, src, l.NumVertices)
			}
		}
		if l.NumVertices < known || l.NumVertices > len(s.Input) {
			return fmt.Errorf("nn: layer %d: NumVertices %d out of range [%d,%d]", li, l.NumVertices, known, len(s.Input))
		}
		known = l.NumVertices
	}
	if known != len(s.Input) {
		return fmt.Errorf("nn: layers cover %d locals, input has %d", known, len(s.Input))
	}
	return nil
}

// Neighbors returns the sampled neighbor locals of vertex v.
func (c *Compact) Neighbors(v int32) []int32 {
	return c.AdjNbr[c.AdjStart[v]:c.AdjStart[v+1]]
}

// Validate checks internal consistency.
func (c *Compact) Validate() error {
	if len(c.Needed) != c.NumLevels+1 {
		return fmt.Errorf("nn: Needed has %d entries for %d levels", len(c.Needed), c.NumLevels)
	}
	if c.Needed[0] != c.NumVertices || c.Needed[c.NumLevels] != c.NumSeeds {
		return fmt.Errorf("nn: Needed endpoints %d/%d, want %d/%d",
			c.Needed[0], c.Needed[c.NumLevels], c.NumVertices, c.NumSeeds)
	}
	for l := 1; l < len(c.Needed); l++ {
		if c.Needed[l] > c.Needed[l-1] {
			return fmt.Errorf("nn: Needed not non-increasing at level %d", l)
		}
	}
	for _, nbr := range c.AdjNbr {
		if nbr < 0 || int(nbr) >= c.NumVertices {
			return fmt.Errorf("nn: neighbor local %d out of range", nbr)
		}
	}
	return nil
}

// growInts returns buf resliced to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// growInt32s is growInts for []int32.
func growInt32s(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// stampTable is an open-addressed int32 hash set with generation-stamped
// O(1) reset (the idiom of sampling's localizer/visitCounter): a slot is
// occupied only when its generation entry matches the current one.
type stampTable struct {
	keys []int32
	gen  []uint32
	cur  uint32
	mask uint32
}

// reset empties the table for up to `expected` distinct keys.
func (t *stampTable) reset(expected int) {
	size := 16
	for size < expected*2 {
		size <<= 1
	}
	if len(t.keys) < size {
		t.keys = make([]int32, size)
		t.gen = make([]uint32, size)
		t.mask = uint32(size - 1)
		t.cur = 1
		return
	}
	t.cur++
	if t.cur == 0 { // generation counter wrapped: stamps are ambiguous
		clear(t.gen)
		t.cur = 1
	}
}

// add inserts v, reporting whether it was absent.
func (t *stampTable) add(v int32) bool {
	h := uint32(v+1) * 2654435761 & t.mask
	for {
		if t.gen[h] != t.cur {
			t.gen[h] = t.cur
			t.keys[h] = v
			return true
		}
		if t.keys[h] == v {
			return false
		}
		h = (h + 1) & t.mask
	}
}
