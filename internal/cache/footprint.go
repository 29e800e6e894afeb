package cache

import (
	"gnnlab/internal/graph"
	"gnnlab/internal/sampling"
)

// Footprint records what a run of the Sample stage touched: per-vertex
// extraction counts (how many mini-batches needed each vertex's feature)
// and per-vertex visit counts (every sampled occurrence). It is the basis
// for the Optimal oracle, for analytic hit-rate evaluation (Figs 4, 5,
// 10, 11), and for the epoch-similarity metric of Table 2.
type Footprint struct {
	// Extractions[v]: number of mini-batches whose unique input set
	// contained v; Σ_v Extractions[v] = total feature rows extracted.
	Extractions []int64
	// Visits[v]: total sampled occurrences of v.
	Visits []int64
	// TotalExtractions across the run.
	TotalExtractions int64
	Epochs           int
	SampledEdges     int64
	ScannedEdges     int64
}

// CollectFootprint runs `epochs` epochs of the Sample stage on a pool of
// `workers` goroutines (0 = GOMAXPROCS, 1 = serial) and records the
// footprint. Deterministic in (g, alg, trainSet, batchSize, seed) — the
// replay uses the (epoch, batch) RNG-split convention shared with
// internal/core.Run, so with the same seed it reproduces a measured run's
// footprint exactly (the Optimal oracle's contract, §3 footnote 4).
// Per-worker footprints are merged at the end; all absorbed quantities
// are commutative sums, so the result is bit-identical at any worker
// count.
func CollectFootprint(g graph.View, alg sampling.Algorithm, trainSet []int32, batchSize, epochs int, seed uint64, workers int) *Footprint {
	n := g.NumVertices()
	accs := replaySampling(g, alg, trainSet, batchSize, epochs, seed, workers,
		func() *Footprint {
			return &Footprint{Extractions: make([]int64, n), Visits: make([]int64, n)}
		},
		func(fp *Footprint, _ int, s *sampling.Sample) { fp.Absorb(s) })
	fp := &Footprint{
		Extractions: make([]int64, n),
		Visits:      make([]int64, n),
		Epochs:      epochs,
	}
	for _, acc := range accs {
		fp.Merge(acc)
	}
	return fp
}

// Merge adds another footprint's counts into fp (Epochs is not touched:
// merging partial footprints of the same run does not change the epoch
// count they jointly cover).
func (fp *Footprint) Merge(other *Footprint) {
	fp.SampledEdges += other.SampledEdges
	fp.ScannedEdges += other.ScannedEdges
	fp.TotalExtractions += other.TotalExtractions
	for v, c := range other.Extractions {
		fp.Extractions[v] += c
	}
	for v, c := range other.Visits {
		fp.Visits[v] += c
	}
}

// Absorb adds one sample's footprint.
func (fp *Footprint) Absorb(s *sampling.Sample) {
	fp.SampledEdges += s.SampledEdges
	fp.ScannedEdges += s.ScannedEdges
	for _, v := range s.Input {
		fp.Extractions[v]++
	}
	fp.TotalExtractions += int64(len(s.Input))
	for _, v := range s.Seeds {
		fp.Visits[v]++
	}
	for _, l := range s.Layers {
		for _, src := range l.Src {
			fp.Visits[s.Input[src]]++
		}
	}
}

// OptimalHotness returns the oracle metric: rank by actual extraction
// count in the measured run.
func (fp *Footprint) OptimalHotness() Hotness {
	return CountHotness(fp.Extractions)
}

// HitRate evaluates analytically the cache hit rate that caching the first
// `slots` vertices of ranking would have achieved on this footprint.
func (fp *Footprint) HitRate(ranking []int32, slots int) float64 {
	if fp.TotalExtractions == 0 {
		return 0
	}
	var hits int64
	for i := 0; i < slots && i < len(ranking); i++ {
		hits += fp.Extractions[ranking[i]]
	}
	return float64(hits) / float64(fp.TotalExtractions)
}

// TransferredBytes evaluates the host→GPU feature traffic the footprint
// implies under a given cache: every extraction of an uncached vertex
// moves one feature row.
func (fp *Footprint) TransferredBytes(ranking []int32, slots int, vertexFeatureBytes int64) int64 {
	var hits int64
	for i := 0; i < slots && i < len(ranking); i++ {
		hits += fp.Extractions[ranking[i]]
	}
	return (fp.TotalExtractions - hits) * vertexFeatureBytes
}

// EpochFootprint is the footprint of a single epoch, used by the
// epoch-to-epoch similarity analysis (Table 2).
type EpochFootprint struct {
	Visits []int64
}

// CollectEpochFootprints runs `epochs` epochs and returns each epoch's
// visit counts separately. It uses the same (epoch, batch) RNG keying and
// worker pool (0 = GOMAXPROCS, 1 = serial) as CollectFootprint, with
// per-worker per-epoch accumulators merged at the end.
func CollectEpochFootprints(g graph.View, alg sampling.Algorithm, trainSet []int32, batchSize, epochs int, seed uint64, workers int) []EpochFootprint {
	n := g.NumVertices()
	accs := replaySampling(g, alg, trainSet, batchSize, epochs, seed, workers,
		func() [][]int64 { return make([][]int64, epochs) },
		func(acc [][]int64, epoch int, s *sampling.Sample) {
			visits := acc[epoch]
			if visits == nil {
				visits = make([]int64, n)
				acc[epoch] = visits
			}
			for _, v := range s.Seeds {
				visits[v]++
			}
			for _, l := range s.Layers {
				for _, src := range l.Src {
					visits[s.Input[src]]++
				}
			}
		})
	out := make([]EpochFootprint, epochs)
	for e := range out {
		out[e] = EpochFootprint{Visits: make([]int64, n)}
	}
	for _, acc := range accs {
		for e, visits := range acc {
			for v, c := range visits {
				out[e].Visits[v] += c
			}
		}
	}
	return out
}

// Similarity computes the paper's §6.2 metric between epochs i and j:
//
//	Σ_{v ∈ T_i ∩ T_j} min(f_i(v), f_j(v)) / Σ_{v ∈ T_j} f_j(v)
//
// where T_i, T_j are the sets of top `topFraction` most-visited vertices
// in each epoch and f the visit frequencies.
func Similarity(fi, fj EpochFootprint, topFraction float64) float64 {
	ti := topSet(fi.Visits, topFraction)
	tj := topSet(fj.Visits, topFraction)
	var num, den int64
	for v := range tj {
		den += fj.Visits[v]
	}
	if den == 0 {
		return 0
	}
	for v := range ti {
		if _, ok := tj[v]; !ok {
			continue
		}
		m := fi.Visits[v]
		if fj.Visits[v] < m {
			m = fj.Visits[v]
		}
		num += m
	}
	return float64(num) / float64(den)
}

// topSet returns the set of the top `fraction` vertices by visit count
// among vertices visited at least once, selecting (graph.SelectTop)
// rather than sorting all visited vertices — only the chosen prefix is
// ever ordered.
func topSet(visits []int64, fraction float64) map[int32]struct{} {
	ids := make([]int32, 0, len(visits))
	for v, c := range visits {
		if c > 0 {
			ids = append(ids, int32(v))
		}
	}
	k := int(fraction * float64(len(visits)))
	if k > len(ids) {
		k = len(ids)
	}
	graph.SelectTop(ids, k, func(a, b int32) bool {
		ca, cb := visits[a], visits[b]
		if ca != cb {
			return ca > cb
		}
		return a < b
	})
	set := make(map[int32]struct{}, k)
	for _, v := range ids[:k] {
		set[v] = struct{}{}
	}
	return set
}
