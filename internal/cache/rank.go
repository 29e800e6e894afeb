package cache

import (
	"fmt"

	"gnnlab/internal/graph"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
)

// RankSpec is a caching policy plus exactly the inputs that policy reads:
// Random reads Seed; Degree reads only the graph; PreSC#K reads Alg,
// BatchSize, K and Seed; Optimal reads Alg, BatchSize, Epochs and Seed —
// the measured run it replays (§3 footnote 4), or that run's Footprint
// when the caller already holds it. Workers sizes the replay pool and Top
// the prefix wanted; neither changes which vertices rank where.
type RankSpec struct {
	Policy    PolicyKind
	Alg       sampling.Algorithm
	BatchSize int
	K         int
	Epochs    int
	Seed      uint64
	Workers   int
	// Top is the number of leading entries wanted (RankTop's k, clamped
	// to the vertex count): a single cache load passes its slot count,
	// a ranking reused across many cache ratios passes |V|.
	Top       int
	Footprint *Footprint
}

// RankKey is the content of a RankSpec that determines its ranking on a
// given graph and training set: the policy and the inputs it reads, every
// other field zero. The measurement store memoizes rankings under it.
type RankKey struct {
	Policy    PolicyKind
	Algorithm string // sampling.Fingerprint of Alg
	BatchSize int
	K         int
	Epochs    int
	Seed      uint64
}

// Key validates s and returns its RankKey. It rejects an unknown policy,
// a negative Top, and a non-positive K, Epochs or BatchSize where the
// policy reads one.
func (s RankSpec) Key() (RankKey, error) {
	if s.Top < 0 {
		return RankKey{}, fmt.Errorf("cache: ranking prefix %d is negative", s.Top)
	}
	key := RankKey{Policy: s.Policy}
	switch s.Policy {
	case PolicyRandom:
		key.Seed = s.Seed
	case PolicyDegree:
	case PolicyPreSC:
		if s.K <= 0 {
			return RankKey{}, fmt.Errorf("cache: PreSC#K with K %d, want K > 0", s.K)
		}
		key.K = s.K
	case PolicyOptimal:
		if s.Epochs <= 0 {
			return RankKey{}, fmt.Errorf("cache: Optimal over %d epochs, want epochs > 0", s.Epochs)
		}
		key.Epochs = s.Epochs
	default:
		return RankKey{}, fmt.Errorf("cache: unknown cache policy %v", s.Policy)
	}
	if s.Policy == PolicyPreSC || s.Policy == PolicyOptimal {
		if s.Alg == nil || s.BatchSize <= 0 {
			return RankKey{}, fmt.Errorf("cache: %v needs a sampling algorithm and a positive batch size, got batch size %d", s.Policy, s.BatchSize)
		}
		key.Algorithm = sampling.Fingerprint(s.Alg)
		key.BatchSize = s.BatchSize
		key.Seed = s.Seed
	}
	return key, nil
}

// Ranking is a policy's cache ranking: vertex IDs hottest first, plus the
// pre-sampling work PreSC did to find them (zero for the other policies),
// which Table 6 prices as preprocessing.
type Ranking struct {
	Order        []int32
	SampledEdges int64
	ScannedEdges int64
}

// Score computes s's hotness metric h_v over g and trainSet; the returned
// Ranking carries PreSC's edge counts and no Order. Every policy's metric
// — and its seed salt — is derived here and nowhere else.
func Score(g graph.View, trainSet []int32, s RankSpec) (Hotness, Ranking, error) {
	if _, err := s.Key(); err != nil {
		return Hotness{}, Ranking{}, err
	}
	switch s.Policy {
	case PolicyRandom:
		return RandomHotness(g.NumVertices(), rng.New(s.Seed^0x5EED)), Ranking{}, nil
	case PolicyDegree:
		return DegreeHotness(g), Ranking{}, nil
	case PolicyPreSC:
		res := PreSCN(g, s.Alg, trainSet, s.BatchSize, s.K, s.Seed^0x12345, s.Workers)
		return res.Hotness, Ranking{SampledEdges: res.SampledEdges, ScannedEdges: res.ScannedEdges}, nil
	default: // PolicyOptimal, the only policy Key leaves
		fp := s.Footprint
		if fp == nil {
			fp = CollectFootprint(g, s.Alg, trainSet, s.BatchSize, s.Epochs, s.Seed, s.Workers)
		}
		return fp.OptimalHotness(), Ranking{}, nil
	}
}

// Rank returns the first s.Top entries of s's cache ranking over g and
// trainSet, selected in O(|V|) expected time (RankTop).
func Rank(g graph.View, trainSet []int32, s RankSpec) (Ranking, error) {
	h, r, err := Score(g, trainSet, s)
	if err != nil {
		return Ranking{}, err
	}
	r.Order = h.RankTop(s.Top)
	return r, nil
}
