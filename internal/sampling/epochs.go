package sampling

import (
	"fmt"

	"gnnlab/internal/rng"
)

// EpochCell is one (epoch, batch) unit of sampling work. Its RNG stream is
// derived on the coordinating goroutine — epoch-keyed Split, then
// batch-keyed SplitN — so the sampled stream is a pure function of
// (seed, epoch, batch), independent of worker count and scheduling. This
// is the determinism convention shared by the measurement engine
// (internal/measure) and the cache-policy replays (internal/cache). The
// live training pipeline (internal/train) does not use it: it keys each
// batch's stream as rng.New(seed^epoch<<20^batch), so its samples are
// scheduling-independent but differ from a PlanEpochs replay.
type EpochCell struct {
	Epoch int
	Batch int
	Seeds []int32
	R     *rng.Rand
}

// PlanEpochs derives every epoch's shuffled mini-batches and per-batch RNG
// streams from seed, serially, in (epoch, batch) order. Each epoch has
// NumBatches(len(trainSet), batchSize) cells.
func PlanEpochs(trainSet []int32, batchSize, epochs int, seed uint64) []EpochCell {
	r := rng.New(seed)
	cells := make([]EpochCell, 0, epochs*NumBatches(len(trainSet), batchSize))
	for epoch := 0; epoch < epochs; epoch++ {
		er := r.Split(uint64(epoch))
		batches := Batches(trainSet, batchSize, er)
		rands := er.SplitN(len(batches))
		for b, batch := range batches {
			cells = append(cells, EpochCell{Epoch: epoch, Batch: b, Seeds: batch, R: rands[b]})
		}
	}
	return cells
}

// Fingerprint returns a content identity for alg. Unlike Name, it folds in
// every parameter that changes the sampled stream, so equal fingerprints
// mean identical sampling work given the same (graph, training set,
// batch size, seed). The measurement store keys on it. Unknown algorithm
// types fall back to Name; custom algorithms that want store reuse should
// make Name parameter-complete.
func Fingerprint(alg Algorithm) string {
	switch a := alg.(type) {
	case *KHop:
		return fmt.Sprintf("khop%v/%s", a.Fanouts, a.Method)
	case *WeightedKHop:
		return fmt.Sprintf("weighted-khop%v/%d", a.Fanouts, a.Method)
	case *RandomWalk:
		return fmt.Sprintf("random-walk(%d,%d,%d,%d)", a.Layers, a.NumPaths, a.WalkLength, a.NumNeighbors)
	case *ClusterGCN:
		return fmt.Sprintf("cluster-gcn(%d,%d)", a.NumClusters, a.Seed)
	case *SAINTNode:
		return fmt.Sprintf("saint-node(%d)", a.Budget)
	case *SAINTEdge:
		return fmt.Sprintf("saint-edge(%d)", a.EdgeBudget)
	default:
		return alg.Name()
	}
}
