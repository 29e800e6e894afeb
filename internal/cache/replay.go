package cache

import (
	"gnnlab/internal/graph"
	"gnnlab/internal/par"
	"gnnlab/internal/sampling"
)

// replaySampling replays `epochs` epochs of the Sample stage across a
// worker pool, over the cells of sampling.PlanEpochs — the (epoch, batch)
// RNG convention internal/measure shares (internal/train keys its live
// batches differently). Each worker gets its own clone of alg and its own
// accumulator from newAcc; absorb is called on the sampling worker with
// that worker's accumulator. The returned accumulators (one per worker,
// some possibly untouched) must be merged by the caller in index order;
// when every absorbed quantity is commutative (counts, sums), the merged
// result is bit-identical at any worker count.
func replaySampling[T any](
	g graph.View, alg sampling.Algorithm, trainSet []int32,
	batchSize, epochs int, seed uint64, workers int,
	newAcc func() T, absorb func(acc T, epoch int, s *sampling.Sample),
) []T {
	cells := sampling.PlanEpochs(trainSet, batchSize, epochs, seed)
	sampling.Prepare(alg, g)
	w := par.Workers(workers)
	if w > len(cells) && len(cells) > 0 {
		w = len(cells)
	}
	// Pooled clones: absorb consumes each sample before the worker's next
	// call, so borrowed buffers are safe and the replay loop allocates
	// nothing per cell in steady state.
	accs := make([]T, w)
	algs := make([]sampling.Algorithm, w)
	for i := range accs {
		accs[i] = newAcc()
		algs[i] = sampling.ClonePooled(alg)
	}
	par.ForEach(workers, len(cells), func(worker, i int) {
		c := cells[i]
		absorb(accs[worker], c.Epoch, algs[worker].Sample(g, c.Seeds, c.R))
	})
	return accs
}
