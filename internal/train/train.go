// Package train is the live training runtime: real Sampler goroutines
// feeding real Trainers through the global sample queue, computing real
// gradients with internal/nn and training to a real accuracy target. It
// backs the convergence experiment (§7.7, Fig 16) and the runnable
// examples — everything internal/core *simulates*, this package
// *executes* (at laptop scale, on the labelled community dataset).
package train

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"gnnlab/internal/cache"
	"gnnlab/internal/fault"
	"gnnlab/internal/feature"
	"gnnlab/internal/gen"
	"gnnlab/internal/nn"
	"gnnlab/internal/obs"
	"gnnlab/internal/queue"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
	"gnnlab/internal/tensor"
	"gnnlab/internal/workload"
)

// Options configures a training run.
type Options struct {
	Model     workload.ModelKind
	HiddenDim int
	BatchSize int
	// NumTrainers is the synchronous data-parallel width: gradients of
	// NumTrainers consecutive mini-batches are averaged into one update,
	// exactly modelling k GPUs exchanging gradients (§2). More trainers
	// mean fewer updates per epoch — the effect Fig 16(b) measures.
	NumTrainers int
	// NumSamplers concurrent Sampler goroutines (default 1) feed the
	// global queue — the live factored pipeline. Per-batch RNG keying and
	// a reorder buffer make the samples, and so the training result,
	// independent of the count.
	NumSamplers int
	LR          float64
	// TargetAccuracy stops training once evaluation accuracy reaches it.
	TargetAccuracy float64
	MaxEpochs      int
	// EvalSize vertices are held out (disjoint from the training set)
	// for accuracy evaluation.
	EvalSize int
	// CacheRatio > 0 enables a real feature cache on the Trainer side,
	// filled by CachePolicy: the live analogue of §6. The zero policy is
	// Random; PreSC runs as PreSC#1. Optimal is rejected: its oracle needs
	// the footprint of the very run being trained.
	CacheRatio  float64
	CachePolicy cache.PolicyKind
	Seed        uint64
	// Obs, when non-nil, records per-minibatch gather/forward+backward/
	// step spans (process "Train", one lane per trainer plus sampler and
	// optimizer lanes) and training counters. Spans only observe: the
	// trained model and history are identical with or without it.
	Obs *obs.Recorder
	// Faults injects the plan's trainer-crash events into the live run:
	// each crash event scheduled for epoch e aborts that epoch mid-way
	// (discarding its partial updates) and restores the per-epoch
	// checkpoint, so the run recovers to bit-identical loss. An event's
	// At in (0, 1) picks the crash point as a fraction of the epoch's
	// gradient rounds; other values crash mid-epoch (simulated-time
	// horizons do not translate to live rounds). Non-crash event kinds
	// are ignored here — they only shape the simulated runtime.
	Faults *fault.Plan

	// freshScratch hands every minibatch and evaluation batch a brand-new
	// minibatchScratch instead of the trainer's pooled one: the same code
	// on empty buffers, the reference of TestTrainPooledMatchesFresh.
	freshScratch bool
}

// scratch returns the buffers for one minibatch: pooled, unless the
// freshScratch test hook asks for a brand-new set.
func (o Options) scratch(pooled *minibatchScratch) *minibatchScratch {
	if o.freshScratch {
		return newMinibatchScratch()
	}
	return pooled
}

// validate rejects out-of-range options (after withDefaults has filled
// the zero values), so a bad value fails loudly instead of panicking deep
// in a slice allocation or being silently reinterpreted.
func (o Options) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"HiddenDim", o.HiddenDim},
		{"BatchSize", o.BatchSize},
		{"NumTrainers", o.NumTrainers},
		{"NumSamplers", o.NumSamplers},
		{"MaxEpochs", o.MaxEpochs},
		{"EvalSize", o.EvalSize},
	} {
		if f.v < 0 {
			return fmt.Errorf("train: %s %d is negative", f.name, f.v)
		}
	}
	if math.IsNaN(o.LR) || math.IsInf(o.LR, 0) || o.LR < 0 {
		return fmt.Errorf("train: LR %v is not a finite non-negative number", o.LR)
	}
	if math.IsNaN(o.TargetAccuracy) {
		return fmt.Errorf("train: TargetAccuracy is NaN")
	}
	if math.IsNaN(o.CacheRatio) || o.CacheRatio < 0 || o.CacheRatio > 1 {
		return fmt.Errorf("train: CacheRatio %v outside [0, 1]", o.CacheRatio)
	}
	if o.CacheRatio > 0 && o.CachePolicy == cache.PolicyOptimal {
		return fmt.Errorf("train: CachePolicy %v needs the footprint of the run being trained", o.CachePolicy)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.HiddenDim == 0 {
		o.HiddenDim = 64
	}
	if o.BatchSize == 0 {
		o.BatchSize = 128
	}
	if o.NumTrainers == 0 {
		o.NumTrainers = 1
	}
	if o.NumSamplers == 0 {
		o.NumSamplers = 1
	}
	if o.LR == 0 {
		o.LR = 0.01
	}
	if o.MaxEpochs == 0 {
		o.MaxEpochs = 60
	}
	if o.EvalSize == 0 {
		o.EvalSize = 1000
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.TargetAccuracy == 0 {
		o.TargetAccuracy = 0.9
	}
	return o
}

// EpochRecord is one epoch's outcome.
type EpochRecord struct {
	Epoch   int
	Loss    float64
	EvalAcc float64
	// Updates is the cumulative number of gradient updates so far.
	Updates int
}

// Result is a completed training run.
type Result struct {
	History   []EpochRecord
	Converged bool
	// EpochsToTarget / UpdatesToTarget are the costs of reaching the
	// accuracy target (0 when not converged).
	EpochsToTarget  int
	UpdatesToTarget int
	FinalAccuracy   float64
	// CacheHitRate is the real feature-cache hit rate over the training
	// gathers (0 when no cache was enabled).
	CacheHitRate float64
	// Model is the trained model (checkpoint with Model.SaveCheckpoint,
	// or keep predicting with Model.PredictWS / Model.ClassifyWS).
	Model *nn.Model
	// Recoveries counts injected crashes the run recovered from by
	// restoring the per-epoch checkpoint.
	Recoveries int
}

// Train runs sample-based GNN training on a labelled dataset until the
// accuracy target or MaxEpochs.
func Train(d *gen.Dataset, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if d.Labels == nil || d.Features == nil {
		return nil, fmt.Errorf("train: dataset %s has no labels/features (use a KindCommunity preset)", d.Name)
	}
	spec := workload.Spec{Kind: opts.Model, HiddenDim: opts.HiddenDim, BatchSize: opts.BatchSize}
	alg := spec.NewSampler()
	// Build any per-graph sampler tables once, before sampler goroutines
	// clone alg and race to lazily construct them.
	sampling.Prepare(alg, d.Graph)
	model := nn.NewModel(opts.Model, spec.NumLayers(), d.FeatureDim, opts.HiddenDim, d.NumClasses, opts.Seed)
	opt := tensor.NewAdam(opts.LR, model.Params())

	store, err := buildStore(d, alg, opts)
	if err != nil {
		return nil, err
	}

	// Data-parallel replicas: with k > 1 Trainers, each round trains k
	// mini-batches concurrently on k model replicas, then exchanges
	// (averages) gradients into the master — real synchronous data
	// parallelism, executed on k goroutines.
	var replicas []*nn.Model
	for i := 1; i < opts.NumTrainers; i++ {
		rep := nn.NewModel(opts.Model, spec.NumLayers(), d.FeatureDim, opts.HiddenDim, d.NumClasses, opts.Seed)
		if err := nn.CopyParams(rep.Params(), model.Params()); err != nil {
			return nil, err
		}
		replicas = append(replicas, rep)
	}

	evalSet := holdout(d, opts.EvalSize, opts.Seed)
	r := rng.New(opts.Seed)

	// One pooled workspace per trainer (plus reuse for evaluation): the
	// scratch buffers live for the whole run, so steady-state minibatches
	// allocate nothing from the Sample handoff to the optimizer step.
	scratches := make([]*minibatchScratch, opts.NumTrainers)
	for i := range scratches {
		scratches[i] = newMinibatchScratch()
	}

	res := &Result{Model: model}
	crashes := crashFractions(opts.Faults)
	reg := opts.Obs.Registry()
	cInjected := reg.Counter("fault.injected")
	cRecoveries := reg.Counter("train.recoveries")
	updates := 0
	for epoch := 0; epoch < opts.MaxEpochs; epoch++ {
		// The per-epoch restore point. Captured *before* the epoch's RNG
		// Split (Split advances r), so a restored run re-derives the same
		// batches; only taken when this epoch has a scheduled crash — the
		// fault-free path is untouched.
		pending := crashes[epoch]
		var ck *checkpoint
		if len(pending) > 0 {
			ck = capture(model, opt, r, store, updates)
		}

		var epochLoss, acc float64
		for {
			er := r.Split(uint64(epoch))
			batches := sampling.Batches(d.TrainSet, opts.BatchSize, er)
			stream := produceSamples(d, alg, batches, opts, epoch)

			stopAfter := -1
			if len(pending) > 0 {
				stopAfter = crashRound(pending[0], len(batches), opts.NumTrainers)
				pending = pending[1:]
			}
			var stepCount int
			var err error
			epochLoss, stepCount, err = runEpochSteps(model, replicas, opt, store, d, stream, len(batches), opts, scratches, stopAfter)
			if errors.Is(err, errInjectedCrash) {
				stream.abandon()
				if err := ck.restore(model, replicas, opt, r, store); err != nil {
					return nil, err
				}
				updates = ck.updates
				res.Recoveries++
				cInjected.Add(1)
				cRecoveries.Add(1)
				continue
			}
			if err != nil {
				return nil, err
			}
			updates += stepCount
			epochLoss /= float64(len(batches))
			break
		}

		// The round's workers are quiesced here, so evaluation can
		// borrow trainer 0's scratch.
		acc, err := evaluate(model, d, store, alg, evalSet, opts, scratches[0])
		if err != nil {
			return nil, err
		}
		res.History = append(res.History, EpochRecord{
			Epoch:   epoch,
			Loss:    epochLoss,
			EvalAcc: acc,
			Updates: updates,
		})
		res.FinalAccuracy = acc
		res.CacheHitRate = store.HitRate()
		if acc >= opts.TargetAccuracy {
			res.Converged = true
			res.EpochsToTarget = epoch + 1
			res.UpdatesToTarget = updates
			break
		}
	}
	exportScratchStats(reg, scratches, store)
	return res, nil
}

// minibatchScratch is one trainer's pooled buffers for the whole
// Sample-to-step path: the reused Compact (generation-stamped renumber
// table), the gather destination, the seed-label slice and the
// activation/gradient workspace. A scratch serves one goroutine; Train
// pools one per trainer and reuses trainer 0's for evaluation.
type minibatchScratch struct {
	compact nn.Compact
	feats   tensor.Matrix
	labels  []int32
	ws      *nn.Workspace

	// passes counts pooled minibatch passes; reuses the ones that grew no
	// workspace backing array (the train.scratch_* counters).
	passes, reuses int64
}

func newMinibatchScratch() *minibatchScratch {
	return &minibatchScratch{ws: nn.NewWorkspace()}
}

// exportScratchStats publishes the pooled-buffer reuse counters —
// train.scratch_samples/reuses/grows for the trainer workspaces (the
// training analogue of measure.scratch_*) and feature.gather_reuse/
// gather_grow for the Extract-stage destination buffers.
func exportScratchStats(reg *obs.Registry, scratches []*minibatchScratch, store *feature.Store) {
	var passes, reuses, grows int64
	for _, sc := range scratches {
		passes += sc.passes
		reuses += sc.reuses
		grows += sc.ws.Grows()
	}
	reg.Counter("train.scratch_samples").Add(passes)
	reg.Counter("train.scratch_reuses").Add(reuses)
	reg.Counter("train.scratch_grows").Add(grows)
	gr, gg := store.GatherStats()
	reg.Counter("feature.gather_reuse").Add(gr)
	reg.Counter("feature.gather_grow").Add(gg)
}

// errInjectedCrash is the sentinel a fault plan's trainer crash raises
// inside runEpochSteps; Train recovers from it via the epoch checkpoint.
var errInjectedCrash = errors.New("train: injected trainer crash")

// crashFractions maps epoch → that epoch's scheduled crash points from
// the plan's trainer-crash events, as fractions of the epoch's gradient
// rounds (see Options.Faults). Nil when the plan has no crash events.
func crashFractions(p *fault.Plan) map[int][]float64 {
	if p.Empty() {
		return nil
	}
	var out map[int][]float64
	for _, e := range p.Events {
		if e.Kind != fault.KindTrainerCrash {
			continue
		}
		frac := 0.5
		if e.At > 0 && e.At < 1 {
			frac = e.At
		}
		if out == nil {
			out = map[int][]float64{}
		}
		out[e.Epoch] = append(out[e.Epoch], frac)
	}
	return out
}

// crashRound converts a crash fraction into the number of gradient
// rounds that complete before the abort (at least 0, and always before
// the epoch's last round so a crash is never a silent no-op).
func crashRound(frac float64, numBatches, numTrainers int) int {
	if numTrainers < 1 {
		numTrainers = 1
	}
	rounds := (numBatches + numTrainers - 1) / numTrainers
	stop := int(frac * float64(rounds))
	if stop >= rounds {
		stop = rounds - 1
	}
	if stop < 0 {
		stop = 0
	}
	return stop
}

// checkpoint is a per-epoch restore point: everything a mid-epoch crash
// must rewind — parameter values, optimizer moments, the RNG position,
// the update count and the feature-store accounting.
type checkpoint struct {
	updates      int
	values       [][]float32
	adam         tensor.AdamState
	rng          rng.State
	hits, misses int64
}

// capture deep-copies the training state at the top of an epoch.
func capture(model *nn.Model, opt *tensor.Adam, r *rng.Rand, store *feature.Store, updates int) *checkpoint {
	ck := &checkpoint{updates: updates, adam: opt.Snapshot(), rng: r.State()}
	ck.hits, ck.misses = store.Stats()
	for _, p := range model.Params() {
		ck.values = append(ck.values, append([]float32(nil), p.Value.Data...))
	}
	return ck
}

// restore rewinds the master model, its replicas, the optimizer, the
// epoch RNG and the store counters to the checkpoint; all gradient
// accumulators are zeroed (a crashed round may have left partial sums).
func (ck *checkpoint) restore(model *nn.Model, replicas []*nn.Model, opt *tensor.Adam, r *rng.Rand, store *feature.Store) error {
	params := model.Params()
	if len(ck.values) != len(params) {
		return fmt.Errorf("train: checkpoint has %d params, model has %d", len(ck.values), len(params))
	}
	for i, p := range params {
		if len(ck.values[i]) != len(p.Value.Data) {
			return fmt.Errorf("train: checkpoint param %d size mismatch", i)
		}
		copy(p.Value.Data, ck.values[i])
		p.ZeroGrad()
	}
	if err := opt.Restore(ck.adam); err != nil {
		return err
	}
	for _, rep := range replicas {
		if err := nn.CopyParams(rep.Params(), params); err != nil {
			return err
		}
		for _, p := range rep.Params() {
			p.ZeroGrad()
		}
	}
	r.SetState(ck.rng)
	store.SetStats(ck.hits, ck.misses)
	return nil
}

// runEpochSteps drives one epoch of synchronous data-parallel training:
// rounds of up to NumTrainers mini-batches run concurrently (one per model
// replica; the master model doubles as replica 0), gradients are averaged
// into the master, the optimizer steps, and updated parameters fan back
// out to the replicas — the live analogue of the gradient exchange in §2.
// It returns the summed loss and the number of gradient updates.
// stopAfterRounds >= 0 injects a trainer crash: that many rounds complete,
// then the epoch aborts with errInjectedCrash (-1 never crashes).
func runEpochSteps(model *nn.Model, replicas []*nn.Model, opt *tensor.Adam, store *feature.Store, d *gen.Dataset, stream *sampleStream, numBatches int, opts Options, scratches []*minibatchScratch, stopAfterRounds int) (float64, int, error) {
	workers := append([]*nn.Model{model}, replicas...)
	rec := opts.Obs
	var trainerLanes []obs.Lane
	var stepLane obs.Lane
	reg := rec.Registry()
	cBatches := reg.Counter("train.minibatches")
	cUpdates := reg.Counter("train.updates")
	cHits := reg.Counter("train.gather.hits")
	cMisses := reg.Counter("train.gather.misses")
	if rec != nil {
		trainerLanes = make([]obs.Lane, len(workers))
		for i := range trainerLanes {
			trainerLanes[i] = rec.Lane("Train", fmt.Sprintf("trainer-%d", i))
		}
		stepLane = rec.Lane("Train", "optimizer")
	}
	var epochLoss float64
	// Round result buffers, hoisted out of the per-round loop: every slot
	// up to len(round) is overwritten each round before it is read.
	losses := make([]float64, len(workers))
	errs := make([]error, len(workers))
	updates := 0
	for start := 0; start < numBatches; start += len(workers) {
		if updates == stopAfterRounds {
			return epochLoss, updates, errInjectedCrash
		}
		end := start + len(workers)
		if end > numBatches {
			end = numBatches
		}
		round, err := stream.take(end - start)
		if err != nil {
			return 0, 0, err
		}
		var wg sync.WaitGroup
		for i, s := range round {
			wg.Add(1)
			go func(i int, s *sampling.Sample, m *nn.Model, sc *minibatchScratch) {
				defer wg.Done()
				var sp *obs.Span
				if trainerLanes != nil {
					sp = trainerLanes[i].Start("minibatch")
				}
				if errs[i] = nn.NewCompactInto(&sc.compact, s); errs[i] != nil {
					return
				}
				gsp := sp.Child("gather")
				hits, misses := store.GatherInto(&sc.feats, s)
				if gsp != nil {
					gsp.End(obs.Attr{Key: "hits", Value: hits}, obs.Attr{Key: "misses", Value: misses})
				}
				cHits.Add(int64(hits))
				cMisses.Add(int64(misses))
				sc.labels = nn.SeedLabelsInto(sc.labels, s, d.Labels)
				fbsp := sp.Child("forward+backward")
				prevGrows := sc.ws.Grows()
				losses[i], _, errs[i] = m.LossAndGradWS(sc.ws, &sc.compact, &sc.feats, sc.labels)
				sc.passes++
				if sc.ws.Grows() == prevGrows {
					sc.reuses++
				}
				fbsp.End()
				if sp != nil {
					sp.End(obs.Attr{Key: "batch", Value: start + i})
				}
				cBatches.Add(1)
			}(i, s, workers[i], opts.scratch(scratches[i]))
		}
		wg.Wait()
		for i := range round {
			if errs[i] != nil {
				return 0, 0, errs[i]
			}
			epochLoss += losses[i]
		}
		// Gradient exchange: replicas' gradients accumulate into the
		// master in fixed order, then the averaged update applies.
		ssp := stepLane.Start("exchange+step")
		for i := 1; i < len(round); i++ {
			if err := nn.AccumulateGrads(model.Params(), workers[i].Params()); err != nil {
				return 0, 0, err
			}
		}
		averageGrads(opt.Params(), len(round))
		opt.Step()
		updates++
		cUpdates.Add(1)
		for _, rep := range replicas {
			if err := nn.CopyParams(rep.Params(), model.Params()); err != nil {
				return 0, 0, err
			}
		}
		if ssp != nil {
			ssp.End(obs.Attr{Key: "round_batches", Value: len(round)})
		}
	}
	return epochLoss, updates, nil
}

// buildStore assembles the two-tier feature store, running the configured
// caching policy for real when a cache ratio is requested.
func buildStore(d *gen.Dataset, alg sampling.Algorithm, opts Options) (*feature.Store, error) {
	store, err := feature.NewStore(d.Features, d.FeatureDim)
	if err != nil {
		return nil, err
	}
	if opts.CacheRatio <= 0 {
		return store, nil
	}
	// Only the first `slots` ranking entries reach the cache table.
	slots := int(opts.CacheRatio * float64(d.NumVertices()))
	ranking, err := cache.Rank(d.Graph, d.TrainSet, cache.RankSpec{
		Policy: opts.CachePolicy, Alg: alg, BatchSize: opts.BatchSize, K: 1, Seed: opts.Seed, Top: slots,
	})
	if err != nil {
		return nil, fmt.Errorf("train: CachePolicy: %w", err)
	}
	table, err := cache.Load(ranking.Order, slots, d.NumVertices(), int64(d.FeatureDim)*4)
	if err != nil {
		return nil, err
	}
	if err := store.EnableCache(table); err != nil {
		return nil, err
	}
	return store, nil
}

// sampleStream delivers an epoch's samples in batch order, streamed live
// from concurrent Sampler goroutines through the global queue. Streaming
// overlaps the Sample stage with Extract+Train — the factored pipeline —
// while a reorder buffer keeps delivery order (and therefore training
// results) independent of goroutine scheduling.
type sampleStream struct {
	next int

	done    *queue.Queue[indexedSample]
	pending map[int]*sampling.Sample
	cancel  func()

	// buf backs take's returned slice, reused across rounds.
	buf []*sampling.Sample
}

// abandon stops a live stream mid-epoch (injected crash recovery): the
// remaining work drains unserved and the done queue closes, so blocked
// Sampler goroutines wake, drop their samples and exit.
func (st *sampleStream) abandon() { st.cancel() }

type indexedSample struct {
	idx int
	s   *sampling.Sample
	err error
}

// take returns the next k samples in batch order. The returned slice is
// the stream's own round buffer, valid until the next take.
func (st *sampleStream) take(k int) ([]*sampling.Sample, error) {
	if cap(st.buf) < k {
		st.buf = make([]*sampling.Sample, 0, k)
	}
	out := st.buf[:0]
	defer func() { st.buf = out }()
	for len(out) < k {
		if s, ok := st.pending[st.next]; ok {
			delete(st.pending, st.next)
			out = append(out, s)
			st.next++
			continue
		}
		item, ok := st.done.Dequeue()
		if !ok {
			return nil, fmt.Errorf("train: sample queue closed before batch %d", st.next)
		}
		if item.err != nil {
			return nil, item.err
		}
		st.pending[item.idx] = item.s
	}
	return out, nil
}

// produceSamples runs the Sample stage for an epoch through the live
// factored pipeline (Sampler goroutines + global queue). The per-batch
// RNG streams are keyed by (epoch, batch) so the sampled neighborhoods do
// not depend on goroutine scheduling; the stream's reorder buffer keeps
// delivery order deterministic too.
func produceSamples(d *gen.Dataset, alg sampling.Algorithm, batches [][]int32, opts Options, epoch int) *sampleStream {
	type task struct {
		idx   int
		seeds []int32
	}
	work := queue.New[task](len(batches))
	// The global queue between Samplers and Trainers (§5.2); bounded so
	// producers feel backpressure like the real host-memory queue.
	done := queue.New[indexedSample](max(4, 2*opts.NumSamplers))
	for i, b := range batches {
		// Cannot fail: the queue holds len(batches) slots and is not yet
		// closed, so every task is accepted.
		work.Enqueue(task{idx: i, seeds: b})
	}
	work.Close()
	cSamples := opts.Obs.Registry().Counter("train.samples")
	cDropped := opts.Obs.Registry().Counter("queue.dropped_enqueues")
	for w := 0; w < opts.NumSamplers; w++ {
		var lane obs.Lane
		if opts.Obs != nil {
			lane = opts.Obs.Lane("Train", fmt.Sprintf("sampler-%d", w))
		}
		go func() {
			a := sampling.CloneAlgorithm(alg)
			for {
				t, ok := work.Dequeue()
				if !ok {
					return
				}
				sp := lane.Start("sample")
				item := sampleOne(d, a, t.seeds, t.idx, opts, epoch)
				if sp != nil {
					sp.End(obs.Attr{Key: "epoch", Value: epoch}, obs.Attr{Key: "batch", Value: t.idx})
				}
				cSamples.Add(1)
				if !done.Enqueue(item) {
					// The stream was cancelled (trainer abandoned the
					// epoch) and closed the queue under us: the sample is
					// dropped by design, but count it so load shedding is
					// observable, and stop — every later enqueue would
					// drop too.
					cDropped.Add(1)
					return
				}
			}
		}()
	}
	cancel := func() {
		for {
			if _, ok, _ := work.TryDequeue(); !ok {
				break
			}
		}
		done.Close()
	}
	return &sampleStream{done: done, pending: map[int]*sampling.Sample{}, cancel: cancel}
}

// sampleOne runs one mini-batch's Sample stage, converting a panicking
// sampling algorithm (e.g. a buggy user-defined one, §5.1) into an error
// on the stream instead of a deadlocked pipeline.
func sampleOne(d *gen.Dataset, a sampling.Algorithm, seedsBatch []int32, idx int, opts Options, epoch int) (item indexedSample) {
	item.idx = idx
	defer func() {
		if r := recover(); r != nil {
			item.s = nil
			item.err = fmt.Errorf("train: sampler panicked on batch %d: %v", idx, r)
		}
	}()
	item.s = a.Sample(d.Graph, seedsBatch, rng.New(opts.Seed^uint64(epoch)<<20^uint64(idx)))
	return item
}

// averageGrads scales accumulated gradients by 1/k — turning k accumulated
// mini-batch gradients into their synchronous data-parallel average.
func averageGrads(params []*tensor.Param, k int) {
	if k <= 1 {
		return
	}
	inv := 1 / float32(k)
	for _, p := range params {
		tensor.Scale(inv, p.Grad.Data)
	}
}

// trainSetBitmaps caches each dataset's training-set membership bitmap,
// built once per dataset instead of rebuilding a hash map on every
// holdout call (repeated Train runs over the same dataset are the norm in
// experiment sweeps). Keyed by dataset pointer; the handful of live
// datasets makes the retained memory negligible.
var trainSetBitmaps sync.Map // *gen.Dataset → []bool

// trainSetBitmap returns (building on first use) d's membership bitmap:
// bitmap[v] reports whether v is in d.TrainSet.
func trainSetBitmap(d *gen.Dataset) []bool {
	if v, ok := trainSetBitmaps.Load(d); ok {
		return v.([]bool)
	}
	bm := make([]bool, d.NumVertices())
	for _, v := range d.TrainSet {
		bm[v] = true
	}
	actual, _ := trainSetBitmaps.LoadOrStore(d, bm)
	return actual.([]bool)
}

// holdout picks EvalSize vertices outside the training set. The draw
// sequence is unchanged from the map-based version, so holdout sets are
// stable across the bitmap conversion.
func holdout(d *gen.Dataset, size int, seed uint64) []int32 {
	inTrain := trainSetBitmap(d)
	r := rng.New(seed ^ 0xE7A1)
	out := make([]int32, 0, size)
	n := d.NumVertices()
	seen := make([]bool, n)
	distinct := 0
	for len(out) < size && distinct < n {
		v := int32(r.Intn(n))
		if inTrain[v] || seen[v] {
			if !seen[v] {
				seen[v] = true
				distinct++
			}
			continue
		}
		seen[v] = true
		distinct++
		out = append(out, v)
	}
	return out
}

// evaluate samples the eval set once (fixed seed, so the eval graph view is
// stable across epochs) and returns accuracy. The whole gather+predict
// path runs in sc's buffers (sc must not be in use by a trainer
// goroutine).
func evaluate(model *nn.Model, d *gen.Dataset, store *feature.Store, alg sampling.Algorithm, evalSet []int32, opts Options, sc *minibatchScratch) (float64, error) {
	if len(evalSet) == 0 {
		return 0, nil
	}
	a := sampling.CloneAlgorithm(alg)
	correct, total := 0, 0
	er := rng.New(opts.Seed ^ 0xEA11)
	for start := 0; start < len(evalSet); start += opts.BatchSize {
		end := start + opts.BatchSize
		if end > len(evalSet) {
			end = len(evalSet)
		}
		s := a.Sample(d.Graph, evalSet[start:end], er)
		mb := opts.scratch(sc)
		if err := nn.NewCompactInto(&mb.compact, s); err != nil {
			return 0, err
		}
		store.GatherInto(&mb.feats, s)
		mb.labels = nn.SeedLabelsInto(mb.labels, s, d.Labels)
		c, err := model.PredictWS(mb.ws, &mb.compact, &mb.feats, mb.labels)
		if err != nil {
			return 0, err
		}
		correct += c
		total += len(mb.labels)
	}
	return float64(correct) / float64(total), nil
}
