package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"gnnlab/internal/cache"
	"gnnlab/internal/feature"
	"gnnlab/internal/gen"
	"gnnlab/internal/nn"
	"gnnlab/internal/queue"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
	"gnnlab/internal/tensor"
	"gnnlab/internal/train"
	"gnnlab/internal/workload"
)

const (
	// trainEpochs is the fixed length of every Train call; the accuracy
	// target is unreachable, so every call does the same work.
	trainEpochs = 2
	// setupRepeats is how often a run repeats its set-up; setup_s is the
	// median.
	setupRepeats = 3
)

// convDataset generates the CONV preset (12k vertices, 240k edges,
// 64-dim features, 8 classes) from the given seed.
func convDataset(seed uint64) (*gen.Dataset, error) {
	cfg, err := gen.PresetConfig(gen.PresetConv)
	if err != nil {
		return nil, err
	}
	cfg.Seed = seed
	return gen.Generate(cfg)
}

func trainOptions(seed uint64) train.Options {
	return train.Options{
		Model:          workload.GraphSAGE,
		HiddenDim:      64,
		BatchSize:      128,
		NumTrainers:    1,
		NumSamplers:    1,
		LR:             0.01,
		TargetAccuracy: 2, // accuracy never exceeds 1
		MaxEpochs:      trainEpochs,
		EvalSize:       1000,
		CacheRatio:     0.10,
		CachePolicy:    cache.PolicyPreSC,
		Seed:           seed,
	}
}

// cachedStore builds the Trainer-side feature store with its PreSC#1
// cache, making the exported calls train.Train makes before its first
// minibatch.
func cachedStore(d *gen.Dataset, alg sampling.Algorithm, o train.Options) (*feature.Store, error) {
	store, err := feature.NewStore(d.Features, d.FeatureDim)
	if err != nil {
		return nil, err
	}
	slots := int(o.CacheRatio * float64(d.NumVertices()))
	res := cache.PreSC(d.Graph, alg, d.TrainSet, o.BatchSize, 1, o.Seed^0x12345)
	table, err := cache.Load(res.Hotness.RankTop(slots), slots, d.NumVertices(), int64(d.FeatureDim)*4)
	if err != nil {
		return nil, err
	}
	return store, store.EnableCache(table)
}

func trainSpec(o train.Options) workload.Spec {
	return workload.Spec{Kind: o.Model, HiddenDim: o.HiddenDim, BatchSize: o.BatchSize}
}

func runTrainConv(r *run) error {
	o := trainOptions(r.inputSeed(2))
	var d *gen.Dataset
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		// Each set-up starts from a collected heap holding no earlier
		// dataset, so the peak memory holds one dataset, not two.
		d = nil
		runtime.GC()
		start := time.Now()
		var err error
		if d, err = convDataset(r.inputSeed(1)); err != nil {
			return err
		}
		alg := trainSpec(o).NewSampler()
		sampling.Prepare(alg, d.Graph)
		if _, err := cachedStore(d, alg, o); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", median(setups))
	if r.trace {
		return traceTrainConv(r, d, o)
	}

	var want []train.EpochRecord
	var rate, epoch dist
	for end := r.deadline(); rate.n() < 2 || time.Now().Before(end); {
		hist, secs, err := timedTrain(r, d, o)
		if err != nil {
			return err
		}
		r.attempted++
		if want == nil {
			want = hist
			checkLearning(r, hist)
		}
		if !sameLosses(hist, want) {
			r.failed++
			r.check(false, "Train call %d: loss history differs from the first call with the same seed", rate.n())
		}
		rate.add(float64(len(d.TrainSet)*trainEpochs) / secs)
		epoch.add(secs / trainEpochs * 1e3)
	}
	r.logf("train losses: %v", losses(want))
	r.set("work_per_s", rate.median())
	r.set("p50_ms", epoch.median())
	r.set("ok_frac", 1-float64(r.failed)/float64(r.attempted))
	return nil
}

// timedTrain runs one whole Train call, from a collected heap, and returns
// its loss history and wall time.
func timedTrain(r *run, d *gen.Dataset, o train.Options) ([]train.EpochRecord, float64, error) {
	runtime.GC()
	start := time.Now()
	res, err := train.Train(d, o)
	secs := time.Since(start).Seconds()
	if err != nil {
		return nil, 0, err
	}
	r.noteLiveHeap()
	runtime.KeepAlive(res)
	if len(res.History) != o.MaxEpochs {
		return nil, 0, fmt.Errorf("Train ran %d epochs, want %d", len(res.History), o.MaxEpochs)
	}
	return res.History, secs, nil
}

// checkLearning checks that the losses are finite and that training
// lowered them.
func checkLearning(r *run, hist []train.EpochRecord) {
	for _, e := range hist {
		r.check(!math.IsNaN(e.Loss) && !math.IsInf(e.Loss, 0) && e.Loss > 0, "epoch %d loss %v is not a positive finite number", e.Epoch, e.Loss)
	}
	r.check(hist[len(hist)-1].Loss < hist[0].Loss, "loss did not fall: %v", losses(hist))
}

func losses(hist []train.EpochRecord) []float64 {
	out := make([]float64, len(hist))
	for i, e := range hist {
		out[i] = e.Loss
	}
	return out
}

// sameLosses compares per-epoch losses bit for bit.
func sameLosses(a, b []train.EpochRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Loss) != math.Float64bits(b[i].Loss) {
			return false
		}
	}
	return true
}

// traceTrainConv is the traced train-conv run. Half the measured time runs
// Train with the program's own recorder attached (the traced end-to-end
// rate); the other half runs replayTraining, which times every layer call of
// the same training loop from outside.
func traceTrainConv(r *run, d *gen.Dataset, o train.Options) error {
	half := r.seconds / 2
	var want []train.EpochRecord
	var rate dist
	traced := o
	traced.Obs = r.rec
	for end := time.Now().Add(seconds(half)); rate.n() < 1 || time.Now().Before(end); {
		hist, secs, err := timedTrain(r, d, traced)
		if err != nil {
			return err
		}
		r.attempted++
		if want == nil {
			want = hist
		}
		rate.add(float64(len(d.TrainSet)*trainEpochs) / secs)
	}
	r.set("trace.work_per_s", rate.median())

	st := &trainStats{}
	spans := newSpanLog(r, [2]string{"Sampler", "sampler-0"}, [2]string{"Trainer", "trainer-0"})
	for end, runs := time.Now().Add(seconds(half)), 0; runs < 1 || time.Now().Before(end); runs++ {
		got, err := replayTraining(d, o, st, spans)
		if err != nil {
			return err
		}
		r.attempted++
		if !sameLosses(got, want) {
			r.failed++
			r.check(false, "replayed losses %v differ from Train's %v", losses(got), losses(want))
		}
	}
	st.report(r)
	return nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// trainStats accumulates the replayed loop's per-minibatch layer measurements.
type trainStats struct {
	sample, wait, compact, gather, fwdBwd, step, eval dist
	inputs, edges, gatherBytes                        float64
	hits, misses                                      int64
	batches                                           int64
	mallocs                                           uint64
	finalLoss                                         float64
}

func (st *trainStats) report(r *run) {
	b := float64(st.batches)
	r.setDist("sampling.sample_ms", "", &st.sample)
	r.set("sampling.input_vertices", st.inputs/b)
	r.set("sampling.sampled_edges", st.edges/b)
	r.set("queue.trainer_wait_ms", st.wait.mean())
	r.set("nn.compact_ms", st.compact.median())
	r.set("feature.gather_ms", st.gather.median())
	r.set("feature.gather_mb", st.gatherBytes/b/(1<<20))
	r.set("feature.hit_rate", float64(st.hits)/float64(st.hits+st.misses))
	r.set("nn.fwd_bwd_ms", st.fwdBwd.median())
	r.set("tensor.step_ms", st.step.median())
	r.set("train.eval_ms", st.eval.median())
	r.set("train.allocs_per_batch", float64(st.mallocs)/b)
	r.set("train.final_loss", st.finalLoss)
}

// replayTraining runs the training loop of train.Train for one trainer and
// one live Sampler goroutine, making the same exported calls in the same
// order and with the same RNG keying, and times each call. It returns the
// per-epoch losses, which must equal Train's bit for bit.
func replayTraining(d *gen.Dataset, o train.Options, st *trainStats, spans *spanLog) ([]train.EpochRecord, error) {
	spec := trainSpec(o)
	alg := spec.NewSampler()
	sampling.Prepare(alg, d.Graph)
	model := nn.NewModel(o.Model, spec.NumLayers(), d.FeatureDim, o.HiddenDim, d.NumClasses, o.Seed)
	opt := tensor.NewAdam(o.LR, model.Params())
	store, err := cachedStore(d, alg, o)
	if err != nil {
		return nil, err
	}
	evalSet := holdout(d, o.EvalSize, o.Seed)
	rr := rng.New(o.Seed)
	var (
		cmp    nn.Compact
		feats  tensor.Matrix
		labels []int32
		ws     = nn.NewWorkspace()
		hist   []train.EpochRecord
		ms     runtime.MemStats
	)
	const samplerLane, trainerLane = 0, 1
	for epoch := 0; epoch < o.MaxEpochs; epoch++ {
		batches := sampling.Batches(d.TrainSet, o.BatchSize, rr.Split(uint64(epoch)))
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		// The Sampler→Trainer queue, sized as Train sizes it for one
		// Sampler.
		q := queue.New[*sampling.Sample](4)
		sampleTimes := make([][2]time.Time, len(batches))
		samplerDone := make(chan struct{})
		go func(epoch int) {
			defer close(samplerDone)
			a := sampling.CloneAlgorithm(alg)
			for i, b := range batches {
				start := time.Now()
				s := a.Sample(d.Graph, b, rng.New(o.Seed^uint64(epoch)<<20^uint64(i)))
				sampleTimes[i] = [2]time.Time{start, time.Now()}
				if !q.Enqueue(s) {
					return
				}
			}
			q.Close()
		}(epoch)
		epochLoss, err := trainEpoch(d, model, opt, store, q, len(batches), &cmp, &feats, &labels, ws, st, spans)
		q.Close()
		<-samplerDone
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms)
		st.mallocs += ms.Mallocs - mallocs
		for _, t := range sampleTimes {
			st.sample.add(ms64(t[1].Sub(t[0])))
			spans.add(samplerLane, "sample", "", t[0], t[1])
		}
		epochLoss /= float64(len(batches))

		start := time.Now()
		if err := evaluate(d, model, store, alg, evalSet, o, &cmp, &feats, &labels, ws); err != nil {
			return nil, err
		}
		end := time.Now()
		st.eval.add(ms64(end.Sub(start)))
		spans.add(trainerLane, "eval", "", start, end)
		spans.flush()
		hist = append(hist, train.EpochRecord{Epoch: epoch, Loss: epochLoss})
	}
	st.finalLoss = hist[len(hist)-1].Loss
	return hist, nil
}

// trainEpoch consumes one epoch of samples from q: compact, gather, seed
// labels, forward+backward and the optimizer step, each timed.
func trainEpoch(d *gen.Dataset, model *nn.Model, opt *tensor.Adam, store *feature.Store, q *queue.Queue[*sampling.Sample], n int,
	cmp *nn.Compact, feats *tensor.Matrix, labels *[]int32, ws *nn.Workspace, st *trainStats, spans *spanLog) (float64, error) {
	const trainerLane = 1
	var loss float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		s, ok := q.Dequeue()
		if !ok {
			return 0, fmt.Errorf("sample queue closed before batch %d", i)
		}
		t1 := time.Now()
		if err := nn.NewCompactInto(cmp, s); err != nil {
			return 0, err
		}
		t2 := time.Now()
		hits, misses := store.GatherInto(feats, s)
		t3 := time.Now()
		*labels = nn.SeedLabelsInto(*labels, s, d.Labels)
		l, _, err := model.LossAndGradWS(ws, cmp, feats, *labels)
		if err != nil {
			return 0, err
		}
		t4 := time.Now()
		opt.Step()
		t5 := time.Now()
		loss += l

		st.wait.add(ms64(t1.Sub(t0)))
		st.compact.add(ms64(t2.Sub(t1)))
		st.gather.add(ms64(t3.Sub(t2)))
		st.fwdBwd.add(ms64(t4.Sub(t3)))
		st.step.add(ms64(t5.Sub(t4)))
		st.inputs += float64(len(s.Input))
		st.edges += float64(s.SampledEdges)
		st.gatherBytes += float64(len(s.Input) * d.FeatureDim * 4)
		st.hits += int64(hits)
		st.misses += int64(misses)
		st.batches++
		spans.add(trainerLane, "minibatch", "", t0, t5)
		spans.add(trainerLane, "queue-wait", "minibatch", t0, t1)
		spans.add(trainerLane, "compact", "minibatch", t1, t2)
		spans.add(trainerLane, "gather", "minibatch", t2, t3)
		spans.add(trainerLane, "forward+backward", "minibatch", t3, t4)
		spans.add(trainerLane, "step", "minibatch", t4, t5)
	}
	return loss, nil
}

// evaluate is train.Train's per-epoch accuracy pass over the held-out set.
func evaluate(d *gen.Dataset, model *nn.Model, store *feature.Store, alg sampling.Algorithm, evalSet []int32, o train.Options,
	cmp *nn.Compact, feats *tensor.Matrix, labels *[]int32, ws *nn.Workspace) error {
	a := sampling.CloneAlgorithm(alg)
	er := rng.New(o.Seed ^ 0xEA11)
	for start := 0; start < len(evalSet); start += o.BatchSize {
		end := min(start+o.BatchSize, len(evalSet))
		s := a.Sample(d.Graph, evalSet[start:end], er)
		if err := nn.NewCompactInto(cmp, s); err != nil {
			return err
		}
		store.GatherInto(feats, s)
		*labels = nn.SeedLabelsInto(*labels, s, d.Labels)
		if _, err := model.PredictWS(ws, cmp, feats, *labels); err != nil {
			return err
		}
	}
	return nil
}

// holdout draws train.Train's evaluation set: EvalSize vertices outside
// the training set, in the same draw order.
func holdout(d *gen.Dataset, size int, seed uint64) []int32 {
	n := d.NumVertices()
	inTrain := make([]bool, n)
	for _, v := range d.TrainSet {
		inTrain[v] = true
	}
	r := rng.New(seed ^ 0xE7A1)
	out := make([]int32, 0, size)
	seen := make([]bool, n)
	distinct := 0
	for len(out) < size && distinct < n {
		v := int32(r.Intn(n))
		if !seen[v] {
			seen[v] = true
			distinct++
			if !inTrain[v] {
				out = append(out, v)
			}
		}
	}
	return out
}

func ms64(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
