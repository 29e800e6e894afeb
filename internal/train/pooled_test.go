package train

import (
	"bytes"
	"testing"

	"gnnlab/internal/cache"
	"gnnlab/internal/fault"
	"gnnlab/internal/feature"
	"gnnlab/internal/nn"
	"gnnlab/internal/obs"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
	"gnnlab/internal/tensor"
	"gnnlab/internal/workload"
)

// TestTrainPooledMatchesFresh is the end-to-end bit-identicality contract
// of the pooled training path: for every data-parallel width and cache
// configuration, a run reusing each trainer's minibatch scratch produces
// exactly the loss history, accuracy trajectory, hit rate and final
// parameters of a run that hands every minibatch and evaluation batch a
// brand-new scratch (the freshScratch hook).
func TestTrainPooledMatchesFresh(t *testing.T) {
	d := convDataset(t)
	cases := []struct {
		name       string
		trainers   int
		samplers   int
		cacheRatio float64
	}{
		{"1trainer", 1, 0, 0},
		{"2trainers", 2, 0, 0},
		{"4trainers", 4, 0, 0},
		{"1trainer_cache", 1, 0, 0.05},
		{"2trainers_cache", 2, 0, 0.05},
		{"4trainers_cache", 4, 0, 0.05},
		{"2trainers_2samplers", 2, 2, 0.05},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := Options{
				Model:          workload.GraphSAGE,
				NumTrainers:    tc.trainers,
				NumSamplers:    tc.samplers,
				CacheRatio:     tc.cacheRatio,
				CachePolicy:    cache.PolicyDegree,
				TargetAccuracy: 1.01, // unreachable: fixed-length runs
				MaxEpochs:      2,
				EvalSize:       200,
			}
			fresh := base
			fresh.freshScratch = true
			recF := obs.NewRecorder()
			fresh.Obs = recF
			resF, err := Train(d, fresh)
			if err != nil {
				t.Fatal(err)
			}
			// The reference never touches the pooled scratches.
			if n := recF.Registry().Snapshot().Counters["train.scratch_samples"]; n != 0 {
				t.Errorf("fresh-scratch run used the pooled scratches for %d minibatches", n)
			}
			pooled := base
			rec := obs.NewRecorder()
			pooled.Obs = rec
			resP, err := Train(d, pooled)
			if err != nil {
				t.Fatal(err)
			}

			if len(resF.History) != len(resP.History) {
				t.Fatalf("history lengths %d vs %d", len(resF.History), len(resP.History))
			}
			for i, hf := range resF.History {
				hp := resP.History[i]
				if hf != hp {
					t.Errorf("epoch %d: fresh %+v != pooled %+v", i, hf, hp)
				}
			}
			if resF.CacheHitRate != resP.CacheHitRate {
				t.Errorf("hit rate: fresh %v != pooled %v", resF.CacheHitRate, resP.CacheHitRate)
			}
			if resF.Converged != resP.Converged || resF.FinalAccuracy != resP.FinalAccuracy {
				t.Errorf("outcome: fresh (%v, %v) != pooled (%v, %v)",
					resF.Converged, resF.FinalAccuracy, resP.Converged, resP.FinalAccuracy)
			}
			var ckF, ckP bytes.Buffer
			if err := resF.Model.SaveCheckpoint(&ckF); err != nil {
				t.Fatal(err)
			}
			if err := resP.Model.SaveCheckpoint(&ckP); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ckF.Bytes(), ckP.Bytes()) {
				t.Error("final checkpoints differ between fresh and pooled runs")
			}

			// The pooled run surfaces its reuse in the obs counters.
			snap := rec.Registry().Snapshot()
			if n := snap.Counters["train.scratch_samples"]; n == 0 {
				t.Error("train.scratch_samples counter not exported")
			}
			if r := snap.Counters["train.scratch_reuses"]; r == 0 {
				t.Error("train.scratch_reuses = 0: workspaces never reached steady state")
			}
			if r := snap.Counters["feature.gather_reuse"]; r == 0 {
				t.Error("feature.gather_reuse = 0: gather buffers never reused")
			}
		})
	}
}

// TestTrainPooledRecoversFromCrash re-checks the fault-injection path with
// pooled buffers: a crashed epoch restores the checkpoint and the final
// history matches an uninjected pooled run bit for bit.
func TestTrainPooledRecoversFromCrash(t *testing.T) {
	d := convDataset(t)
	base := Options{
		Model:          workload.GraphSAGE,
		NumTrainers:    2,
		TargetAccuracy: 1.01,
		MaxEpochs:      2,
		EvalSize:       200,
	}
	clean, err := Train(d, base)
	if err != nil {
		t.Fatal(err)
	}
	injected := base
	injected.Faults = &fault.Plan{Events: []fault.Event{
		{Kind: fault.KindTrainerCrash, Epoch: 1, At: 0.5},
	}}
	res, err := Train(d, injected)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", res.Recoveries)
	}
	for i, hc := range clean.History {
		if res.History[i] != hc {
			t.Errorf("epoch %d: recovered %+v != clean %+v", i, res.History[i], hc)
		}
	}
}

// TestMinibatchSteadyStateZeroAllocs pins the whole per-minibatch compute
// path — Compact rebuild, feature gather, label gather, forward+backward,
// gradient averaging and the optimizer step — at zero heap allocations
// once the scratch is warm, with and without a feature cache. (Dims are
// kept small so tensor.MatMul stays on its serial path; the parallel
// path spawns goroutines, which allocate.)
func TestMinibatchSteadyStateZeroAllocs(t *testing.T) {
	d := convDataset(t)
	spec := workload.Spec{Kind: workload.GraphSAGE, HiddenDim: 16, BatchSize: 16}
	alg := spec.NewSampler()
	sampling.Prepare(alg, d.Graph)
	s := alg.Sample(d.Graph, d.TrainSet[:16], rng.New(7))

	for _, withCache := range []bool{false, true} {
		name := "nocache"
		if withCache {
			name = "cache"
		}
		t.Run(name, func(t *testing.T) {
			store, err := feature.NewStore(d.Features, d.FeatureDim)
			if err != nil {
				t.Fatal(err)
			}
			if withCache {
				slots := d.NumVertices() / 10
				ranking := cache.DegreeHotness(d.Graph).RankTop(slots)
				table, err := cache.Load(ranking, slots, d.NumVertices(), int64(d.FeatureDim)*4)
				if err != nil {
					t.Fatal(err)
				}
				if err := store.EnableCache(table); err != nil {
					t.Fatal(err)
				}
			}
			model := nn.NewModel(spec.Kind, spec.NumLayers(), d.FeatureDim, spec.HiddenDim, d.NumClasses, 11)
			opt := tensor.NewAdam(0.01, model.Params())
			sc := newMinibatchScratch()
			run := func() {
				if err := nn.NewCompactInto(&sc.compact, s); err != nil {
					t.Fatal(err)
				}
				store.GatherInto(&sc.feats, s)
				sc.labels = nn.SeedLabelsInto(sc.labels, s, d.Labels)
				if _, _, err := model.LossAndGradWS(sc.ws, &sc.compact, &sc.feats, sc.labels); err != nil {
					t.Fatal(err)
				}
				averageGrads(opt.Params(), 1)
				opt.Step()
			}
			for i := 0; i < 3; i++ {
				run()
			}
			if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
				t.Errorf("steady-state minibatch allocates %v/op", allocs)
			}
		})
	}
}
