package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"gnnlab/internal/core"
	"gnnlab/internal/device"
	"gnnlab/internal/gen"
	"gnnlab/internal/measure"
	"gnnlab/internal/obs"
	"gnnlab/internal/sampling"
	"gnnlab/internal/workload"
)

const (
	// sweepScale shrinks PA by 2 (555k vertices, 8.0M edges) and the
	// simulated GPUs with it, as gnnlab-bench -scale 2 does.
	sweepScale  = 2
	sweepGPUs   = 8
	sweepEpochs = 3
)

// sweepConfigs is the Table 4 row set on PA: PyG, DGL, T_SOTA and GNNLab
// for GCN, GraphSAGE and PinSAGE (PyG has no PinSAGE), on 8 GPUs.
func sweepConfigs(seed uint64, rec *obs.Recorder) []core.Config {
	var out []core.Config
	for _, kind := range workload.Kinds() {
		w := workload.NewSpec(kind)
		w.BatchSize = workload.DefaultBatchSize / sweepScale
		for _, mk := range []func(workload.Spec, int) core.Config{core.PyG, core.DGL, core.TSOTA, core.GNNLab} {
			cfg := mk(w, sweepGPUs)
			if kind == workload.PinSAGE && cfg.Design == core.DesignCPUSampling {
				continue
			}
			cfg.GPUMemory = device.DefaultGPUMemory / sweepScale
			cfg.MemScale = sweepScale
			cfg.Epochs = sweepEpochs
			cfg.Seed = seed
			cfg.Obs = rec
			cfg.Trace = rec != nil
			out = append(out, cfg)
		}
	}
	return out
}

func paDataset(seed uint64) (*gen.Dataset, error) {
	cfg, err := gen.PresetConfig(gen.PresetPA)
	if err != nil {
		return nil, err
	}
	cfg = gen.ScaleDown(cfg, sweepScale)
	cfg.Seed = seed
	return gen.Generate(cfg)
}

// sweepResult is one measured sweep.
type sweepResult struct {
	wall, measure, replay float64 // seconds
	digest                [32]byte
	oom                   []string
	storeHits, storeMiss  int64
	allocMB               float64
}

// sweep runs Measure then Replay for every configuration against a fresh
// measurement store, as gnnlab-bench does for a table. It starts from a
// collected heap, so no sweep pays for collecting the one before it.
func sweep(r *run, d *gen.Dataset, cfgs []core.Config) (sweepResult, error) {
	runtime.GC()
	var res sweepResult
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc
	store := measure.NewStore()
	h := sha256.New()
	start := time.Now()
	for _, cfg := range cfgs {
		cfg.MeasureStore = store
		t0 := time.Now()
		m, err := core.Measure(d, cfg)
		if err != nil {
			return res, fmt.Errorf("%s/%s: %w", cfg.Name, cfg.Workload.Name(), err)
		}
		t1 := time.Now()
		rep, err := core.Replay(m, cfg)
		if err != nil {
			return res, fmt.Errorf("%s/%s: %w", cfg.Name, cfg.Workload.Name(), err)
		}
		t2 := time.Now()
		res.measure += t1.Sub(t0).Seconds()
		res.replay += t2.Sub(t1).Seconds()
		// The digest covers the Report's figures, not the timeline and
		// account that only a traced run attaches.
		if rep.OOM {
			res.oom = append(res.oom, cfg.Name+"/"+cfg.Workload.Name())
		}
		c := *rep
		c.Timeline, c.Account, c.Bottleneck = nil, nil, nil
		fmt.Fprintf(h, "%+v\n", c)
	}
	res.wall = time.Since(start).Seconds()
	h.Sum(res.digest[:0])
	res.storeHits, res.storeMiss = store.Stats()
	runtime.ReadMemStats(&ms)
	res.allocMB = float64(ms.TotalAlloc-alloc) / (1 << 20)
	r.noteLiveHeap()
	runtime.KeepAlive(store)
	return res, nil
}

func runSimSweep(r *run) error {
	var d *gen.Dataset
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		// Each set-up starts from a collected heap holding no earlier
		// dataset, so the peak memory holds one dataset, not two.
		d = nil
		runtime.GC()
		start := time.Now()
		var err error
		if d, err = paDataset(r.inputSeed(1)); err != nil {
			return err
		}
		for _, kind := range workload.Kinds() {
			sampling.Prepare(workload.NewSpec(kind).NewSampler(), d.Graph)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", median(setups))

	cfgs := sweepConfigs(r.inputSeed(2), r.rec)
	reg := r.rec.Registry()
	var first [32]byte
	var wall, rate, meas, replay, alloc, hitRate dist
	var sampled, scanned int64
	var measureSecs float64
	for end := r.deadline(); wall.n() < 2 || time.Now().Before(end); {
		sampled0, scanned0 := reg.Counter("measure.sampled_edges").Value(), reg.Counter("measure.scanned_edges").Value()
		res, err := sweep(r, d, cfgs)
		if err != nil {
			return err
		}
		r.attempted += int64(len(cfgs))
		if wall.n() == 0 {
			first = res.digest
			r.logf("cells out of memory: %v", res.oom)
		} else if res.digest != first {
			r.failed += int64(len(cfgs))
			r.check(false, "sweep %d: report digest %x differs from the first sweep's %x", wall.n(), res.digest[:8], first[:8])
		}
		wall.add(res.wall * 1e3)
		rate.add(float64(len(cfgs)) / res.wall)
		meas.add(res.measure)
		replay.add(res.replay)
		alloc.add(res.allocMB)
		hitRate.add(float64(res.storeHits) / float64(res.storeHits+res.storeMiss))
		sampled += reg.Counter("measure.sampled_edges").Value() - sampled0
		scanned += reg.Counter("measure.scanned_edges").Value() - scanned0
		measureSecs += res.measure
	}
	r.logf("sweep digest %x over %d sweeps of %d cells", first[:8], wall.n(), len(cfgs))
	if !r.trace {
		r.set("work_per_s", rate.median())
		r.set("p50_ms", wall.median())
		r.set("ok_frac", 1-float64(r.failed)/float64(r.attempted))
		return nil
	}
	sweeps := float64(wall.n())
	spans, err := spanSeconds(r.rec, "Cost")
	if err != nil {
		return err
	}
	r.set("trace.work_per_s", rate.median())
	r.set("measure.measure_s", meas.median())
	r.set("measure.sampled_edges", float64(sampled)/sweeps)
	r.set("measure.ns_per_scanned_edge", measureSecs*1e9/float64(max(scanned, 1)))
	r.set("measure.store_hit_rate", hitRate.median())
	r.set("core.replay_s", replay.median())
	r.set("core.build_cache_s", spans["build-cache"]/sweeps)
	r.set("core.probe_cache_s", spans["probe-cache"]/sweeps)
	r.set("core.cost_simulate_s", spans["cost+simulate"]/sweeps)
	r.set("sweep.alloc_mb", alloc.median())
	return nil
}
