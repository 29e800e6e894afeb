// Command gnnlab-train runs real sample-based GNN training (actual
// gradients, actual accuracy) on the labelled community dataset, printing
// the per-epoch loss/accuracy curve — the live counterpart of the
// simulated systems, and the engine behind the Figure 16 convergence
// experiment.
//
// Usage:
//
//	gnnlab-train [-model gcn|sage|pinsage] [-trainers N] [-samplers N]
//	             [-target 0.97] [-epochs N] [-scale N]
//	             [-trace out.json] [-metrics] [-pprof addr]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"gnnlab"
	"gnnlab/internal/gen"
	"gnnlab/internal/obs"
)

func main() {
	model := flag.String("model", "sage", "GNN model: gcn, sage, pinsage or gat")
	trainers := flag.Int("trainers", 1, "synchronous data-parallel trainer count")
	samplers := flag.Int("samplers", 2, "concurrent sampler goroutines (0 = 1)")
	target := flag.Float64("target", 0.97, "stop at this evaluation accuracy")
	epochs := flag.Int("epochs", 60, "maximum epochs")
	scale := flag.Int("scale", 1, "dataset scale divisor")
	batch := flag.Int("batch", 128, "mini-batch size")
	lr := flag.Float64("lr", 0.01, "learning rate")
	seed := flag.Uint64("seed", 42, "random seed")
	cacheRatio := flag.Float64("cache", 0, "feature cache ratio (0 = no cache; PreSC policy)")
	checkpoint := flag.String("checkpoint", "", "write the trained model to this path")
	tracePath := flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON file of the run to this path")
	metrics := flag.Bool("metrics", false, "print the observability counters to stderr at the end")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. :6060)")
	flag.Parse()

	var rec *gnnlab.Observer
	if *tracePath != "" || *metrics || *pprofAddr != "" {
		rec = gnnlab.NewObserver()
	}
	if *pprofAddr != "" {
		ds, err := obs.ServeDebug(*pprofAddr, rec.Registry())
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "debug server: http://%s/metrics\n", ds.Addr)
	}

	var kind gnnlab.ModelKind
	switch *model {
	case "gcn":
		kind = gnnlab.ModelGCN
	case "sage":
		kind = gnnlab.ModelGraphSAGE
	case "pinsage":
		kind = gnnlab.ModelPinSAGE
	case "gat":
		kind = gnnlab.ModelGAT
	default:
		log.Fatalf("gnnlab-train: unknown model %q", *model)
	}

	cfg, err := gen.PresetConfig(gnnlab.DatasetConv)
	if err != nil {
		log.Fatal(err)
	}
	cfg = gen.ScaleDown(cfg, *scale)
	cfg.MaterializeFeatures = true
	d, err := gnnlab.GenerateDataset(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %s: %d vertices, %d edges, %d classes, %d training vertices\n",
		d.Name, d.NumVertices(), d.Graph.NumEdges(), d.NumClasses, len(d.TrainSet))

	start := time.Now()
	res, err := gnnlab.Train(d, gnnlab.TrainOptions{
		Model:          kind,
		NumTrainers:    *trainers,
		NumSamplers:    *samplers,
		BatchSize:      *batch,
		LR:             *lr,
		TargetAccuracy: *target,
		MaxEpochs:      *epochs,
		CacheRatio:     *cacheRatio,
		Seed:           *seed,
		Obs:            rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *cacheRatio > 0 {
		fmt.Printf("feature cache: ratio %.0f%%, live hit rate %.1f%%\n",
			100**cacheRatio, 100*res.CacheHitRate)
	}
	if *checkpoint != "" {
		f, err := os.Create(*checkpoint)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.Model.SaveCheckpoint(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("checkpoint written to %s\n", *checkpoint)
	}
	for _, h := range res.History {
		fmt.Printf("epoch %3d  loss %.4f  eval-acc %.3f  updates %d\n",
			h.Epoch, h.Loss, h.EvalAcc, h.Updates)
	}
	if res.Converged {
		fmt.Printf("reached %.0f%% accuracy in %d epochs / %d gradient updates (%v wall)\n",
			100**target, res.EpochsToTarget, res.UpdatesToTarget, time.Since(start).Round(time.Millisecond))
	} else {
		fmt.Printf("did not reach %.0f%%: final accuracy %.3f after %d epochs (%v wall)\n",
			100**target, res.FinalAccuracy, len(res.History), time.Since(start).Round(time.Millisecond))
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := rec.WriteTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events -> %s (open at https://ui.perfetto.dev)\n",
			rec.NumEvents(), *tracePath)
	}
	if *metrics {
		if err := rec.Registry().Snapshot().WriteText(os.Stderr); err != nil {
			log.Fatal(err)
		}
	}
}
