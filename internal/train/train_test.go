package train

import (
	"math"
	"strings"
	"testing"

	"gnnlab/internal/gen"
	"gnnlab/internal/workload"
)

// convDataset returns a small labelled community graph for fast tests.
func convDataset(t *testing.T) *gen.Dataset {
	t.Helper()
	cfg, err := gen.PresetConfig(gen.PresetConv)
	if err != nil {
		t.Fatal(err)
	}
	cfg = gen.ScaleDown(cfg, 4)
	cfg.MaterializeFeatures = true
	d, err := gen.Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTrainConverges checks that real GraphSAGE training on the community
// dataset reaches a nontrivial accuracy target — the substance behind the
// convergence experiment (§7.7).
func TestTrainConverges(t *testing.T) {
	d := convDataset(t)
	res, err := Train(d, Options{
		Model:          workload.GraphSAGE,
		TargetAccuracy: 0.85,
		MaxEpochs:      30,
		EvalSize:       400,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := res.History[len(res.History)-1]
	t.Logf("converged=%v epochs=%d updates=%d finalAcc=%.3f loss=%.3f",
		res.Converged, len(res.History), last.Updates, res.FinalAccuracy, last.Loss)
	if !res.Converged {
		t.Fatalf("did not reach 0.85 accuracy in 30 epochs (final %.3f)", res.FinalAccuracy)
	}
}

// TestTrainMoreTrainersFewerUpdates verifies the Fig 16(b) accounting: the
// same number of mini-batches with a wider data-parallel group yields
// fewer gradient updates per epoch.
func TestTrainMoreTrainersFewerUpdates(t *testing.T) {
	d := convDataset(t)
	run := func(trainers int) *Result {
		res, err := Train(d, Options{
			Model:          workload.GraphSAGE,
			NumTrainers:    trainers,
			TargetAccuracy: 1.01, // unreachable: measure full epochs
			MaxEpochs:      2,
			EvalSize:       200,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	four := run(4)
	u1 := one.History[0].Updates
	u4 := four.History[0].Updates
	t.Logf("updates per epoch: 1 trainer %d, 4 trainers %d", u1, u4)
	if u4*2 >= u1 {
		t.Errorf("4 trainers should give ~4x fewer updates per epoch: got %d vs %d", u4, u1)
	}
}

// TestTrainRejectsOutOfRangeOptions: negative sizes and counts and
// non-finite rates fail with an error naming the field instead of
// panicking or being silently reinterpreted.
func TestTrainRejectsOutOfRangeOptions(t *testing.T) {
	d := convDataset(t)
	cases := []struct {
		field string
		opts  Options
	}{
		{"NumTrainers", Options{NumTrainers: -1}},
		{"NumSamplers", Options{NumSamplers: -1}},
		{"BatchSize", Options{BatchSize: -5}},
		{"HiddenDim", Options{HiddenDim: -8}},
		{"MaxEpochs", Options{MaxEpochs: -1}},
		{"EvalSize", Options{EvalSize: -100}},
		{"LR", Options{LR: math.NaN()}},
		{"LR", Options{LR: math.Inf(1)}},
		{"LR", Options{LR: -0.01}},
		{"TargetAccuracy", Options{TargetAccuracy: math.NaN()}},
		{"CacheRatio", Options{CacheRatio: math.NaN()}},
		{"CacheRatio", Options{CacheRatio: -0.1}},
		{"CacheRatio", Options{CacheRatio: 1.5}},
	}
	for _, tc := range cases {
		res, err := Train(d, tc.opts)
		if err == nil {
			t.Errorf("%+v: accepted (%d epochs)", tc.opts, len(res.History))
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: error %q does not name %s", tc.opts, err, tc.field)
		}
	}
}
