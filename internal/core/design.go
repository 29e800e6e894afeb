package core

import (
	"fmt"

	"gnnlab/internal/cache"
	"gnnlab/internal/obs"
	"gnnlab/internal/obs/account"
	"gnnlab/internal/sched"
	"gnnlab/internal/sim"
)

// DesignKind selects the system architecture.
type DesignKind int

const (
	// DesignGNNLab is the factored space-sharing design (§4–5).
	DesignGNNLab DesignKind = iota
	// DesignTimeSharing runs all stages on every GPU (DGL, T_SOTA).
	DesignTimeSharing
	// DesignCPUSampling samples on host CPUs (PyG).
	DesignCPUSampling
	// DesignBatchMode flips all GPUs between roles once per epoch (AGL).
	DesignBatchMode
)

// String returns the design name.
func (d DesignKind) String() string {
	switch d {
	case DesignGNNLab:
		return "space-sharing"
	case DesignTimeSharing:
		return "time-sharing"
	case DesignCPUSampling:
		return "cpu-sampling"
	case DesignBatchMode:
		return "batch-mode"
	default:
		return fmt.Sprintf("DesignKind(%d)", int(d))
	}
}

// stageTotals accumulates the per-stage time sums a replay reports
// (summed over all epochs; finishAverages divides by the epoch count).
type stageTotals struct {
	g, m, c, e, t float64
}

// epochSpec is one costed epoch, ready for the Simulate layer: the tasks
// with every stage duration assigned, plus how the event engine should
// run them. simulateEpoch executes it.
type epochSpec struct {
	tasks []sim.Task
	// producers > 0 runs Produce→Consume (sim.RunEpoch) with that many
	// producers; 0 means the tasks are pre-staged and only consumed.
	producers int
	opts      sim.ConsumeOptions
	// twoPhase runs batch-mode epochs: produce everything, then swap
	// (topology out, cache in) and consume everything. startAt delays the
	// producers (topology load); phaseGap separates the phases (cache
	// load).
	twoPhase bool
	startAt  float64
	phaseGap float64
}

// Design is the pluggable Cost layer of the Measure→Cost→Simulate
// pipeline. A design turns measured per-batch work into priced
// simulation epochs; it owns the design-specific memory accounting and
// OOM rules, but performs no sampling and no event simulation itself.
// Implementations must be stateless (per-run state travels through
// Plan's return value) and are registered once, at init time, via
// RegisterDesign.
type Design interface {
	// PlanMemory performs the design-specific GPU memory accounting and
	// returns the cache budget, or a plan carrying an OOM error.
	PlanMemory(pc planContext) memPlan
	// Preflight may reject a successfully planned configuration before
	// any sampling happens; it returns an OOM reason, or "" to proceed.
	Preflight(cfg Config, plan memPlan) string
	// Plan runs once per replay, after measurement: probe averages, GPU
	// allocation, any per-run state CostEpoch needs. A non-empty
	// oomReason aborts the replay with an OOM report.
	Plan(rn *runner, rep *Report, plan memPlan, epochs [][]batchWork, haveStandby bool) (state any, oomReason string)
	// CostEpoch prices one epoch's measured work into an epochSpec,
	// accumulating per-stage totals into tot. The epoch index selects
	// the fault plan's slice of injected events and, for designs with a
	// flexible allocation, lets the scheduler react to permanent losses
	// from earlier epochs.
	CostEpoch(rn *runner, rep *Report, state any, epoch int, work []batchWork, tot *stageTotals) epochSpec
}

// designs is the registry the DesignKind dispatch resolves through.
var designs = map[DesignKind]Design{}

// RegisterDesign installs a design implementation for a kind,
// replacing any previous registration. Call it from init functions
// only: the registry is read without locking once runs start.
func RegisterDesign(kind DesignKind, d Design) { designs[kind] = d }

func designFor(kind DesignKind) (Design, error) {
	d, ok := designs[kind]
	if !ok {
		return nil, fmt.Errorf("system: unknown design %v", kind)
	}
	return d, nil
}

func init() {
	RegisterDesign(DesignGNNLab, gnnlabDesign{})
	RegisterDesign(DesignTimeSharing, timeSharingDesign{})
	RegisterDesign(DesignCPUSampling, cpuSamplingDesign{})
	RegisterDesign(DesignBatchMode, batchModeDesign{})
}

// simulateEpoch hands one costed epoch to the event engine and returns
// its makespan, folding trace/standby/fault outcomes into the report.
func (rn runner) simulateEpoch(rep *Report, s epochSpec) float64 {
	switch {
	case s.twoPhase:
		finish := sim.Produce(s.tasks, s.producers, s.startAt)
		var sampleEnd float64
		for _, f := range finish {
			if f > sampleEnd {
				sampleEnd = f
			}
		}
		// Swap phase: topology out, cache in, then consume everything.
		for i := range s.tasks {
			s.tasks[i].Ready = 0
		}
		res := sim.Consume(s.tasks, s.opts)
		rn.foldFaults(rep, res)
		return sampleEnd + s.phaseGap + res.Makespan
	default:
		var res sim.Result
		if s.producers > 0 {
			res = sim.RunEpoch(s.tasks, s.producers, s.opts)
		} else { // pre-staged tasks: nothing to produce
			res = sim.Consume(s.tasks, s.opts)
		}
		rep.TasksByStandby += res.TasksByStandby
		if res.Timeline != nil {
			rep.Timeline = res.Timeline
			rn.accountEpoch(rep, res, s.tasks)
		}
		rn.foldFaults(rep, res)
		return res.Makespan
	}
}

// accountEpoch decomposes the traced epoch's timeline into the exact
// per-lane time accounting and critical path (internal/obs/account).
// The account is a pure function of the simulation result, so it is
// built whenever a timeline is captured — with or without a recorder —
// keeping the Report bit-identical either way.
func (rn runner) accountEpoch(rep *Report, res sim.Result, base []sim.Task) {
	acct, err := account.Build(account.Input{
		Timeline:    res.Timeline,
		Makespan:    res.Makespan,
		FaultEvents: res.FaultEvents,
		Crashes:     res.Crashes,
		Context:     res.Context,
		Tasks:       base,
	})
	if err != nil {
		rn.cfg.Obs.Registry().Counter("account.build_errors").Add(1)
		return
	}
	rep.Account = acct
	sum := acct.Bottleneck()
	rep.Bottleneck = &sum
}

// foldFaults accumulates one epoch's injected-fault outcomes into the
// report. Fault-free epochs contribute nothing, keeping the Report
// bit-identical to a run without a fault plan.
func (rn runner) foldFaults(rep *Report, res sim.Result) {
	rep.RequeuedTasks += res.Requeued
	rep.FaultEvents = append(rep.FaultEvents, res.FaultEvents...)
	if l := rn.cfg.Obs.EventLog(); l.Enabled(obs.LevelWarn) {
		for _, fe := range res.FaultEvents {
			l.Event(obs.LevelWarn, "fault.crash",
				obs.Attr{Key: "consumer", Value: fe.Consumer},
				obs.Attr{Key: "standby", Value: fe.Standby},
				obs.Attr{Key: "task", Value: fe.Task},
				obs.Attr{Key: "start_s", Value: fe.Start},
				obs.Attr{Key: "at_s", Value: fe.At})
		}
	}
}

// gnnlabDesign is the factored space-sharing design (§4–5).
type gnnlabDesign struct{}

// gnnlabState is the per-run state of the factored design.
type gnnlabState struct {
	// reloadPerBatch amortizes partitioned sampling's topology reloads
	// (§5.2 future work) over the epoch's mini-batches as extra Sample
	// time.
	reloadPerBatch float64
	alloc          sched.Allocation
	switching      bool
	// dead is how many permanently crashed trainers the current alloc
	// already accounts for (via sched.Reallocate). When the fault plan
	// reports more permanent losses than this, CostEpoch tries to
	// reallocate; until it succeeds, lost consumers are carried into the
	// sim as dead-from-start.
	dead int
	// pinned disables reallocation when ForceSamplers overrode the
	// flexible scheduler: a pinned split stays pinned.
	pinned bool
}

func (gnnlabDesign) PlanMemory(pc planContext) memPlan {
	plan := pc.base()
	if _, err := pc.fit("sampler GPU",
		part{"reserve", pc.reserve}, part{"topology", pc.topo}, part{"sample-ws", pc.sampleWS},
	); err != nil {
		avail := pc.capBytes - pc.reserve - pc.sampleWS
		if !pc.cfg.PartitionedSampling || avail <= 0 {
			plan.err = err
			return plan
		}
		plan.samplerPartitions = int((pc.topo + avail - 1) / avail)
	}
	trainerFree, err := pc.fit("trainer GPU",
		part{"reserve", pc.reserve}, part{"train-ws", pc.trainWS},
	)
	if err != nil {
		plan.err = err
		return plan
	}
	plan.cacheSlots = pc.slots(trainerFree)
	standbyFree := pc.capBytes - pc.reserve - pc.topo - pc.sampleWS - pc.trainWS
	if standbyFree >= 0 {
		plan.standbySlots = cache.SlotsFor(standbyFree, pc.vfb, pc.n)
	}
	return plan
}

func (gnnlabDesign) Preflight(cfg Config, plan memPlan) string {
	if cfg.NumGPUs == 1 && plan.standbySlots < 0 {
		return "single GPU cannot hold topology and training workspace together"
	}
	return ""
}

func (gnnlabDesign) Plan(rn *runner, rep *Report, plan memPlan, epochs [][]batchWork, haveStandby bool) (any, string) {
	cfg := rn.cfg
	st := &gnnlabState{}
	if plan.samplerPartitions > 1 {
		per := cfg.Cost.PCIeLoadTime(plan.topoBytes / int64(plan.samplerPartitions))
		reloadPerEpoch := float64(plan.samplerPartitions) * per * float64(cfg.Workload.NumLayers())
		st.reloadPerBatch = reloadPerEpoch / float64(len(epochs[0]))
	}
	// Probe epoch 0 to estimate T_s and T_t for flexible scheduling.
	var tsSum, ttSum float64
	probe := epochs[0]
	for _, w := range probe {
		mark, copyT := rn.markAndCopy(w)
		tsSum += rn.sampleDuration(w) + mark + copyT + st.reloadPerBatch
		ttSum += rn.trainerDuration(w, 1, false) + cfg.Cost.TrainTime(w.flops)
	}
	nb := float64(len(probe))
	rep.TsAvg, rep.TtAvg = tsSum/nb, ttSum/nb

	st.alloc = sched.Allocate(cfg.NumGPUs, rep.TsAvg, rep.TtAvg)
	if cfg.ForceSamplers > 0 {
		ns := cfg.ForceSamplers
		if ns > cfg.NumGPUs {
			ns = cfg.NumGPUs
		}
		st.alloc = sched.Allocation{Samplers: ns, Trainers: cfg.NumGPUs - ns}
		st.pinned = true
	}
	rep.Alloc = st.alloc

	st.switching = cfg.DynamicSwitching || st.alloc.Trainers == 0
	if st.switching && !haveStandby {
		if st.alloc.Trainers == 0 {
			return nil, "no trainer GPUs and standby trainer does not fit"
		}
		st.switching = false
	}
	return st, ""
}

func (gnnlabDesign) CostEpoch(rn *runner, rep *Report, state any, epoch int, work []batchWork, tot *stageTotals) epochSpec {
	cfg := rn.cfg
	st := state.(*gnnlabState)
	st.reallocate(rn, rep, epoch)
	tasks := make([]sim.Task, len(work))
	var standbyTaskSum float64
	for i, w := range work {
		g := rn.sampleDuration(w) + st.reloadPerBatch
		mark, copyT := rn.markAndCopy(w)
		extr := rn.trainerDuration(w, st.alloc.Trainers, false)
		train := cfg.Cost.TrainTime(w.flops)
		tasks[i] = sim.Task{Sample: g + mark + copyT, Extract: extr, Train: train}
		if st.switching {
			tasks[i].StandbyExtract = rn.trainerDuration(w, st.alloc.Trainers, true)
			standbyTaskSum += tasks[i].StandbyExtract + train
		}
		tot.g += g
		tot.m += mark
		tot.c += copyT
		tot.e += extr
		tot.t += train
	}
	opts := sim.ConsumeOptions{
		NumTrainers:     st.alloc.Trainers,
		Sync:            cfg.Sync,
		Pipelined:       cfg.Pipelined,
		TrainerTaskTime: rep.TtAvg,
		Trace:           cfg.Trace && rep.Timeline == nil,
		TrainerSlowdown: cfg.TrainerSlowdown,
	}
	if st.switching {
		opts.StandbyAvailable = []float64{} // filled in by RunEpoch
		opts.StandbyTaskTime = standbyTaskSum / float64(len(work))
	}
	// When the scheduler has absorbed every permanent loss into the
	// allocation, inject only this epoch's own events; otherwise carry the
	// lost consumers into the sim as dead-from-start.
	if st.dead == cfg.Faults.PermanentCrashesBefore(epoch) {
		opts.Faults = cfg.Faults.SimFaults(epoch)
	} else {
		opts.Faults = cfg.Faults.SimFaultsPersistent(epoch)
	}
	return epochSpec{tasks: tasks, producers: st.alloc.Samplers, opts: opts}
}

// reallocate reacts to permanent trainer losses from earlier epochs: it
// re-runs the §5.3 split over the surviving GPUs (sched.Reallocate) when
// the result still leaves at least one Sampler and one Trainer — the sim
// needs a producer, and a trainer-less epoch cannot drain the queue. A
// pinned (ForceSamplers) split never moves; when reallocation is not
// possible the dead consumers stay carried into the sim instead.
func (st *gnnlabState) reallocate(rn *runner, rep *Report, epoch int) {
	dead := rn.cfg.Faults.PermanentCrashesBefore(epoch)
	if dead == st.dead || st.pinned {
		return
	}
	alloc, ok := sched.Reallocate(st.alloc, dead-st.dead, rep.TsAvg, rep.TtAvg)
	if !ok || alloc.Samplers < 1 || alloc.Trainers < 1 {
		return
	}
	st.alloc = alloc
	st.dead = dead
	rep.Reallocations++
	if l := rn.cfg.Obs.EventLog(); l.Enabled(obs.LevelWarn) {
		l.Event(obs.LevelWarn, "sched.reallocate",
			obs.Attr{Key: "epoch", Value: epoch},
			obs.Attr{Key: "dead", Value: dead},
			obs.Attr{Key: "samplers", Value: alloc.Samplers},
			obs.Attr{Key: "trainers", Value: alloc.Trainers})
	}
}

// timeSharingDesign is the conventional design (DGL, T_SOTA): every GPU
// performs Sample→Extract→Train sequentially on its own mini-batches.
type timeSharingDesign struct{}

func (timeSharingDesign) PlanMemory(pc planContext) memPlan {
	plan := pc.base()
	free, err := pc.fit("GPU",
		part{"reserve", pc.reserve}, part{"topology", pc.topo},
		part{"sample-ws", pc.sampleWS}, part{"train-ws", pc.trainWS},
	)
	if err != nil {
		plan.err = err
		return plan
	}
	plan.cacheSlots = pc.slots(free)
	return plan
}

func (timeSharingDesign) Preflight(Config, memPlan) string { return "" }

func (timeSharingDesign) Plan(rn *runner, rep *Report, plan memPlan, epochs [][]batchWork, haveStandby bool) (any, string) {
	rep.Alloc = sched.Allocation{Samplers: 0, Trainers: rn.cfg.NumGPUs}
	return nil, ""
}

func (timeSharingDesign) CostEpoch(rn *runner, rep *Report, _ any, epoch int, work []batchWork, tot *stageTotals) epochSpec {
	cfg := rn.cfg
	tasks := make([]sim.Task, len(work))
	for i, w := range work {
		g := rn.sampleDuration(w)
		mark := rn.markTime(w)
		extr := rn.extractOnly(w, cfg.NumGPUs, false)
		train := cfg.Cost.TrainTime(w.flops)
		// Time sharing serializes S, E and T on one GPU: fold the
		// pre-train stages into the consumer's Extract slot.
		tasks[i] = sim.Task{Extract: g + mark + extr, Train: train}
		tot.g += g
		tot.m += mark
		tot.e += extr
		tot.t += train
	}
	return epochSpec{tasks: tasks, opts: sim.ConsumeOptions{
		NumTrainers: cfg.NumGPUs,
		Sync:        cfg.Sync,
		Pipelined:   cfg.Pipelined,
		Trace:       cfg.Trace && rep.Timeline == nil,
		// Fixed pools cannot reallocate: lost GPUs stay lost.
		Faults: cfg.Faults.SimFaultsPersistent(epoch),
	}}
}

// cpuSamplingDesign is the PyG baseline: host CPU workers sample, GPUs
// extract (uncached) and train.
type cpuSamplingDesign struct{}

func (cpuSamplingDesign) PlanMemory(pc planContext) memPlan {
	plan := pc.base()
	if _, err := pc.fit("GPU",
		part{"reserve", pc.reserve}, part{"train-ws", pc.trainWS},
	); err != nil {
		plan.err = err
		return plan
	}
	plan.cacheSlots = 0 // PyG has no feature cache
	return plan
}

func (cpuSamplingDesign) Preflight(Config, memPlan) string { return "" }

func (cpuSamplingDesign) Plan(rn *runner, rep *Report, plan memPlan, epochs [][]batchWork, haveStandby bool) (any, string) {
	rep.Alloc = sched.Allocation{Samplers: 0, Trainers: rn.cfg.NumGPUs}
	return nil, ""
}

func (cpuSamplingDesign) CostEpoch(rn *runner, rep *Report, _ any, epoch int, work []batchWork, tot *stageTotals) epochSpec {
	cfg := rn.cfg
	tasks := make([]sim.Task, len(work))
	for i, w := range work {
		g := rn.sampleDuration(w)
		extr := rn.extractOnly(w, cfg.NumGPUs, false)
		train := cfg.Cost.TrainTime(w.flops)
		tasks[i] = sim.Task{Sample: g, Extract: extr, Train: train}
		tot.g += g
		tot.e += extr
		tot.t += train
	}
	return epochSpec{tasks: tasks, producers: cfg.CPUSamplerWorkers, opts: sim.ConsumeOptions{
		NumTrainers: cfg.NumGPUs,
		Sync:        cfg.Sync,
		Pipelined:   cfg.Pipelined,
		Trace:       cfg.Trace && rep.Timeline == nil,
		Faults:      cfg.Faults.SimFaultsPersistent(epoch),
	}}
}

// batchModeDesign is the AGL-style design: per epoch, all GPUs load
// topology and sample everything, then swap to the feature cache and
// train.
type batchModeDesign struct{}

// batchModeState carries the phase-swap PCIe costs.
type batchModeState struct {
	topoLoad, cacheLoad float64
}

func (batchModeDesign) PlanMemory(pc planContext) memPlan {
	plan := pc.base()
	if _, err := pc.fit("sampling phase",
		part{"reserve", pc.reserve}, part{"topology", pc.topo}, part{"sample-ws", pc.sampleWS},
	); err != nil {
		plan.err = err
		return plan
	}
	trainFree, err := pc.fit("training phase",
		part{"reserve", pc.reserve}, part{"train-ws", pc.trainWS},
	)
	if err != nil {
		plan.err = err
		return plan
	}
	plan.cacheSlots = pc.slots(trainFree)
	return plan
}

func (batchModeDesign) Preflight(Config, memPlan) string { return "" }

func (batchModeDesign) Plan(rn *runner, rep *Report, plan memPlan, epochs [][]batchWork, haveStandby bool) (any, string) {
	cfg := rn.cfg
	// The same GPUs alternate between the two roles each epoch — a phased
	// allocation, not two disjoint pools of NumGPUs each.
	rep.Alloc = sched.Allocation{Samplers: cfg.NumGPUs, Trainers: cfg.NumGPUs, Phased: true}
	return batchModeState{
		topoLoad:  cfg.Cost.PCIeLoadTime(plan.topoBytes),
		cacheLoad: cfg.Cost.PCIeLoadTime(plan.cacheBytes),
	}, ""
}

func (batchModeDesign) CostEpoch(rn *runner, rep *Report, state any, epoch int, work []batchWork, tot *stageTotals) epochSpec {
	cfg := rn.cfg
	st := state.(batchModeState)
	tasks := make([]sim.Task, len(work))
	for i, w := range work {
		g := rn.sampleDuration(w)
		mark := rn.markTime(w)
		extr := rn.extractOnly(w, cfg.NumGPUs, false)
		train := cfg.Cost.TrainTime(w.flops)
		tasks[i] = sim.Task{Sample: g + mark, Extract: extr, Train: train}
		tot.g += g
		tot.m += mark
		tot.e += extr
		tot.t += train
	}
	return epochSpec{
		tasks:     tasks,
		producers: cfg.NumGPUs,
		opts: sim.ConsumeOptions{
			NumTrainers: cfg.NumGPUs,
			Sync:        cfg.Sync,
			Pipelined:   cfg.Pipelined,
			Faults:      cfg.Faults.SimFaultsPersistent(epoch),
		},
		twoPhase: true,
		startAt:  st.topoLoad,
		phaseGap: st.cacheLoad,
	}
}
