package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"gnnlab/internal/cache"
	"gnnlab/internal/feature"
	"gnnlab/internal/gen"
	"gnnlab/internal/nn"
	"gnnlab/internal/rng"
	"gnnlab/internal/sampling"
	"gnnlab/internal/serve"
	"gnnlab/internal/tensor"
	"gnnlab/internal/workload"
)

const (
	serveDeadline = 0.050 // seconds
	serveBatchCap = 128
	zipfExponent  = 1.1
	// serveCycles is how often the run climbs the rate ladder; each
	// figure is the median over the cycles, so a burst of noise on the
	// machine moves one phase and not the result.
	serveCycles = 5
	// serveWarmup is the head of each phase, on a fresh server, whose
	// requests are served and checked but left out of the figures.
	serveWarmup = 0.2 // seconds
	minPhase    = 2.5 * serveWarmup
	// latencyRate is the rate whose median latency is p50_ms: far below
	// the knee, so it measures the cost of one request rather than
	// queueing, which magnifies any change in the machine's speed.
	// overloadRate, past the knee, gives the server's capacity as
	// work_per_s. ok_frac covers the rates up to the knee.
	latencyRate  = 1000
	kneeRate     = 4000
	overloadRate = 8000
	// probeBatches is how many recorded microbatches the traced run
	// replays stage by stage.
	probeBatches = 256
)

// serveLadder is the offered load in requests per second, with each
// rate's share of a cycle. The lowest rate gets the most time so that each
// of its phases holds the thousand requests a p99 needs.
var serveLadder = []struct {
	rate   int
	weight float64
}{{latencyRate, 2}, {kneeRate, 1}, {overloadRate, 1}}

func serveOptions(seed uint64) serve.Options {
	return serve.Options{
		Spec:       workload.Spec{Kind: workload.GraphSAGE, HiddenDim: 64, BatchSize: serveBatchCap},
		BatchSize:  serveBatchCap,
		Deadline:   serveDeadline,
		CacheRatio: 0.10,
		Seed:       seed,
	}
}

func runServeZipf(r *run) error {
	o := serveOptions(r.inputSeed(2))
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
		if _, err := serve.New(d, o); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", median(setups))
	o.Obs = r.rec

	// One long-lived server faces the whole ladder, as a deployed one
	// would; each phase ends with its queue drained.
	s, err := serve.New(d, o)
	if err != nil {
		return err
	}
	perm := rng.New(r.inputSeed(3)).Perm(d.NumVertices())
	var weights float64
	for _, l := range serveLadder {
		weights += l.weight
	}
	seen := &seenSet{at: make([]int64, d.NumVertices())}
	figures := map[int][]map[string]float64{}
	var probe [][]int32
	var okSent, ok int64
	for c := 0; c < serveCycles; c++ {
		for _, l := range serveLadder {
			rate := l.rate
			arrivals := rng.New(r.inputSeed(4)).Split(uint64(c)<<32 | uint64(rate))
			p, err := runPhase(r, s, d, perm, seen, arrivals, rate, max(minPhase, r.seconds/serveCycles*l.weight/weights))
			if err != nil {
				return err
			}
			r.attempted += p.gen.sent
			f := p.figures()
			figures[rate] = append(figures[rate], f)
			r.logf("cycle %d r%d: latency p50 %.3gms tail %.3gms, served %.0f/s, goodput %.0f/s, lost %.3g",
				c, rate, f["latency_ms_p50"], f["latency_ms_tail"], f["served_rps"], f["goodput_rps"], f["lost_frac"])
			if rate != overloadRate {
				okSent += p.gen.measured
				ok += p.measuredServed
			}
			if rate == kneeRate && probe == nil {
				probe = p.batches
			}
		}
	}
	r.noteLiveHeap()
	// Shutdown: nothing may be left to drain, and a closed server
	// refuses new requests.
	s.Close()
	drained, err := s.Drain()
	if err != nil {
		return err
	}
	qs := s.QueueStats()
	r.check(drained == 0, "Drain completed %d requests after the last phase drained", drained)
	r.check(qs.Enqueued == qs.Dequeued, "queue enqueued %d, dequeued %d", qs.Enqueued, qs.Dequeued)
	if t, out := s.Submit(0); out == serve.Admitted {
		r.check(false, "Submit after Close admitted a request")
		s.Release(t)
	}
	r.set("feature.hit_rate", s.CacheHitRate())
	med := func(rate int, name string) float64 {
		var xs []float64
		for _, f := range figures[rate] {
			xs = append(xs, f[name])
		}
		return median(xs)
	}
	for _, l := range serveLadder {
		rate := l.rate
		r.logf("r%d over %d phases: latency p50 %.3gms tail %.3gms (%s), served %.0f/s, goodput %.0f/s, lost %.3g, drain %.3gms",
			rate, serveCycles, med(rate, "latency_ms_p50"), med(rate, "latency_ms_tail"),
			describeTail(med(rate, "latency_tail_q"), int(med(rate, "latency_n"))),
			med(rate, "served_rps"), med(rate, "goodput_rps"), med(rate, "lost_frac"), med(rate, "drain_ms"))
	}
	if !r.trace {
		r.set("p50_ms", med(latencyRate, "latency_ms_p50"))
		r.set("work_per_s", med(overloadRate, "served_rps"))
		r.set("ok_frac", float64(ok)/float64(okSent))
		return nil
	}
	maxOK, sustained := 0, true
	for _, l := range serveLadder {
		rate := l.rate
		for _, m := range servePhaseFigures {
			r.set(fmt.Sprintf("serve.%s.r%d", m.name, rate), med(rate, m.name))
		}
		r.set(fmt.Sprintf("loadgen.late_ms_tail.r%d", rate), med(rate, "late_ms_tail"))
		// A sustained rate keeps its tail within the deadline, loses at
		// most 1% of requests and drains its backlog within one deadline
		// once the generator stops.
		sustained = sustained && med(rate, "latency_ms_tail") <= serveDeadline*1e3 &&
			med(rate, "lost_frac") <= 0.01 && med(rate, "drain_ms") <= serveDeadline*1e3
		if sustained {
			maxOK = rate
		}
	}
	r.set("trace.work_per_s", med(overloadRate, "served_rps"))
	r.set("serve.max_ok_rps", float64(maxOK))
	return replayServeStages(r, d, o, probe)
}

// servePhaseFigures are the per-phase figures the traced run reports as
// serve.<name>.r<rate>.
var servePhaseFigures = []metricDef{
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_tail", "ms", "lower"},
	{"served_rps", "1/s", "higher"},
	{"goodput_rps", "1/s", "higher"},
	{"submit_us_p50", "us", "lower"},
	{"submit_us_tail", "us", "lower"},
	{"queue_wait_ms", "ms", "lower"},
	{"step_ms_p50", "ms", "lower"},
	{"step_ms_tail", "ms", "lower"},
	{"batch_size", "count", "higher"},
	{"dedup_frac", "fraction", "higher"},
	{"rerank_step_ms", "ms", "lower"},
	{"shed_full_frac", "fraction", "lower"},
	{"shed_deadline_frac", "fraction", "lower"},
	{"expired_frac", "fraction", "lower"},
	{"allocs_per_req", "count", "lower"},
}

// admitted is one admitted request on its way from the generator to the
// dispatcher, which reads and releases its ticket.
type admitted struct {
	t        *serve.Ticket
	due      time.Time
	submitAt time.Time
}

// handoff passes admitted requests from the generator goroutine to the
// dispatcher in admission order without ever blocking the generator.
type handoff struct {
	mu   sync.Mutex
	recs []admitted
	bell chan struct{}
}

func (h *handoff) push(a admitted) {
	h.mu.Lock()
	h.recs = append(h.recs, a)
	h.mu.Unlock()
	select {
	case h.bell <- struct{}{}:
	default:
	}
}

// take moves the pending records onto dst.
func (h *handoff) take(dst []admitted) []admitted {
	h.mu.Lock()
	dst = append(dst, h.recs...)
	h.recs = h.recs[:0]
	h.mu.Unlock()
	return dst
}

// genStats is what the generator goroutine measured; the dispatcher reads
// it only after the generator has exited.
type genStats struct {
	sent, shedFull, shedDeadline, other int64
	measured                            int64 // sent after the warm-up
	late, submit                        dist
}

// generate offers open-loop Poisson traffic of Zipf-drawn vertices at the
// given rate for dur, timing each request from its due time.
func generate(s *serve.Server, r *rng.Rand, perm []int32, rate int, start time.Time, dur float64, h *handoff, g *genStats) {
	zipf := rng.NewZipf(uint64(len(perm)), zipfExponent)
	for due := r.ExpFloat64() / float64(rate); due < dur; due += r.ExpFloat64() / float64(rate) {
		dueAt := start.Add(seconds(due))
		if wait := time.Until(dueAt); wait > 0 {
			time.Sleep(wait)
		}
		v := perm[zipf.Draw(r)]
		t0 := time.Now()
		t, out := s.Submit(v)
		t1 := time.Now()
		g.sent++
		if due >= serveWarmup {
			g.measured++
		}
		g.late.add(ms64(t0.Sub(dueAt)))
		g.submit.add(float64(t1.Sub(t0)) / float64(time.Microsecond))
		switch out {
		case serve.Admitted:
			h.push(admitted{t: t, due: dueAt, submitAt: t0})
		case serve.ShedQueueFull:
			g.shedFull++
		case serve.ShedDeadline:
			g.shedDeadline++
		default:
			g.other++
		}
	}
}

// seenSet finds the distinct vertices of a Step: at[v] == gen marks v as
// seen in the current one.
type seenSet struct {
	at  []int64
	gen int64
}

// stepRec is one non-empty Step: the cumulative completion count after it
// and its start and end.
type stepRec struct {
	cum        int64
	start, end time.Time
}

// phase is one rate of the ladder on a fresh server, measured.
type phase struct {
	rate               int
	start, measureFrom time.Time
	dur                float64
	served, expired    int64
	gen                genStats
	measuredServed     int64
	inDeadline         int64 // measured requests served within the deadline
	latency            dist  // ms, due time to the return of the serving Step
	queueWait, step    dist  // ms
	rerankStep         dist  // ms, Steps during which the cache was reranked
	steps              int64
	hitRate            float64
	mallocs            uint64
	drainMs            float64

	// The served requests of the Step being resolved, and what the
	// phase's Steps held.
	batch                []int32
	seen                 *seenSet
	closedSteps          int64
	stepServed, distinct int64
	batches              [][]int32
}

// runPhase offers one rate to the server for dur: one generator goroutine
// submits, this goroutine dispatches Steps and resolves every ticket until
// the queue is empty again, and the phase's ledger is checked.
func runPhase(r *run, s *serve.Server, d *gen.Dataset, perm []int32, seen *seenSet, arrivals *rng.Rand, rate int, dur float64) (*phase, error) {
	start := time.Now().Add(time.Millisecond)
	p := &phase{
		rate:        rate,
		start:       start,
		measureFrom: start.Add(seconds(serveWarmup)),
		dur:         dur,
		seen:        seen,
	}
	reranks := r.rec.Registry().Counter("serve.cache_reranks")
	spans := newSpanLog(r, [2]string{"Serve", fmt.Sprintf("dispatcher-r%d", rate)})
	h := &handoff{bell: make(chan struct{}, 1)}
	genDone := make(chan struct{})
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs

	go func() {
		defer close(genDone)
		generate(s, arrivals, perm, rate, p.start, dur, h, &p.gen)
	}()

	var (
		pending  []admitted // admitted, not yet resolved, in admission order
		steps    []stepRec  // non-empty Steps not yet fully resolved
		resolved int64
		cum      int64
		finished bool
		genEnd   time.Time
	)
	resolve := func() error {
		pending = h.take(pending)
		i := 0
		for ; i < len(pending); i++ {
			for len(steps) > 0 && resolved >= steps[0].cum {
				steps = steps[1:]
			}
			if len(steps) == 0 {
				break
			}
			if err := p.resolveTicket(d, s, pending[i], steps[0]); err != nil {
				return err
			}
			resolved++
			if resolved == steps[0].cum {
				p.closeBatch()
			}
		}
		pending = pending[:copy(pending, pending[i:])]
		return nil
	}
	for {
		before := reranks.Value()
		t0 := time.Now()
		k, _, err := s.Step()
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		if k > 0 {
			cum += int64(k)
			steps = append(steps, stepRec{cum: cum, start: t0, end: t1})
			p.steps++
			p.step.add(ms64(t1.Sub(t0)))
			if reranks.Value() > before {
				p.rerankStep.add(ms64(t1.Sub(t0)))
			}
			spans.add(0, "step", "", t0, t1)
		}
		if err := resolve(); err != nil {
			return nil, err
		}
		if k > 0 {
			continue
		}
		if finished {
			break
		}
		select {
		case <-h.bell:
		case <-genDone:
			finished = true
			genEnd = time.Now()
		}
	}
	p.drainMs = ms64(time.Since(genEnd))
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - mallocs
	spans.flush()

	// The ledger: every request sent is served, shed or expired, each
	// exactly once.
	g := &p.gen
	shed := g.shedFull + g.shedDeadline
	r.check(len(pending) == 0, "r%d: %d admitted tickets never resolved", rate, len(pending))
	r.check(g.other == 0, "r%d: %d submissions refused as closed or invalid", rate, g.other)
	r.check(conserved(g.sent, p.served, shed, p.expired), "r%d: sent %d != served %d + shed %d + expired %d", rate, g.sent, p.served, shed, p.expired)
	r.check(cum == p.served+p.expired, "r%d: Steps completed %d, tickets resolved %d", rate, cum, p.served+p.expired)
	r.check(p.served > 0, "r%d: no request served", rate)
	if !conserved(g.sent, p.served, shed, p.expired) || len(pending) != 0 {
		r.failed += int64(len(pending)) + 1
	}
	return p, nil
}

// figures are the phase's results, which the run reports as medians over
// the cycles.
func (p *phase) figures() map[string]float64 {
	g := &p.gen
	secs := p.dur - serveWarmup
	sent := float64(max(g.sent, 1))
	lat, q := p.latency.tail()
	submit, _ := g.submit.tail()
	step, _ := p.step.tail()
	late, _ := g.late.tail()
	return map[string]float64{
		"latency_ms_p50":     p.latency.median(),
		"latency_ms_tail":    lat,
		"latency_tail_q":     q,
		"latency_n":          float64(p.latency.n()),
		"served_rps":         float64(p.measuredServed) / secs,
		"goodput_rps":        float64(p.inDeadline) / secs,
		"lost_frac":          1 - float64(p.inDeadline)/float64(max(g.measured, 1)),
		"drain_ms":           p.drainMs,
		"submit_us_p50":      g.submit.median(),
		"submit_us_tail":     submit,
		"queue_wait_ms":      p.queueWait.median(),
		"step_ms_p50":        p.step.median(),
		"step_ms_tail":       step,
		"batch_size":         float64(p.stepServed) / float64(max(p.closedSteps, 1)),
		"dedup_frac":         1 - float64(p.distinct)/float64(max(p.stepServed, 1)),
		"rerank_step_ms":     p.rerankStep.median(),
		"shed_full_frac":     float64(g.shedFull) / sent,
		"shed_deadline_frac": float64(g.shedDeadline) / sent,
		"expired_frac":       float64(p.expired) / sent,
		"allocs_per_req":     float64(p.mallocs) / sent,
		"late_ms_tail":       late,
	}
}

// conserved is the serving ledger: every sent request is served, shed or
// expired.
func conserved(sent, served, shed, expired int64) bool { return sent == served+shed+expired }

// resolveTicket reads one finished ticket, checks it and releases it.
func (p *phase) resolveTicket(d *gen.Dataset, s *serve.Server, a admitted, st stepRec) error {
	t := a.t
	if !t.Done {
		return fmt.Errorf("r%d: ticket completed by a Step is not done", p.rate)
	}
	if t.Expired {
		p.expired++
		s.Release(t)
		return nil
	}
	if t.Class < 0 || int(t.Class) >= d.NumClasses {
		return fmt.Errorf("r%d: vertex %d classified as %d of %d classes", p.rate, t.Vertex, t.Class, d.NumClasses)
	}
	p.served++
	p.queueWait.add(ms64(st.start.Sub(a.submitAt)))
	if !a.due.Before(p.measureFrom) {
		lat := ms64(st.end.Sub(a.due))
		p.latency.add(lat)
		p.measuredServed++
		if lat <= serveDeadline*1e3 {
			p.inDeadline++
		}
	}
	p.batch = append(p.batch, t.Vertex)
	s.Release(t)
	return nil
}

// closeBatch ends the served requests of one Step: it counts their
// distinct vertices and keeps the first probeBatches seed sets for the
// stage replay.
func (p *phase) closeBatch() {
	p.closedSteps++
	p.seen.gen++
	seeds := p.batch[:0:0]
	for _, v := range p.batch {
		if p.seen.at[v] != p.seen.gen {
			p.seen.at[v] = p.seen.gen
			seeds = append(seeds, v)
		}
	}
	p.stepServed += int64(len(p.batch))
	p.distinct += int64(len(seeds))
	if len(seeds) > 0 && len(p.batches) < probeBatches {
		p.batches = append(p.batches, seeds)
	}
	p.batch = p.batch[:0]
}

// replayServeStages replays recorded microbatches through the exported
// calls a serving Step makes — sample, then compact, gather and classify
// — so the traced run shows how a Step's time splits. The replay runs on
// its own sampler, feature store (degree-ranked cache, the server's
// starting prior) and model of the same shape, outside the server.
func replayServeStages(r *run, d *gen.Dataset, o serve.Options, batches [][]int32) error {
	if len(batches) == 0 {
		return fmt.Errorf("no served microbatch recorded at r%d", kneeRate)
	}
	alg := o.Spec.NewSampler()
	sampling.Prepare(alg, d.Graph)
	a := sampling.ClonePooled(alg)
	store, err := feature.NewStore(d.Features, d.FeatureDim)
	if err != nil {
		return err
	}
	slots := int(o.CacheRatio * float64(d.NumVertices()))
	table, err := cache.Load(cache.DegreeHotness(d.Graph).RankTop(slots), slots, d.NumVertices(), int64(d.FeatureDim)*4)
	if err != nil {
		return err
	}
	if err := store.EnableCache(table); err != nil {
		return err
	}
	model := nn.NewModel(o.Spec.Kind, o.Spec.NumLayers(), d.FeatureDim, o.Spec.HiddenDim, d.NumClasses, o.Seed)
	var (
		cmp         nn.Compact
		feats       tensor.Matrix
		classes     []int32
		ws          = nn.NewWorkspace()
		sr          = rng.New(o.Seed)
		smp, gf, fw dist
	)
	spans := newSpanLog(r, [2]string{"Sampler", "serve-replay"}, [2]string{"Trainer", "serve-replay"})
	for _, seeds := range batches {
		t0 := time.Now()
		s := a.Sample(d.Graph, seeds, sr)
		t1 := time.Now()
		if err := nn.NewCompactInto(&cmp, s); err != nil {
			return err
		}
		store.GatherInto(&feats, s)
		t2 := time.Now()
		if classes, err = model.ClassifyWS(ws, &cmp, &feats, classes); err != nil {
			return err
		}
		t3 := time.Now()
		smp.add(ms64(t1.Sub(t0)))
		gf.add(ms64(t2.Sub(t1)))
		fw.add(ms64(t3.Sub(t2)))
		spans.add(0, "sample", "", t0, t1)
		spans.add(1, "compact+gather", "", t1, t2)
		spans.add(1, "classify", "", t2, t3)
	}
	spans.flush()
	r.set("serve.replay_sample_ms", smp.median())
	r.set("serve.replay_gather_ms", gf.median())
	r.set("serve.replay_forward_ms", fw.median())
	return nil
}
