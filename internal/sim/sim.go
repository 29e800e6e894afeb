// Package sim is the discrete-event engine that turns per-mini-batch stage
// durations (produced by the device cost model from real measured work)
// into end-to-end epoch timelines. It models the factored pipeline of §5:
// producers (Samplers) feed a FIFO global queue, consumers (Trainers) run
// a two-stage Extract→Train pipeline, gradient synchronization barriers
// couple consumers, and standby Trainers join late under the dynamic
// switching profit rule of §5.3.
package sim

import (
	"fmt"
	"math"
	"sort"
)

// Seconds is simulated time.
type Seconds = float64

// Task is one mini-batch flowing through the pipeline with its
// pre-computed stage durations.
type Task struct {
	// Sample is the Sample-stage duration (including marking and queue
	// copy where applicable).
	Sample Seconds
	// Extract and Train are the consumer-side durations on a normal
	// Trainer.
	Extract Seconds
	Train   Seconds
	// StandbyExtract is the Extract duration on a standby Trainer,
	// whose cache is smaller because its GPU keeps the graph topology
	// resident; zero means "same as Extract".
	StandbyExtract Seconds

	// Ready is filled by Produce: when the task enters the global queue.
	Ready Seconds
	// Producer is filled by Produce: which Sampler produced the task
	// (for timeline attribution; zero for pre-staged tasks).
	Producer int
}

// extractOn returns the task's nominal Extract duration on consumer c:
// StandbyExtract on a standby Trainer when set, Extract otherwise.
func (t *Task) extractOn(c *consumer) Seconds {
	if c.standby && t.StandbyExtract > 0 {
		return t.StandbyExtract
	}
	return t.Extract
}

// Produce assigns tasks dynamically to numProducers Samplers (each next
// task goes to the earliest-free producer, the global scheduler of §5.2)
// starting at startAt, filling each task's Ready time. It returns the
// per-producer finish times — the moments those GPUs become eligible to
// switch into standby Trainers.
func Produce(tasks []Task, numProducers int, startAt Seconds) (producerFinish []Seconds) {
	if numProducers <= 0 {
		panic("sim: Produce with no producers")
	}
	free := make([]Seconds, numProducers)
	for i := range free {
		free[i] = startAt
	}
	for i := range tasks {
		p := argmin(free)
		free[p] += tasks[i].Sample
		tasks[i].Ready = free[p]
		tasks[i].Producer = p
	}
	return free
}

// ConsumeOptions configures the consumer side of an epoch.
type ConsumeOptions struct {
	// NumTrainers is the number of normal Trainers (may be zero when
	// standby Trainers do all the work, e.g. single-GPU mode).
	NumTrainers int
	// Sync couples Trainers with a gradient-synchronization barrier per
	// iteration round (DGL-compatible synchronous updates, §7.1). When
	// false, updates are asynchronous with bounded staleness.
	Sync bool
	// Pipelined lets a Trainer's Extract of batch k+1 overlap Train of
	// batch k (§5.2); when false the two stages serialize.
	Pipelined bool
	// StandbyAvailable lists, per standby Trainer, the time it becomes
	// eligible (its Sampler finished the epoch's mini-batches). Empty
	// means dynamic switching is disabled.
	StandbyAvailable []Seconds
	// TrainerTaskTime is T_t, the estimated per-task time of a normal
	// Trainer, and StandbyTaskTime is T_t′, both used by the switching
	// profit metric.
	TrainerTaskTime Seconds
	StandbyTaskTime Seconds
	// Trace records a per-task Timeline in the Result.
	Trace bool
	// TrainerSlowdown optionally scales the Extract and Train durations
	// of each normal Trainer (index-aligned). Factors > 1 slow a Trainer
	// down (the multi-tenant contention of §5.3); factors in (0, 1) are
	// honored as speedups; 0 or 1 = full speed (unset). Negative or NaN
	// factors are invalid and panic.
	TrainerSlowdown []float64
	// Faults injects this epoch's deterministic fault set (consumer
	// crashes with requeue, transient slowdown windows, PCIe-degradation
	// windows, global-queue stalls). Nil injects nothing and takes the
	// exact fault-free code path.
	Faults *Faults
}

// Context describes the capacity configuration a Result was produced
// under: the lane counts and pipeline shape the accounting layer
// (internal/obs/account) attributes time against. Consume fills the
// consumer side; RunEpoch adds the producer count (zero for pre-staged
// task sets that were never produced).
type Context struct {
	// Producers is how many Samplers produced the tasks (0 = pre-staged).
	Producers int
	// Trainers is the normal (non-standby) consumer count.
	Trainers int
	// Standbys is the standby consumer count (possibly not all joined).
	Standbys  int
	Pipelined bool
	Sync      bool
}

// CrashWindow is one applied consumer dead window [Start, End): the
// earliest injected crash on that consumer and its recovery time (+Inf
// when the crash is permanent). Recorded whether or not the crash
// aborted an in-flight task, so the accounting layer can attribute dead
// time exactly.
type CrashWindow struct {
	Consumer   int
	Standby    bool
	Start, End Seconds
}

// Result summarizes a consumed epoch.
type Result struct {
	// Makespan is when the last Train completes.
	Makespan Seconds
	// Context records the capacity configuration of the run.
	Context Context
	// TasksByStandby counts tasks taken by standby Trainers.
	TasksByStandby int
	// TrainerBusy is accumulated busy time per normal Trainer
	// (utilization = busy / makespan): the *actual* Extract+Train
	// durations including slowdowns, plus occupancy lost to aborted
	// attempts when a crash killed an in-flight task.
	TrainerBusy []Seconds
	// Timeline holds one record per task in dequeue order when
	// ConsumeOptions.Trace is set; nil otherwise. A task aborted by a
	// crash appears once, for its completing execution; its aborted
	// attempts are in FaultEvents.
	Timeline []TaskTiming
	// FaultEvents records every injected crash that aborted an in-flight
	// task, in occurrence order; nil when no fault fired.
	FaultEvents []FaultEvent
	// Crashes records every applied consumer dead window in consumer
	// order (whether or not it aborted a task); nil when no crash was
	// injected.
	Crashes []CrashWindow
	// Requeued counts tasks that re-entered the global queue after a
	// consumer crash (== len(FaultEvents)).
	Requeued int
}

// TaskTiming records where and when one task executed — the material for
// timeline inspection and for the engine's own invariant tests.
type TaskTiming struct {
	Task                     int // index into the tasks slice
	Consumer                 int // consumer index; standbys follow normal trainers
	Standby                  bool
	Ready                    Seconds
	ExtractStart, ExtractEnd Seconds
	TrainStart, TrainEnd     Seconds
	// Producer and SampleStart/SampleEnd attribute the Sample stage to
	// the Sampler that produced the task; all zero when the task was
	// pre-staged rather than produced (e.g. time-sharing designs).
	Producer               int
	SampleStart, SampleEnd Seconds
}

// consumer is the runtime state of one Trainer in the event loop.
type consumer struct {
	standby     bool
	availableAt Seconds
	extractFree Seconds
	trainFree   Seconds
	// slowdown scales this consumer's stage durations (factors in (0,1)
	// are speedups; 0 treated as 1 for consumers constructed without it).
	slowdown float64
	// crashAt / recoverAt bound the injected dead window [crashAt,
	// recoverAt); +Inf crashAt means the consumer never fails, +Inf
	// recoverAt means a crash is permanent.
	crashAt   Seconds
	recoverAt Seconds
	// windows are injected transient slowdown windows: stages starting
	// inside one stretch by its factor.
	windows []Window
}

// newConsumer returns a consumer with no injected faults.
func newConsumer(standby bool, availableAt Seconds, slowdown float64) *consumer {
	return &consumer{
		standby:     standby,
		availableAt: availableAt,
		slowdown:    slowdown,
		crashAt:     math.Inf(1),
		recoverAt:   math.Inf(1),
	}
}

// scale returns d adjusted for the consumer's static slowdown. Factors in
// (0, 1) are honored as speedups; 0 and 1 mean full speed.
func (c *consumer) scale(d Seconds) Seconds {
	if c.slowdown > 0 && c.slowdown != 1 {
		return d * c.slowdown
	}
	return d
}

// windowFactor multiplies every injected slowdown window open at start.
func (c *consumer) windowFactor(start Seconds) float64 {
	factor := 1.0
	for _, w := range c.windows {
		if w.contains(start) && w.Factor > 0 {
			factor *= w.Factor
		}
	}
	return factor
}

// extractDur is the actual Extract duration of a stage starting at start:
// static slowdown, open slowdown windows, and any PCIe-degradation
// windows (Extract is the host→GPU feature path).
func (c *consumer) extractDur(d, start Seconds, f *Faults) Seconds {
	d = c.scale(d)
	if len(c.windows) > 0 {
		d *= c.windowFactor(start)
	}
	if f != nil {
		d *= f.extractFactor(start)
	}
	return d
}

// trainDur is the actual Train duration of a stage starting at start.
func (c *consumer) trainDur(d, start Seconds) Seconds {
	d = c.scale(d)
	if len(c.windows) > 0 {
		d *= c.windowFactor(start)
	}
	return d
}

// earliestStart returns when c could begin extracting a task that became
// ready at `ready`. A start inside the consumer's dead window [crashAt,
// recoverAt) is pushed to the recovery time — +Inf for a permanent crash,
// which marks the consumer ineligible.
func (c *consumer) earliestStart(ready Seconds) Seconds {
	s := c.extractFree
	if c.availableAt > s {
		s = c.availableAt
	}
	if ready > s {
		s = ready
	}
	if s >= c.crashAt && s < c.recoverAt {
		s = c.recoverAt
	}
	return s
}

// plan projects when c would start extracting and training a task ready
// at `ready`, respecting its extract and train units, queue stalls, and
// its dead window (+Inf for a permanently crashed consumer).
func (c *consumer) plan(ready, extract Seconds, f *Faults) (extractStart, trainStart Seconds) {
	extractStart = c.earliestStart(ready)
	if f != nil {
		extractStart = f.stallClamp(extractStart)
		if extractStart >= c.crashAt && extractStart < c.recoverAt {
			extractStart = f.stallClamp(c.recoverAt)
		}
	}
	trainStart = extractStart + c.extractDur(extract, extractStart, f)
	if c.trainFree > trainStart {
		trainStart = c.trainFree
	}
	return extractStart, trainStart
}

// run executes one planned attempt on c and returns its stage ends and
// the occupancy to bill. A crash inside the attempt aborts it: occupancy
// up to the crash is lost, both units resume at recovery (never, for a
// permanent crash), and the caller requeues the work at the crash time.
// earliestStart keeps later starts out of the dead window, so each
// consumer aborts at most one attempt and requeue loops terminate.
func (c *consumer) run(extractStart, trainStart, extract, train Seconds, f *Faults, pipelined bool) (extractEnd, trainEnd, busy Seconds, aborted bool) {
	extractDur := c.extractDur(extract, extractStart, f)
	extractEnd = extractStart + extractDur
	trainDur := c.trainDur(train, trainStart)
	trainEnd = trainStart + trainDur
	if extractStart < c.crashAt && trainEnd > c.crashAt {
		c.extractFree, c.trainFree = c.recoverAt, c.recoverAt
		return extractEnd, trainEnd, c.crashAt - extractStart, true
	}
	if pipelined { // the next Extract may overlap this Train (§5.2)
		c.extractFree = extractEnd
	} else {
		c.extractFree = trainEnd
	}
	c.trainFree = trainEnd
	return extractEnd, trainEnd, extractDur + trainDur, false
}

// aliveAt reports whether the consumer is available (joined and not in
// its dead window) at simulated time t.
func (c *consumer) aliveAt(t Seconds) bool {
	return c.availableAt <= t && !(t >= c.crashAt && t < c.recoverAt)
}

// Consume drains tasks (in FIFO order of Ready time) through the
// configured Trainers and returns the epoch result. Tasks must have Ready
// set (use Produce, or leave zero for pre-staged tasks). When a fault
// plan crashes a consumer mid-task, the task's Ready is rewritten to the
// crash time as it re-enters the queue.
func Consume(tasks []Task, opts ConsumeOptions) Result {
	if opts.NumTrainers <= 0 && len(opts.StandbyAvailable) == 0 {
		panic("sim: Consume with no trainers at all")
	}
	queue := make([]int, len(tasks))
	for i := range queue {
		queue[i] = i
	}
	sort.SliceStable(queue, func(a, b int) bool { return tasks[queue[a]].Ready < tasks[queue[b]].Ready })

	consumers := make([]*consumer, 0, opts.NumTrainers+len(opts.StandbyAvailable))
	for i := 0; i < opts.NumTrainers; i++ {
		slowdown := 1.0
		if i < len(opts.TrainerSlowdown) {
			s := opts.TrainerSlowdown[i]
			if s < 0 || math.IsNaN(s) {
				panic(fmt.Sprintf("sim: TrainerSlowdown[%d] = %v: factors must be non-negative (>1 slows, (0,1) speeds up, 0/1 = unset)", i, s))
			}
			if s > 0 {
				slowdown = s
			}
		}
		consumers = append(consumers, newConsumer(false, 0, slowdown))
	}
	for _, at := range opts.StandbyAvailable {
		consumers = append(consumers, newConsumer(true, at, 0))
	}
	faults := opts.Faults
	if faults.empty() {
		faults = nil // nil keeps every fault check on its zero-cost path
	}
	applyFaults(consumers, faults)

	res := Result{
		TrainerBusy: make([]Seconds, opts.NumTrainers),
		Context: Context{
			Trainers:  opts.NumTrainers,
			Standbys:  len(opts.StandbyAvailable),
			Pipelined: opts.Pipelined,
			Sync:      opts.Sync,
		},
	}
	for ci, c := range consumers {
		if !math.IsInf(c.crashAt, 1) {
			res.Crashes = append(res.Crashes, CrashWindow{
				Consumer: ci,
				Standby:  c.standby,
				Start:    c.crashAt,
				End:      c.recoverAt,
			})
		}
	}
	var barrier Seconds // sync mode: last round's gradient exchange point
	roundEnd := Seconds(0)
	inRound := 0
	// A synchronous round spans one training step on every consumer that
	// is available when the round opens (standby Trainers join rounds
	// only once their Sampler has finished).
	roundSize := activeConsumersAt(consumers, 0)

	for len(queue) > 0 {
		idx := queue[0]
		queue = queue[1:]
		t := &tasks[idx]
		remaining := len(queue) + 1 // tasks not yet dequeued, incl. this one

		// Profit gating compares queue depth against the *surviving*
		// normal Trainers: a permanent crash shrinks the divisor, which
		// promotes standby Trainers earlier (§5.3 over the degraded
		// machine).
		aliveNormal := opts.NumTrainers
		if faults != nil {
			aliveNormal = 0
			for _, c := range consumers[:opts.NumTrainers] {
				if !math.IsInf(c.earliestStart(t.Ready), 1) {
					aliveNormal++
				}
			}
		}

		// Pick the consumer that would start training this task first
		// (ties: earliest extract start, then lowest index). Standby
		// Trainers are only eligible when the profit metric says so;
		// permanently crashed consumers never are.
		pick := func(includeIdleStandby bool) int {
			best := -1
			bestTrain, bestExtract := math.Inf(1), math.Inf(1)
			for ci, c := range consumers {
				if c.standby && !includeIdleStandby && !standbyProfitable(remaining, aliveNormal, opts) {
					continue
				}
				es, ts := c.plan(t.Ready, t.extractOn(c), faults)
				if math.IsInf(ts, 1) {
					continue
				}
				if ts < bestTrain || (ts == bestTrain && es < bestExtract) {
					best, bestTrain, bestExtract = ci, ts, es
				}
			}
			return best
		}
		best := pick(false)
		if best < 0 { // only standbys eligible and none profitable: forced
			best = pick(true)
		}
		if best < 0 {
			panic("sim: all consumers failed with tasks pending")
		}
		c := consumers[best]

		// The sync barrier applies only to the chosen consumer: it delays
		// every consumer equally, so planning with it would mask backlog
		// and make selection degenerate.
		extract := t.extractOn(c)
		extractStart, trainStart := c.plan(t.Ready, extract, faults)
		if opts.Sync && barrier > trainStart {
			trainStart = barrier
		}
		extractEnd, trainEnd, busy, aborted := c.run(extractStart, trainStart, extract, t.Train, faults, opts.Pipelined)
		if !c.standby {
			res.TrainerBusy[best] += busy
		}
		if aborted { // requeue at the crash time, in Ready order
			res.FaultEvents = append(res.FaultEvents, FaultEvent{
				Consumer: best,
				Standby:  c.standby,
				Task:     idx,
				Start:    extractStart,
				At:       c.crashAt,
			})
			res.Requeued++
			if t.Ready < c.crashAt {
				t.Ready = c.crashAt
			}
			j := sort.Search(len(queue), func(i int) bool { return tasks[queue[i]].Ready > t.Ready })
			queue = append(queue, 0)
			copy(queue[j+1:], queue[j:])
			queue[j] = idx
			continue
		}
		if c.standby {
			res.TasksByStandby++
		}
		if trainEnd > res.Makespan {
			res.Makespan = trainEnd
		}
		if opts.Trace {
			rec := TaskTiming{
				Task:         idx,
				Consumer:     best,
				Standby:      c.standby,
				Ready:        t.Ready,
				ExtractStart: extractStart,
				ExtractEnd:   extractEnd,
				TrainStart:   trainStart,
				TrainEnd:     trainEnd,
			}
			// A produced task's Sample stage ended when it became Ready;
			// pre-staged tasks (Ready 0, or Sample folded elsewhere) keep
			// the zero sample window.
			if t.Sample > 0 && t.Ready >= t.Sample {
				rec.Producer = t.Producer
				rec.SampleStart = t.Ready - t.Sample
				rec.SampleEnd = t.Ready
			}
			res.Timeline = append(res.Timeline, rec)
		}

		// Synchronous rounds: after one task per available consumer, a
		// gradient exchange couples the trainers.
		if opts.Sync {
			if trainEnd > roundEnd {
				roundEnd = trainEnd
			}
			inRound++
			if inRound >= roundSize {
				barrier = roundEnd
				inRound = 0
				roundEnd = 0
				roundSize = activeConsumersAt(consumers, barrier)
			}
		}
	}
	return res
}

// standbyProfitable evaluates the §5.3 profit metric for the current
// queue depth over the aliveNormal surviving normal Trainers.
func standbyProfitable(remaining, aliveNormal int, opts ConsumeOptions) bool {
	if aliveNormal <= 0 {
		return true // P = +∞
	}
	p := float64(remaining)*opts.TrainerTaskTime/float64(aliveNormal) - opts.StandbyTaskTime
	return p > 0
}

// activeConsumersAt counts consumers available at simulated time t
// (standbys count once their Sampler has finished; crashed consumers
// drop out for their dead window).
func activeConsumersAt(cs []*consumer, t Seconds) int {
	n := 0
	for _, c := range cs {
		if c.aliveAt(t) {
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return n
}

// RunEpoch wires Produce and Consume together: numSamplers produce the
// tasks from time zero, standby switching (if enabled in opts) uses the
// producers' finish times. It returns the epoch makespan and result.
func RunEpoch(tasks []Task, numSamplers int, opts ConsumeOptions) Result {
	finish := Produce(tasks, numSamplers, 0)
	if opts.StandbyAvailable != nil {
		// Samplers become standby Trainers when they finish producing.
		opts.StandbyAvailable = append([]Seconds(nil), finish...)
	}
	res := Consume(tasks, opts)
	res.Context.Producers = numSamplers
	return res
}

func argmin(xs []Seconds) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
