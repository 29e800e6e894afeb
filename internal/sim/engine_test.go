package sim

import (
	"sort"
	"testing"
)

// TestServeMatchesConsumeOneTrainer pins that the open-loop serving loop
// and the epoch loop share one consumer model. With one Sampler at zero
// sample cost, one Trainer and one request per batch, every request
// becomes a batch ready at its arrival, so Serve must schedule exactly
// what Consume schedules for tasks Ready at the same times — with no
// faults and under each fault kind both loops honor the same way
// (slowdown windows, PCIe degrade, queue stalls). Crashes are excluded:
// the loops deliberately differ in where an aborted attempt re-enters.
func TestServeMatchesConsumeOneTrainer(t *testing.T) {
	gaps := []Seconds{0, 0.001, 0.002, 0.009, 0, 0.015}
	const requests = 200
	cost := BatchCost{
		ExtractFixed: 1.5e-3, ExtractPerReq: 0.5e-3,
		TrainFixed: 2.5e-3, TrainPerReq: 0.5e-3,
	}
	slow := []ConsumerWindow{{Consumer: 0, Window: Window{Start: 0.1, End: 0.3, Factor: 2.5}}}
	degrade := []Window{{Start: 0.2, End: 0.5, Factor: 3}}
	stall := []Window{{Start: 0.35, End: 0.45}}
	cases := []struct {
		name   string
		faults *Faults
	}{
		{"none", nil},
		{"slowdown", &Faults{Slowdowns: slow}},
		{"degrade", &Faults{ExtractDegrade: degrade}},
		{"stall", &Faults{QueueStalls: stall}},
		{"all", &Faults{Slowdowns: slow, ExtractDegrade: degrade, QueueStalls: stall}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			served := Serve(ServeConfig{
				Samplers: 1, Trainers: 1, BatchSize: 1,
				QueueCap: 1 << 20, Deadline: 1e9,
				Cost: cost, Arrivals: TraceArrivals(gaps), Requests: requests,
				Faults: tc.faults,
			})

			tasks := make([]Task, requests)
			arrive := make([]Seconds, requests)
			now := Seconds(0)
			for i := range tasks {
				now += gaps[i%len(gaps)]
				arrive[i] = now
				tasks[i] = Task{Extract: cost.extract(1), Train: cost.train(1), Ready: now}
			}
			epoch := Consume(tasks, ConsumeOptions{NumTrainers: 1, Trace: true, Faults: tc.faults})
			lat := make([]Seconds, 0, requests)
			for _, tt := range epoch.Timeline {
				lat = append(lat, tt.TrainEnd-arrive[tt.Task])
			}
			sort.Float64s(lat)

			if served.Served != len(lat) {
				t.Fatalf("Serve served %d requests, Consume ran %d tasks", served.Served, len(lat))
			}
			checks := []struct {
				name        string
				serve, epch Seconds
			}{
				{"Makespan", served.Makespan, epoch.Makespan},
				{"Max", served.Max, lat[len(lat)-1]},
				{"P99", served.P99, pctNearestRank(lat, 0.99)},
				{"TrainerBusy[0]", served.TrainerBusy[0], epoch.TrainerBusy[0]},
			}
			for _, c := range checks {
				if c.serve != c.epch {
					t.Errorf("%s: Serve %v, Consume %v", c.name, c.serve, c.epch)
				}
			}
		})
	}
}
