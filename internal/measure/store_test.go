package measure

import (
	"sync"
	"testing"

	"gnnlab/internal/cache"
	"gnnlab/internal/obs"
)

func storeSpec(name string) Spec {
	return Spec{Dataset: name, Vertices: 10, Edges: 20, Algorithm: "khop", BatchSize: 4, Epochs: 1}
}

func TestStoreSingleFlightAndStats(t *testing.T) {
	s := NewStore()
	calls := 0
	m := &Measurement{}
	for i := 0; i < 3; i++ {
		got := s.GetOrMeasure(storeSpec("PR"), func() *Measurement { calls++; return m })
		if got != m {
			t.Fatalf("request %d returned %p, want %p", i, got, m)
		}
	}
	if calls != 1 {
		t.Errorf("collect ran %d times, want 1", calls)
	}
	hits, misses := s.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("Stats() = (%d hits, %d misses), want (2, 1)", hits, misses)
	}
	if c := s.CoalescedWaits(); c != 0 {
		t.Errorf("CoalescedWaits() = %d, want 0 for purely serial requests", c)
	}
}

// TestStoreCoalescedWaits forces two goroutines onto the same in-flight
// entry: the first blocks inside collect until the second has booked its
// hit, so the second's hit must be counted as a coalesced wait — and the
// distinction must survive into an observed metrics registry.
func TestStoreCoalescedWaits(t *testing.T) {
	s := NewStore()
	reg := obs.NewRegistry()
	s.Observe(reg)

	firstInside := make(chan struct{})
	release := make(chan struct{})
	m := &Measurement{}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.GetOrMeasure(storeSpec("PA"), func() *Measurement {
			close(firstInside)
			<-release
			return m
		})
	}()

	<-firstInside // the entry now exists and its work is in flight
	wg.Add(1)
	go func() {
		defer wg.Done()
		if got := s.GetOrMeasure(storeSpec("PA"), func() *Measurement {
			t.Error("second requester ran collect; single-flight broken")
			return nil
		}); got != m {
			t.Errorf("coalesced requester got %p, want %p", got, m)
		}
	}()

	// The second requester books its hit (and coalesced wait) before
	// blocking in once.Do, so poll the counter rather than sleeping.
	for s.CoalescedWaits() == 0 {
	}
	close(release)
	wg.Wait()

	hits, misses := s.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("Stats() = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
	if c := s.CoalescedWaits(); c != 1 {
		t.Errorf("CoalescedWaits() = %d, want 1", c)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"store.hits":            1,
		"store.misses":          1,
		"store.coalesced_waits": 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("registry %s = %d, want %d", name, got, want)
		}
	}

	// A hit after the work completed is NOT a coalesced wait.
	s.GetOrMeasure(storeSpec("PA"), func() *Measurement { return nil })
	if c := s.CoalescedWaits(); c != 1 {
		t.Errorf("post-completion hit bumped CoalescedWaits to %d", c)
	}
	if got := reg.Snapshot().Counters["store.hits"]; got != 2 {
		t.Errorf("registry store.hits = %d, want 2", got)
	}
}

func TestStoreObserveSeedsExistingCounts(t *testing.T) {
	s := NewStore()
	key := RankKey{Dataset: "PR", Rank: cache.RankKey{Policy: cache.PolicyPreSC}}
	rank := func() (cache.Ranking, error) { return cache.Ranking{}, nil }
	s.GetOrRank(key, rank)
	s.GetOrRank(key, rank)
	reg := obs.NewRegistry()
	s.Observe(reg)
	snap := reg.Snapshot()
	if snap.Counters["store.misses"] != 1 || snap.Counters["store.hits"] != 1 {
		t.Errorf("seeded counters = %v, want hits 1 misses 1", snap.Counters)
	}
}
