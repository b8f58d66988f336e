package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tpminer/internal/obs"
)

func key(ds string, ver uint64, opt string) Key {
	return Key{Dataset: ds, Version: ver, Options: opt}
}

// fill runs a trivially-cacheable compute for key, returning the value.
func fill(t *testing.T, c *Cache, k Key, val string, size int64) {
	t.Helper()
	got, outcome, err := c.Do(context.Background(), k, func() (any, int64, bool, error) {
		return val, size, true, nil
	})
	if err != nil || got != val || outcome != Miss {
		t.Fatalf("fill %v: got %v outcome %v err %v", k, got, outcome, err)
	}
}

func TestHitAfterMiss(t *testing.T) {
	met := NewMetrics(obs.NewRegistry())
	c := New(1<<20, met)
	k := key("d", 1, "o")
	fill(t, c, k, "v", 10)

	got, outcome, err := c.Do(context.Background(), k, func() (any, int64, bool, error) {
		t.Fatal("compute ran on a hit")
		return nil, 0, false, nil
	})
	if err != nil || got != "v" || outcome != Hit {
		t.Fatalf("hit: got %v outcome %v err %v", got, outcome, err)
	}
	if met.Hits.Value() != 1 || met.Misses.Value() != 1 {
		t.Errorf("metrics: hits=%d misses=%d", met.Hits.Value(), met.Misses.Value())
	}
}

// TestDegradedHitAccounting: hits served while the degraded probe
// reports true are additionally counted in DegradedHits; hits while
// healthy, and misses at any time, are not.
func TestDegradedHitAccounting(t *testing.T) {
	met := NewMetrics(obs.NewRegistry())
	c := New(1<<20, met)
	var degraded atomic.Bool
	c.SetDegraded(degraded.Load)
	k := key("d", 1, "o")
	fill(t, c, k, "v", 10)

	hit := func() {
		t.Helper()
		if _, outcome, err := c.Do(context.Background(), k, func() (any, int64, bool, error) {
			return nil, 0, false, errors.New("compute ran on a hit")
		}); err != nil || outcome != Hit {
			t.Fatalf("outcome %v err %v, want hit", outcome, err)
		}
	}
	hit() // healthy hit
	degraded.Store(true)
	hit() // degraded hit
	hit() // degraded hit
	degraded.Store(false)
	hit() // healthy again

	if got := met.Hits.Value(); got != 4 {
		t.Errorf("hits = %d, want 4", got)
	}
	if got := met.DegradedHits.Value(); got != 2 {
		t.Errorf("degraded hits = %d, want 2", got)
	}
}

// TestVersionBumpChangesKey: the same dataset+options at a new version
// is a distinct key — exact invalidation without any explicit purge.
func TestVersionBumpChangesKey(t *testing.T) {
	c := New(1<<20, nil)
	fill(t, c, key("d", 1, "o"), "old", 10)

	ran := false
	got, outcome, _ := c.Do(context.Background(), key("d", 2, "o"), func() (any, int64, bool, error) {
		ran = true
		return "new", 10, true, nil
	})
	if !ran || got != "new" || outcome != Miss {
		t.Fatalf("bumped version served stale data: ran=%v got=%v outcome=%v", ran, got, outcome)
	}
}

func TestLRUEvictionByBudget(t *testing.T) {
	met := NewMetrics(obs.NewRegistry())
	// Room for two entries of size 100 (+overhead each).
	c := New(2*(100+entryOverhead), met)
	k1, k2, k3 := key("d", 1, "a"), key("d", 1, "b"), key("d", 1, "c")
	fill(t, c, k1, "1", 100)
	fill(t, c, k2, "2", 100)
	if _, ok := c.Get(k1); !ok { // touch k1 so k2 is coldest
		t.Fatal("k1 missing before eviction")
	}
	fill(t, c, k3, "3", 100)

	if _, ok := c.Get(k2); ok {
		t.Error("coldest entry k2 survived past the budget")
	}
	for _, k := range []Key{k1, k3} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("entry %v evicted out of LRU order", k)
		}
	}
	if met.Evictions.Value() != 1 {
		t.Errorf("evicted = %d, want 1", met.Evictions.Value())
	}
	if got, want := c.ResidentBytes(), int64(2*(100+entryOverhead)); got != want {
		t.Errorf("resident = %d, want %d", got, want)
	}
	if met.Resident.Value() != c.ResidentBytes() {
		t.Errorf("resident gauge %d != cache resident %d", met.Resident.Value(), c.ResidentBytes())
	}
}

func TestOversizedEntryNotAdmitted(t *testing.T) {
	c := New(2048, nil)
	fill(t, c, key("d", 1, "small"), "s", 10)
	fill(t, c, key("d", 1, "big"), "b", 10_000) // over the whole budget

	if _, ok := c.Get(key("d", 1, "big")); ok {
		t.Error("oversized entry was admitted")
	}
	if _, ok := c.Get(key("d", 1, "small")); !ok {
		t.Error("admitting an oversized entry evicted an unrelated one")
	}
}

func TestNonCacheableNotStored(t *testing.T) {
	c := New(1<<20, nil)
	k := key("d", 1, "o")
	runs := 0
	for i := 0; i < 2; i++ {
		_, outcome, err := c.Do(context.Background(), k, func() (any, int64, bool, error) {
			runs++
			return "truncated", 10, false, nil
		})
		if err != nil || outcome != Miss {
			t.Fatalf("run %d: outcome %v err %v", i, outcome, err)
		}
	}
	if runs != 2 {
		t.Errorf("non-cacheable result was served from cache (runs=%d)", runs)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(1<<20, nil)
	k := key("d", 1, "o")
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		_, _, err := c.Do(context.Background(), k, func() (any, int64, bool, error) {
			return nil, 0, true, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("run %d: err %v, want boom", i, err)
		}
	}
	if c.Len() != 0 {
		t.Error("failed compute left a cache entry")
	}
}

// TestSingleFlight: N concurrent Do calls for one key run compute exactly
// once; one caller reports Miss, the rest Coalesced, and all share the
// value.
func TestSingleFlight(t *testing.T) {
	met := NewMetrics(obs.NewRegistry())
	c := New(1<<20, met)
	k := key("d", 7, "o")

	const n = 16
	var runs atomic.Int64
	release := make(chan struct{})
	results := make(chan struct {
		val     any
		outcome Outcome
		err     error
	}, n)

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, o, err := c.Do(context.Background(), k, func() (any, int64, bool, error) {
				runs.Add(1)
				<-release // hold the flight open so every caller coalesces
				return "shared", 10, true, nil
			})
			results <- struct {
				val     any
				outcome Outcome
				err     error
			}{v, o, err}
		}()
	}

	// Wait until all non-leader callers have joined the flight, then let
	// the leader finish. The coalesced metric ticks when a waiter joins.
	deadline := time.Now().Add(5 * time.Second)
	for met.Coalesced.Value() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d callers coalesced", met.Coalesced.Value(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(results)

	var misses, coalesced int
	for r := range results {
		if r.err != nil || r.val != "shared" {
			t.Fatalf("caller got %v err %v", r.val, r.err)
		}
		switch r.outcome {
		case Miss:
			misses++
		case Coalesced:
			coalesced++
		default:
			t.Errorf("unexpected outcome %v", r.outcome)
		}
	}
	if runs.Load() != 1 {
		t.Errorf("compute ran %d times, want exactly 1", runs.Load())
	}
	if misses != 1 || coalesced != n-1 {
		t.Errorf("outcomes: %d miss / %d coalesced, want 1 / %d", misses, coalesced, n-1)
	}
}

func TestCoalescedWaiterHonorsContext(t *testing.T) {
	c := New(1<<20, nil)
	k := key("d", 1, "o")
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	go func() {
		c.Do(context.Background(), k, func() (any, int64, bool, error) {
			close(leaderIn)
			<-release
			return "v", 1, true, nil
		})
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	_, outcome, err := c.Do(ctx, k, func() (any, int64, bool, error) {
		t.Error("waiter ran compute")
		return nil, 0, false, nil
	})
	if !errors.Is(err, context.Canceled) || outcome != Coalesced {
		t.Errorf("cancelled waiter: outcome %v err %v", outcome, err)
	}
	close(release)
}

// TestComputePanicReleasesFlight: a panicking leader must not strand
// waiters or poison the key.
func TestComputePanicReleasesFlight(t *testing.T) {
	c := New(1<<20, nil)
	k := key("d", 1, "o")

	leaderIn := make(chan struct{})
	waiterErr := make(chan error, 1)
	go func() {
		defer func() { recover() }() // the leader's own panic continues
		c.Do(context.Background(), k, func() (any, int64, bool, error) {
			close(leaderIn)
			time.Sleep(20 * time.Millisecond) // let the waiter join
			panic("injected")
		})
	}()
	<-leaderIn
	go func() {
		_, _, err := c.Do(context.Background(), k, func() (any, int64, bool, error) {
			return "retry", 1, true, nil
		})
		waiterErr <- err
	}()

	select {
	case err := <-waiterErr:
		// The waiter either coalesced onto the doomed flight (and got
		// ErrComputeAborted) or arrived after the cleanup and computed
		// fresh (nil). Both are sound; hanging is the failure mode.
		if err != nil && !errors.Is(err, ErrComputeAborted) {
			t.Errorf("waiter err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stranded after leader panic")
	}

	// The key must be usable again.
	got, _, err := c.Do(context.Background(), k, func() (any, int64, bool, error) {
		return "after", 1, true, nil
	})
	if err != nil || (got != "after" && got != "retry") {
		t.Errorf("key poisoned after panic: got %v err %v", got, err)
	}
}

func TestInvalidateDataset(t *testing.T) {
	c := New(1<<20, nil)
	fill(t, c, key("a", 1, "x"), "1", 10)
	fill(t, c, key("a", 1, "y"), "2", 10)
	fill(t, c, key("b", 1, "x"), "3", 10)

	if n := c.InvalidateDataset("a"); n != 2 {
		t.Errorf("invalidated %d, want 2", n)
	}
	if _, ok := c.Get(key("a", 1, "x")); ok {
		t.Error("invalidated entry still served")
	}
	if _, ok := c.Get(key("b", 1, "x")); !ok {
		t.Error("unrelated dataset invalidated")
	}
	if got, want := c.ResidentBytes(), int64(10+entryOverhead); got != want {
		t.Errorf("resident = %d, want %d", got, want)
	}
}

// TestConcurrentMixedKeys hammers the cache from many goroutines across
// overlapping keys; run under -race this is the data-race gate.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New(4*(64+entryOverhead), nil) // tight budget so eviction churns
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(fmt.Sprintf("d%d", i%3), uint64(i%5), "o")
				switch i % 7 {
				case 5:
					c.InvalidateDataset(k.Dataset)
				case 6:
					c.Get(k)
				default:
					c.Do(context.Background(), k, func() (any, int64, bool, error) {
						return i, 64, i%2 == 0, nil
					})
				}
			}
		}(g)
	}
	wg.Wait()
}
