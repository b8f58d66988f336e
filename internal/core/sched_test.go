package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tpminer/internal/interval"
	"tpminer/internal/pattern"
)

func TestStealCutoffFor(t *testing.T) {
	// Override wins unconditionally.
	if got := stealCutoffFor(Options{stealCutoff: 3, Parallel: 4}, 100000, 50); got != 3 {
		t.Errorf("override cutoff = %d, want 3", got)
	}
	// Tiny databases floor at the default.
	if got := stealCutoffFor(Options{Parallel: 4}, 10, 1); got != defaultStealCutoff {
		t.Errorf("small-db cutoff = %d, want %d", got, defaultStealCutoff)
	}
	// Large databases scale with nSeqs/workers.
	if got := stealCutoffFor(Options{Parallel: 4}, 32000, 1); got != 1000 {
		t.Errorf("large-db cutoff = %d, want 1000", got)
	}
	// minCount dominates when the threshold is high: subtrees barely
	// above it are close to dying anyway.
	if got := stealCutoffFor(Options{Parallel: 2}, 1600, 500); got != 1000 {
		t.Errorf("high-threshold cutoff = %d, want 1000", got)
	}
}

func TestLowerBound32(t *testing.T) {
	a := []int32{2, 4, 4, 9}
	cases := []struct {
		x    int32
		want int
	}{
		{0, 0}, {2, 0}, {3, 1}, {4, 1}, {5, 3}, {9, 3}, {10, 4},
	}
	for _, c := range cases {
		if got := lowerBound32(a, c.x); got != c.want {
			t.Errorf("lowerBound32(%v, %d) = %d, want %d", a, c.x, got, c.want)
		}
	}
	if got := lowerBound32(nil, 1); got != 0 {
		t.Errorf("lowerBound32(nil, 1) = %d, want 0", got)
	}
}

// TestSchedRunsAllJobs drives the generic scheduler directly: jobs
// spawned from inside running jobs are all executed exactly once, and
// run returns only after the whole tree is done.
func TestSchedRunsAllJobs(t *testing.T) {
	s := newSched[int](4)
	var handled atomic.Int64
	var inlined atomic.Int64
	s.trySpawn(rootSpawner, 4) // root: a depth-4 binary tree of jobs
	s.run(4, func(w int, depth int) {
		handled.Add(1)
		for child := 0; child < 2 && depth > 0; child++ {
			if !s.trySpawn(w, depth-1) {
				inlined.Add(1) // queue full: a real miner would recurse inline
			}
		}
	})
	// 2^5 - 1 = 31 nodes minus any the fake "inline recursion" dropped.
	want := int64(31) - inlined.Load()
	if handled.Load() != want {
		t.Errorf("handled %d jobs, want %d (inlined %d)", handled.Load(), want, inlined.Load())
	}
}

// TestSchedTrySpawnFull: a full queue rejects spawns without blocking.
func TestSchedTrySpawnFull(t *testing.T) {
	s := newSched[int](1) // capacity 64
	n := 0
	for s.trySpawn(rootSpawner, n) {
		n++
		if n > 1000 {
			t.Fatal("trySpawn never reported full")
		}
	}
	if n != cap(s.jobs) {
		t.Errorf("accepted %d spawns before full, want %d", n, cap(s.jobs))
	}
	if !s.full() {
		t.Error("full() = false on a full queue")
	}
	// Drain so the pending counts resolve.
	s.run(1, func(int, int) {})

	// Counters: every accepted spawn counted, the high-water mark is the
	// full queue, and a single worker draining seeds takes no steals.
	spawned, steals, maxDepth := s.counters()
	if spawned != int64(n) {
		t.Errorf("spawned = %d, want %d", spawned, n)
	}
	if steals != 0 {
		t.Errorf("steals = %d, want 0 (all jobs were root seeds)", steals)
	}
	if maxDepth != int64(cap(s.jobs)) {
		t.Errorf("maxDepth = %d, want %d", maxDepth, cap(s.jobs))
	}
}

// TestSchedCounters: jobs a worker spawns and another worker executes
// count as steals; jobs executed by their spawner do not.
func TestSchedCounters(t *testing.T) {
	s := newSched[int](2)
	var handled atomic.Int64
	s.trySpawn(rootSpawner, 3)
	s.run(2, func(w int, depth int) {
		handled.Add(1)
		for child := 0; child < 2 && depth > 0; child++ {
			s.trySpawn(w, depth-1)
		}
	})
	spawned, steals, maxDepth := s.counters()
	if spawned != handled.Load() {
		t.Errorf("spawned = %d, handled = %d; every accepted job must run exactly once",
			spawned, handled.Load())
	}
	if steals < 0 || steals > spawned {
		t.Errorf("steals = %d outside [0, %d]", steals, spawned)
	}
	if maxDepth < 1 {
		t.Errorf("maxDepth = %d, want >= 1", maxDepth)
	}
}

// TestForcedStealSchedulerStats: a forced-steal parallel mine reports
// scheduler counters through Stats, and a serial mine reports zeros.
func TestForcedStealSchedulerStats(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db := schedRandomDB(rng, 20, 6, 4, 30)

	_, serial, err := MineTemporal(db, Options{MinCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	if serial.JobsSpawned != 0 || serial.StealsTaken != 0 || serial.MaxQueueDepth != 0 {
		t.Errorf("serial run has scheduler stats: %+v", serial)
	}

	opt := Options{MinCount: 2, Parallel: 4}
	opt.stealCutoff = 1
	_, par, err := MineTemporal(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if par.JobsSpawned < 1 {
		t.Errorf("forced-steal run spawned %d jobs, want >= 1 (the root seed)", par.JobsSpawned)
	}
	if par.StealsTaken > par.JobsSpawned {
		t.Errorf("steals %d > spawned %d", par.StealsTaken, par.JobsSpawned)
	}
	if par.MaxQueueDepth < 1 {
		t.Errorf("forced-steal run max queue depth = %d, want >= 1", par.MaxQueueDepth)
	}

	_, parC, err := MineCoincidence(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if parC.JobsSpawned < 1 || parC.MaxQueueDepth < 1 {
		t.Errorf("coincidence forced-steal scheduler stats: %+v", parC)
	}
}

// schedRandomDB builds a random interval database for the white-box
// steal tests (the black-box suite has its own copy in package
// core_test).
func schedRandomDB(rng *rand.Rand, nSeq, maxIvs, nSyms int, horizon int64) *interval.Database {
	db := &interval.Database{}
	for s := 0; s < nSeq; s++ {
		n := 1 + rng.Intn(maxIvs)
		seq := interval.Sequence{ID: fmt.Sprintf("s%d", s)}
		for i := 0; i < n; i++ {
			start := rng.Int63n(horizon)
			seq.Intervals = append(seq.Intervals, interval.Interval{
				Symbol: string(rune('A' + rng.Intn(nSyms))),
				Start:  start,
				End:    start + rng.Int63n(horizon/2),
			})
		}
		db.Sequences = append(db.Sequences, seq)
	}
	return db
}

// TestForcedStealEquivalence forces the steal cutoff to 1 so that every
// non-empty subtree is offered to the queue, maximizing interleaving,
// and checks the results still match a serial run exactly. This
// exercises the prefix snapshot/restore logic far harder than the
// default cutoff, which rarely steals on small test databases.
func TestForcedStealEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		db := schedRandomDB(rng, 15, 6, 4, 30)
		serial := Options{MinCount: 2, KeepOccurrences: true}
		wantT, _, err := MineTemporal(db, serial)
		if err != nil {
			t.Fatal(err)
		}
		wantC, _, err := MineCoincidence(db, serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			par := serial
			par.Parallel = workers
			par.stealCutoff = 1

			gotT, _, err := MineTemporal(db, par)
			if err != nil {
				t.Fatal(err)
			}
			if !pattern.ResultsEqual(gotT, wantT) {
				t.Fatalf("trial %d parallel=%d: forced-steal temporal differs: %d vs %d",
					trial, workers, len(gotT), len(wantT))
			}
			gotC, _, err := MineCoincidence(db, par)
			if err != nil {
				t.Fatal(err)
			}
			if !pattern.ResultsEqual(gotC, wantC) {
				t.Fatalf("trial %d parallel=%d: forced-steal coincidence differs: %d vs %d",
					trial, workers, len(gotC), len(wantC))
			}
		}
	}
}

// TestForcedStealTopK: same forced-steal stress for the shared-threshold
// top-k path.
func TestForcedStealTopK(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 3; trial++ {
		db := schedRandomDB(rng, 15, 6, 4, 30)
		for _, k := range []int{1, 10} {
			serial := Options{MinCount: 2}
			wantT, err := Mine(ctx, db, KindTemporal, k, serial)
			if err != nil {
				t.Fatal(err)
			}
			wantC, err := Mine(ctx, db, KindCoincidence, k, serial)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				par := serial
				par.Parallel = workers
				par.stealCutoff = 1
				gotT, err := Mine(ctx, db, KindTemporal, k, par)
				if err != nil {
					t.Fatal(err)
				}
				if !pattern.ResultsEqual(gotT.Temporal, wantT.Temporal) {
					t.Fatalf("trial %d k=%d parallel=%d: forced-steal temporal top-k differs", trial, k, workers)
				}
				gotC, err := Mine(ctx, db, KindCoincidence, k, par)
				if err != nil {
					t.Fatal(err)
				}
				if !pattern.ResultsEqual(gotC.Coinc, wantC.Coinc) {
					t.Fatalf("trial %d k=%d parallel=%d: forced-steal coincidence top-k differs", trial, k, workers)
				}
			}
		}
	}
}

// TestCancelMidStealNoGoroutineLeak cancels a heavily-stealing parallel
// run mid-flight and asserts every worker goroutine exits: the process
// goroutine count must return to its pre-run baseline. (The repo vendors
// no leak-checking library, so this polls runtime.NumGoroutine with a
// deadline.)
func TestCancelMidStealNoGoroutineLeak(t *testing.T) {
	db := explosiveDB(3, 16)
	baseline := runtime.NumGoroutine()
	for trial := 0; trial < 3; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		opt := Options{MinCount: db.Len(), Parallel: 8}
		opt.stealCutoff = 1
		if _, _, err := MineTemporalCtx(ctx, db, opt); !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: err = %v, want context.Canceled", trial, err)
		}
		ctx2, cancel2 := context.WithCancel(context.Background())
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel2()
		}()
		if _, err := Mine(ctx2, db, KindCoincidence, 0, opt); !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: coinc err = %v, want context.Canceled", trial, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
