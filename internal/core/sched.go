package core

import (
	"sync"
	"sync/atomic"
)

// Work-stealing parallel DFS.
//
// This is the parallel case of the search loop (search.go), whose serial
// case is one worker with no queue.
//
// A parallel run is a pool of workers draining one bounded shared queue
// of subtree jobs. The run starts with a single job — the search root —
// and any worker that projects a subtree bigger than its steal cutoff
// offers it to the queue instead of recursing, so large skewed subtrees
// are split across workers wherever they appear, not just at the first
// level. Below the cutoff (or when the queue is full) the worker
// recurses serially, which keeps job granularity bounded and makes the
// enqueue side non-blocking — workers can never deadlock on a full
// queue. Each worker owns one miner (counters, projection pools), so a
// job execution reuses the same scratch memory as serial search.
//
// Termination uses the standard pending-counter pattern: every spawned
// job holds one count, the queue closes when the count drains to zero,
// and workers exit on queue close. Cancellation needs nothing extra:
// the runControl stop flag makes queued jobs return at their first tick,
// so the queue drains promptly and no goroutine is left behind.
//
// Determinism: the complete search visits exactly the same nodes as the
// serial miner (prunings P1–P4 depend only on per-node state), so the
// union of per-worker result buffers equals the serial result multiset;
// mineKind's final order (normalize or sort) makes output
// byte-identical to serial runs. Top-k runs share one topKState whose
// threshold only ever rises toward the true kth-best support, which
// never prunes a top-k pattern — see topk.go.

// defaultStealCutoff floors the steal cutoff: subtrees whose projected
// database is smaller than this are never worth a queue round-trip.
const defaultStealCutoff = 16

// stealCutoffFor picks the minimum projected-database size at which a
// subtree is offered to other workers. Options.stealCutoff (tests)
// overrides it. A serial mine has no other workers and never reads it.
func stealCutoffFor(opt Options, nSeqs, minCount int) int {
	if opt.stealCutoff > 0 {
		return opt.stealCutoff
	}
	c := nSeqs / (8 * max(opt.Parallel, 1))
	if c < 2*minCount {
		c = 2 * minCount
	}
	if c < defaultStealCutoff {
		c = defaultStealCutoff
	}
	return c
}

// rootSpawner marks the run's seed job, which no worker spawned. Seeds
// count as spawned jobs but never as steals.
const rootSpawner = -1

// spawnedJob wraps a queued subtree with the id of the worker that
// spawned it, so the scheduler can count genuine steals (executions by a
// different worker) rather than every queue round-trip.
type spawnedJob[J any] struct {
	by  int32 // spawning worker, rootSpawner for the seed
	job J
}

// sched is the bounded shared work queue of one parallel mining run.
// J is the subtree job type (temporalJob or coincJob).
type sched[J any] struct {
	jobs    chan spawnedJob[J]
	pending sync.WaitGroup // outstanding (queued or running) jobs

	// Observability counters, reported through Stats after the run:
	// spawned counts accepted trySpawn offers, steals counts jobs
	// executed by a worker other than their spawner, and maxDepth is the
	// queue's high-water mark sampled at enqueue time.
	spawned  atomic.Int64
	steals   atomic.Int64
	maxDepth atomic.Int64
}

func newSched[J any](workers int) *sched[J] {
	capacity := 8 * workers
	if capacity < 64 {
		capacity = 64
	}
	return &sched[J]{jobs: make(chan spawnedJob[J], capacity)}
}

// trySpawn offers a job to the queue without blocking. by is the
// spawning worker's id (rootSpawner for the seed). It returns false when
// the queue is full; the caller then recurses inline. Safe to call from
// inside a running job: that job's own pending count keeps the queue
// open while the new count is added.
func (s *sched[J]) trySpawn(by int, j J) bool {
	s.pending.Add(1)
	select {
	case s.jobs <- spawnedJob[J]{by: int32(by), job: j}:
		s.spawned.Add(1)
		d := int64(len(s.jobs))
		for {
			cur := s.maxDepth.Load()
			if d <= cur || s.maxDepth.CompareAndSwap(cur, d) {
				break
			}
		}
		return true
	default:
		s.pending.Done()
		return false
	}
}

// full reports whether the queue looks full right now — a cheap gate so
// workers skip the snapshot copy that building a job requires when a
// spawn would almost surely fail anyway.
func (s *sched[J]) full() bool { return len(s.jobs) == cap(s.jobs) }

// run drains the queue with the given workers and blocks until the whole
// search is done: every spawned job executed and every worker exited.
func (s *sched[J]) run(workers int, handle func(worker int, j J)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for sj := range s.jobs {
				if sj.by != rootSpawner && int(sj.by) != w {
					s.steals.Add(1)
				}
				handle(w, sj.job)
				s.pending.Done()
			}
		}(w)
	}
	go func() {
		s.pending.Wait()
		close(s.jobs)
	}()
	wg.Wait()
}

// counters returns the run's scheduler counters for Stats reporting.
func (s *sched[J]) counters() (spawned, steals, maxDepth int64) {
	return s.spawned.Load(), s.steals.Load(), s.maxDepth.Load()
}
