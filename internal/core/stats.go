package core

import "time"

// Stats reports what a mining run did. Counter semantics:
//
//   - Nodes counts search-tree nodes (prefixes) explored, including the
//     root.
//   - Emitted counts patterns emitted before normalization/merging.
//   - CandidateScans counts projected-sequence scans performed while
//     counting extension candidates (the dominant cost).
//   - PairPruned counts finish endpoints skipped by P2.
//   - PostfixPruned counts projected sequences dropped by P3.
//   - SizePruned counts nodes cut by P4.
//   - ItemsRemoved counts item ids removed by P1.
//
// Parallel runs additionally report scheduler counters (zero on serial
// runs):
//
//   - JobsSpawned counts subtrees handed to the shared work queue,
//     including the root seed.
//   - StealsTaken counts queued subtrees executed by a worker other than
//     the one that spawned them — the actual load-balancing events.
//   - MaxQueueDepth is the high-water mark of the shared queue.
type Stats struct {
	Sequences      int
	MinCount       int
	ItemsRemoved   int
	Nodes          int64
	Emitted        int64
	CandidateScans int64
	PairPruned     int64
	PostfixPruned  int64
	SizePruned     int64
	JobsSpawned    int64
	StealsTaken    int64
	MaxQueueDepth  int64
	Elapsed        time.Duration

	// Truncated reports that the search stopped before exhausting the
	// search space; TruncatedBy says why (TruncatedMaxPatterns or
	// TruncatedTimeBudget). Context cancellation is reported as an error
	// by the mining call instead, never as a truncation.
	Truncated   bool
	TruncatedBy string
}

// Add folds the search counters of one part of a run — a parallel
// worker, a scheduler, or a shard of a sharded mine — into s. Sequences,
// MinCount and Elapsed describe the whole run and are left to the caller;
// MaxQueueDepth keeps the maximum; a truncated part marks s truncated
// too, keeping the first reason, because the combined result is then
// incomplete as well.
func (s *Stats) Add(w Stats) {
	s.ItemsRemoved += w.ItemsRemoved
	s.Nodes += w.Nodes
	s.Emitted += w.Emitted
	s.CandidateScans += w.CandidateScans
	s.PairPruned += w.PairPruned
	s.PostfixPruned += w.PostfixPruned
	s.SizePruned += w.SizePruned
	s.JobsSpawned += w.JobsSpawned
	s.StealsTaken += w.StealsTaken
	s.MaxQueueDepth = max(s.MaxQueueDepth, w.MaxQueueDepth)
	if w.Truncated && !s.Truncated {
		s.Truncated = true
		s.TruncatedBy = w.TruncatedBy
	}
}
