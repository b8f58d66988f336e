package core

import (
	"context"
	"sort"
	"time"

	"tpminer/internal/endpoint"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
	"tpminer/internal/seqdb"
)

// MineTemporal discovers all frequent complete temporal patterns of the
// database under occurrence-aligned semantics (see DESIGN.md). Results
// are normalized and sorted unless Options.KeepOccurrences is set, in
// which case the raw occurrence-labelled pattern set is returned.
func MineTemporal(db *interval.Database, opt Options) ([]pattern.TemporalResult, Stats, error) {
	return MineTemporalCtx(context.Background(), db, opt)
}

// MineTemporalCtx is MineTemporal with cooperative cancellation: the
// search polls ctx every pollInterval units of work and aborts with
// ctx.Err() (and nil results) when it is cancelled or its deadline
// passes. Budget stops (Options.MaxPatterns, Options.TimeBudget) are not
// errors — they return the patterns found so far with Stats.Truncated
// set.
func MineTemporalCtx(ctx context.Context, db *interval.Database, opt Options) ([]pattern.TemporalResult, Stats, error) {
	return mineTemporal(ctx, db, 0, opt)
}

// mineTemporal is the one temporal mining routine behind
// MineTemporalCtx and MineTemporalTopKCtx: validate, encode, P1, serial
// or parallel search, then normalize (or sort) and cap the results.
// k > 0 mines the k best-supported patterns, raising the threshold as
// the search finds them; k == 0 is a plain mine.
func mineTemporal(ctx context.Context, db *interval.Database, k int, opt Options) ([]pattern.TemporalResult, Stats, error) {
	start := time.Now()
	if err := opt.validate(); err != nil {
		return nil, Stats{}, err
	}
	minCount, err := opt.resolveMinCount(db.Len())
	if err != nil {
		return nil, Stats{}, err
	}
	enc, err := seqdb.EncodeEndpointDB(db)
	if err != nil {
		return nil, Stats{}, err
	}

	ctl := newRunControl(ctx, opt, start)
	stats := Stats{Sequences: db.Len(), MinCount: minCount}
	if !opt.DisableGlobalPruning {
		stats.ItemsRemoved = enc.FilterInfrequent(minCount) // P1
	}

	tk := newTopKState(k, !opt.KeepOccurrences)
	var results []pattern.TemporalResult
	if opt.Parallel > 1 {
		results = mineTemporalParallel(enc, opt, minCount, &stats, ctl, tk)
	} else {
		m := newTemporalMiner(enc, opt, minCount, ctl)
		m.topk = tk
		m.mine(initialTemporalProjection(enc), 0)
		stats.Add(m.stats)
		results = m.results
	}

	err, stats.Truncated, stats.TruncatedBy = ctl.finish()
	if err != nil {
		stats.Elapsed = time.Since(start)
		return nil, stats, err
	}

	if !opt.KeepOccurrences {
		results = pattern.NormalizeTemporalResults(results)
	} else {
		pattern.SortTemporalResults(results)
	}
	results = capResults(results, k, opt.MaxPatterns)
	stats.Elapsed = time.Since(start)
	return results, stats, nil
}

// projEntry is one sequence of a pseudo-projected database: the location
// where the prefix's last item matched (Slice == -1 for the empty
// prefix) and the time of the first matched endpoint, used by the
// MaxSpan constraint.
type projEntry struct {
	seq       int32
	loc       seqdb.Loc
	firstTime interval.Time
}

func initialTemporalProjection(db *seqdb.EndpointDB) []projEntry {
	proj := make([]projEntry, len(db.Seqs))
	for i := range proj {
		proj[i] = projEntry{seq: int32(i), loc: seqdb.Loc{Slice: -1, Idx: -1}}
	}
	return proj
}

// openInterval is one entry of the prefix's open set: the start endpoint
// of an interval the prefix has opened but not yet closed, paired with
// the finish endpoint that would close it. Keeping the finish id here
// lets the P3 postfix loop iterate a contiguous buffer with no map or
// pair-table hops.
type openInterval struct {
	start, finish seqdb.Item
}

// temporalMiner holds the depth-first search state for one worker.
type temporalMiner struct {
	db       *seqdb.EndpointDB
	opt      Options
	minCount int
	stats    Stats
	results  []pattern.TemporalResult

	// ctl is the run-wide cancellation/budget state; ops counts local
	// work units between polls.
	ctl *runControl
	ops int64

	// Current prefix: elements of item ids, the open interval instances
	// (small slice, iterated by P3 on the hot path), and the number of
	// interval instances opened so far.
	elems      [][]seqdb.Item
	open       []openInterval
	nIntervals int

	// Candidate counting scratch, reused across the whole search.
	countsS, countsI   []int32
	touchedS, touchedI []seqdb.Item

	// projPool holds one reusable projection buffer per search depth, so
	// project() allocates only when a depth is first reached (or a buffer
	// must grow). Buffers are used strictly stack-like: at most one live
	// projection per depth.
	projPool [][]projEntry

	// sched and stealCutoff are set on parallel runs: subtrees whose
	// projected database reaches the cutoff are offered to the shared
	// queue instead of being recursed into. worker is this miner's index
	// in the pool, recorded on spawned jobs so the scheduler can count
	// steals.
	sched       *sched[temporalJob]
	stealCutoff int
	worker      int32

	// topk, when non-nil, raises minCount dynamically (top-k mining).
	topk *topKState
}

func newTemporalMiner(db *seqdb.EndpointDB, opt Options, minCount int, ctl *runControl) *temporalMiner {
	n := db.Table.Len()
	return &temporalMiner{
		db:       db,
		opt:      opt,
		minCount: minCount,
		ctl:      ctl,
		countsS:  make([]int32, n),
		countsI:  make([]int32, n),
	}
}

// isOpen reports whether the interval started by item s is open.
func (m *temporalMiner) isOpen(s seqdb.Item) bool {
	for i := range m.open {
		if m.open[i].start == s {
			return true
		}
	}
	return false
}

// tick counts one unit of search work, polls the run control every
// pollInterval units, and reports whether the search must stop. It sits
// on the hot path: between polls it costs one increment and one relaxed
// atomic load.
func (m *temporalMiner) tick() bool {
	m.ops++
	if m.ops&(pollInterval-1) == 0 {
		m.ctl.poll()
	}
	return m.ctl.stop.Load()
}

// candidate is one frequent extension discovered at a node.
type candidate struct {
	item  seqdb.Item
	isI   bool
	count int32
}

// mine explores the search tree rooted at the current prefix, whose
// projected database is proj. depth is the number of extensions applied
// to reach the node; it indexes the projection pool for child nodes.
func (m *temporalMiner) mine(proj []projEntry, depth int) {
	if m.tick() {
		return
	}
	if m.topk != nil {
		if f := m.topk.threshold(); f > m.minCount {
			m.minCount = f
		}
	}
	m.stats.Nodes++
	if len(m.elems) > 0 && len(m.open) == 0 && len(proj) >= m.minCount {
		m.emit(proj)
	}
	if !m.opt.DisableSizePruning && len(proj) < m.minCount { // P4
		m.stats.SizePruned++
		return
	}

	canS := m.opt.MaxElements == 0 || len(m.elems) < m.opt.MaxElements
	canI := len(m.elems) > 0 &&
		(m.opt.MaxItemsPerElement == 0 || len(m.elems[len(m.elems)-1]) < m.opt.MaxItemsPerElement)
	canStart := m.opt.MaxIntervals == 0 || m.nIntervals < m.opt.MaxIntervals
	if !canS && !canI {
		return
	}

	cands := m.countCandidates(proj, canS, canI, canStart)
	for _, c := range cands {
		if m.ctl.stop.Load() {
			return
		}
		m.extend(proj, c, depth)
	}
	// Return scratch: countCandidates already reset the touched counters.
}

// countCandidates scans the projected database once and returns the
// frequent, admissible extensions, deterministically ordered (S before I,
// then by item id).
func (m *temporalMiner) countCandidates(proj []projEntry, canS, canI, canStart bool) []candidate {
	pairPruning := !m.opt.DisablePairPruning
	for i := range proj {
		if m.tick() {
			break // aborting: mine() rechecks before any recursion
		}
		pe := &proj[i]
		m.stats.CandidateScans++
		seq := &m.db.Seqs[pe.seq]
		if canI && pe.loc.Slice >= 0 {
			sl := &seq.Slices[pe.loc.Slice]
			for ii := int(pe.loc.Idx) + 1; ii < len(sl.Items); ii++ {
				it := sl.Items[ii]
				if !m.admit(it, canStart, pairPruning) {
					continue
				}
				if m.countsI[it] == 0 {
					m.touchedI = append(m.touchedI, it)
				}
				m.countsI[it]++
			}
		}
		if canS {
			for ci := int(pe.loc.Slice) + 1; ci < len(seq.Slices); ci++ {
				for _, it := range seq.Slices[ci].Items {
					if !m.admit(it, canStart, pairPruning) {
						continue
					}
					if m.countsS[it] == 0 {
						m.touchedS = append(m.touchedS, it)
					}
					m.countsS[it]++
				}
			}
		}
	}

	cands := make([]candidate, 0, len(m.touchedS)+len(m.touchedI))
	for _, it := range m.touchedS {
		if c := m.countsS[it]; int(c) >= m.minCount && m.valid(it) {
			cands = append(cands, candidate{item: it, isI: false, count: c})
		}
		m.countsS[it] = 0
	}
	for _, it := range m.touchedI {
		if c := m.countsI[it]; int(c) >= m.minCount && m.valid(it) {
			cands = append(cands, candidate{item: it, isI: true, count: c})
		}
		m.countsI[it] = 0
	}
	m.touchedS = m.touchedS[:0]
	m.touchedI = m.touchedI[:0]
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].isI != cands[j].isI {
			return !cands[i].isI
		}
		return cands[i].item < cands[j].item
	})
	return cands
}

// admit decides whether an item is worth counting at this node. Start
// endpoints are admissible unless the interval cap is reached. Finish
// endpoints are admissible only when their interval is open; with pair
// pruning (P2) enabled the check happens here, saving counter work,
// otherwise the item is counted and filtered later by valid.
func (m *temporalMiner) admit(it seqdb.Item, canStart, pairPruning bool) bool {
	if !m.db.IsFinish[it] {
		return canStart
	}
	if pairPruning {
		if !m.isOpen(m.db.Pair[it]) {
			m.stats.PairPruned++
			return false
		}
	}
	return true
}

// valid is the semantic admissibility check applied before recursion:
// a finish endpoint extends the prefix only if its interval is open.
// Redundant when P2 is on (admit already filtered), required when off.
func (m *temporalMiner) valid(it seqdb.Item) bool {
	if !m.db.IsFinish[it] {
		return true
	}
	return m.isOpen(m.db.Pair[it])
}

// extend applies candidate c to the prefix, projects, recurses (or hands
// the subtree to the shared queue), and restores the prefix state.
func (m *temporalMiner) extend(proj []projEntry, c candidate, depth int) {
	// Mutate prefix state.
	if c.isI {
		last := len(m.elems) - 1
		m.elems[last] = append(m.elems[last], c.item)
	} else {
		m.elems = append(m.elems, []seqdb.Item{c.item})
	}
	var closed openInterval
	closedAt := -1
	if m.db.IsFinish[c.item] {
		start := m.db.Pair[c.item]
		for i := range m.open {
			if m.open[i].start == start {
				closedAt = i
				break
			}
		}
		closed = m.open[closedAt]
		last := len(m.open) - 1
		m.open[closedAt] = m.open[last]
		m.open = m.open[:last]
	} else {
		m.open = append(m.open, openInterval{start: c.item, finish: m.db.Pair[c.item]})
		m.nIntervals++
	}

	next := m.project(proj, c, depth)
	if len(next) > 0 && !m.trySteal(next, depth) {
		m.mine(next, depth+1)
	}

	// Undo (the swap-remove above is reversed exactly, restoring order).
	if m.db.IsFinish[c.item] {
		if closedAt == len(m.open) { // removed entry was the last one
			m.open = append(m.open, closed)
		} else {
			m.open = append(m.open, m.open[closedAt])
			m.open[closedAt] = closed
		}
	} else {
		m.open = m.open[:len(m.open)-1]
		m.nIntervals--
	}
	if c.isI {
		last := len(m.elems) - 1
		m.elems[last] = m.elems[last][:len(m.elems[last])-1]
	} else {
		m.elems = m.elems[:len(m.elems)-1]
	}
}

// project builds the pseudo-projected database for prefix + c. It relies
// on the dense position index: every item occurs at most once per
// sequence, so one array load per sequence finds the unique match
// location. The open set must already reflect the extension (project is
// called from extend after the prefix mutation). The returned slice is a
// depth-pooled buffer owned by the miner; it stays valid until the next
// projection at the same depth.
func (m *temporalMiner) project(proj []projEntry, c candidate, depth int) []projEntry {
	postfixPruning := !m.opt.DisablePostfixPruning
	for len(m.projPool) <= depth {
		m.projPool = append(m.projPool, nil)
	}
	out := m.projPool[depth][:0]
	if cap(out) < int(c.count) {
		out = make([]projEntry, 0, int(c.count))
	}
	for i := range proj {
		if m.tick() {
			break // aborting: the recursion on the partial projection is cut at entry
		}
		pe := &proj[i]
		row := m.db.Pos.Row(pe.seq)
		loc := row[c.item]
		if loc.Slice < 0 {
			continue
		}
		if c.isI {
			if loc.Slice != pe.loc.Slice || loc.Idx <= pe.loc.Idx {
				continue
			}
		} else if loc.Slice <= pe.loc.Slice {
			continue
		}
		newTime := m.db.Seqs[pe.seq].Slices[loc.Slice].Time
		ft := pe.firstTime
		if pe.loc.Slice < 0 {
			ft = newTime
		}
		if m.opt.MaxSpan > 0 && newTime-ft > m.opt.MaxSpan {
			continue
		}
		// Gap check applies to S-extensions only: I-extensions stay on
		// the previous element's time point.
		if m.opt.MaxGap > 0 && !c.isI && pe.loc.Slice >= 0 &&
			newTime-m.db.Seqs[pe.seq].Slices[pe.loc.Slice].Time > m.opt.MaxGap {
			continue
		}
		if postfixPruning && len(m.open) > 0 { // P3
			dead := false
			for oi := range m.open {
				f := m.open[oi].finish
				if f < 0 {
					dead = true
					break
				}
				floc := row[f]
				if floc.Slice < 0 || !loc.Before(floc) {
					dead = true
					break
				}
			}
			if dead {
				m.stats.PostfixPruned++
				continue
			}
		}
		out = append(out, projEntry{seq: pe.seq, loc: loc, firstTime: ft})
	}
	m.projPool[depth] = out // keep any growth for reuse
	return out
}

// temporalJob is one stolen subtree: a snapshot of the prefix state plus
// an owned copy of its projected database.
type temporalJob struct {
	elems      [][]seqdb.Item
	open       []openInterval
	nIntervals int
	proj       []projEntry
	depth      int
}

// trySteal offers the subtree under the just-applied extension to the
// shared queue. It returns true when the subtree was handed off (the
// caller skips recursion). Serial runs (no scheduler) and small subtrees
// always return false.
func (m *temporalMiner) trySteal(next []projEntry, depth int) bool {
	if m.sched == nil || len(next) < m.stealCutoff || m.sched.full() {
		return false
	}
	elems := make([][]seqdb.Item, len(m.elems))
	for i, el := range m.elems {
		elems[i] = append([]seqdb.Item(nil), el...)
	}
	return m.sched.trySpawn(int(m.worker), temporalJob{
		elems:      elems,
		open:       append([]openInterval(nil), m.open...),
		nIntervals: m.nIntervals,
		proj:       append([]projEntry(nil), next...),
		depth:      depth + 1,
	})
}

// runJob loads a stolen subtree's prefix state into the worker's miner
// and searches it.
func (m *temporalMiner) runJob(j temporalJob) {
	m.elems = j.elems
	m.open = j.open
	m.nIntervals = j.nIntervals
	m.mine(j.proj, j.depth)
}

// emit records the current (complete) prefix as a result.
func (m *temporalMiner) emit(proj []projEntry) {
	m.stats.Emitted++
	els := make([][]endpoint.Endpoint, len(m.elems))
	for i, el := range m.elems {
		eps := make([]endpoint.Endpoint, len(el))
		for j, it := range el {
			eps[j] = m.db.Table.Endpoint(it)
		}
		els[i] = eps
	}
	res := pattern.TemporalResult{
		Pattern: pattern.NewTemporal(els...),
		Support: len(proj),
	}
	m.results = append(m.results, res)
	m.ctl.noteEmit()
	if m.topk != nil {
		m.minCount = m.topk.observe(m.topk.key(res.Pattern), res.Support, m.minCount)
	}
}

// mineTemporalParallel runs the work-stealing parallel search: workers
// drain a bounded shared queue seeded with the root subtree, and any
// worker enqueues a subtree when its projected database reaches the
// steal cutoff (see sched.go). tk, when non-nil, is the shared top-k
// threshold state. The callers' final normalize/sort pass makes the
// merged output byte-identical to a serial run.
func mineTemporalParallel(db *seqdb.EndpointDB, opt Options, minCount int, stats *Stats, ctl *runControl, tk *topKState) []pattern.TemporalResult {
	workers := opt.Parallel
	s := newSched[temporalJob](workers)
	s.trySpawn(rootSpawner, temporalJob{proj: initialTemporalProjection(db), depth: 0})

	cutoff := stealCutoffFor(opt, len(db.Seqs), minCount)
	miners := make([]*temporalMiner, workers)
	for w := range miners {
		m := newTemporalMiner(db, opt, minCount, ctl)
		m.topk = tk
		m.sched = s
		m.stealCutoff = cutoff
		m.worker = int32(w)
		miners[w] = m
	}
	s.run(workers, func(w int, j temporalJob) { miners[w].runJob(j) })

	var out []pattern.TemporalResult
	for _, m := range miners {
		stats.Add(m.stats)
		out = append(out, m.results...)
	}
	spawned, steals, depth := s.counters()
	stats.Add(Stats{JobsSpawned: spawned, StealsTaken: steals, MaxQueueDepth: depth})
	return out
}
