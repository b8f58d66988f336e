package core

import (
	"slices"

	"tpminer/internal/endpoint"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
	"tpminer/internal/seqdb"
)

// projEntry is one sequence of a pseudo-projected database: the location
// where the prefix's last item matched (Slice == -1 for the empty
// prefix) and the time of the first matched endpoint, used by the
// MaxSpan constraint.
type projEntry struct {
	seq       int32
	loc       seqdb.Loc
	firstTime interval.Time
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
	dfs
	db      *seqdb.EndpointDB
	results []pattern.TemporalResult
	// sched is the shared work queue of a parallel run, nil on a serial
	// one.
	sched *sched[temporalJob]

	// The prefix's open interval instances (small slice, iterated by P3
	// on the hot path), and the number of interval instances opened so
	// far.
	open       []openInterval
	nIntervals int

	// projPool holds one reusable projection buffer per search depth, so
	// project() allocates only when a depth is first reached (or a buffer
	// must grow). Buffers are used strictly stack-like: at most one live
	// projection per depth.
	projPool [][]projEntry
}

func newTemporalMiner(db *seqdb.EndpointDB, d dfs, s *sched[temporalJob]) *temporalMiner {
	d.tally(db.Table.Len())
	return &temporalMiner{dfs: d, db: db, sched: s}
}

// root returns the job of the whole search tree: the empty prefix,
// projected onto every sequence.
func (m *temporalMiner) root() temporalJob {
	proj := make([]projEntry, len(m.db.Seqs))
	for i := range proj {
		proj[i] = projEntry{seq: int32(i), loc: seqdb.Loc{Slice: -1, Idx: -1}}
	}
	return temporalJob{proj: proj}
}

// found returns the worker's results and search counters.
func (m *temporalMiner) found() ([]pattern.TemporalResult, Stats) { return m.results, m.stats }

// isOpen reports whether the interval started by item s is open.
func (m *temporalMiner) isOpen(s seqdb.Item) bool {
	for i := range m.open {
		if m.open[i].start == s {
			return true
		}
	}
	return false
}

// mine explores the search tree rooted at the current prefix, whose
// projected database is proj. depth is the number of extensions applied
// to reach the node; it indexes the projection pool for child nodes.
func (m *temporalMiner) mine(proj []projEntry, depth int) {
	if !m.enter() {
		return
	}
	if len(m.elems) > 0 && len(m.open) == 0 && len(proj) >= m.minCount {
		m.emit(proj)
	}
	if m.sizePruned(len(proj)) {
		return
	}
	canS, canI := m.extensible()
	if !canS && !canI {
		return
	}
	canStart := m.opt.MaxIntervals == 0 || m.nIntervals < m.opt.MaxIntervals
	for _, c := range m.countCandidates(proj, canS, canI, canStart) {
		if m.ctl.stop.Load() {
			return
		}
		m.extend(proj, c, depth)
	}
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

	cands := m.collect()
	if !pairPruning {
		// Without P2, admit counted finish endpoints of intervals the
		// prefix has not opened; such an endpoint cannot extend it.
		cands = slices.DeleteFunc(cands, func(c candidate) bool {
			return m.db.IsFinish[c.item] && !m.isOpen(m.db.Pair[c.item])
		})
	}
	return cands
}

// admit decides whether an item is worth counting at this node. Start
// endpoints are admissible unless the interval cap is reached. Finish
// endpoints are admissible only when their interval is open; with pair
// pruning (P2) enabled the check happens here, saving counter work,
// otherwise countCandidates drops the item after counting it.
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

// extend applies candidate c to the prefix, projects, recurses (or hands
// the subtree to the shared queue), and restores the prefix state.
func (m *temporalMiner) extend(proj []projEntry, c candidate, depth int) {
	m.push(c)
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
	m.pop(c)
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
	return m.sched.trySpawn(int(m.worker), temporalJob{
		elems:      m.prefix(),
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

// emit records the current (complete) prefix as a result, normalized
// unless Options.KeepOccurrences is set, so each worker pays for the
// normalization of what it finds and the final order only merges.
func (m *temporalMiner) emit(proj []projEntry) {
	n := 0
	for _, el := range m.elems {
		n += len(el)
	}
	eps := make([]endpoint.Endpoint, n)
	p := pattern.Temporal{Elements: make([][]endpoint.Endpoint, len(m.elems))}
	k := 0
	for i, el := range m.elems {
		start := k
		for _, it := range el {
			eps[k] = m.db.Table.Endpoint(it)
			k++
		}
		p.Elements[i] = eps[start:k:k]
	}
	p.Canonicalize(!m.opt.KeepOccurrences)
	m.results = append(m.results, pattern.TemporalResult{Pattern: p, Support: len(proj)})
	m.emitted()
	if m.topk != nil {
		// Top-k counts distinct patterns as the final order reports them.
		m.minCount = m.topk.observe(p.Key(), len(proj), m.minCount)
	}
}
