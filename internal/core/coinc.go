package core

import (
	"tpminer/internal/pattern"
	"tpminer/internal/seqdb"
)

// coincProjEntry is one sequence of a coincidence pseudo-projection:
// loc is the earliest match of the prefix's last element, pointing at its
// maximum item (Slice == -1 for the empty prefix). Because elements are
// matched greedily earliest, loc alone determines where extensions may
// match: I-extensions from loc.Slice onward, S-extensions strictly after.
type coincProjEntry struct {
	seq int32
	loc seqdb.Loc
}

// coincMiner holds the depth-first search state for one worker.
type coincMiner struct {
	dfs
	db      *seqdb.CoincDB
	results []pattern.CoincResult
	// sched is the shared work queue of a parallel run, nil on a serial
	// one.
	sched *sched[coincJob]

	// Per-sequence deduplication stamps of the candidate tally.
	stampS, stampI []int64
	tok            int64

	// projPool holds one reusable projection buffer per search depth;
	// see temporalMiner.projPool.
	projPool [][]coincProjEntry
}

func newCoincMiner(db *seqdb.CoincDB, d dfs, s *sched[coincJob]) *coincMiner {
	n := db.Table.Len()
	d.tally(n)
	return &coincMiner{dfs: d, db: db, sched: s, stampS: make([]int64, n), stampI: make([]int64, n)}
}

// root returns the job of the whole search tree: the empty prefix,
// projected onto every sequence.
func (m *coincMiner) root() coincJob {
	proj := make([]coincProjEntry, len(m.db.Seqs))
	for i := range proj {
		proj[i] = coincProjEntry{seq: int32(i), loc: seqdb.Loc{Slice: -1, Idx: -1}}
	}
	return coincJob{proj: proj}
}

// found returns the worker's results and search counters.
func (m *coincMiner) found() ([]pattern.CoincResult, Stats) { return m.results, m.stats }

func (m *coincMiner) mine(proj []coincProjEntry, depth int) {
	if !m.enter() {
		return
	}
	if len(m.elems) > 0 {
		m.emit(proj)
	}
	if m.sizePruned(len(proj)) {
		return
	}
	canS, canI := m.extensible()
	if !canS && !canI {
		return
	}
	for _, c := range m.countCandidates(proj, canS, canI) {
		if m.ctl.stop.Load() {
			return
		}
		m.extend(proj, c, depth)
	}
}

// countCandidates scans the projection and returns frequent extensions.
// Per-sequence deduplication uses monotonic stamps so the counter arrays
// never need clearing between sequences.
func (m *coincMiner) countCandidates(proj []coincProjEntry, canS, canI bool) []candidate {
	var lastElem []seqdb.Item
	var maxItem seqdb.Item = -1
	if len(m.elems) > 0 {
		lastElem = m.elems[len(m.elems)-1]
		maxItem = lastElem[len(lastElem)-1]
	}
	for i := range proj {
		if m.tick() {
			break // aborting: mine() rechecks before any recursion
		}
		pe := &proj[i]
		m.stats.CandidateScans++
		m.tok++
		seq := &m.db.Seqs[pe.seq]
		if canI && pe.loc.Slice >= 0 {
			// Remainder of the earliest-match slice.
			sl := &seq.Slices[pe.loc.Slice]
			for ii := int(pe.loc.Idx) + 1; ii < len(sl.Items); ii++ {
				m.countI(sl.Items[ii])
			}
			// Later slices that contain the whole last element.
			for ci := int(pe.loc.Slice) + 1; ci < len(seq.Slices); ci++ {
				items := seq.Slices[ci].Items
				if !containsItems(items, lastElem) {
					continue
				}
				for _, it := range items {
					if it > maxItem {
						m.countI(it)
					}
				}
			}
		}
		if canS {
			for ci := int(pe.loc.Slice) + 1; ci < len(seq.Slices); ci++ {
				for _, it := range seq.Slices[ci].Items {
					m.countS(it)
				}
			}
		}
	}

	return m.collect()
}

func (m *coincMiner) countS(it seqdb.Item) {
	if m.stampS[it] == m.tok {
		return
	}
	m.stampS[it] = m.tok
	if m.countsS[it] == 0 {
		m.touchedS = append(m.touchedS, it)
	}
	m.countsS[it]++
}

func (m *coincMiner) countI(it seqdb.Item) {
	if m.stampI[it] == m.tok {
		return
	}
	m.stampI[it] = m.tok
	if m.countsI[it] == 0 {
		m.touchedI = append(m.touchedI, it)
	}
	m.countsI[it]++
}

// containsItems reports whether the sorted item list haystack contains
// every element of the sorted item list needle.
func containsItems(haystack, needle []seqdb.Item) bool {
	i := 0
	for _, w := range needle {
		for i < len(haystack) && haystack[i] < w {
			i++
		}
		if i >= len(haystack) || haystack[i] != w {
			return false
		}
		i++
	}
	return true
}

// extend projects for candidate c, applies it to the prefix, recurses
// (or hands the subtree to the shared queue), and restores the prefix.
func (m *coincMiner) extend(proj []coincProjEntry, c candidate, depth int) {
	next := m.project(proj, c, depth)
	m.push(c)
	if !m.trySteal(next, depth) {
		m.mine(next, depth+1)
	}
	m.pop(c)
}

// project computes the earliest-match projection for prefix + c using
// the posting-list index: instead of scanning every later slice, it
// walks only the slices that actually contain c.item. It must run before
// the prefix mutation (it reads the current last element). The returned
// slice is a depth-pooled buffer owned by the miner.
func (m *coincMiner) project(proj []coincProjEntry, c candidate, depth int) []coincProjEntry {
	var lastElem []seqdb.Item
	if len(m.elems) > 0 {
		lastElem = m.elems[len(m.elems)-1]
	}
	for len(m.projPool) <= depth {
		m.projPool = append(m.projPool, nil)
	}
	out := m.projPool[depth][:0]
	if cap(out) < int(c.count) {
		out = make([]coincProjEntry, 0, int(c.count))
	}
	for i := range proj {
		if m.tick() {
			break // aborting: the recursion on the partial projection is cut at entry
		}
		pe := &proj[i]
		posts := m.db.Occ.Slices(pe.seq, c.item)
		if c.isI {
			// Earliest slice containing lastElem ∪ {item}, at or after
			// the stored earliest match of lastElem. The new item has a
			// larger id than every lastElem member, so within loc.Slice
			// it can only sit after loc.Idx; in later slices the whole
			// last element must re-match.
			seq := &m.db.Seqs[pe.seq]
			for k := lowerBound32(posts, pe.loc.Slice); k < len(posts); k++ {
				ci := posts[k]
				items := seq.Slices[ci].Items
				if ci > pe.loc.Slice && !containsItems(items, lastElem) {
					continue
				}
				out = append(out, coincProjEntry{
					seq: pe.seq,
					loc: seqdb.Loc{Slice: ci, Idx: int32(findItem(items, c.item))},
				})
				break
			}
		} else {
			// Earliest slice strictly after the match containing c.item:
			// the first posting past loc.Slice.
			if k := lowerBound32(posts, pe.loc.Slice+1); k < len(posts) {
				ci := posts[k]
				items := m.db.Seqs[pe.seq].Slices[ci].Items
				out = append(out, coincProjEntry{
					seq: pe.seq,
					loc: seqdb.Loc{Slice: ci, Idx: int32(findItem(items, c.item))},
				})
			}
		}
	}
	m.projPool[depth] = out // keep any growth for reuse
	return out
}

// lowerBound32 returns the index of the first element of the ascending
// slice a that is >= x, or len(a).
func lowerBound32(a []int32, x int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// coincJob is one stolen subtree: the prefix elements plus an owned copy
// of its projected database.
type coincJob struct {
	elems [][]seqdb.Item
	proj  []coincProjEntry
	depth int
}

// trySteal offers the subtree under the just-applied extension to the
// shared queue; see temporalMiner.trySteal. Unlike the temporal miner it
// is called after the prefix mutation (coinc projection precedes it), so
// the snapshot is simply the current prefix.
func (m *coincMiner) trySteal(next []coincProjEntry, depth int) bool {
	if m.sched == nil || len(next) == 0 || len(next) < m.stealCutoff || m.sched.full() {
		return false
	}
	return m.sched.trySpawn(int(m.worker), coincJob{
		elems: m.prefix(),
		proj:  append([]coincProjEntry(nil), next...),
		depth: depth + 1,
	})
}

// runJob loads a stolen subtree's prefix state into the worker's miner
// and searches it.
func (m *coincMiner) runJob(j coincJob) {
	m.elems = j.elems
	m.mine(j.proj, j.depth)
}

// findItem returns the index of it in the sorted item list, or -1.
func findItem(items []seqdb.Item, it seqdb.Item) int {
	lo, hi := 0, len(items)
	for lo < hi {
		mid := (lo + hi) / 2
		if items[mid] < it {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(items) && items[lo] == it {
		return lo
	}
	return -1
}

func (m *coincMiner) emit(proj []coincProjEntry) {
	els := make([][]string, len(m.elems))
	for i, el := range m.elems {
		syms := make([]string, len(el))
		for j, it := range el {
			syms[j] = m.db.Table.Symbol(it)
		}
		els[i] = syms
	}
	p := pattern.NewCoinc(els...)
	m.results = append(m.results, pattern.CoincResult{Pattern: p, Support: len(proj)})
	m.emitted()
	if m.topk != nil {
		m.minCount = m.topk.observe(p.Key(), len(proj), m.minCount)
	}
}
