package core

import (
	"context"
	"sort"
	"time"

	"tpminer/internal/interval"
	"tpminer/internal/pattern"
	"tpminer/internal/seqdb"
)

// The mining skeleton both pattern kinds share: one mine routine, one
// serial-or-parallel search loop and one per-node step. A kind supplies
// only what really differs — its encoding, its candidate-counting scans,
// its projection, its prefix state beyond the elements, and how it
// builds a pattern.

// mineKind is the one mining routine behind every core mine: validate,
// resolve the threshold, encode, apply P1, search, finish, then order and
// cap the results. k > 0 mines the k best-supported patterns, raising the
// threshold as the search finds them; k == 0 is a plain mine. A kind
// supplies its encoder, its miner constructor and its final order.
func mineKind[P pattern.Pattern, D interface{ FilterInfrequent(int) int }, J any, M searcher[P, J]](
	ctx context.Context, db *interval.Database, k int, opt Options,
	encode func(*interval.Database) (D, error),
	newMiner func(D, dfs, *sched[J]) M,
	order func([]pattern.Result[P]) []pattern.Result[P],
) ([]pattern.Result[P], Stats, error) {
	start := time.Now()
	minCount, err := ResolveMinCount(opt, db.Len())
	if err != nil {
		return nil, Stats{}, err
	}
	enc, err := encode(db)
	if err != nil {
		return nil, Stats{}, err
	}

	ctl := newRunControl(ctx, opt, start)
	stats := Stats{Sequences: db.Len(), MinCount: minCount}
	if !opt.DisableGlobalPruning {
		stats.ItemsRemoved = enc.FilterInfrequent(minCount) // P1
	}
	base := dfs{opt: opt, minCount: minCount, topk: newTopKState(k), ctl: ctl,
		stealCutoff: stealCutoffFor(opt, db.Len(), minCount)}
	results := search(enc, base, newMiner, &stats)

	err, stats.Truncated, stats.TruncatedBy = ctl.finish()
	if err != nil {
		stats.Elapsed = time.Since(start)
		return nil, stats, err
	}
	results = capResults(order(results), k, opt.MaxPatterns)
	stats.Elapsed = time.Since(start)
	return results, stats, nil
}

// searcher is one worker of the search loop: a miner of one pattern kind
// whose subtree jobs have type J.
type searcher[P pattern.Pattern, J any] interface {
	// root returns the job of the whole search tree.
	root() J
	// runJob searches one subtree.
	runJob(J)
	// found returns the worker's results and search counters.
	found() ([]pattern.Result[P], Stats)
}

// search runs the depth-first search of enc with base.opt.Parallel
// workers, folds their counters into stats, and returns their results in
// no particular order. A serial mine is the one-worker case: its worker
// searches the root inline and, having no queue, never offers a subtree.
// With more workers, each drains the shared work-stealing queue seeded
// with the root and offers large subtrees to it (see sched.go).
func search[P pattern.Pattern, D any, J any, M searcher[P, J]](enc D, base dfs, newMiner func(D, dfs, *sched[J]) M, stats *Stats) []pattern.Result[P] {
	workers := max(base.opt.Parallel, 1)
	var s *sched[J]
	if workers > 1 {
		s = newSched[J](workers)
	}
	miners := make([]M, workers)
	for w := range miners {
		d := base
		d.worker = int32(w)
		miners[w] = newMiner(enc, d, s)
	}
	if s == nil {
		miners[0].runJob(miners[0].root())
	} else {
		s.trySpawn(rootSpawner, miners[0].root())
		s.run(workers, func(w int, j J) { miners[w].runJob(j) })
		spawned, steals, depth := s.counters()
		stats.Add(Stats{JobsSpawned: spawned, StealsTaken: steals, MaxQueueDepth: depth})
	}
	// The first worker's results are the base, so a serial mine returns
	// its results without a copy.
	out, st := miners[0].found()
	stats.Add(st)
	for _, m := range miners[1:] {
		rs, st := m.found()
		stats.Add(st)
		out = append(out, rs...)
	}
	return out
}

// dfs is the depth-first search state both miners embed, and the node
// step they share. A miner's mine method enters the node, emits, applies
// P4, tallies its candidates with its own scan, and extends the prefix by
// each collected candidate in turn.
type dfs struct {
	opt Options
	// minCount is the support threshold; a top-k mine raises it.
	minCount int
	stats    Stats
	// topk, when non-nil, is the k-best state every worker shares.
	topk *topKState

	// ctl is the run-wide cancellation/budget state; ops counts local
	// work units between polls.
	ctl *runControl
	ops int64

	// elems is the prefix: its elements of item ids.
	elems [][]seqdb.Item

	// The S- and I-extension candidate tally of the current node: counts
	// by item id and the items counted so far. It is reused across the
	// whole search; collect clears it.
	countsS, countsI   []int32
	touchedS, touchedI []seqdb.Item

	// stealCutoff is the projected-database size from which a parallel
	// worker offers a subtree to the shared queue instead of recursing.
	// worker is this miner's index in the pool, recorded on spawned jobs
	// so the scheduler can count steals.
	stealCutoff int
	worker      int32
}

// tally sizes the candidate counters for an item-id space of n.
func (d *dfs) tally(n int) {
	d.countsS = make([]int32, n)
	d.countsI = make([]int32, n)
}

// tick counts one unit of search work, polls the run control every
// pollInterval units, and reports whether the search must stop. It sits
// on the hot path: between polls it costs one increment and one relaxed
// atomic load.
func (d *dfs) tick() bool {
	d.ops++
	if d.ops&(pollInterval-1) == 0 {
		d.ctl.poll()
	}
	return d.ctl.stop.Load()
}

// enter starts a search node. It reports false when the search must
// stop; otherwise it raises the threshold to the top-k floor and counts
// the node.
func (d *dfs) enter() bool {
	if d.tick() {
		return false
	}
	if d.topk != nil {
		if f := d.topk.threshold(); f > d.minCount {
			d.minCount = f
		}
	}
	d.stats.Nodes++
	return true
}

// sizePruned applies P4: a node whose projected database holds fewer
// than minCount sequences has no frequent extension.
func (d *dfs) sizePruned(n int) bool {
	if !d.opt.DisableSizePruning && n < d.minCount {
		d.stats.SizePruned++
		return true
	}
	return false
}

// extensible reports which extensions the size limits leave the prefix:
// S-extensions add an element, I-extensions grow the last one.
func (d *dfs) extensible() (canS, canI bool) {
	canS = d.opt.MaxElements == 0 || len(d.elems) < d.opt.MaxElements
	canI = len(d.elems) > 0 &&
		(d.opt.MaxItemsPerElement == 0 || len(d.elems[len(d.elems)-1]) < d.opt.MaxItemsPerElement)
	return canS, canI
}

// candidate is one frequent extension discovered at a node.
type candidate struct {
	item  seqdb.Item
	isI   bool
	count int32
}

// collect turns the node's tally into its frequent candidates,
// deterministically ordered (S before I, then by item id), and clears the
// tally for the next node.
func (d *dfs) collect() []candidate {
	cands := make([]candidate, 0, len(d.touchedS)+len(d.touchedI))
	for _, it := range d.touchedS {
		if c := d.countsS[it]; int(c) >= d.minCount {
			cands = append(cands, candidate{item: it, isI: false, count: c})
		}
		d.countsS[it] = 0
	}
	for _, it := range d.touchedI {
		if c := d.countsI[it]; int(c) >= d.minCount {
			cands = append(cands, candidate{item: it, isI: true, count: c})
		}
		d.countsI[it] = 0
	}
	d.touchedS = d.touchedS[:0]
	d.touchedI = d.touchedI[:0]
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].isI != cands[j].isI {
			return !cands[i].isI
		}
		return cands[i].item < cands[j].item
	})
	return cands
}

// push extends the prefix by candidate c; pop undoes it.
func (d *dfs) push(c candidate) {
	if c.isI {
		last := len(d.elems) - 1
		d.elems[last] = append(d.elems[last], c.item)
	} else {
		d.elems = append(d.elems, []seqdb.Item{c.item})
	}
}

func (d *dfs) pop(c candidate) {
	last := len(d.elems) - 1
	if c.isI {
		d.elems[last] = d.elems[last][:len(d.elems[last])-1]
	} else {
		d.elems = d.elems[:last]
	}
}

// prefix returns a deep copy of the prefix elements, for a spawned job.
func (d *dfs) prefix() [][]seqdb.Item {
	elems := make([][]seqdb.Item, len(d.elems))
	for i, el := range d.elems {
		elems[i] = append([]seqdb.Item(nil), el...)
	}
	return elems
}

// emitted counts one emitted pattern toward Stats and the MaxPatterns
// cap.
func (d *dfs) emitted() {
	d.stats.Emitted++
	d.ctl.noteEmit()
}
