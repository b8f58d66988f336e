// Package shard implements sharded scatter-gather mining: a dataset is
// split into disjoint sequence shards, each shard is mined by a Worker
// behind an RPC-shaped interface, and a Coordinator merges the per-shard
// supports into a result byte-identical to the serial miner's. Requests
// name the pattern kind with core.Kind, and a mine answers core.Result
// (MineShardResponse is an alias of it): a LocalWorker's mine is one
// call to core.Mine, and package remote encodes the request and
// response structs field by field, so a remote worker gets them whole.
//
// The split is sound because support counting is additive over disjoint
// sequence partitions: a pattern's global support is the sum of its
// per-shard supports. Shards mine at a relaxed partition-aware bound (a
// globally frequent pattern can be locally infrequent), and the
// coordinator restores exactness with a support-completion pass plus the
// exact global filter at merge; see DESIGN.md "Sharded mining".
package shard

import (
	"sort"

	"tpminer/internal/interval"
)

// DefaultSkewThreshold is the max/min shard-load ratio past which Extend
// repartitions from scratch instead of extending greedily.
const DefaultSkewThreshold = 2.0

// Partition is a disjoint assignment of a database's sequences to K
// shards, size-balanced by interval count. A Partition is immutable once
// built; Extend returns a new one. tpmd keeps none: it calls New on the
// snapshot each whole-dataset mine runs over.
type Partition struct {
	shards [][]int32 // shard -> ascending sequence indices
	loads  []int64   // shard -> total interval count
	nSeqs  int       // sequences covered (== the database length at build time)
}

// effectiveK caps the shard count so that no shard would hold fewer
// than minSeqs sequences on average; tiny datasets stay unsharded.
func effectiveK(nSeqs, k, minSeqs int) int {
	if k < 1 {
		k = 1
	}
	if minSeqs < 1 {
		minSeqs = 1
	}
	if cap := nSeqs / minSeqs; k > cap {
		k = cap
	}
	if k < 1 {
		k = 1
	}
	return k
}

// New partitions db into at most k shards, requiring at least minSeqs
// sequences per shard (the effective shard count shrinks for small
// databases, down to 1). Balancing is greedy LPT by interval count:
// sequences are placed heaviest-first onto the least-loaded shard, which
// keeps the max/min load ratio low even when one sequence dominates the
// dataset — the dominant sequence takes one shard and the remainder
// spreads over the others.
func New(db *interval.Database, k, minSeqs int) *Partition {
	n := db.Len()
	k = effectiveK(n, k, minSeqs)
	p := &Partition{
		shards: make([][]int32, k),
		loads:  make([]int64, k),
		nSeqs:  n,
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	weight := func(s int32) int64 { return int64(len(db.Sequences[s].Intervals)) }
	sort.SliceStable(order, func(a, b int) bool {
		wa, wb := weight(order[a]), weight(order[b])
		if wa != wb {
			return wa > wb
		}
		return order[a] < order[b]
	})
	for _, s := range order {
		p.assign(s, weight(s))
	}
	for i := range p.shards {
		sortInt32s(p.shards[i])
	}
	return p
}

// assign places sequence s (of the given weight) on the least-loaded
// shard, lowest shard id on ties — deterministic for a given input.
func (p *Partition) assign(s int32, w int64) {
	best := 0
	for i := 1; i < len(p.loads); i++ {
		if p.loads[i] < p.loads[best] {
			best = i
		}
	}
	p.shards[best] = append(p.shards[best], s)
	p.loads[best] += w
}

// Extend derives the partition for db grown by appended sequences
// (indices p.NumSeqs()..db.Len()-1). Existing assignments keep their
// shard IDs — only the new sequences are placed, heaviest-first onto the
// least-loaded shards — unless the grown database wants a different
// effective shard count or the extension leaves the load skew above
// skewThreshold, in which case the whole database is repartitioned from
// scratch. A skewThreshold <= 0 selects DefaultSkewThreshold.
func (p *Partition) Extend(db *interval.Database, k, minSeqs int, skewThreshold float64) *Partition {
	if skewThreshold <= 0 {
		skewThreshold = DefaultSkewThreshold
	}
	n := db.Len()
	if effectiveK(n, k, minSeqs) != len(p.shards) || n < p.nSeqs {
		return New(db, k, minSeqs)
	}
	next := &Partition{
		shards: make([][]int32, len(p.shards)),
		loads:  append([]int64(nil), p.loads...),
		nSeqs:  n,
	}
	for i := range p.shards {
		next.shards[i] = append([]int32(nil), p.shards[i]...)
	}
	added := make([]int32, 0, n-p.nSeqs)
	for s := p.nSeqs; s < n; s++ {
		added = append(added, int32(s))
	}
	weight := func(s int32) int64 { return int64(len(db.Sequences[s].Intervals)) }
	sort.SliceStable(added, func(a, b int) bool {
		wa, wb := weight(added[a]), weight(added[b])
		if wa != wb {
			return wa > wb
		}
		return added[a] < added[b]
	})
	for _, s := range added {
		next.assign(s, weight(s))
	}
	if next.Skew() > skewThreshold {
		return New(db, k, minSeqs)
	}
	for i := range next.shards {
		sortInt32s(next.shards[i])
	}
	return next
}

// NumShards returns the number of shards.
func (p *Partition) NumShards() int { return len(p.shards) }

// NumSeqs returns the number of sequences the partition covers.
func (p *Partition) NumSeqs() int { return p.nSeqs }

// Seqs returns shard i's ascending sequence indices. The returned slice
// aliases the partition; callers must not modify it.
func (p *Partition) Seqs(i int) []int32 { return p.shards[i] }

// Load returns shard i's total interval count.
func (p *Partition) Load(i int) int64 { return p.loads[i] }

// Skew is the max/min shard-load ratio (min clamped to 1 so an empty
// shard reads as maximally skewed rather than dividing by zero).
func (p *Partition) Skew() float64 {
	if len(p.loads) == 0 {
		return 1
	}
	min, max := p.loads[0], p.loads[0]
	for _, l := range p.loads[1:] {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if min < 1 {
		min = 1
	}
	return float64(max) / float64(min)
}

// SubDatabase returns shard i's sequences as a database. Sequence
// headers are copied; the interval arrays are shared with db, which must
// be treated as immutable (the store's copy-on-write contract).
func (p *Partition) SubDatabase(db *interval.Database, i int) *interval.Database {
	idx := p.shards[i]
	out := &interval.Database{Sequences: make([]interval.Sequence, len(idx))}
	for j, s := range idx {
		out.Sequences[j] = db.Sequences[s]
	}
	return out
}

func sortInt32s(a []int32) {
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
}
