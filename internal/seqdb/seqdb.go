// Package seqdb provides the integer-encoded sequence databases, and the
// position indexes over them, that the projection-based miners search.
//
// Both representations mined by P-TPMiner reduce to the same shape: a
// database of sequences of slices, where each slice is a sorted set of
// integer items (occurrence-indexed endpoints for the temporal view,
// symbol ids for the coincidence view). Mining proceeds by PrefixSpan-
// style pseudo-projection: a projected database is just a list of
// (sequence, position) pairs into the one immutable encoded database —
// no sequence data is ever copied.
package seqdb

import (
	"fmt"

	"tpminer/internal/coincidence"
	"tpminer/internal/endpoint"
	"tpminer/internal/interval"
)

// Item is an integer-encoded slice member. Item ids also define the
// canonical in-slice order used for I-extensions.
type Item int32

// Slice is one time point of an encoded sequence: its items in ascending
// id order.
type Slice struct {
	Time  interval.Time
	Items []Item
}

// Sequence is an encoded sequence of slices.
type Sequence struct {
	Slices []Slice
}

// NumItems returns the total item count of the sequence.
func (s *Sequence) NumItems() int {
	n := 0
	for i := range s.Slices {
		n += len(s.Slices[i].Items)
	}
	return n
}

// Loc addresses one item inside a sequence.
type Loc struct {
	Slice int32 // slice index
	Idx   int32 // item index within the slice
}

// Before reports whether l strictly precedes m in sequence order.
func (l Loc) Before(m Loc) bool {
	if l.Slice != m.Slice {
		return l.Slice < m.Slice
	}
	return l.Idx < m.Idx
}

// EndpointTable maps occurrence-indexed endpoints to dense item ids.
// Ids are assigned in first-encounter order over the database, which
// makes encoding deterministic for a given input.
type EndpointTable struct {
	ids map[endpoint.Endpoint]Item
	eps []endpoint.Endpoint
}

// NewEndpointTable returns an empty table.
func NewEndpointTable() *EndpointTable {
	return &EndpointTable{ids: make(map[endpoint.Endpoint]Item)}
}

// Intern returns the id for e, assigning the next free id on first use.
func (t *EndpointTable) Intern(e endpoint.Endpoint) Item {
	if id, ok := t.ids[e]; ok {
		return id
	}
	id := Item(len(t.eps))
	t.ids[e] = id
	t.eps = append(t.eps, e)
	return id
}

// Lookup returns the id for e if it was interned.
func (t *EndpointTable) Lookup(e endpoint.Endpoint) (Item, bool) {
	id, ok := t.ids[e]
	return id, ok
}

// Endpoint returns the endpoint for an interned id.
func (t *EndpointTable) Endpoint(id Item) endpoint.Endpoint { return t.eps[id] }

// Len returns the number of interned endpoints.
func (t *EndpointTable) Len() int { return len(t.eps) }

// SymbolTable maps symbols to dense item ids, first-encounter order.
type SymbolTable struct {
	ids  map[string]Item
	syms []string
}

// NewSymbolTable returns an empty table.
func NewSymbolTable() *SymbolTable {
	return &SymbolTable{ids: make(map[string]Item)}
}

// Intern returns the id for sym, assigning the next free id on first use.
func (t *SymbolTable) Intern(sym string) Item {
	if id, ok := t.ids[sym]; ok {
		return id
	}
	id := Item(len(t.syms))
	t.ids[sym] = id
	t.syms = append(t.syms, sym)
	return id
}

// Lookup returns the id for sym if it was interned.
func (t *SymbolTable) Lookup(sym string) (Item, bool) {
	id, ok := t.ids[sym]
	return id, ok
}

// Symbol returns the symbol for an interned id.
func (t *SymbolTable) Symbol(id Item) string { return t.syms[id] }

// Len returns the number of interned symbols.
func (t *SymbolTable) Len() int { return len(t.syms) }

// maxDenseEntries caps the size of the dense per-sequence indexes
// (sequences × item ids). Beyond it a degenerate database (say, millions
// of distinct symbols across thousands of sequences) would allocate
// multi-gigabyte index arrays; encoding fails with a clear error instead
// of inviting the OOM killer. 1<<27 Locs is one gigabyte, well above the
// paper-scale experiments (which need a few million entries).
const maxDenseEntries = 1 << 27

func checkDenseSize(nSeqs, width int) error {
	if nSeqs > 0 && width > 0 && nSeqs > maxDenseEntries/width {
		return fmt.Errorf("seqdb: dense index would need %d×%d entries (limit %d); reduce distinct symbols or sequences", nSeqs, width, maxDenseEntries)
	}
	return nil
}

// PosIndex is the dense item→location index of an EndpointDB: row s is a
// flat array indexed by item id whose entries locate that item in
// sequence s, with Slice == -1 marking items absent from the sequence.
// It replaces a per-sequence map so the projection inner loop is a
// single bounds-checked array load instead of a hash lookup.
type PosIndex struct {
	width int
	locs  []Loc
}

func newPosIndex(nSeqs, width int) PosIndex {
	locs := make([]Loc, nSeqs*width)
	if len(locs) > 0 {
		// Fill with the absent sentinel by copy-doubling: memmove beats
		// a scalar store loop on these multi-hundred-KB arrays.
		locs[0] = Loc{Slice: -1, Idx: -1}
		for n := 1; n < len(locs); n *= 2 {
			copy(locs[n:], locs[:n])
		}
	}
	return PosIndex{width: width, locs: locs}
}

// Width returns the row width (the item-id space of the index).
func (p *PosIndex) Width() int { return p.width }

// Row returns sequence s's location row, indexed by item id. Entries
// with Slice == -1 mark items absent from the sequence.
func (p *PosIndex) Row(s int32) []Loc {
	base := int(s) * p.width
	return p.locs[base : base+p.width : base+p.width]
}

// At returns the location of item it in sequence s; Slice == -1 means
// the item does not occur in the sequence.
func (p *PosIndex) At(s int32, it Item) Loc {
	return p.locs[int(s)*p.width+int(it)]
}

// EndpointDB is an interval database encoded into endpoint representation
// with integer items. Because endpoints are occurrence-indexed, every
// item appears at most once per sequence; Pos exploits that with an exact
// dense per-sequence location index, and Pair links each item to the id
// of the other end of the same interval.
type EndpointDB struct {
	Seqs  []Sequence
	Table *EndpointTable
	// Pair[i] is the item id of the matching endpoint of item i, or -1
	// if the pair never occurs in the database (cannot happen for
	// databases built by EncodeEndpointDB, but can after filtering).
	Pair []Item
	// IsFinish[i] reports whether item i is a finish endpoint.
	IsFinish []bool
	// Pos locates each item occurring in each sequence.
	Pos PosIndex
}

// sortItems sorts a slice's item set in place. Slices are tiny (most
// hold one or two items), so an insertion sort beats sort.Slice and
// avoids the closure allocation on the encode hot path.
func sortItems(items []Item) {
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j] < items[j-1]; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
}

// EncodeEndpointDB encodes an interval database into endpoint
// representation. Input sequences are validated; the input is not
// modified.
//
// Encoding runs on every mine request, so the item slices of each
// sequence are carved from a single backing array rather than allocated
// per slice.
func EncodeEndpointDB(db *interval.Database) (*EndpointDB, error) {
	out := &EndpointDB{
		Seqs:  make([]Sequence, len(db.Sequences)),
		Table: NewEndpointTable(),
	}
	var enc endpoint.Encoder
	for si := range db.Sequences {
		slices, err := enc.Encode(db.Sequences[si])
		if err != nil {
			return nil, fmt.Errorf("seqdb: sequence %d: %w", si, err)
		}
		total := 0
		for _, sl := range slices {
			total += len(sl.Points)
		}
		backing := make([]Item, total)
		seq := Sequence{Slices: make([]Slice, len(slices))}
		k := 0
		for ci, sl := range slices {
			items := backing[k : k+len(sl.Points) : k+len(sl.Points)]
			k += len(sl.Points)
			for pi, p := range sl.Points {
				items[pi] = out.Table.Intern(p)
			}
			sortItems(items)
			seq.Slices[ci] = Slice{Time: sl.Time, Items: items}
		}
		out.Seqs[si] = seq
	}
	if err := out.buildPosIndex(); err != nil {
		return nil, err
	}
	out.buildPairIndex()
	return out, nil
}

// buildPosIndex (re)builds the dense position index from the encoded
// slices. The id space must be fully interned (the index width is
// Table.Len()).
func (db *EndpointDB) buildPosIndex() error {
	width := db.Table.Len()
	if err := checkDenseSize(len(db.Seqs), width); err != nil {
		return err
	}
	db.Pos = newPosIndex(len(db.Seqs), width)
	for si := range db.Seqs {
		row := db.Pos.Row(int32(si))
		for ci := range db.Seqs[si].Slices {
			for ii, it := range db.Seqs[si].Slices[ci].Items {
				row[it] = Loc{Slice: int32(ci), Idx: int32(ii)}
			}
		}
	}
	return nil
}

func (db *EndpointDB) buildPairIndex() {
	n := db.Table.Len()
	db.Pair = make([]Item, n)
	db.IsFinish = make([]bool, n)
	for id := 0; id < n; id++ {
		e := db.Table.Endpoint(Item(id))
		db.IsFinish[id] = e.Kind == endpoint.Finish
		if pid, ok := db.Table.Lookup(e.Pair()); ok {
			db.Pair[id] = pid
		} else {
			db.Pair[id] = -1
		}
	}
}

// ItemSupports counts, per item id, the number of sequences containing
// the item. For endpoint databases this is exact (each item occurs at
// most once per sequence).
func (db *EndpointDB) ItemSupports() []int {
	sup := make([]int, db.Table.Len())
	for si := range db.Seqs {
		for ci := range db.Seqs[si].Slices {
			for _, it := range db.Seqs[si].Slices[ci].Items {
				sup[it]++
			}
		}
	}
	return sup
}

// FilterInfrequent rebuilds the database dropping every item whose
// support is below minCount, together with slices that become empty.
// Start/finish pairs always have equal support, so pairs are dropped
// together automatically. It returns the number of item ids removed.
// This implements pruning P1 (global infrequent-endpoint pruning).
func (db *EndpointDB) FilterInfrequent(minCount int) int {
	sup := db.ItemSupports()
	keep := make([]bool, len(sup))
	removed := 0
	for i, s := range sup {
		keep[i] = s >= minCount
		if s > 0 && s < minCount {
			removed++ // only ids actually present count as removals
		}
	}
	if removed == 0 {
		return 0
	}
	for si := range db.Seqs {
		seq := &db.Seqs[si]
		row := db.Pos.Row(int32(si))
		outSlices := seq.Slices[:0]
		for _, sl := range seq.Slices {
			// Filter in place: the database is being rebuilt, so the
			// original item slices are dead storage we can compact into.
			items := sl.Items[:0]
			for _, it := range sl.Items {
				if keep[it] {
					items = append(items, it)
				} else {
					row[it] = Loc{Slice: -1, Idx: -1}
				}
			}
			if len(items) == 0 {
				continue
			}
			ci := int32(len(outSlices))
			for ii, it := range items {
				row[it] = Loc{Slice: ci, Idx: int32(ii)}
			}
			outSlices = append(outSlices, Slice{Time: sl.Time, Items: items})
		}
		seq.Slices = outSlices
	}
	return removed
}

// OccIndex is the dense posting-list index of a CoincDB: for each
// sequence and symbol id, the ascending slice indices whose item sets
// contain the symbol, in CSR layout (one offsets row plus one postings
// array per sequence). Projection uses it to jump straight to the next
// slice containing a symbol instead of scanning every later slice.
type OccIndex struct {
	width  int
	starts [][]int32 // starts[s] has width+1 entries into posts[s]
	posts  [][]int32 // posts[s] holds ascending slice indices
}

// Width returns the symbol-id space of the index.
func (o *OccIndex) Width() int { return o.width }

// Slices returns the ascending slice indices of sequence s that contain
// item it. The returned slice aliases the index; callers must not
// modify it.
func (o *OccIndex) Slices(s int32, it Item) []int32 {
	st := o.starts[s]
	return o.posts[s][st[it]:st[it+1]]
}

// CoincDB is an interval database encoded into coincidence representation
// with integer symbol items. Unlike EndpointDB, the same item may occur
// in many slices of one sequence; Occ indexes those occurrences.
type CoincDB struct {
	Seqs  []Sequence
	Table *SymbolTable
	// Occ locates the slices containing each symbol in each sequence.
	Occ OccIndex
}

// buildOccIndex (re)builds the posting-list index from the encoded
// slices. The symbol space must be fully interned.
func (db *CoincDB) buildOccIndex() error {
	width := db.Table.Len()
	// The offsets rows are (width+1) int32s per sequence — the same
	// sequences×ids shape as the endpoint index, bounded the same way.
	if err := checkDenseSize(len(db.Seqs), width+1); err != nil {
		return err
	}
	db.Occ = OccIndex{
		width:  width,
		starts: make([][]int32, len(db.Seqs)),
		posts:  make([][]int32, len(db.Seqs)),
	}
	for si := range db.Seqs {
		slices := db.Seqs[si].Slices
		starts := make([]int32, width+1)
		total := 0
		for ci := range slices {
			for _, it := range slices[ci].Items {
				starts[it+1]++
				total++
			}
		}
		for i := 1; i <= width; i++ {
			starts[i] += starts[i-1]
		}
		posts := make([]int32, total)
		// fill cursors: next write position per item; slices are visited
		// in ascending order so each posting list comes out sorted.
		next := make([]int32, width)
		copy(next, starts[:width])
		for ci := range slices {
			for _, it := range slices[ci].Items {
				posts[next[it]] = int32(ci)
				next[it]++
			}
		}
		db.Occ.starts[si] = starts
		db.Occ.posts[si] = posts
	}
	return nil
}

// EncodeCoincidenceDB encodes an interval database into coincidence
// representation.
func EncodeCoincidenceDB(db *interval.Database) (*CoincDB, error) {
	out := &CoincDB{
		Seqs:  make([]Sequence, len(db.Sequences)),
		Table: NewSymbolTable(),
	}
	for si := range db.Sequences {
		segs, err := coincidence.Transform(db.Sequences[si])
		if err != nil {
			return nil, fmt.Errorf("seqdb: sequence %d: %w", si, err)
		}
		total := 0
		for _, c := range segs {
			total += len(c.Symbols)
		}
		backing := make([]Item, total)
		seq := Sequence{Slices: make([]Slice, len(segs))}
		k := 0
		for ci, c := range segs {
			items := backing[k : k+len(c.Symbols) : k+len(c.Symbols)]
			k += len(c.Symbols)
			for pi, sym := range c.Symbols {
				items[pi] = out.Table.Intern(sym)
			}
			sortItems(items)
			seq.Slices[ci] = Slice{Time: c.Start, Items: items}
		}
		out.Seqs[si] = seq
	}
	if err := out.buildOccIndex(); err != nil {
		return nil, err
	}
	return out, nil
}

// ItemSupports counts, per symbol id, the number of sequences in which
// the symbol is alive in at least one segment.
func (db *CoincDB) ItemSupports() []int {
	sup := make([]int, db.Table.Len())
	seen := make([]int32, db.Table.Len())
	for i := range seen {
		seen[i] = -1
	}
	for si := range db.Seqs {
		for _, sl := range db.Seqs[si].Slices {
			for _, it := range sl.Items {
				if seen[it] != int32(si) {
					seen[it] = int32(si)
					sup[it]++
				}
			}
		}
	}
	return sup
}

// FilterInfrequent rebuilds the coincidence database dropping every
// symbol with support below minCount and slices that become empty.
// Returns the number of symbol ids removed.
func (db *CoincDB) FilterInfrequent(minCount int) int {
	sup := db.ItemSupports()
	keep := make([]bool, len(sup))
	removed := 0
	for i, s := range sup {
		keep[i] = s >= minCount
		if s > 0 && s < minCount {
			removed++ // only ids actually present count as removals
		}
	}
	if removed == 0 {
		return 0
	}
	for si := range db.Seqs {
		seq := &db.Seqs[si]
		outSlices := seq.Slices[:0]
		for _, sl := range seq.Slices {
			// In-place compaction, same as the endpoint filter: writes
			// trail reads within each slice's own backing segment.
			items := sl.Items[:0]
			for _, it := range sl.Items {
				if keep[it] {
					items = append(items, it)
				}
			}
			if len(items) == 0 {
				continue
			}
			outSlices = append(outSlices, Slice{Time: sl.Time, Items: items})
		}
		seq.Slices = outSlices
	}
	// Slice indices shifted; rebuild the posting lists. The width cannot
	// have grown, so the size check cannot fail.
	if err := db.buildOccIndex(); err != nil {
		panic(err)
	}
	return removed
}
