package pattern

import (
	"tpminer/internal/endpoint"
	"tpminer/internal/interval"
)

// ContainsAligned reports whether the endpoint sequence contains the
// temporal pattern under occurrence-aligned semantics: pattern endpoint
// A.k± matches exactly the sequence's k-th occurrence of A. Because every
// occurrence-indexed endpoint appears at most once per sequence, the
// embedding — if it exists — is positionally unique: all endpoints of one
// pattern element must share a slice, and element slices must be strictly
// increasing.
//
// This is the semantics mined by P-TPMiner and all baselines; see
// DESIGN.md "Duplicate-symbol semantics".
func ContainsAligned(slices []endpoint.Slice, p Temporal) bool {
	return BuildIndex(slices).Contains(p, 0, 0)
}

// Index is one endpoint-encoded sequence prepared for repeated aligned
// matching: the slice position of every endpoint (every endpoint occurs
// at most once per sequence, so the position is unique) plus each
// slice's time, for the span and gap bounds.
type Index struct {
	pos   map[endpoint.Endpoint]int32
	times []interval.Time
}

// BuildIndex indexes one endpoint-encoded sequence.
func BuildIndex(slices []endpoint.Slice) Index {
	ix := Index{
		pos:   make(map[endpoint.Endpoint]int32, 2*len(slices)),
		times: make([]interval.Time, len(slices)),
	}
	for i, sl := range slices {
		ix.times[i] = sl.Time
		for _, e := range sl.Points {
			ix.pos[e] = int32(i)
		}
	}
	return ix
}

// BuildIndexes indexes every sequence of an encoded database.
func BuildIndexes(db [][]endpoint.Slice) []Index {
	out := make([]Index, len(db))
	for i, s := range db {
		out[i] = BuildIndex(s)
	}
	return out
}

// Contains reports whether the indexed sequence supports p the way the
// miner counts it: all endpoints of one element share a slice, element
// slices strictly increase, the first→last element time span is at most
// maxSpan, and each consecutive-element time gap is at most maxGap (0
// disables either check; these are core.Options.MaxSpan and MaxGap).
// Because endpoints are occurrence-labeled, the embedding is unique, so
// there is nothing to search — just verify. Every support count outside
// the miner's own projection (the shard count round, the incremental
// miner's appends, the brute-force oracle) goes through this method.
func (ix Index) Contains(p Temporal, maxSpan, maxGap interval.Time) bool {
	if len(p.Elements) == 0 {
		return false
	}
	prev := int32(-1)
	var first interval.Time
	for ei, el := range p.Elements {
		at := int32(-1)
		for j, e := range el {
			i, ok := ix.pos[e]
			if !ok {
				return false
			}
			if j == 0 {
				at = i
			} else if at != i {
				return false
			}
		}
		if at <= prev {
			return false
		}
		t := ix.times[at]
		if ei == 0 {
			first = t
		} else if maxGap > 0 && t-ix.times[prev] > maxGap {
			return false
		}
		if maxSpan > 0 && t-first > maxSpan {
			return false
		}
		prev = at
	}
	return true
}

// SupportAligned counts the sequences (given in endpoint representation)
// that contain p under aligned semantics.
func SupportAligned(db [][]endpoint.Slice, p Temporal) int {
	n := 0
	for _, s := range db {
		if ContainsAligned(s, p) {
			n++
		}
	}
	return n
}

// SupportIndexed counts the indexed sequences containing p within the
// span and gap bounds (see Index.Contains).
func SupportIndexed(ixs []Index, p Temporal, maxSpan, maxGap interval.Time) int {
	n := 0
	for _, ix := range ixs {
		if ix.Contains(p, maxSpan, maxGap) {
			n++
		}
	}
	return n
}

// EncodeDatabase converts an interval database to endpoint representation
// once, for repeated matching. Sequences that fail validation abort with
// the error.
func EncodeDatabase(db *interval.Database) ([][]endpoint.Slice, error) {
	out := make([][]endpoint.Slice, len(db.Sequences))
	for i := range db.Sequences {
		sl, err := endpoint.Encode(db.Sequences[i])
		if err != nil {
			return nil, err
		}
		out[i] = sl
	}
	return out, nil
}

// ContainsAny reports whether the sequence contains the temporal pattern
// under any-binding semantics: each pattern interval instance may map to
// any same-symbol interval of the sequence (injectively) as long as the
// induced endpoint arrangement matches the pattern's element structure.
// This is strictly more permissive than ContainsAligned and is used for
// verification and result interpretation, not for mining.
func ContainsAny(seq interval.Sequence, p Temporal) bool {
	if len(p.Elements) == 0 || !p.Complete() {
		return false
	}

	// Pattern instances with their (start element, end element) indices.
	type pinst struct {
		sym        string
		start, end int
	}
	idx := make(map[instKey]int)
	var pinsts []pinst
	for i, el := range p.Elements {
		for _, e := range el {
			k := instKey{e.Symbol, e.Occ}
			j, ok := idx[k]
			if !ok {
				j = len(pinsts)
				idx[k] = j
				pinsts = append(pinsts, pinst{sym: e.Symbol, start: -1, end: -1})
			}
			if e.Kind == endpoint.Start {
				pinsts[j].start = i
			} else {
				pinsts[j].end = i
			}
		}
	}

	// Sequence instances with their concrete times.
	norm := seq.Clone()
	norm.Normalize()
	type sinst struct {
		sym        string
		start, end interval.Time
		used       bool
	}
	sinsts := make([]sinst, len(norm.Intervals))
	for i, iv := range norm.Intervals {
		sinsts[i] = sinst{sym: iv.Symbol, start: iv.Start, end: iv.End}
	}

	// Backtracking assignment: bind each pattern instance to an unused
	// same-symbol sequence instance; element indices must induce a
	// consistent strictly-increasing time assignment. elemTime[e] is the
	// concrete time bound to pattern element e (-1 if unbound).
	elemTime := make([]interval.Time, len(p.Elements))
	elemBound := make([]bool, len(p.Elements))

	consistent := func(elem int, t interval.Time) bool {
		if elemBound[elem] {
			return elemTime[elem] == t
		}
		for e := elem - 1; e >= 0; e-- {
			if elemBound[e] {
				if elemTime[e] >= t {
					return false
				}
				break
			}
		}
		for e := elem + 1; e < len(p.Elements); e++ {
			if elemBound[e] {
				if elemTime[e] <= t {
					return false
				}
				break
			}
		}
		return true
	}

	var rec func(pi int) bool
	rec = func(pi int) bool {
		if pi == len(pinsts) {
			return true
		}
		pin := pinsts[pi]
		for si := range sinsts {
			sin := &sinsts[si]
			if sin.used || sin.sym != pin.sym {
				continue
			}
			if !consistent(pin.start, sin.start) {
				continue
			}
			sBound, sPrev := elemBound[pin.start], elemTime[pin.start]
			elemBound[pin.start], elemTime[pin.start] = true, sin.start
			if !consistent(pin.end, sin.end) {
				elemBound[pin.start], elemTime[pin.start] = sBound, sPrev
				continue
			}
			eBound, ePrev := elemBound[pin.end], elemTime[pin.end]
			elemBound[pin.end], elemTime[pin.end] = true, sin.end
			sin.used = true
			if rec(pi + 1) {
				return true
			}
			sin.used = false
			elemBound[pin.end], elemTime[pin.end] = eBound, ePrev
			elemBound[pin.start], elemTime[pin.start] = sBound, sPrev
		}
		return false
	}
	return rec(0)
}

// SupportAny counts the sequences of the database containing p under
// any-binding semantics.
func SupportAny(db *interval.Database, p Temporal) int {
	n := 0
	for i := range db.Sequences {
		if ContainsAny(db.Sequences[i], p) {
			n++
		}
	}
	return n
}
