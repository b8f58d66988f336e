// Package endpoint implements the endpoint representation of interval
// sequences used by P-TPMiner's temporal-pattern mining.
//
// Each event interval (S, start, end) is split into a start endpoint S+
// emitted at time start and a finish endpoint S- emitted at time end.
// Endpoints sharing a timestamp are grouped into one slice, so a sequence
// of intervals becomes an ordered sequence of endpoint sets. The
// transformation is lossless and — crucially — turns the thirteen-way
// ambiguity of pairwise Allen relations into plain subsequence structure.
//
// Duplicate symbols are disambiguated with occurrence indices assigned in
// canonical interval order (start, end, symbol): the k-th interval of
// symbol A in a sequence produces endpoints A.k+ and A.k-. Every endpoint
// therefore appears at most once per sequence, which makes pattern
// embeddings positionally unique and keeps the projection-based miner
// simple and fast (see DESIGN.md, "Duplicate-symbol semantics").
package endpoint

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tpminer/internal/interval"
)

// Kind distinguishes start endpoints from finish endpoints.
type Kind uint8

const (
	// Start marks the beginning of an interval (rendered "+").
	Start Kind = iota
	// Finish marks the end of an interval (rendered "-").
	Finish
)

// String returns "+" for Start and "-" for Finish.
func (k Kind) String() string {
	if k == Start {
		return "+"
	}
	return "-"
}

// Endpoint is one end of an occurrence-indexed event interval.
// Occ is 1-based: the first interval of a symbol in a sequence is
// occurrence 1.
type Endpoint struct {
	Symbol string
	Occ    int
	Kind   Kind
}

// String renders the endpoint as "A+" / "A-" for occurrence 1 and
// "A.2+" / "A.2-" for later occurrences. Parse inverts this rendering.
func (e Endpoint) String() string {
	var buf [32]byte
	return string(e.Append(buf[:0]))
}

// Append appends the endpoint's String rendering to b, for callers
// that render many endpoints into one buffer.
func (e Endpoint) Append(b []byte) []byte {
	b = append(b, e.Symbol...)
	if e.Occ > 1 {
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(e.Occ), 10)
	}
	return append(b, e.Kind.String()...)
}

// Pair returns the endpoint at the other end of the same interval.
func (e Endpoint) Pair() Endpoint {
	out := e
	if e.Kind == Start {
		out.Kind = Finish
	} else {
		out.Kind = Start
	}
	return out
}

// Less imposes the canonical ordering on endpoints: by symbol, then
// occurrence, then kind (Start before Finish). Slices are kept in this
// order so that equal slices compare element-wise.
func (e Endpoint) Less(other Endpoint) bool {
	if e.Symbol != other.Symbol {
		return e.Symbol < other.Symbol
	}
	if e.Occ != other.Occ {
		return e.Occ < other.Occ
	}
	return e.Kind < other.Kind
}

// Parse inverts Endpoint.String. It accepts "A+", "A-", "A.3+", "A.3-".
// The symbol may itself contain dots as long as the final ".<n>" segment,
// if present, is a positive integer (so "foo.bar+" parses as symbol
// "foo.bar", occurrence 1). Symbols containing the textual-format
// delimiters — parentheses, braces, or whitespace — are rejected: they
// would render ambiguously in pattern syntax.
func Parse(s string) (Endpoint, error) {
	if len(s) < 2 {
		return Endpoint{}, fmt.Errorf("endpoint: %q too short", s)
	}
	if strings.ContainsAny(s, "(){} \t\n\r") {
		return Endpoint{}, fmt.Errorf("endpoint: %q contains format delimiter characters", s)
	}
	var kind Kind
	switch s[len(s)-1] {
	case '+':
		kind = Start
	case '-':
		kind = Finish
	default:
		return Endpoint{}, fmt.Errorf("endpoint: %q must end in '+' or '-'", s)
	}
	body := s[:len(s)-1]
	occ := 1
	if i := strings.LastIndexByte(body, '.'); i >= 0 && i < len(body)-1 {
		if n, err := strconv.Atoi(body[i+1:]); err == nil && n >= 1 {
			occ = n
			body = body[:i]
		}
	}
	if body == "" {
		return Endpoint{}, fmt.Errorf("endpoint: %q has empty symbol", s)
	}
	return Endpoint{Symbol: body, Occ: occ, Kind: kind}, nil
}

// Slice is the set of endpoints that occur at one timestamp, kept in
// canonical endpoint order.
type Slice struct {
	Time   interval.Time
	Points []Endpoint
}

// String renders the slice as "(A+ B-)" or a bare endpoint when the slice
// holds a single point.
func (sl Slice) String() string { return string(sl.Append(nil)) }

// Append appends the slice's String rendering to b, for callers that
// render many slices into one buffer.
func (sl Slice) Append(b []byte) []byte {
	if len(sl.Points) == 1 {
		return sl.Points[0].Append(b)
	}
	b = append(b, '(')
	for i, p := range sl.Points {
		if i > 0 {
			b = append(b, ' ')
		}
		b = p.Append(b)
	}
	return append(b, ')')
}

// timed is an endpoint tagged with its emission time, the intermediate
// form Encode sorts before grouping endpoints into slices.
type timed struct {
	t interval.Time
	e Endpoint
}

type timedSorter []timed

func (s timedSorter) Len() int { return len(s) }
func (s timedSorter) Less(i, j int) bool {
	if s[i].t != s[j].t {
		return s[i].t < s[j].t
	}
	return s[i].e.Less(s[j].e)
}
func (s timedSorter) Swap(i, j int) { s[i], s[j] = s[j], s[i] }

// Encoder encodes interval sequences into endpoint representation while
// reusing scratch buffers across calls. A database encode runs it once
// per sequence, so the per-call allocations are only the two arrays that
// escape into the result (the slice headers and one shared endpoint
// backing array). The zero value is ready to use; an Encoder must not be
// shared between goroutines.
type Encoder struct {
	ivs    []interval.Interval
	points []timed
}

// smallSeqScan is the sequence length below which occurrence indices are
// assigned with a quadratic backwards scan instead of a symbol map. Most
// sequences are short, and for those the scan avoids hashing every
// symbol twice per interval.
const smallSeqScan = 32

// Encode transforms an interval sequence into its endpoint
// representation. The input is canonicalized (sorted) first; the
// original sequence is not modified. Invalid intervals yield an error.
// The result does not alias the Encoder's scratch and stays valid across
// subsequent calls.
func (enc *Encoder) Encode(s interval.Sequence) ([]Slice, error) {
	if err := s.Valid(); err != nil {
		return nil, err
	}
	ivs := append(enc.ivs[:0], s.Intervals...)
	enc.ivs = ivs
	interval.SortIntervals(ivs)

	points := enc.points[:0]
	if len(ivs) <= smallSeqScan {
		for i, iv := range ivs {
			k := 1
			for j := 0; j < i; j++ {
				if ivs[j].Symbol == iv.Symbol {
					k++
				}
			}
			points = append(points,
				timed{iv.Start, Endpoint{Symbol: iv.Symbol, Occ: k, Kind: Start}},
				timed{iv.End, Endpoint{Symbol: iv.Symbol, Occ: k, Kind: Finish}},
			)
		}
	} else {
		occ := make(map[string]int, len(ivs))
		for _, iv := range ivs {
			occ[iv.Symbol]++
			k := occ[iv.Symbol]
			points = append(points,
				timed{iv.Start, Endpoint{Symbol: iv.Symbol, Occ: k, Kind: Start}},
				timed{iv.End, Endpoint{Symbol: iv.Symbol, Occ: k, Kind: Finish}},
			)
		}
	}
	enc.points = points
	sort.Sort(timedSorter(points))

	nSlices := 0
	for i := range points {
		if i == 0 || points[i].t != points[i-1].t {
			nSlices++
		}
	}
	out := make([]Slice, 0, nSlices)
	backing := make([]Endpoint, len(points))
	for i, p := range points {
		backing[i] = p.e
		if i == 0 || p.t != points[i-1].t {
			out = append(out, Slice{Time: p.t, Points: backing[i:i:len(backing)]})
		}
		last := len(out) - 1
		out[last].Points = out[last].Points[:len(out[last].Points)+1]
	}
	return out, nil
}

// Encode transforms an interval sequence into its endpoint representation
// using a throwaway Encoder. Batch callers should hold an Encoder and
// call its Encode method instead to amortize scratch allocations.
func Encode(s interval.Sequence) ([]Slice, error) {
	var enc Encoder
	return enc.Encode(s)
}

// Decode reconstructs the interval sequence from its endpoint
// representation. It is the inverse of Encode up to canonical interval
// order. Decode fails if any endpoint is unpaired or a finish precedes
// its start.
func Decode(slices []Slice) (interval.Sequence, error) {
	type key struct {
		sym string
		occ int
	}
	open := make(map[key]interval.Time)
	var seq interval.Sequence
	for _, sl := range slices {
		for _, p := range sl.Points {
			k := key{p.Symbol, p.Occ}
			switch p.Kind {
			case Start:
				if _, dup := open[k]; dup {
					return interval.Sequence{}, fmt.Errorf("endpoint: duplicate start %s at time %d", p, sl.Time)
				}
				open[k] = sl.Time
			case Finish:
				start, ok := open[k]
				if !ok {
					return interval.Sequence{}, fmt.Errorf("endpoint: finish %s at time %d without open start", p, sl.Time)
				}
				delete(open, k)
				seq.Intervals = append(seq.Intervals, interval.Interval{Symbol: p.Symbol, Start: start, End: sl.Time})
			}
		}
	}
	if len(open) > 0 {
		for k := range open {
			return interval.Sequence{}, fmt.Errorf("endpoint: start %s.%d never finished", k.sym, k.occ)
		}
	}
	seq.Normalize()
	return seq, nil
}

// FormatSlices renders an endpoint sequence as "A+ (A- B+) B-".
func FormatSlices(slices []Slice) string {
	parts := make([]string, len(slices))
	for i, sl := range slices {
		parts[i] = sl.String()
	}
	return strings.Join(parts, " ")
}
