// Package pattern defines the two pattern types discovered by P-TPMiner —
// temporal patterns over the endpoint representation and coincidence
// patterns over the coincidence representation — together with their
// validity rules, canonical normalization, containment semantics, and
// rendering (including recovery of pairwise Allen relations from a
// temporal pattern).
package pattern

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"tpminer/internal/endpoint"
	"tpminer/internal/interval"
)

// Temporal is an interval-based sequential pattern in endpoint
// representation: an ordered list of elements, each a set of endpoints
// that co-occur at one time point. A *complete* temporal pattern pairs
// every start with a later (or co-occurring) finish and vice versa; only
// complete patterns describe a realizable arrangement of intervals and
// only those are reported by the miners. Prefixes grown during mining may
// be incomplete.
//
// Elements hold endpoints in canonical order (endpoint.Endpoint.Less).
type Temporal struct {
	Elements [][]endpoint.Endpoint
}

// NewTemporal builds a pattern from elements, canonicalizing the order of
// endpoints inside each element. The input slices are copied.
func NewTemporal(elements ...[]endpoint.Endpoint) Temporal {
	p := copyElements(elements)
	p.Canonicalize(false)
	return p
}

// copyElements copies elements into a pattern whose elements share one
// endpoint array, each capped at its own length.
func copyElements(elements [][]endpoint.Endpoint) Temporal {
	n := 0
	for _, el := range elements {
		n += len(el)
	}
	eps := make([]endpoint.Endpoint, n)
	p := Temporal{Elements: make([][]endpoint.Endpoint, len(elements))}
	k := 0
	for i, el := range elements {
		copy(eps[k:], el)
		p.Elements[i] = eps[k : k+len(el) : k+len(el)]
		k += len(el)
	}
	return p
}

// Canonicalize puts p in canonical form in place, in the slices it
// holds: with normalize it first renumbers occurrence indices as
// Normalize does, and then it sorts every element into canonical
// endpoint order. NewTemporal and Normalize apply it to a copy; the
// miner applies it to the patterns it has just built.
func (p Temporal) Canonicalize(normalize bool) {
	if normalize {
		p.renumber()
	}
	for _, el := range p.Elements {
		slices.SortFunc(el, compareEndpoints)
	}
}

func compareEndpoints(a, b endpoint.Endpoint) int {
	switch {
	case a.Less(b):
		return -1
	case b.Less(a):
		return 1
	}
	return 0
}

// renumber rewrites occurrence indices in place: each symbol's interval
// instances are numbered 1, 2, ... in order of first appearance. A
// pattern names few instances, so a linear scan of those seen so far
// is cheaper than a map.
func (p Temporal) renumber() {
	type seen struct {
		sym      string
		old, occ int
	}
	var buf [16]seen
	insts := buf[:0]
	for _, el := range p.Elements {
		for j := range el {
			e := &el[j]
			occ, found := 1, false
			for i := range insts {
				if insts[i].sym != e.Symbol {
					continue
				}
				if insts[i].old == e.Occ {
					occ, found = insts[i].occ, true
					break
				}
				occ++
			}
			if !found {
				insts = append(insts, seen{sym: e.Symbol, old: e.Occ, occ: occ})
			}
			e.Occ = occ
		}
	}
}

// Len returns the number of elements (time points) in the pattern.
func (p Temporal) Len() int { return len(p.Elements) }

// Size returns the total number of endpoints.
func (p Temporal) Size() int {
	n := 0
	for _, el := range p.Elements {
		n += len(el)
	}
	return n
}

// NumIntervals returns the number of interval instances the pattern
// mentions (distinct symbol/occurrence pairs).
func (p Temporal) NumIntervals() int {
	seen := make(map[instKey]struct{})
	for _, el := range p.Elements {
		for _, e := range el {
			seen[instKey{e.Symbol, e.Occ}] = struct{}{}
		}
	}
	return len(seen)
}

type instKey struct {
	sym string
	occ int
}

// Clone returns a deep copy.
func (p Temporal) Clone() Temporal { return copyElements(p.Elements) }

// String renders the pattern as "A+ (A- B+) B-": single-endpoint elements
// bare, multi-endpoint elements parenthesized. Every mined row renders
// its pattern, so it writes into one sized buffer.
func (p Temporal) String() string {
	n := 0
	for _, el := range p.Elements {
		n += 3 // separator and parentheses
		for _, e := range el {
			n += len(e.Symbol) + 5 // '.', up to 2 occ digits, kind, space
		}
	}
	b := make([]byte, 0, n)
	for i, el := range p.Elements {
		if i > 0 {
			b = append(b, ' ')
		}
		b = endpoint.Slice{Points: el}.Append(b)
	}
	return string(b)
}

// Key returns a canonical string key usable for dedup maps. Unlike
// String it is unambiguous for any symbols (elements are delimited).
// It sits on the result-sorting hot path, so it builds the key with one
// sized allocation and no fmt machinery.
func (p Temporal) Key() string {
	n := 0
	for _, el := range p.Elements {
		for _, e := range el {
			n += len(e.Symbol) + 5 // '.', up to 2 occ digits, kind, separator
		}
	}
	b := make([]byte, 0, n)
	for i, el := range p.Elements {
		if i > 0 {
			b = append(b, '|')
		}
		for j, e := range el {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, e.Symbol...)
			b = append(b, '.')
			b = strconv.AppendInt(b, int64(e.Occ), 10)
			if e.Kind == endpoint.Start {
				b = append(b, '+')
			} else {
				b = append(b, '-')
			}
		}
	}
	return string(b)
}

// Equal reports structural equality.
func (p Temporal) Equal(q Temporal) bool {
	if len(p.Elements) != len(q.Elements) {
		return false
	}
	for i := range p.Elements {
		if len(p.Elements[i]) != len(q.Elements[i]) {
			return false
		}
		for j := range p.Elements[i] {
			if p.Elements[i][j] != q.Elements[i][j] {
				return false
			}
		}
	}
	return true
}

// Validate checks structural well-formedness: no empty elements, endpoints
// canonically ordered and duplicate-free, every finish preceded by (or
// co-occurring with, in an earlier position of the same element per
// canonical order) its matching start, and no start opened twice.
// Whether every start is also finished is reported separately by
// Complete; prefixes grown during mining are valid but incomplete.
func (p Temporal) Validate() error {
	if len(p.Elements) == 0 {
		return fmt.Errorf("pattern: empty temporal pattern")
	}
	seen := make(map[endpoint.Endpoint]struct{})
	open := make(map[instKey]struct{})
	for i, el := range p.Elements {
		if len(el) == 0 {
			return fmt.Errorf("pattern: element %d is empty", i)
		}
		for j, e := range el {
			if j > 0 && !el[j-1].Less(e) {
				return fmt.Errorf("pattern: element %d not in canonical order at %s", i, e)
			}
			if _, dup := seen[e]; dup {
				return fmt.Errorf("pattern: duplicate endpoint %s", e)
			}
			seen[e] = struct{}{}
			if e.Occ < 1 {
				return fmt.Errorf("pattern: endpoint %s has occurrence < 1", e)
			}
			k := instKey{e.Symbol, e.Occ}
			switch e.Kind {
			case endpoint.Start:
				open[k] = struct{}{}
			case endpoint.Finish:
				if _, ok := open[k]; !ok {
					return fmt.Errorf("pattern: finish %s before its start", e)
				}
				delete(open, k)
			}
		}
	}
	return nil
}

// Complete reports whether every started interval is finished, i.e. the
// pattern describes a realizable interval arrangement. Only complete
// patterns are emitted by the miners.
func (p Temporal) Complete() bool {
	open := make(map[instKey]struct{})
	for _, el := range p.Elements {
		for _, e := range el {
			k := instKey{e.Symbol, e.Occ}
			if e.Kind == endpoint.Start {
				open[k] = struct{}{}
			} else {
				if _, ok := open[k]; !ok {
					return false
				}
				delete(open, k)
			}
		}
	}
	return len(open) == 0
}

// Normalize returns the canonical form of the pattern: occurrence indices
// of each symbol are renumbered 1, 2, ... in order of first appearance of
// their start endpoints. Two patterns that differ only in which concrete
// occurrences they name normalize to the same pattern.
func (p Temporal) Normalize() Temporal {
	out := p.Clone()
	out.Canonicalize(true)
	return out
}

// ParseTemporal inverts Temporal.String: "A+ (A- B+) B-".
func ParseTemporal(s string) (Temporal, error) {
	var elements [][]endpoint.Endpoint
	fields := strings.Fields(s)
	i := 0
	for i < len(fields) {
		f := fields[i]
		if strings.HasPrefix(f, "(") {
			// Collect tokens until the closing paren.
			var group []string
			f = strings.TrimPrefix(f, "(")
			closed := false
			for {
				if strings.HasSuffix(f, ")") {
					group = append(group, strings.TrimSuffix(f, ")"))
					closed = true
					break
				}
				if f != "" {
					group = append(group, f)
				}
				i++
				if i >= len(fields) {
					break
				}
				f = fields[i]
			}
			if !closed {
				return Temporal{}, fmt.Errorf("pattern: unclosed '(' in %q", s)
			}
			el := make([]endpoint.Endpoint, 0, len(group))
			for _, g := range group {
				e, err := endpoint.Parse(g)
				if err != nil {
					return Temporal{}, err
				}
				el = append(el, e)
			}
			sort.Slice(el, func(a, b int) bool { return el[a].Less(el[b]) })
			elements = append(elements, el)
		} else {
			e, err := endpoint.Parse(f)
			if err != nil {
				return Temporal{}, err
			}
			elements = append(elements, []endpoint.Endpoint{e})
		}
		i++
	}
	p := Temporal{Elements: elements}
	if err := p.Validate(); err != nil {
		return Temporal{}, err
	}
	return p, nil
}

// RelationSummary recovers the pairwise Allen relations among the
// intervals of a complete temporal pattern and renders them as
// "A overlaps B; A before C". Interval instances are named by symbol,
// with ".k" occurrence suffixes for repeated symbols. Every mined row
// carries a summary, so instances are found by a linear scan, not a
// map, and the text is written into one buffer.
func (p Temporal) RelationSummary() string {
	type inst struct {
		sym        string
		occ        int
		name       string
		start, end int
	}
	var buf [8]inst
	insts := buf[:0]
	for i, el := range p.Elements {
		for _, e := range el {
			k := 0
			for k < len(insts) && (insts[k].sym != e.Symbol || insts[k].occ != e.Occ) {
				k++
			}
			if k == len(insts) {
				name := e.Symbol
				if e.Occ > 1 {
					name = e.Symbol + "." + strconv.Itoa(e.Occ)
				}
				insts = append(insts, inst{sym: e.Symbol, occ: e.Occ, name: name, start: -1, end: -1})
			}
			if e.Kind == endpoint.Start {
				insts[k].start = i
			} else {
				insts[k].end = i
			}
		}
	}
	slices.SortFunc(insts, func(a, b inst) int { return strings.Compare(a.name, b.name) })
	var b []byte
	for i := range insts {
		a := &insts[i]
		if a.start < 0 || a.end < 0 {
			continue // incomplete pattern: skip unpaired instances
		}
		for j := i + 1; j < len(insts); j++ {
			c := &insts[j]
			if c.start < 0 || c.end < 0 {
				continue
			}
			if len(b) > 0 {
				b = append(b, "; "...)
			}
			b = append(b, a.name...)
			b = append(b, ' ')
			b = append(b, interval.RelateEndpoints(a.start, a.end, c.start, c.end).String()...)
			b = append(b, ' ')
			b = append(b, c.name...)
		}
	}
	if len(b) == 0 && len(insts) == 1 && insts[0].start >= 0 && insts[0].end >= 0 {
		return insts[0].name
	}
	return string(b)
}
