package core

import (
	"context"
	"fmt"

	"tpminer/internal/coincidence"
	"tpminer/internal/endpoint"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
)

// Closed- and maximal-pattern post-filters. These are extensions beyond
// the two-page paper (flagged as such in DESIGN.md): result sets at low
// support thresholds are dominated by sub-patterns of larger frequent
// arrangements, and the standard condensed representations apply to
// temporal patterns exactly as to classic sequences.
//
// Temporal subsumption uses any-binding semantics: p ⊑ q when p's
// arrangement embeds into q's arrangement (each p-interval mapped
// injectively to a same-symbol q-interval, preserving the element
// structure). This is checked by materializing q as a concrete interval
// sequence over element indices and reusing pattern.ContainsAny.
// Coincidence subsumption is sequence-of-sets containment: p ⊑ q when
// p's elements map order-preservingly onto q's elements with set
// inclusion.

// patternAsSequence materializes a complete temporal pattern as the
// concrete interval sequence in which element index serves as time.
func patternAsSequence(q pattern.Temporal) interval.Sequence {
	type span struct {
		start, end int
		ok         bool
	}
	spans := make(map[instanceKey]*span)
	var order []instanceKey
	for i, el := range q.Elements {
		for _, e := range el {
			k := instanceKey{e.Symbol, e.Occ}
			sp, found := spans[k]
			if !found {
				sp = &span{start: -1, end: -1}
				spans[k] = sp
				order = append(order, k)
			}
			if e.Kind == endpoint.Start {
				sp.start = i
			} else {
				sp.end = i
			}
		}
	}
	var seq interval.Sequence
	for _, k := range order {
		sp := spans[k]
		if sp.start < 0 || sp.end < 0 {
			continue // unpaired instance: skip (incomplete pattern)
		}
		seq.Intervals = append(seq.Intervals, interval.Interval{
			Symbol: k.sym,
			Start:  interval.Time(sp.start),
			End:    interval.Time(sp.end),
		})
	}
	seq.Normalize()
	return seq
}

type instanceKey struct {
	sym string
	occ int
}

// SubPattern reports whether p is contained in q as an arrangement
// (any-binding subsumption). Every pattern subsumes itself.
func SubPattern(p, q pattern.Temporal) bool {
	if p.Size() > q.Size() {
		return false
	}
	return pattern.ContainsAny(patternAsSequence(q), p)
}

// SubCoincPattern reports whether p is contained in q. Every pattern
// subsumes itself.
func SubCoincPattern(p, q pattern.Coinc) bool {
	if p.Size() > q.Size() || p.Len() > q.Len() {
		return false
	}
	return pattern.ContainsCoinc(coincElements(q), p)
}

// coincElements views a coincidence pattern's elements as a coincidence
// sequence so the standard matcher applies.
func coincElements(q pattern.Coinc) []coincidence.Coincidence {
	out := make([]coincidence.Coincidence, len(q.Elements))
	for i, el := range q.Elements {
		out[i] = coincidence.Coincidence{Symbols: el}
	}
	return out
}

// Filter keeps, in place, the closed (which == "closed") or maximal
// (which == "maximal") patterns of r; "" keeps every pattern. A closed
// pattern has no proper super-pattern of equal support in r, and a
// maximal one none at all: maximal sets are smaller than closed sets but
// lose the exact supports of sub-patterns. The kept patterns are sorted.
// The quadratic subsumption scan polls ctx and aborts with ctx.Err(),
// leaving r as it was, when it is cancelled.
func Filter(ctx context.Context, r *Result, which string) error {
	var closed bool
	switch which {
	case "":
		return nil
	case "closed":
		closed = true
	case "maximal":
	default:
		return fmt.Errorf("core: unknown filter %q", which)
	}
	ts, err := filterSubsumed(ctx, r.Temporal, closed, patternAsSequence, pattern.ContainsAny)
	if err != nil {
		return err
	}
	cs, err := filterSubsumed(ctx, r.Coinc, closed, coincElements, pattern.ContainsCoinc)
	if err != nil {
		return err
	}
	r.Temporal, r.Coinc = ts, cs
	return nil
}

// filterSubsumed drops every result that a strictly larger result of rs
// subsumes — of equal support only, when closed — and returns the rest
// sorted. materialize builds a super-pattern's matchable form once, and
// contains tests a pattern against that form.
func filterSubsumed[P pattern.Pattern, S any](ctx context.Context, rs []pattern.Result[P], closed bool,
	materialize func(P) S, contains func(S, P) bool) ([]pattern.Result[P], error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(rs) == 0 {
		return rs, nil
	}
	supers := make([]S, len(rs))
	for i := range rs {
		supers[i] = materialize(rs[i].Pattern)
	}
	var ops int64
	out := make([]pattern.Result[P], 0, len(rs))
	for i := range rs {
		subsumed := false
		for j := range rs {
			if ops++; ops&(pollInterval-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if i == j || rs[j].Pattern.Size() <= rs[i].Pattern.Size() {
				continue
			}
			// Supports are anti-monotone, so a super-pattern never has
			// higher support; a closed filter counts only equal ones.
			if closed && rs[j].Support != rs[i].Support {
				continue
			}
			if contains(supers[j], rs[i].Pattern) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			out = append(out, rs[i])
		}
	}
	return pattern.SortResults(out), nil
}
