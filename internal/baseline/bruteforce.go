// Package baseline implements the comparison algorithms of the
// evaluation and the brute-force reference miner used as a test oracle.
//
// Three families are provided:
//
//   - BruteForce* — direct enumeration of the canonical pattern space
//     with support counted by scanning raw representations. Slow and
//     obviously correct; the oracle the test-suite checks every other
//     miner against.
//   - TPrefixSpan — the classical interval-by-interval growth strategy
//     (after Wu & Chen's TPrefixSpan): patterns grow one whole interval
//     at a time, every endpoint placement of the new interval is
//     generated and then verified against the supporting sequences. No
//     endpoint projection, no pair pruning — the comparator the paper's
//     efficiency claims are made against.
//   - Apriori* — level-wise generate-and-test with full database scans
//     and subset-based candidate pruning, the AprioriAll-era strategy.
//
// All miners use the same occurrence-aligned containment semantics as
// the core miner (see DESIGN.md), so their result sets are comparable
// element-wise.
//
// Of the time bounds (core.Options MaxSpan and MaxGap, temporal mining
// only), BruteForceTemporal honors both: it counts support with
// pattern.Index.Contains, the matcher the shard count round and the
// incremental miner use. TPrefixSpan and AprioriTemporal, the
// evaluation's unconstrained comparators, reject either bound: their
// candidate pruning assumes every sub-pattern of a frequent pattern is
// frequent, which a gap bound breaks. The coincidence miners ignore the
// bounds, as the core coincidence miner does.
package baseline

import (
	"fmt"
	"sort"
	"time"

	"tpminer/internal/coincidence"
	"tpminer/internal/core"
	"tpminer/internal/endpoint"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
)

// BruteForceTemporal enumerates every frequent complete temporal pattern
// by canonical depth-first extension, counting support with full scans
// of the endpoint-encoded database. Pruning options in opt are ignored;
// size constraints (MaxElements, MaxIntervals, MaxItemsPerElement), the
// span and gap bounds (MaxSpan, MaxGap) and KeepOccurrences are
// honoured. Extending a pattern at its end never shrinks its span or
// changes its earlier gaps, so a pattern below the threshold has no
// frequent extension even under the bounds. Intended as a test oracle
// on small inputs.
func BruteForceTemporal(db *interval.Database, opt core.Options) ([]pattern.TemporalResult, core.Stats, error) {
	start := time.Now()
	minCount, err := resolveMinCount(opt, db.Len())
	if err != nil {
		return nil, core.Stats{}, err
	}
	enc, err := pattern.EncodeDatabase(db)
	if err != nil {
		return nil, core.Stats{}, err
	}
	universe := endpointUniverse(enc)

	st := core.Stats{Sequences: db.Len(), MinCount: minCount}
	e := &bruteEnum{
		ixs:      pattern.BuildIndexes(enc),
		opt:      opt,
		minCount: minCount,
		universe: universe,
		stats:    &st,
	}
	e.recurse(pattern.Temporal{})

	results := e.results
	if !opt.KeepOccurrences {
		results = pattern.NormalizeTemporalResults(results)
	} else {
		pattern.SortResults(results)
	}
	st.Elapsed = time.Since(start)
	return results, st, nil
}

// endpointUniverse collects the distinct occurrence-indexed endpoints of
// the database in canonical order.
func endpointUniverse(enc [][]endpoint.Slice) []endpoint.Endpoint {
	set := make(map[endpoint.Endpoint]struct{})
	for _, seq := range enc {
		for _, sl := range seq {
			for _, p := range sl.Points {
				set[p] = struct{}{}
			}
		}
	}
	out := make([]endpoint.Endpoint, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

type bruteEnum struct {
	ixs      []pattern.Index
	opt      core.Options
	minCount int
	universe []endpoint.Endpoint
	stats    *core.Stats
	results  []pattern.TemporalResult
}

// recurse explores all canonical single-endpoint extensions of p.
// Canonical generation: the elements are extended only at the end —
// either a new element (S) or a strictly greater endpoint appended to
// the last element (I) — which produces every valid pattern exactly
// once.
func (e *bruteEnum) recurse(p pattern.Temporal) {
	e.stats.Nodes++
	used := make(map[endpoint.Endpoint]struct{}, p.Size())
	open := make(map[endpoint.Endpoint]struct{})
	for _, el := range p.Elements {
		for _, pt := range el {
			used[pt] = struct{}{}
			if pt.Kind == endpoint.Start {
				open[pt] = struct{}{}
			} else {
				delete(open, pt.Pair())
			}
		}
	}

	canS := e.opt.MaxElements == 0 || p.Len() < e.opt.MaxElements
	canI := p.Len() > 0 &&
		(e.opt.MaxItemsPerElement == 0 || len(p.Elements[p.Len()-1]) < e.opt.MaxItemsPerElement)
	canStart := e.opt.MaxIntervals == 0 || p.NumIntervals() < e.opt.MaxIntervals

	for _, cand := range e.universe {
		if _, dup := used[cand]; dup {
			continue
		}
		if cand.Kind == endpoint.Start && !canStart {
			continue
		}
		if cand.Kind == endpoint.Finish {
			if _, ok := open[cand.Pair()]; !ok {
				continue
			}
		}
		// S-extension.
		if canS {
			e.try(appendElement(p, cand))
		}
		// I-extension: canonical order requires cand greater than the
		// last endpoint of the last element.
		if canI {
			last := p.Elements[p.Len()-1]
			if last[len(last)-1].Less(cand) {
				e.try(growLast(p, cand))
			}
		}
	}
}

func (e *bruteEnum) try(q pattern.Temporal) {
	sup := pattern.SupportIndexed(e.ixs, q, e.opt.MaxSpan, e.opt.MaxGap)
	e.stats.CandidateScans += int64(len(e.ixs))
	if sup < e.minCount {
		return
	}
	if q.Complete() {
		e.stats.Emitted++
		e.results = append(e.results, pattern.TemporalResult{Pattern: q, Support: sup})
	}
	e.recurse(q)
}

// appendElement returns p with a new single-endpoint element appended.
// The receiver is not modified.
func appendElement(p pattern.Temporal, cand endpoint.Endpoint) pattern.Temporal {
	q := p.Clone()
	q.Elements = append(q.Elements, []endpoint.Endpoint{cand})
	return q
}

// growLast returns p with cand appended to the last element.
func growLast(p pattern.Temporal, cand endpoint.Endpoint) pattern.Temporal {
	q := p.Clone()
	last := len(q.Elements) - 1
	q.Elements[last] = append(q.Elements[last], cand)
	return q
}

func resolveMinCount(opt core.Options, n int) (int, error) {
	// Delegate threshold semantics to the core package so every miner
	// agrees on the absolute count.
	return core.ResolveMinCount(opt, n)
}

// rejectTimeBounds fails, naming the option, when opt sets MaxSpan or
// MaxGap, which the named comparator does not implement.
func rejectTimeBounds(miner string, opt core.Options) error {
	if opt.MaxSpan != 0 {
		return fmt.Errorf("baseline: %s does not support MaxSpan", miner)
	}
	if opt.MaxGap != 0 {
		return fmt.Errorf("baseline: %s does not support MaxGap", miner)
	}
	return nil
}

// BruteForceCoincidence is the coincidence-pattern oracle: canonical
// depth-first extension with support counted by scanning the coincidence
// representation.
func BruteForceCoincidence(db *interval.Database, opt core.Options) ([]pattern.CoincResult, core.Stats, error) {
	start := time.Now()
	minCount, err := resolveMinCount(opt, db.Len())
	if err != nil {
		return nil, core.Stats{}, err
	}
	enc, err := pattern.TransformDatabase(db)
	if err != nil {
		return nil, core.Stats{}, err
	}
	universe := symbolUniverse(enc)

	st := core.Stats{Sequences: db.Len(), MinCount: minCount}
	var results []pattern.CoincResult
	var recurse func(p pattern.Coinc)
	recurse = func(p pattern.Coinc) {
		st.Nodes++
		canS := opt.MaxElements == 0 || p.Len() < opt.MaxElements
		canI := p.Len() > 0 &&
			(opt.MaxItemsPerElement == 0 || len(p.Elements[p.Len()-1]) < opt.MaxItemsPerElement)
		for _, sym := range universe {
			if canS {
				q := p.Clone()
				q.Elements = append(q.Elements, []string{sym})
				if sup := pattern.SupportCoinc(enc, q); sup >= minCount {
					st.Emitted++
					results = append(results, pattern.CoincResult{Pattern: q, Support: sup})
					recurse(q)
				}
				st.CandidateScans += int64(len(enc))
			}
			if canI {
				last := p.Elements[p.Len()-1]
				if last[len(last)-1] < sym {
					q := p.Clone()
					li := len(q.Elements) - 1
					q.Elements[li] = append(q.Elements[li], sym)
					if sup := pattern.SupportCoinc(enc, q); sup >= minCount {
						st.Emitted++
						results = append(results, pattern.CoincResult{Pattern: q, Support: sup})
						recurse(q)
					}
					st.CandidateScans += int64(len(enc))
				}
			}
		}
	}
	recurse(pattern.Coinc{})

	pattern.SortResults(results)
	st.Elapsed = time.Since(start)
	return results, st, nil
}

func symbolUniverse(enc [][]coincidence.Coincidence) []string {
	set := make(map[string]struct{})
	for _, seq := range enc {
		for _, c := range seq {
			for _, s := range c.Symbols {
				set[s] = struct{}{}
			}
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
