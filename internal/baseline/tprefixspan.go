package baseline

import (
	"sort"
	"time"

	"tpminer/internal/core"
	"tpminer/internal/endpoint"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
)

// TPrefixSpan mines frequent complete temporal patterns by growing one
// whole interval at a time, in the style of Wu & Chen's TPrefixSpan.
//
// Where P-TPMiner grows a prefix endpoint by endpoint and keeps a
// pseudo-projection, TPrefixSpan extends a k-interval arrangement to a
// (k+1)-interval arrangement by generating *every placement* of the new
// interval's two endpoints relative to the existing arrangement and then
// verifying each generated candidate against the parent's supporting
// sequences with a full containment check. The placement enumeration and
// re-verification are exactly the costs the endpoint representation
// avoids, which is why this is the headline comparator of the
// evaluation.
//
// Supported options: MinSupport/MinCount, MaxElements, MaxIntervals,
// MaxItemsPerElement, KeepOccurrences. Pruning switches are ignored
// (this algorithm has none of P1–P4 beyond its support threshold);
// MaxSpan and MaxGap are rejected (see the package doc).
func TPrefixSpan(db *interval.Database, opt core.Options) ([]pattern.TemporalResult, core.Stats, error) {
	startT := time.Now()
	minCount, err := resolveMinCount(opt, db.Len())
	if err != nil {
		return nil, core.Stats{}, err
	}
	if err := rejectTimeBounds("TPrefixSpan", opt); err != nil {
		return nil, core.Stats{}, err
	}
	enc, err := pattern.EncodeDatabase(db)
	if err != nil {
		return nil, core.Stats{}, err
	}
	universe := endpointUniverse(enc)
	// Interval instances are identified by their start endpoints.
	var starts []endpoint.Endpoint
	for _, e := range universe {
		if e.Kind == endpoint.Start {
			starts = append(starts, e)
		}
	}

	st := core.Stats{Sequences: db.Len(), MinCount: minCount}
	m := &tpsMiner{
		ixs:      pattern.BuildIndexes(enc),
		opt:      opt,
		minCount: minCount,
		starts:   starts,
		stats:    &st,
	}
	allTIDs := make([]int, len(enc))
	for i := range allTIDs {
		allTIDs[i] = i
	}
	m.recurse(pattern.Temporal{}, allTIDs)

	results := m.results
	if !opt.KeepOccurrences {
		results = pattern.NormalizeTemporalResults(results)
	} else {
		pattern.SortResults(results)
	}
	st.Elapsed = time.Since(startT)
	return results, st, nil
}

type tpsMiner struct {
	ixs      []pattern.Index
	opt      core.Options
	minCount int
	starts   []endpoint.Endpoint
	stats    *core.Stats
	results  []pattern.TemporalResult
}

// recurse extends the complete arrangement p (supported by the sequences
// in tids) by one more interval in every canonical placement.
//
// Canonical generation: the new interval's start endpoint must be placed
// at or after the element holding the pattern's currently-latest start —
// and, when placed in that same element, must be greater in endpoint
// order than that start. Removing the greatest-positioned start (ties
// broken by endpoint order) of any arrangement inverts the construction,
// so every arrangement is generated exactly once.
func (m *tpsMiner) recurse(p pattern.Temporal, tids []int) {
	m.stats.Nodes++
	if m.opt.MaxIntervals != 0 && p.NumIntervals() >= m.opt.MaxIntervals {
		return
	}
	lastElem, lastStart := latestStart(p)

	for _, s := range m.starts {
		if usedIn(p, s) {
			continue
		}
		f := s.Pair()
		for _, cand := range placements(p, s, f, lastElem, lastStart, m.opt) {
			m.stats.CandidateScans += int64(len(tids))
			var sup []int
			for _, t := range tids {
				if m.ixs[t].Contains(cand, 0, 0) {
					sup = append(sup, t)
				}
			}
			if len(sup) < m.minCount {
				continue
			}
			m.stats.Emitted++
			m.results = append(m.results, pattern.TemporalResult{Pattern: cand, Support: len(sup)})
			m.recurse(cand, sup)
		}
	}
}

// latestStart returns the element index of the pattern's latest start
// endpoint and the greatest start endpoint within that element.
// (-1, zero) for the empty pattern.
func latestStart(p pattern.Temporal) (int, endpoint.Endpoint) {
	elem := -1
	var best endpoint.Endpoint
	for i, el := range p.Elements {
		for _, e := range el {
			if e.Kind != endpoint.Start {
				continue
			}
			if i > elem {
				elem, best = i, e
			} else if i == elem && best.Less(e) {
				best = e
			}
		}
	}
	return elem, best
}

func usedIn(p pattern.Temporal, e endpoint.Endpoint) bool {
	for _, el := range p.Elements {
		for _, x := range el {
			if x.Symbol == e.Symbol && x.Occ == e.Occ {
				return true
			}
		}
	}
	return false
}

// placements generates every canonical arrangement obtained by inserting
// the interval (s, f) into p. Positions are expressed over "slots": an
// endpoint can join an existing element or open a new element between
// two existing ones (or at either end), subject to the canonical-order
// constraint described at recurse.
func placements(p pattern.Temporal, s, f endpoint.Endpoint, lastElem int, lastStart endpoint.Endpoint, opt core.Options) []pattern.Temporal {
	n := p.Len()
	var out []pattern.Temporal

	// Start placements: inside element i (i >= max(lastElem,0)) or as a
	// new element after position i (i from lastElem to n). Encode
	// positions as: join=true, elem=i  |  join=false, gapAfter=i
	// (new element inserted after element i; i == -1 inserts at front).
	type place struct {
		join bool
		at   int // element index (join) or gap position (insert after at)
	}
	var startPlaces []place
	minJoin := lastElem
	if minJoin < 0 {
		minJoin = 0
	}
	for i := minJoin; i < n; i++ {
		if i == lastElem && !lastStart.Less(s) {
			continue // canonical order violated within the tie element
		}
		startPlaces = append(startPlaces, place{join: true, at: i})
	}
	// New elements must open strictly after the element holding the
	// latest start: insert before element i for i in lastElem+1..n
	// (i == n appends at the end; the empty pattern inserts at 0).
	for i := lastElem + 1; i <= n; i++ {
		startPlaces = append(startPlaces, place{join: false, at: i})
	}

	for _, sp := range startPlaces {
		base, sElem := insertEndpoint(p, s, sp.join, sp.at, opt)
		if sElem < 0 {
			continue
		}
		// Finish placements: join the start's element or any later one,
		// or open a new element strictly after the start's element.
		for i := sElem; i < base.Len(); i++ {
			q, _ := insertEndpoint(base, f, true, i, opt)
			if q.Len() > 0 {
				out = append(out, q)
			}
		}
		for i := sElem + 1; i <= base.Len(); i++ {
			q, _ := insertEndpoint(base, f, false, i, opt)
			if q.Len() > 0 {
				out = append(out, q)
			}
		}
	}

	// Filter by element-count constraint.
	if opt.MaxElements != 0 {
		kept := out[:0]
		for _, q := range out {
			if q.Len() <= opt.MaxElements {
				kept = append(kept, q)
			}
		}
		out = kept
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// insertEndpoint returns a copy of p with e joined into element `at`
// (join) or inserted as a new element after gap position `at` (!join,
// where at == k inserts before current element k). It returns the element
// index e ended up at, or -1 when the insertion violates
// MaxItemsPerElement.
func insertEndpoint(p pattern.Temporal, e endpoint.Endpoint, join bool, at int, opt core.Options) (pattern.Temporal, int) {
	q := p.Clone()
	if join {
		if opt.MaxItemsPerElement != 0 && len(q.Elements[at])+1 > opt.MaxItemsPerElement {
			return pattern.Temporal{}, -1
		}
		el := append(q.Elements[at], e)
		sort.Slice(el, func(i, j int) bool { return el[i].Less(el[j]) })
		q.Elements[at] = el
		return q, at
	}
	q.Elements = append(q.Elements, nil)
	copy(q.Elements[at+1:], q.Elements[at:])
	q.Elements[at] = []endpoint.Endpoint{e}
	return q, at
}
