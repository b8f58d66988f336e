package pattern

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tpminer/internal/endpoint"
	"tpminer/internal/interval"
)

// The map- and fmt-based renderings that Normalize, String and
// RelationSummary once were, kept as oracles: every mined row carries
// their output, so the faster forms must reproduce it byte for byte.

func normalizeOracle(p Temporal) Temporal {
	next := make(map[string]int)
	remap := make(map[instKey]int)
	for _, el := range p.Elements {
		for _, e := range el {
			k := instKey{e.Symbol, e.Occ}
			if _, ok := remap[k]; !ok {
				next[e.Symbol]++
				remap[k] = next[e.Symbol]
			}
		}
	}
	out := Temporal{Elements: make([][]endpoint.Endpoint, len(p.Elements))}
	for i, el := range p.Elements {
		cp := make([]endpoint.Endpoint, len(el))
		for j, e := range el {
			cp[j] = endpoint.Endpoint{Symbol: e.Symbol, Occ: remap[instKey{e.Symbol, e.Occ}], Kind: e.Kind}
		}
		sort.Slice(cp, func(a, b int) bool { return cp[a].Less(cp[b]) })
		out.Elements[i] = cp
	}
	return out
}

func stringOracle(p Temporal) string {
	parts := make([]string, len(p.Elements))
	for i, el := range p.Elements {
		parts[i] = endpoint.Slice{Points: el}.String()
	}
	return strings.Join(parts, " ")
}

func relationSummaryOracle(p Temporal) string {
	type inst struct {
		name       string
		start, end int
	}
	pos := make(map[instKey]*inst)
	var order []*inst
	for i, el := range p.Elements {
		for _, e := range el {
			k := instKey{e.Symbol, e.Occ}
			in, ok := pos[k]
			if !ok {
				name := e.Symbol
				if e.Occ > 1 {
					name = fmt.Sprintf("%s.%d", e.Symbol, e.Occ)
				}
				in = &inst{name: name, start: -1, end: -1}
				pos[k] = in
				order = append(order, in)
			}
			if e.Kind == endpoint.Start {
				in.start = i
			} else {
				in.end = i
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].name < order[j].name })
	var parts []string
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			a, b := order[i], order[j]
			if a.start < 0 || a.end < 0 || b.start < 0 || b.end < 0 {
				continue
			}
			rel := interval.RelateEndpoints(a.start, a.end, b.start, b.end)
			parts = append(parts, fmt.Sprintf("%s %s %s", a.name, rel, b.name))
		}
	}
	if len(parts) == 0 && len(order) == 1 && order[0].start >= 0 && order[0].end >= 0 {
		return order[0].name
	}
	return strings.Join(parts, "; ")
}

// randomTemporal draws a pattern of up to maxInst interval instances
// over few symbols, with scattered occurrence labels. Some instances
// lose an endpoint, and the symbol "A.2" can collide with the name of
// A's second instance, so incomplete patterns and tied names are drawn
// too.
func randomTemporal(rng *rand.Rand, maxInst int) Temporal {
	syms := []string{"A", "B", "C", "A.2", "long_symbol"}
	type slot struct {
		e endpoint.Endpoint
		t int
	}
	var slots []slot
	used := map[instKey]bool{}
	for n := 1 + rng.Intn(maxInst); n > 0; n-- {
		k := instKey{syms[rng.Intn(len(syms))], 1 + rng.Intn(12)}
		if used[k] {
			continue
		}
		used[k] = true
		start := rng.Intn(8)
		if rng.Intn(10) > 0 {
			slots = append(slots, slot{endpoint.Endpoint{Symbol: k.sym, Occ: k.occ, Kind: endpoint.Start}, start})
		}
		if rng.Intn(10) > 0 {
			slots = append(slots, slot{endpoint.Endpoint{Symbol: k.sym, Occ: k.occ, Kind: endpoint.Finish}, start + rng.Intn(4)})
		}
	}
	byTime := map[int][]endpoint.Endpoint{}
	var times []int
	for _, s := range slots {
		if byTime[s.t] == nil {
			times = append(times, s.t)
		}
		byTime[s.t] = append(byTime[s.t], s.e)
	}
	sort.Ints(times)
	els := make([][]endpoint.Endpoint, len(times))
	for i, t := range times {
		els[i] = byTime[t]
	}
	return NewTemporal(els...)
}

func TestTemporalRenderingsMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		p := randomTemporal(rng, 3+i%20)
		if got, want := p.String(), stringOracle(p); got != want {
			t.Fatalf("String = %q, oracle %q", got, want)
		}
		if got, want := p.RelationSummary(), relationSummaryOracle(p); got != want {
			t.Fatalf("RelationSummary(%s) = %q, oracle %q", p, got, want)
		}
		n, want := p.Normalize(), normalizeOracle(p)
		if !n.Equal(want) {
			t.Fatalf("Normalize(%s) = %s, oracle %s", p, n, want)
		}
		if n.Key() == p.Key() != p.Equal(n) {
			t.Fatalf("Normalize(%s) = %s: keys and structure disagree", p, n)
		}
		own := p.Clone()
		own.Canonicalize(true)
		if !own.Equal(want) {
			t.Fatalf("Canonicalize(true) on %s = %s, oracle %s", p, own, want)
		}
	}
}
