package baseline

import (
	"strings"
	"testing"

	"tpminer/internal/core"
	"tpminer/internal/endpoint"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
)

func tinyDB() *interval.Database {
	return interval.NewDatabase(
		[]interval.Interval{{Symbol: "A", Start: 0, End: 4}, {Symbol: "B", Start: 2, End: 6}},
		[]interval.Interval{{Symbol: "A", Start: 0, End: 4}, {Symbol: "B", Start: 2, End: 6}},
		[]interval.Interval{{Symbol: "B", Start: 0, End: 4}},
	)
}

func TestBruteForceTemporalTiny(t *testing.T) {
	rs, st, err := BruteForceTemporal(tinyDB(), core.Options{MinCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	for _, r := range rs {
		got[r.Pattern.String()] = r.Support
	}
	if got["A+ A-"] != 2 || got["B+ B-"] != 3 || got["A+ B+ A- B-"] != 2 {
		t.Errorf("results: %v", got)
	}
	if len(rs) != 3 {
		t.Errorf("pattern count = %d: %v", len(rs), rs)
	}
	if st.Nodes == 0 || st.CandidateScans == 0 {
		t.Errorf("stats empty: %+v", st)
	}
}

func TestTPrefixSpanTiny(t *testing.T) {
	rs, _, err := TPrefixSpan(tinyDB(), core.Options{MinCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	for _, r := range rs {
		got[r.Pattern.String()] = r.Support
	}
	if got["A+ B+ A- B-"] != 2 {
		t.Errorf("overlap missing: %v", got)
	}
}

func TestAllMinersRejectBadOptions(t *testing.T) {
	db := tinyDB()
	bad := core.Options{} // no threshold at all
	if _, _, err := BruteForceTemporal(db, bad); err == nil {
		t.Error("brute force accepted empty options")
	}
	if _, _, err := BruteForceCoincidence(db, bad); err == nil {
		t.Error("brute force coincidence accepted empty options")
	}
	if _, _, err := TPrefixSpan(db, bad); err == nil {
		t.Error("tprefixspan accepted empty options")
	}
	if _, _, err := AprioriTemporal(db, bad); err == nil {
		t.Error("apriori accepted empty options")
	}
	if _, _, err := AprioriCoincidence(db, bad); err == nil {
		t.Error("apriori coincidence accepted empty options")
	}

	// The comparators reject the span and gap bounds instead of silently
	// mining without them, which on four copies of A[0,2] B[30,40] reports
	// three patterns where the bounded core miner and the oracle report one.
	far := []interval.Interval{{Symbol: "A", Start: 0, End: 2}, {Symbol: "B", Start: 30, End: 40}}
	farDB := interval.NewDatabase(far, far, far, far)
	for _, c := range []struct {
		opt  core.Options
		name string
	}{
		{core.Options{MinCount: 2, MaxSpan: 5, MaxGap: 3}, "MaxSpan"},
		{core.Options{MinCount: 2, MaxGap: 3}, "MaxGap"},
	} {
		for miner, mine := range map[string]func(*interval.Database, core.Options) ([]pattern.TemporalResult, core.Stats, error){
			"tprefixspan": TPrefixSpan,
			"apriori":     AprioriTemporal,
		} {
			if _, _, err := mine(farDB, c.opt); err == nil || !strings.Contains(err.Error(), c.name) {
				t.Errorf("%s with %+v: err = %v, want an error naming %s", miner, c.opt, err, c.name)
			}
		}
	}
	if rs, _, err := BruteForceTemporal(farDB, core.Options{MinCount: 2, MaxSpan: 5, MaxGap: 3}); err != nil || len(rs) != 1 || rs[0].Pattern.String() != "A+ A-" {
		t.Errorf("brute force under bounds: %v, %v; want only A+ A-", rs, err)
	}
}

func TestLatestStart(t *testing.T) {
	p, err := pattern.ParseTemporal("A+ (A- B+) B-")
	if err != nil {
		t.Fatal(err)
	}
	elem, best := latestStart(p)
	if elem != 1 || best.Symbol != "B" || best.Kind != endpoint.Start {
		t.Errorf("latestStart = %d, %v", elem, best)
	}
	elem, _ = latestStart(pattern.Temporal{})
	if elem != -1 {
		t.Errorf("latestStart(empty) = %d", elem)
	}
}

func TestPlacementsCountTwoIntervals(t *testing.T) {
	// Inserting the second interval into a one-interval pattern must
	// enumerate exactly the 13 Allen arrangements.
	base, err := pattern.ParseTemporal("A+ A-")
	if err != nil {
		t.Fatal(err)
	}
	s := endpoint.Endpoint{Symbol: "B", Occ: 1, Kind: endpoint.Start}
	lastElem, lastStart := latestStart(base)
	cands := placements(base, s, s.Pair(), lastElem, lastStart, core.Options{MinCount: 1})
	seen := make(map[string]bool)
	for _, c := range cands {
		if err := c.Validate(); err != nil {
			t.Fatalf("invalid placement %v: %v", c, err)
		}
		if !c.Complete() {
			t.Fatalf("incomplete placement %v", c)
		}
		if seen[c.Key()] {
			t.Fatalf("duplicate placement %v", c)
		}
		seen[c.Key()] = true
	}
	// Canonical generation places B's start at or after A's start, so
	// the arrangements where B starts strictly first (B before/meets/
	// overlaps/contains/finished-by A) are generated from the other
	// insertion order instead. That leaves 8 proper arrangements here
	// (equals, B starts A, A started-by B via distinct finishes, A meets
	// B, B finishes A, B during A, A overlaps B, A before B) plus 4
	// degenerate ones where B is a point event (at A's start, inside A,
	// at A's end, after A): 12 in total.
	if len(cands) != 12 {
		keys := make([]string, 0, len(cands))
		for _, c := range cands {
			keys = append(keys, c.String()+" ["+c.RelationSummary()+"]")
		}
		t.Errorf("placements = %d, want 12:\n%s", len(cands), keys)
	}
}

func TestBaselinesHonourMaxIntervals(t *testing.T) {
	db := tinyDB()
	opt := core.Options{MinCount: 2, MaxIntervals: 1}
	for name, mine := range map[string]func(*interval.Database, core.Options) ([]pattern.TemporalResult, core.Stats, error){
		"brute":       BruteForceTemporal,
		"tprefixspan": TPrefixSpan,
		"apriori":     AprioriTemporal,
	} {
		rs, _, err := mine(db, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range rs {
			if r.Pattern.NumIntervals() > 1 {
				t.Errorf("%s: %v exceeds MaxIntervals", name, r.Pattern)
			}
		}
	}
}

func TestBruteForceCoincidenceTiny(t *testing.T) {
	rs, st, err := BruteForceCoincidence(tinyDB(), core.Options{MinCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	for _, r := range rs {
		got[r.Pattern.String()] = r.Support
	}
	if got["{A}"] != 2 || got["{B}"] != 3 || got["{A B}"] != 2 {
		t.Errorf("results: %v", got)
	}
	if st.Nodes == 0 || st.Emitted == 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestAprioriCoincidenceTiny(t *testing.T) {
	want, _, err := BruteForceCoincidence(tinyDB(), core.Options{MinCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := AprioriCoincidence(tinyDB(), core.Options{MinCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !pattern.ResultsEqual(got, want) {
		t.Errorf("apriori %v != oracle %v", got, want)
	}
}

func TestCoincidenceBaselinesHonourMaxElements(t *testing.T) {
	opt := core.Options{MinCount: 2, MaxElements: 1}
	for name, mine := range map[string]func(*interval.Database, core.Options) ([]pattern.CoincResult, core.Stats, error){
		"brute":   BruteForceCoincidence,
		"apriori": AprioriCoincidence,
	} {
		rs, _, err := mine(tinyDB(), opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rs) == 0 {
			t.Fatalf("%s: empty", name)
		}
		for _, r := range rs {
			if r.Pattern.Len() > 1 {
				t.Errorf("%s: %v exceeds MaxElements", name, r.Pattern)
			}
		}
	}
}

func TestBaselinesRejectInvalidDatabase(t *testing.T) {
	bad := interval.NewDatabase([]interval.Interval{{Symbol: "A", Start: 5, End: 1}})
	opt := core.Options{MinCount: 1}
	if _, _, err := BruteForceTemporal(bad, opt); err == nil {
		t.Error("brute temporal accepted invalid db")
	}
	if _, _, err := BruteForceCoincidence(bad, opt); err == nil {
		t.Error("brute coincidence accepted invalid db")
	}
	if _, _, err := TPrefixSpan(bad, opt); err == nil {
		t.Error("tprefixspan accepted invalid db")
	}
	if _, _, err := AprioriTemporal(bad, opt); err == nil {
		t.Error("apriori temporal accepted invalid db")
	}
	if _, _, err := AprioriCoincidence(bad, opt); err == nil {
		t.Error("apriori coincidence accepted invalid db")
	}
}
