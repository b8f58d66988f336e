package core_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"tpminer"
	"tpminer/internal/core"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
)

func TestSubPattern(t *testing.T) {
	p := func(s string) pattern.Temporal {
		q, err := pattern.ParseTemporal(s)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	cases := []struct {
		sub, super string
		want       bool
	}{
		{"A+ A-", "A+ B+ A- B-", true},
		{"B+ B-", "A+ B+ A- B-", true},
		{"A+ B+ A- B-", "A+ B+ A- B-", true}, // self
		{"A+ A- B+ B-", "A+ B+ A- B-", false},
		{"A+ B+ A- B-", "A+ A- B+ B-", false},
		{"A+ A-", "B+ B-", false},
		// Sub-pattern via a different occurrence: "one A" embeds into
		// "A before A" using either instance.
		{"A+ A-", "A+ A- A.2+ A.2-", true},
		{"C+ C-", "A+ B+ A- B-", false},
	}
	for _, c := range cases {
		if got := core.SubPattern(p(c.sub), p(c.super)); got != c.want {
			t.Errorf("SubPattern(%q, %q) = %v, want %v", c.sub, c.super, got, c.want)
		}
	}
}

func TestFilterClosedAndMaximal(t *testing.T) {
	// Hand-built result set:
	//   A (sup 5), B (sup 3), A-overlaps-B (sup 3), C (sup 2)
	// Closed: A (no equal-support super), A-overlaps-B, C; B is subsumed
	// by A-overlaps-B at equal support.
	// Maximal: A-overlaps-B and C only (A has a frequent super).
	mk := func(s string, sup int) pattern.TemporalResult {
		q, err := pattern.ParseTemporal(s)
		if err != nil {
			t.Fatal(err)
		}
		return pattern.TemporalResult{Pattern: q, Support: sup}
	}
	rs := []pattern.TemporalResult{
		mk("A+ A-", 5),
		mk("B+ B-", 3),
		mk("A+ B+ A- B-", 3),
		mk("C+ C-", 2),
	}

	closed := filterTemporal(t, rs, "closed")
	closedKeys := map[string]bool{}
	for _, r := range closed {
		closedKeys[r.Pattern.String()] = true
	}
	if len(closed) != 3 || !closedKeys["A+ A-"] || !closedKeys["A+ B+ A- B-"] || !closedKeys["C+ C-"] {
		t.Errorf("closed = %v", closed)
	}

	maximal := filterTemporal(t, rs, "maximal")
	maxKeys := map[string]bool{}
	for _, r := range maximal {
		maxKeys[r.Pattern.String()] = true
	}
	if len(maximal) != 2 || !maxKeys["A+ B+ A- B-"] || !maxKeys["C+ C-"] {
		t.Errorf("maximal = %v", maximal)
	}
}

// TestClosedFilterProperties: on mined results, (a) maximal ⊆ closed ⊆
// all, (b) every dropped pattern has a strict super-pattern in the input
// justifying the drop, (c) every kept closed pattern has no equal-support
// strict super.
func TestClosedFilterProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 5; trial++ {
		db := randomDB(rng, 10, 5, 3, 20)
		rs := mustMineT(t, db, core.Options{MinCount: 2})
		closed := filterTemporal(t, rs, "closed")
		maximal := filterTemporal(t, rs, "maximal")

		if len(maximal) > len(closed) || len(closed) > len(rs) {
			t.Fatalf("sizes: %d maximal, %d closed, %d all", len(maximal), len(closed), len(rs))
		}
		closedSet := make(map[string]bool)
		for _, r := range closed {
			closedSet[r.Pattern.Key()] = true
		}
		for _, r := range maximal {
			if !closedSet[r.Pattern.Key()] {
				t.Fatalf("maximal pattern %v not closed", r.Pattern)
			}
		}
		for _, r := range closed {
			for _, super := range rs {
				if super.Pattern.Size() <= r.Pattern.Size() || super.Support != r.Support {
					continue
				}
				if core.SubPattern(r.Pattern, super.Pattern) {
					t.Fatalf("non-closed pattern kept: %v under %v", r.Pattern, super.Pattern)
				}
			}
		}
	}
}

func TestMineTemporalTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 10; trial++ {
		db := randomDB(rng, 12, 5, 3, 20)
		full := mustMineT(t, db, core.Options{MinCount: 1})
		for _, k := range []int{1, 3, 10, len(full) + 5} {
			r, err := core.Mine(context.Background(), db, core.KindTemporal, k, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, want := r.Temporal, full
			if len(want) > k {
				want = want[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: got %d patterns, want %d", trial, k, len(got), len(want))
			}
			for i := range want {
				if got[i].Support != want[i].Support {
					t.Fatalf("trial %d k=%d: rank %d support %d != %d\ngot %v\nwant %v",
						trial, k, i, got[i].Support, want[i].Support, got, want)
				}
			}
		}
	}
}

func TestMineCoincidenceTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	db := randomDB(rng, 12, 5, 3, 20)
	full, _, err := core.MineCoincidence(db, core.Options{MinCount: 1, MaxElements: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 5, 20} {
		r, err := core.Mine(context.Background(), db, core.KindCoincidence, k, core.Options{MaxElements: 3})
		if err != nil {
			t.Fatal(err)
		}
		got, want := r.Coinc, full
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i].Support != want[i].Support {
				t.Fatalf("k=%d rank %d: support %d != %d", k, i, got[i].Support, want[i].Support)
			}
		}
	}
}

func TestTopKValidation(t *testing.T) {
	ctx := context.Background()
	db := interval.NewDatabase([]interval.Interval{{Symbol: "A", Start: 0, End: 1}})
	if _, _, err := tpminer.MineTopKTemporalPatterns(db, 0, core.Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := core.Mine(ctx, db, core.KindCoincidence, -1, core.Options{}); err == nil {
		t.Error("negative k accepted")
	}
	// A floor threshold is honoured: nothing has support >= 2 here.
	r, err := core.Mine(ctx, db, core.KindTemporal, 5, core.Options{MinCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rs := r.Temporal; len(rs) != 0 {
		t.Errorf("floor threshold ignored: %v", rs)
	}
}

// TestTopKLargeKAllocatesByPatterns: k comes from requests, so a k far
// above the patterns that exist must not size anything by k. A 3-interval
// database yields a handful of patterns, and mining its top 4M must
// allocate for those.
func TestTopKLargeKAllocatesByPatterns(t *testing.T) {
	db := interval.NewDatabase(
		[]interval.Interval{{Symbol: "A", Start: 0, End: 2}, {Symbol: "B", Start: 1, End: 4}},
		[]interval.Interval{{Symbol: "A", Start: 3, End: 5}},
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := core.Mine(context.Background(), db, core.KindTemporal, 4_000_000, core.Options{MinCount: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	rs := r.Temporal
	if len(rs) == 0 {
		t.Fatal("no patterns mined; test is vacuous")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("top-k mine with k=4M allocated %d bytes for %d patterns", got, len(rs))
	}
}

// TestTopKRaisesThreshold: the search with small k must explore no more
// nodes than the full support-1 mining.
func TestTopKRaisesThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	db := randomDB(rng, 20, 6, 3, 25)
	_, stFull, err := core.MineTemporal(db, core.Options{MinCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Mine(context.Background(), db, core.KindTemporal, 3, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stTopK := r.Stats
	if stTopK.Nodes > stFull.Nodes {
		t.Errorf("top-k explored %d nodes > full mining's %d", stTopK.Nodes, stFull.Nodes)
	}
}

func TestSubCoincPattern(t *testing.T) {
	p := func(s string) pattern.Coinc {
		q, err := pattern.ParseCoinc(s)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	cases := []struct {
		sub, super string
		want       bool
	}{
		{"{A}", "{A B}", true},
		{"{A}", "{B} {A}", true},
		{"{A} {B}", "{A C} {B C}", true},
		{"{A B}", "{A} {B}", false},
		{"{B} {A}", "{A} {B}", false},
		{"{A} {A}", "{A B}", false},
		{"{A} {A}", "{A} {A B}", true},
	}
	for _, c := range cases {
		if got := core.SubCoincPattern(p(c.sub), p(c.super)); got != c.want {
			t.Errorf("SubCoincPattern(%q, %q) = %v, want %v", c.sub, c.super, got, c.want)
		}
	}
}

func TestFilterClosedMaximalCoinc(t *testing.T) {
	mk := func(s string, sup int) pattern.CoincResult {
		q, err := pattern.ParseCoinc(s)
		if err != nil {
			t.Fatal(err)
		}
		return pattern.CoincResult{Pattern: q, Support: sup}
	}
	rs := []pattern.CoincResult{
		mk("{A}", 5),
		mk("{B}", 3),
		mk("{A B}", 3),
		mk("{C}", 2),
	}
	closed := filterCoinc(t, rs, "closed")
	keys := map[string]bool{}
	for _, r := range closed {
		keys[r.Pattern.String()] = true
	}
	// {B} is subsumed by {A B} at equal support; {A} survives (higher
	// support than its super).
	if len(closed) != 3 || !keys["{A}"] || !keys["{A B}"] || !keys["{C}"] {
		t.Errorf("closed = %v", closed)
	}
	maximal := filterCoinc(t, rs, "maximal")
	keys = map[string]bool{}
	for _, r := range maximal {
		keys[r.Pattern.String()] = true
	}
	if len(maximal) != 2 || !keys["{A B}"] || !keys["{C}"] {
		t.Errorf("maximal = %v", maximal)
	}
}

// filterTemporal and filterCoinc run core.Filter over one kind's
// results.
func filterTemporal(t *testing.T, rs []pattern.TemporalResult, which string) []pattern.TemporalResult {
	t.Helper()
	r := &core.Result{Temporal: rs}
	if err := core.Filter(context.Background(), r, which); err != nil {
		t.Fatal(err)
	}
	return r.Temporal
}

func filterCoinc(t *testing.T, rs []pattern.CoincResult, which string) []pattern.CoincResult {
	t.Helper()
	r := &core.Result{Coinc: rs}
	if err := core.Filter(context.Background(), r, which); err != nil {
		t.Fatal(err)
	}
	return r.Coinc
}
