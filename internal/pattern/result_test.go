package pattern

import (
	"testing"
)

func TestSortTemporalResults(t *testing.T) {
	rs := []TemporalResult{
		{Pattern: mustTemporal(t, "B+ B-"), Support: 5},
		{Pattern: mustTemporal(t, "A+ A- B+ B-"), Support: 7},
		{Pattern: mustTemporal(t, "A+ A-"), Support: 7},
		{Pattern: mustTemporal(t, "C+ C-"), Support: 5},
	}
	SortResults(rs)
	// Descending support, then ascending size, then key.
	if rs[0].Pattern.String() != "A+ A-" {
		t.Errorf("rs[0] = %v", rs[0].Pattern)
	}
	if rs[1].Pattern.String() != "A+ A- B+ B-" {
		t.Errorf("rs[1] = %v", rs[1].Pattern)
	}
	if rs[2].Pattern.String() != "B+ B-" || rs[3].Pattern.String() != "C+ C-" {
		t.Errorf("tail order: %v %v", rs[2].Pattern, rs[3].Pattern)
	}
}

func TestNormalizeTemporalResultsMergesMax(t *testing.T) {
	rs := []TemporalResult{
		{Pattern: mustTemporal(t, "A.2+ A.2-"), Support: 4},
		{Pattern: mustTemporal(t, "A+ A-"), Support: 9},
		{Pattern: mustTemporal(t, "A.3+ A.3-"), Support: 2},
		{Pattern: mustTemporal(t, "B+ B-"), Support: 5},
	}
	out := NormalizeTemporalResults(rs)
	if len(out) != 2 {
		t.Fatalf("len = %d: %v", len(out), out)
	}
	if out[0].Pattern.String() != "A+ A-" || out[0].Support != 9 {
		t.Errorf("merged A = %v", out[0])
	}
	if out[1].Pattern.String() != "B+ B-" || out[1].Support != 5 {
		t.Errorf("B = %v", out[1])
	}
}

func TestResultsEqual(t *testing.T) {
	a := []TemporalResult{
		{Pattern: mustTemporal(t, "A+ A-"), Support: 3},
		{Pattern: mustTemporal(t, "B+ B-"), Support: 2},
	}
	b := []TemporalResult{
		{Pattern: mustTemporal(t, "B+ B-"), Support: 2},
		{Pattern: mustTemporal(t, "A+ A-"), Support: 3},
	}
	if !ResultsEqual(a, b) {
		t.Error("order should not matter")
	}
	b[0].Support = 1
	if ResultsEqual(a, b) {
		t.Error("support difference ignored")
	}
	if ResultsEqual(a, a[:1]) {
		t.Error("length difference ignored")
	}

	ca := []CoincResult{{Pattern: mustCoinc(t, "{A}"), Support: 3}}
	cb := []CoincResult{{Pattern: mustCoinc(t, "{A}"), Support: 3}}
	if !ResultsEqual(ca, cb) {
		t.Error("equal coinc results differ")
	}
	cb[0].Support = 4
	if ResultsEqual(ca, cb) {
		t.Error("coinc support difference ignored")
	}
}

func TestSortCoincResults(t *testing.T) {
	rs := []CoincResult{
		{Pattern: mustCoinc(t, "{B}"), Support: 1},
		{Pattern: mustCoinc(t, "{A B}"), Support: 3},
		{Pattern: mustCoinc(t, "{A}"), Support: 3},
	}
	SortResults(rs)
	if rs[0].Pattern.String() != "{A}" || rs[1].Pattern.String() != "{A B}" || rs[2].Pattern.String() != "{B}" {
		t.Errorf("order: %v", rs)
	}
}
