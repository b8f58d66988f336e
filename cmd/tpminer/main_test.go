package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tpminer/internal/dataio"
)

const sampleCSV = `sequence_id,symbol,start,end
s1,A,0,4
s1,B,2,6
s2,A,10,14
s2,B,12,16
s3,B,0,2
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTemporalCSV(t *testing.T) {
	in := writeTemp(t, "data.csv", sampleCSV)
	var out, errw bytes.Buffer
	if err := run([]string{"-in", in, "-mincount", "2", "-stats"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	rs, err := dataio.ReadTemporalResults(strings.NewReader(out.String()))
	if err != nil {
		t.Fatalf("output does not parse back: %v\n%s", err, out.String())
	}
	found := false
	for _, r := range rs {
		if r.Pattern.String() == "A+ B+ A- B-" && r.Support == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected overlap pattern in output:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "mincount=2") {
		t.Errorf("stats line missing: %q", errw.String())
	}
}

func TestRunCoincidenceLines(t *testing.T) {
	in := writeTemp(t, "data.lines", "s1: A[0,4] B[2,6]\ns2: A[0,4] B[2,6]\n")
	var out, errw bytes.Buffer
	if err := run([]string{"-in", in, "-type", "coincidence", "-minsup", "0.9"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	rs, err := dataio.ReadCoincResults(strings.NewReader(out.String()))
	if err != nil {
		t.Fatalf("output does not parse back: %v\n%s", err, out.String())
	}
	if len(rs) == 0 {
		t.Error("no coincidence patterns")
	}
}

func TestRunAlternativeAlgorithms(t *testing.T) {
	in := writeTemp(t, "data.csv", sampleCSV)
	for _, algo := range []string{"tprefixspan", "apriori"} {
		var out, errw bytes.Buffer
		if err := run([]string{"-in", in, "-algo", algo, "-mincount", "2"}, &out, &errw); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(out.String(), "A+ B+ A- B-") {
			t.Errorf("%s: overlap missing:\n%s", algo, out.String())
		}
	}
}

func TestRunRelationsFlag(t *testing.T) {
	in := writeTemp(t, "data.csv", sampleCSV)
	var out, errw bytes.Buffer
	if err := run([]string{"-in", in, "-mincount", "2", "-relations"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "A overlaps B") {
		t.Errorf("relations column missing:\n%s", out.String())
	}
}

func TestRunOutputFile(t *testing.T) {
	in := writeTemp(t, "data.csv", sampleCSV)
	outPath := filepath.Join(t.TempDir(), "patterns.txt")
	var out, errw bytes.Buffer
	if err := run([]string{"-in", in, "-mincount", "2", "-out", outPath}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "A+ B+ A- B-") {
		t.Errorf("file output missing pattern:\n%s", data)
	}
}

func TestRunErrors(t *testing.T) {
	in := writeTemp(t, "data.csv", sampleCSV)
	cases := [][]string{
		{"-in", in}, // no threshold
		{"-in", in, "-minsup", "NaN"},
		{"-in", in, "-mincount", "2", "-type", "bogus"}, // bad type
		{"-in", in, "-mincount", "2", "-algo", "bogus"}, // bad algo
		{"-in", in, "-mincount", "2", "-format", "bogus"},
		{"-in", filepath.Join(t.TempDir(), "missing.csv"), "-mincount", "2"},
		{"-in", in, "-type", "coincidence", "-algo", "tprefixspan", "-mincount", "2"}, // tps is temporal-only
		{"-in", in, "-mincount", "2", "-algo", "tprefixspan", "-max-span", "5"},       // span/gap bounds are ptpminer-only
		{"-in", in, "-mincount", "2", "-type", "coincidence", "-max-intervals", "1"},  // temporal-only bound
		{"-in", in, "-mincount", "2", "-type", "coincidence", "-rules", "0.5"},        // temporal-only output
		{"-in", in, "-mincount", "2", "-type", "coincidence", "-relations"},
		{"-in", in, "-mincount", "2", "-type", "coincidence", "-render"},
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if err := run(args, &out, &errw); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunTopKAndFilters(t *testing.T) {
	in := writeTemp(t, "data.csv", sampleCSV)
	var out, errw bytes.Buffer
	if err := run([]string{"-in", in, "-topk", "2"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	rs, err := dataio.ReadTemporalResults(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Errorf("topk=2 returned %d patterns:\n%s", len(rs), out.String())
	}

	out.Reset()
	if err := run([]string{"-in", in, "-mincount", "2", "-maximal"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	rs, err = dataio.ReadTemporalResults(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Pattern.String() == "A+ A-" {
			t.Errorf("-maximal kept a subsumed single interval:\n%s", out.String())
		}
	}

	// Coincidence filters now work too.
	out.Reset()
	if err := run([]string{"-in", in, "-type", "coincidence", "-mincount", "2", "-maximal"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	crs, err := dataio.ReadCoincResults(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range crs {
		if r.Pattern.String() == "{A}" {
			t.Errorf("-maximal kept subsumed coincidence pattern:\n%s", out.String())
		}
	}

	// Invalid combinations.
	for _, args := range [][]string{
		{"-in", in, "-mincount", "2", "-closed", "-maximal"},
		{"-in", in, "-topk", "2", "-algo", "apriori"},
	} {
		if err := run(args, &out, &errw); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunRenderRulesAndJSON(t *testing.T) {
	in := writeTemp(t, "data.csv", sampleCSV)

	var out, errw bytes.Buffer
	if err := run([]string{"-in", in, "-mincount", "2", "-render"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "█") || !strings.Contains(out.String(), "support") {
		t.Errorf("render output missing bars:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"-in", in, "-mincount", "2", "-rules", "0.5"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "association rules") || !strings.Contains(out.String(), "=>") {
		t.Errorf("rules output missing:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"-in", in, "-mincount", "2", "-json"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	rs, err := dataio.ReadTemporalResultsJSON(strings.NewReader(out.String()))
	if err != nil {
		t.Fatalf("json output not parseable: %v\n%s", err, out.String())
	}
	if len(rs) == 0 {
		t.Error("json output empty")
	}

	out.Reset()
	if err := run([]string{"-in", in, "-type", "coincidence", "-mincount", "2", "-json"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if _, err := dataio.ReadCoincResultsJSON(strings.NewReader(out.String())); err != nil {
		t.Fatalf("coincidence json not parseable: %v", err)
	}
}

func TestRunMatchMode(t *testing.T) {
	in := writeTemp(t, "data.csv", sampleCSV)
	var out, errw bytes.Buffer
	if err := run([]string{"-in", in, "-match", "A+ B+ A- B-"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "aligned:     2 of 3") ||
		!strings.Contains(out.String(), "A overlaps B") {
		t.Errorf("match output:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"-in", in, "-type", "coincidence", "-match", "{A B}"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "support: 2 of 3") {
		t.Errorf("coincidence match output:\n%s", out.String())
	}

	if err := run([]string{"-in", in, "-match", "A-"}, &out, &errw); err == nil {
		t.Error("invalid pattern accepted by -match")
	}
}

// explosiveCSV: n identical sequences of k pairwise-overlapping
// intervals, so an unbounded mine at mincount=n cannot finish quickly
// and the budget flags always engage.
func explosiveCSV(n, k int) string {
	var b strings.Builder
	b.WriteString("sequence_id,symbol,start,end\n")
	for s := 0; s < n; s++ {
		for i := 0; i < k; i++ {
			fmt.Fprintf(&b, "e%d,S%02d,%d,%d\n", s, i, i, k+i)
		}
	}
	return b.String()
}

func TestRunBudgetFlags(t *testing.T) {
	in := writeTemp(t, "big.csv", explosiveCSV(3, 16))

	// -timeout aborts the run with an error.
	var out, errw bytes.Buffer
	start := time.Now()
	err := run([]string{"-in", in, "-mincount", "3", "-timeout", "50ms"}, &out, &errw)
	if err == nil {
		t.Fatal("timed-out run reported success")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("50ms-timeout run took %v", elapsed)
	}

	// -max-patterns keeps partial output and warns on stderr.
	out.Reset()
	errw.Reset()
	if err := run([]string{"-in", in, "-mincount", "3", "-max-patterns", "5"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	rs, err := dataio.ReadTemporalResults(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 || len(rs) > 5 {
		t.Errorf("got %d patterns, want 1..5", len(rs))
	}
	if !strings.Contains(errw.String(), "truncated by max_patterns") {
		t.Errorf("truncation warning missing: %q", errw.String())
	}

	// Budget flags are ptpminer-only.
	for _, args := range [][]string{
		{"-in", in, "-mincount", "3", "-algo", "tprefixspan", "-timeout", "1s"},
		{"-in", in, "-mincount", "3", "-algo", "apriori", "-max-patterns", "5"},
	} {
		if err := run(args, &out, &errw); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
