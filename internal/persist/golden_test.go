package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tpminer/internal/interval"
)

// The golden data directory under testdata/ pins the on-disk format: a
// snapshot holding two datasets and a job with a result, and the WAL
// segment after it holding one record of each of the six types. The
// files were written once and are never regenerated — bytes that differ
// from them mean a format change that every existing data directory
// would have to survive.
var (
	goldenSnapshot = snapshotName(4)
	goldenWAL      = walName(4)
)

func goldenSeq(id string, ivs ...interval.Interval) interval.Sequence {
	return interval.Sequence{ID: id, Intervals: ivs}
}

var (
	goldenAlpha = &interval.Database{Sequences: []interval.Sequence{
		goldenSeq("p1", interval.Interval{Symbol: "A", Start: 0, End: 5},
			interval.Interval{Symbol: "B", Start: 3, End: 9},
			interval.Interval{Symbol: "C", Start: -2, End: 1}),
		goldenSeq("p2", interval.Interval{Symbol: "A", Start: 10, End: 12},
			interval.Interval{Symbol: "B", Start: 11, End: 20}),
	}}
	goldenBeta = &interval.Database{Sequences: []interval.Sequence{
		goldenSeq("q1", interval.Interval{Symbol: "X", Start: 100, End: 1000}),
	}}
	goldenGamma = &interval.Database{Sequences: []interval.Sequence{
		goldenSeq("r1", interval.Interval{Symbol: "Δ", Start: 7, End: 8}),
	}}
	goldenAlphaAdd = &interval.Database{Sequences: []interval.Sequence{
		goldenSeq("p3", interval.Interval{Symbol: "A", Start: 1, End: 2}),
	}}

	goldenWatchSpec     = []byte(`{"dataset":"alpha","mine":{"min_count":2}}`)
	goldenWatchResult   = []byte(`{"run_seq":1,"patterns":3}`)
	goldenNightlySpec   = []byte(`{"dataset":"gamma"}`)
	goldenNightlyResult = []byte(`{"run_seq":1}`)
)

// writeGoldenStore journals the golden history into dir through the Log*
// API and returns the open store: four records cut into a snapshot at
// version 4, then six records left in the live segment.
func writeGoldenStore(t *testing.T, dir string) *Store {
	t.Helper()
	s := mustOpen(t, dir, Options{})
	for i, step := range []func() error{
		func() error { return s.LogPut("alpha", 1, goldenAlpha) },
		func() error { return s.LogPut("beta", 2, goldenBeta) },
		func() error { return s.LogJobPut("watch", 3, goldenWatchSpec) },
		func() error { return s.LogJobResult("watch", 4, goldenWatchResult) },
		s.Snapshot,
		func() error { return s.LogPut("gamma", 5, goldenGamma) },
		func() error { return s.LogAppend("alpha", 6, goldenAlphaAdd) },
		func() error { return s.LogDelete("beta", 7) },
		func() error { return s.LogJobPut("nightly", 8, goldenNightlySpec) },
		func() error { return s.LogJobResult("nightly", 9, goldenNightlyResult) },
		func() error { return s.LogJobDelete("watch", 10) },
	} {
		if err := step(); err != nil {
			t.Fatalf("golden step %d: %v", i, err)
		}
	}
	return s
}

// fuzzCorpusFile renders data as a one-value `go test` fuzz corpus file.
func fuzzCorpusFile(data []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data))
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecoveryGoldenFormat: journaling the golden history today writes
// the committed golden files byte for byte, the fuzz seed corpora hold
// the same bytes, and a store booted from the golden files recovers the
// history's final state.
func TestRecoveryGoldenFormat(t *testing.T) {
	dir := t.TempDir()
	s := writeGoldenStore(t, dir)
	for _, name := range []string{goldenSnapshot, goldenWAL} {
		got, want := readFile(t, filepath.Join(dir, name)), readFile(t, filepath.Join("testdata", name))
		if !bytes.Equal(got, want) {
			t.Errorf("%s: re-encoded %d bytes differ from the golden %d bytes", name, len(got), len(want))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	snap := readFile(t, filepath.Join("testdata", goldenSnapshot))
	if got := readFile(t, filepath.Join("testdata", "fuzz", "FuzzDecodeSnapshotFile", "golden-snapshot")); !bytes.Equal(got, fuzzCorpusFile(snap)) {
		t.Error("FuzzDecodeSnapshotFile/golden-snapshot does not hold the golden snapshot")
	}
	wal := readFile(t, filepath.Join("testdata", goldenWAL))
	for off, i := 0, 0; off < len(wal); i++ {
		payload, n, err := parseFrame(wal[off:])
		if err != nil {
			t.Fatalf("golden WAL frame %d at offset %d: %v", i, off, err)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("golden WAL record %d: %v", i, err)
		}
		name := fmt.Sprintf("golden-%d-%s", i+1, rec.typeName())
		if got := readFile(t, filepath.Join("testdata", "fuzz", "FuzzDecodeRecord", name)); !bytes.Equal(got, fuzzCorpusFile(wal[off:off+n])) {
			t.Errorf("FuzzDecodeRecord/%s does not hold golden WAL frame %d", name, i)
		}
		off += n
	}

	boot := t.TempDir()
	for _, name := range []string{goldenSnapshot, goldenWAL} {
		if err := os.WriteFile(filepath.Join(boot, name), readFile(t, filepath.Join("testdata", name)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2 := mustOpen(t, boot, Options{})
	defer s2.Close()
	grownAlpha := &interval.Database{Sequences: append(append([]interval.Sequence{}, goldenAlpha.Sequences...), goldenAlphaAdd.Sequences...)}
	assertState(t, s2, map[string]DatasetState{
		"alpha": {DB: grownAlpha, Version: 6},
		"gamma": {DB: goldenGamma, Version: 5},
	}, 10)
	wantJobs := map[string]JobState{"nightly": {
		Spec: goldenNightlySpec, SpecVersion: 8, Result: goldenNightlyResult, ResultVersion: 9,
	}}
	if jobs := s2.RecoveredJobs(); !reflect.DeepEqual(jobs, wantJobs) {
		t.Errorf("recovered jobs = %+v, want %+v", jobs, wantJobs)
	}
	rs := s2.RecoveryStats()
	if !rs.SnapshotLoaded || rs.SnapshotVersion != 4 || rs.RecordsReplayed != 6 || rs.Truncations != 0 {
		t.Errorf("golden boot stats = %+v, want snapshot v4 + 6 replayed", rs)
	}
}
