package persist

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tpminer/internal/interval"
)

// testDB builds a small database whose contents are derived from seed,
// so different calls produce distinguishable data.
func testDB(seed, seqs, ivs int) *interval.Database {
	db := &interval.Database{Sequences: make([]interval.Sequence, seqs)}
	for s := 0; s < seqs; s++ {
		seq := interval.Sequence{ID: fmt.Sprintf("d%d-s%d", seed, s)}
		for i := 0; i < ivs; i++ {
			start := int64(seed + s + i)
			seq.Intervals = append(seq.Intervals, interval.Interval{
				Symbol: fmt.Sprintf("S%d", (seed+i)%5),
				Start:  start,
				End:    start + int64(i%7) + 1,
			})
		}
		db.Sequences[s] = seq
	}
	return db
}

func mustOpen(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// assertState compares a recovered state against the expected
// name→DatasetState map, including full database contents.
func assertState(t *testing.T, s *Store, want map[string]DatasetState, wantVer uint64) {
	t.Helper()
	got, ver := s.Recovered()
	if ver != wantVer {
		t.Errorf("recovered verSeq = %d, want %d", ver, wantVer)
	}
	if len(got) != len(want) {
		t.Errorf("recovered %d datasets, want %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("dataset %q missing after recovery", name)
			continue
		}
		if g.Version != w.Version {
			t.Errorf("dataset %q version = %d, want %d", name, g.Version, w.Version)
		}
		if !reflect.DeepEqual(g.DB.Sequences, w.DB.Sequences) {
			t.Errorf("dataset %q contents differ after recovery", name)
		}
	}
}

func TestRecordEncodingRoundTrip(t *testing.T) {
	cases := []record{
		{typ: recPut, version: 1, name: "alpha", db: testDB(1, 3, 4)},
		{typ: recAppend, version: 9000, name: "with spaces and ünïcode", db: testDB(2, 1, 1)},
		{typ: recDelete, version: 1 << 40, name: ""},
		{typ: recPut, version: 7, name: "empty", db: &interval.Database{}},
	}
	for _, want := range cases {
		payload := encodeRecord(want)
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("decode %s: %v", want.typeName(), err)
		}
		if got.typ != want.typ || got.version != want.version || got.name != want.name {
			t.Errorf("round trip %s: got %+v", want.typeName(), got)
		}
		if want.typ != recDelete && !reflect.DeepEqual(got.db.Sequences, want.db.Sequences) {
			t.Errorf("round trip %s: database differs", want.typeName())
		}
	}
}

// TestDatabaseLenExact: databaseLen is the exact length of the varint
// database encoding, across every varint width, so EncodeDatabase sizes
// its buffer in one allocation.
func TestDatabaseLenExact(t *testing.T) {
	long := strings.Repeat("x", 200) // a two-byte length prefix
	cases := []struct {
		name string
		db   *interval.Database
	}{
		{"empty database", &interval.Database{}},
		{"empty sequence", &interval.Database{Sequences: []interval.Sequence{{ID: "s"}}}},
		{"negative and 2^40 times", &interval.Database{Sequences: []interval.Sequence{{ID: "t", Intervals: []interval.Interval{
			{Symbol: "A", Start: -1, End: 0},
			{Symbol: "B", Start: -(1 << 40), End: 1 << 40},
			{Symbol: "C", Start: math.MinInt64, End: math.MaxInt64},
		}}}}},
		{"multi-byte symbol", &interval.Database{Sequences: []interval.Sequence{{ID: "ünï" + long, Intervals: []interval.Interval{
			{Symbol: "温度↑", Start: 63, End: 64},
			{Symbol: long + "é", Start: 8191, End: 8192},
		}}}}},
		{"many sequences", testDB(3, 200, 9)},
	}
	for _, c := range cases {
		if got, want := databaseLen(c.db), len(appendDatabase(nil, c.db)); got != want {
			t.Errorf("%s: databaseLen = %d, encoding is %d bytes", c.name, got, want)
		}
		if got := len(EncodeDatabase(nil, c.db)); got != databaseLen(c.db) {
			t.Errorf("%s: EncodeDatabase wrote %d bytes, databaseLen says %d", c.name, got, databaseLen(c.db))
		}
	}
	db := testDB(1, 500, 10)
	if n := testing.AllocsPerRun(20, func() { _ = EncodeDatabase(nil, db) }); n != 1 {
		t.Errorf("EncodeDatabase of %d sequences made %v allocations, want 1", len(db.Sequences), n)
	}
}

func TestSnapshotEncodingRoundTrip(t *testing.T) {
	state := map[string]DatasetState{
		"a": {DB: testDB(1, 4, 6), Version: 3},
		"b": {DB: testDB(2, 1, 1), Version: 9},
	}
	jobs := map[string]JobState{
		"j1": {Spec: []byte(`{"dataset":"a"}`), SpecVersion: 5, Result: []byte(`{"runs":3}`), ResultVersion: 8},
		"j2": {Spec: []byte(`{"dataset":"b"}`), SpecVersion: 7},
	}
	payload := encodeSnapshot(state, jobs, 42)
	got, gotJobs, verSeq, err := decodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if verSeq != 42 || len(got) != 2 {
		t.Fatalf("decoded verSeq=%d datasets=%d", verSeq, len(got))
	}
	for name, w := range state {
		if !reflect.DeepEqual(got[name].DB.Sequences, w.DB.Sequences) || got[name].Version != w.Version {
			t.Errorf("dataset %q differs after snapshot round trip", name)
		}
	}
	if !reflect.DeepEqual(gotJobs, jobs) {
		t.Errorf("jobs differ after snapshot round trip: got %+v want %+v", gotJobs, jobs)
	}
}

// TestSnapshotBackwardCompatible: a pre-jobs snapshot payload (ending
// at the last dataset) still decodes, with an empty job table.
func TestSnapshotBackwardCompatible(t *testing.T) {
	state := map[string]DatasetState{"a": {DB: testDB(1, 2, 3), Version: 4}}
	payload := encodeSnapshot(state, nil, 11)
	// Strip the trailing job section (a single uvarint 0 for zero jobs)
	// to reconstruct the old format.
	old := payload[:len(payload)-1]
	got, jobs, verSeq, err := decodeSnapshot(old)
	if err != nil {
		t.Fatalf("old-format snapshot failed to decode: %v", err)
	}
	if verSeq != 11 || len(got) != 1 || len(jobs) != 0 {
		t.Fatalf("decoded verSeq=%d datasets=%d jobs=%d", verSeq, len(got), len(jobs))
	}
}

// TestJobJournalRoundTrip: job records survive both recovery paths —
// WAL replay (dirty restart) and the final snapshot (clean restart) —
// with the latest result superseding earlier ones and deletes honored.
func TestJobJournalRoundTrip(t *testing.T) {
	for _, clean := range []bool{false, true} {
		name := "wal-replay"
		if clean {
			name = "snapshot"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{})
			if err := s.LogPut("d", 1, testDB(1, 3, 2)); err != nil {
				t.Fatal(err)
			}
			spec := []byte(`{"dataset":"d","mine":{"min_count":1}}`)
			if err := s.LogJobPut("watch-d", 2, spec); err != nil {
				t.Fatal(err)
			}
			if err := s.LogJobResult("watch-d", 3, []byte(`{"run_seq":1}`)); err != nil {
				t.Fatal(err)
			}
			if err := s.LogJobResult("watch-d", 4, []byte(`{"run_seq":2}`)); err != nil {
				t.Fatal(err)
			}
			if err := s.LogJobPut("doomed", 5, []byte(`{"dataset":"d"}`)); err != nil {
				t.Fatal(err)
			}
			if err := s.LogJobDelete("doomed", 6); err != nil {
				t.Fatal(err)
			}
			if clean {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			} else {
				// Dirty restart: reopen over the live WAL without Close,
				// forcing full replay.
				if err := s.wal.sync(); err != nil {
					t.Fatal(err)
				}
			}
			s2 := mustOpen(t, dir, Options{})
			defer func() {
				if err := s2.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
			}()
			jobs := s2.RecoveredJobs()
			if len(jobs) != 1 {
				t.Fatalf("recovered %d jobs, want 1 (%+v)", len(jobs), jobs)
			}
			js := jobs["watch-d"]
			if string(js.Spec) != string(spec) || js.SpecVersion != 2 {
				t.Errorf("spec = %q v%d, want %q v2", js.Spec, js.SpecVersion, spec)
			}
			if string(js.Result) != `{"run_seq":2}` || js.ResultVersion != 4 {
				t.Errorf("result = %q v%d, want latest result v4", js.Result, js.ResultVersion)
			}
			if _, ver := s2.Recovered(); ver != 6 {
				t.Errorf("verSeq = %d, want 6 (job records must advance the counter)", ver)
			}
		})
	}
}

// TestCleanRestart: a Close'd store restarts from its final snapshot
// with zero replay.
func TestCleanRestart(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	dbA, dbB := testDB(1, 3, 5), testDB(2, 2, 2)
	if err := s.LogPut("a", 1, dbA); err != nil {
		t.Fatal(err)
	}
	if err := s.LogPut("b", 2, dbB); err != nil {
		t.Fatal(err)
	}
	if err := s.LogDelete("b", 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.LogPut("late", 4, dbA); err == nil {
		t.Error("mutation after Close succeeded")
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	assertState(t, s2, map[string]DatasetState{"a": {DB: dbA, Version: 1}}, 3)
	rs := s2.RecoveryStats()
	if !rs.SnapshotLoaded || rs.RecordsReplayed != 0 || rs.Truncations != 0 {
		t.Errorf("clean restart stats = %+v, want snapshot-only recovery", rs)
	}
}

// TestCrashRestart simulates kill -9: the store is abandoned without
// Close, and a fresh Open must recover every logged mutation from the
// WAL alone, including the version counter after a trailing delete.
func TestCrashRestart(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	dbA, dbB, add := testDB(1, 3, 5), testDB(2, 2, 2), testDB(3, 1, 4)
	if err := s.LogPut("a", 1, dbA); err != nil {
		t.Fatal(err)
	}
	if err := s.LogPut("b", 2, dbB); err != nil {
		t.Fatal(err)
	}
	if err := s.LogAppend("a", 3, add); err != nil {
		t.Fatal(err)
	}
	if err := s.LogDelete("b", 4); err != nil {
		t.Fatal(err)
	}
	// No Close: the crash. (fsync=always has already pushed every
	// record to the file.)

	grownA := &interval.Database{}
	grownA.Sequences = append(grownA.Sequences, dbA.Sequences...)
	grownA.Sequences = append(grownA.Sequences, add.Sequences...)

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	assertState(t, s2, map[string]DatasetState{"a": {DB: grownA, Version: 3}}, 4)
	rs := s2.RecoveryStats()
	if rs.SnapshotLoaded || rs.RecordsReplayed != 4 || rs.Truncations != 0 {
		t.Errorf("crash restart stats = %+v, want 4 replayed from WAL only", rs)
	}

	// Versions must keep climbing from the recovered counter: a
	// re-created "b" may never reuse version 2.
	if err := s2.LogPut("b", 5, dbB); err != nil {
		t.Fatal(err)
	}
	if _, ver := s2.Recovered(); ver != 5 {
		t.Errorf("verSeq after post-recovery put = %d, want 5", ver)
	}
}

// TestCompaction: once the WAL passes the threshold a snapshot is cut,
// the log rotates, and recovery reads the snapshot, not the old log.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{WALMaxBytes: 2 << 10, FsyncMode: FsyncNever})
	want := map[string]DatasetState{}
	ver := uint64(0)
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("ds%d", i%7)
		db := testDB(i, 2, 8)
		ver++
		if err := s.LogPut(name, ver, db); err != nil {
			t.Fatal(err)
		}
		want[name] = DatasetState{DB: db, Version: ver}
	}
	snaps, wals := listDataFiles(t, dir)
	if len(snaps) != 1 {
		t.Errorf("after compaction: %d snapshots on disk (%v), want exactly 1", len(snaps), snaps)
	}
	if len(wals) != 1 {
		t.Errorf("after compaction: %d WAL segments (%v), want exactly 1", len(wals), wals)
	}
	// Crash (no Close) and recover: snapshot + tail replay must equal
	// the full state.
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	assertState(t, s2, want, ver)
	if rs := s2.RecoveryStats(); !rs.SnapshotLoaded {
		t.Errorf("recovery stats %+v: expected a snapshot to be loaded", rs)
	}
}

// TestFsyncModes: every mode accepts writes and survives a clean
// restart; interval mode flushes on its ticker without explicit sync.
func TestFsyncModes(t *testing.T) {
	for _, mode := range []string{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{FsyncMode: mode, FsyncInterval: 5 * time.Millisecond})
			db := testDB(1, 2, 3)
			if err := s.LogPut("a", 1, db); err != nil {
				t.Fatal(err)
			}
			if mode == FsyncInterval {
				time.Sleep(30 * time.Millisecond) // let the ticker flush
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2 := mustOpen(t, dir, Options{})
			defer s2.Close()
			assertState(t, s2, map[string]DatasetState{"a": {DB: db, Version: 1}}, 1)
		})
	}
}

func TestOpenRejectsBadFsyncMode(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{FsyncMode: "sometimes"}); err == nil {
		t.Fatal("bad fsync mode accepted")
	}
}

func TestInspect(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.LogPut("alpha", 1, testDB(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.LogDelete("alpha", 2); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close so both the snapshot and a live WAL record
	// survive for the inspector.

	var b strings.Builder
	if err := Inspect(dir, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"snapshot", "version=1", "wal", "delete", `dataset "alpha"`} {
		if !strings.Contains(out, want) {
			t.Errorf("inspect output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "CORRUPT") || strings.Contains(out, "TORN") {
		t.Errorf("inspect flagged damage in a healthy dir:\n%s", out)
	}

	// Flip a payload byte in the live segment: the inspector must flag
	// the frame and report its offset.
	corruptLiveWAL(t, dir, frameHeaderLen+1)
	b.Reset()
	if err := Inspect(dir, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "CORRUPT") {
		t.Errorf("inspect did not flag the corrupt frame:\n%s", b.String())
	}
}

// TestInspectMissingDir: inspecting a path that does not exist is an
// error naming the path, and creates nothing.
func TestInspectMissingDir(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir")
	var b strings.Builder
	if err := Inspect(missing, &b); err == nil || !strings.Contains(err.Error(), missing) {
		t.Errorf("Inspect(missing) = %v, want an error naming %s", err, missing)
	}
	if _, err := os.Stat(filepath.Dir(missing)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Inspect created a parent of the missing path (stat: %v)", err)
	}
}

// listDataFiles returns the snapshot and WAL file names in dir.
func listDataFiles(t *testing.T, dir string) (snaps, wals []string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := parseSeqName(e.Name(), "snapshot-", ".snap"); ok {
			snaps = append(snaps, e.Name())
		}
		if _, ok := parseSeqName(e.Name(), "wal-", ".log"); ok {
			wals = append(wals, e.Name())
		}
	}
	return snaps, wals
}

// corruptLiveWAL XORs the byte at off in the newest WAL segment.
func corruptLiveWAL(t *testing.T, dir string, off int64) {
	t.Helper()
	_, wals := listDataFiles(t, dir)
	if len(wals) == 0 {
		t.Fatal("no WAL segment to corrupt")
	}
	path := filepath.Join(dir, wals[len(wals)-1])
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var one [1]byte
	if _, err := f.ReadAt(one[:], off); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0xFF
	if _, err := f.WriteAt(one[:], off); err != nil {
		t.Fatal(err)
	}
}
