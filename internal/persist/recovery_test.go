package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tpminer/internal/interval"
)

// shallowExtend mirrors the server store's copy-on-write append: shared
// sequence headers, no interval cloning.
func shallowExtend(base, add *interval.Database) *interval.Database {
	out := &interval.Database{Sequences: make([]interval.Sequence, 0, len(base.Sequences)+len(add.Sequences))}
	out.Sequences = append(out.Sequences, base.Sequences...)
	out.Sequences = append(out.Sequences, add.Sequences...)
	return out
}

// walSize returns the size of the newest WAL segment.
func walSize(t *testing.T, dir string) (string, int64) {
	t.Helper()
	_, wals := listDataFiles(t, dir)
	if len(wals) == 0 {
		t.Fatal("no WAL segment")
	}
	path := filepath.Join(dir, wals[len(wals)-1])
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, fi.Size()
}

// TestRecoveryTornTail: a crash mid-write leaves a half-frame at the
// end of the log. Recovery must keep every complete record, truncate
// the torn tail, and keep accepting writes afterwards.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	dbA, dbB := testDB(1, 3, 5), testDB(2, 2, 2)
	if err := s.LogPut("a", 1, dbA); err != nil {
		t.Fatal(err)
	}
	if err := s.LogPut("b", 2, dbB); err != nil {
		t.Fatal(err)
	}
	// Crash, then shear off the last few bytes of the final frame —
	// the on-disk shape of a power cut mid-append.
	path, size := walSize(t, dir)
	if err := os.Truncate(path, size-3); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	// The put of "b" was torn: only "a" survives.
	assertState(t, s2, map[string]DatasetState{"a": {DB: dbA, Version: 1}}, 1)
	rs := s2.RecoveryStats()
	if rs.Truncations != 1 || rs.RecordsReplayed != 1 {
		t.Errorf("torn-tail stats = %+v, want 1 replayed + 1 truncation", rs)
	}

	// The log must be writable again at the truncation point: new
	// mutations land, and a third boot sees them intact.
	if err := s2.LogPut("c", 2, dbB); err != nil {
		t.Fatalf("write after torn-tail recovery: %v", err)
	}
	s3 := mustOpen(t, dir, Options{})
	defer s3.Close()
	assertState(t, s3, map[string]DatasetState{
		"a": {DB: dbA, Version: 1},
		"c": {DB: dbB, Version: 2},
	}, 2)
	if rs := s3.RecoveryStats(); rs.Truncations != 0 {
		t.Errorf("third boot saw damage again: %+v", rs)
	}
}

// TestRecoveryCorruptCRCMidLog: a bit flip in an early record's payload
// must stop replay at that record — frames beyond a corrupt one cannot
// be trusted — keeping the prefix and truncating the rest.
func TestRecoveryCorruptCRCMidLog(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	dbs := make([]*DatasetState, 5)
	var offsets []int64
	for i := 0; i < 5; i++ {
		db := testDB(i, 2, 3)
		dbs[i] = &DatasetState{DB: db, Version: uint64(i + 1)}
		_, before := walSize(t, dir)
		offsets = append(offsets, before)
		if err := s.LogPut(fmt.Sprintf("ds%d", i), uint64(i+1), db); err != nil {
			t.Fatal(err)
		}
	}
	// Flip one payload byte inside record 2 (datasets 0 and 1 precede
	// it; 3 and 4 follow it and become unreachable).
	corruptLiveWAL(t, dir, offsets[2]+frameHeaderLen+1)

	s2 := mustOpen(t, dir, Options{})
	assertState(t, s2, map[string]DatasetState{
		"ds0": *dbs[0],
		"ds1": *dbs[1],
	}, 2)
	rs := s2.RecoveryStats()
	if rs.Truncations != 1 || rs.RecordsReplayed != 2 {
		t.Errorf("corrupt-mid-log stats = %+v, want 2 replayed + 1 truncation", rs)
	}
	// The file itself was cut at the corruption, so the next boot is
	// clean.
	if _, size := walSize(t, dir); size != offsets[2] {
		t.Errorf("WAL truncated to %d bytes, want %d", size, offsets[2])
	}
	s2.Close()
}

// TestRecoveryPartialSnapshot: a snapshot that was only partially
// written (crash mid-copy, torn rename target) fails its length/CRC
// check and recovery must fall back to the WAL, losing nothing.
func TestRecoveryPartialSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	dbA, dbB := testDB(1, 3, 5), testDB(2, 2, 2)
	if err := s.LogPut("a", 1, dbA); err != nil {
		t.Fatal(err)
	}
	if err := s.LogPut("b", 2, dbB); err != nil {
		t.Fatal(err)
	}
	// Fabricate a partial snapshot claiming to be newer than the WAL:
	// a valid snapshot prefix cut in half.
	full := filepath.Join(dir, snapshotName(99))
	buf := encodeSnapshotFile(map[string]DatasetState{
		"bogus": {DB: testDB(9, 4, 4), Version: 98},
	}, nil, 99)
	if err := os.WriteFile(full, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// A leftover temp file from the same doomed snapshot must be
	// ignored too.
	if err := os.WriteFile(full+".tmp", buf[:len(buf)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	assertState(t, s2, map[string]DatasetState{
		"a": {DB: dbA, Version: 1},
		"b": {DB: dbB, Version: 2},
	}, 2)
	rs := s2.RecoveryStats()
	if rs.SnapshotLoaded {
		t.Errorf("recovery stats %+v: loaded a partial snapshot", rs)
	}
}

// TestRecoveryPartialSnapshotFallsBackToOlder: with an older valid
// snapshot present, recovery uses it (plus the WAL tail) instead of the
// damaged newer one.
func TestRecoveryPartialSnapshotFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	dbA := testDB(1, 3, 5)
	if err := s.LogPut("a", 1, dbA); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil { // valid snapshot at verSeq 1
		t.Fatal(err)
	}
	dbB := testDB(2, 2, 2)
	if err := s.LogPut("b", 2, dbB); err != nil {
		t.Fatal(err)
	}
	// Damaged "newer" snapshot at verSeq 99.
	full := filepath.Join(dir, snapshotName(99))
	if err := os.WriteFile(full, []byte("TPMSNAP1 this is not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	assertState(t, s2, map[string]DatasetState{
		"a": {DB: dbA, Version: 1},
		"b": {DB: dbB, Version: 2},
	}, 2)
	rs := s2.RecoveryStats()
	if !rs.SnapshotLoaded || rs.SnapshotVersion != 1 || rs.RecordsReplayed != 1 {
		t.Errorf("fallback stats = %+v, want snapshot v1 + 1 replayed", rs)
	}
}

// TestCrashDuringMixedWorkloadWithCompaction drives a put/append/delete
// mix through a store with an aggressive compaction threshold, crashes
// without Close, and checks that recovery reproduces the exact final
// state — acknowledged mutations all present, deleted datasets gone,
// version counter intact — no matter where compaction landed.
func TestCrashDuringMixedWorkloadWithCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{WALMaxBytes: 1 << 10})
	want := map[string]DatasetState{}
	ver := uint64(0)
	for i := 0; i < 120; i++ {
		name := fmt.Sprintf("ds%d", i%9)
		ver++
		switch i % 4 {
		case 0, 1: // put
			db := testDB(i, 2, 4)
			if err := s.LogPut(name, ver, db); err != nil {
				t.Fatal(err)
			}
			want[name] = DatasetState{DB: db, Version: ver}
		case 2: // append when present, else put
			add := testDB(i, 1, 3)
			if old, ok := want[name]; ok {
				if err := s.LogAppend(name, ver, add); err != nil {
					t.Fatal(err)
				}
				want[name] = DatasetState{DB: shallowExtend(old.DB, add), Version: ver}
			} else {
				if err := s.LogPut(name, ver, add); err != nil {
					t.Fatal(err)
				}
				want[name] = DatasetState{DB: add, Version: ver}
			}
		case 3: // delete when present, else put
			if _, ok := want[name]; ok {
				if err := s.LogDelete(name, ver); err != nil {
					t.Fatal(err)
				}
				delete(want, name)
			} else {
				db := testDB(i, 1, 2)
				if err := s.LogPut(name, ver, db); err != nil {
					t.Fatal(err)
				}
				want[name] = DatasetState{DB: db, Version: ver}
			}
		}
	}
	// Crash: no Close, no final snapshot.
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	assertState(t, s2, want, ver)
}
