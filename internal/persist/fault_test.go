package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tpminer/internal/obs"
	"tpminer/internal/resilience"
)

// injectorFunc adapts a function to resilience.Injector.
type injectorFunc func(resilience.Op) resilience.Fault

func (f injectorFunc) Fault(op resilience.Op) resilience.Fault { return f(op) }

// scriptInjector plays a fixed queue of errors per op, then stops
// injecting. Safe for concurrent use.
type scriptInjector struct {
	mu     sync.Mutex
	faults map[resilience.Op][]error
	hits   map[resilience.Op]int
}

func newScriptInjector() *scriptInjector {
	return &scriptInjector{
		faults: make(map[resilience.Op][]error),
		hits:   make(map[resilience.Op]int),
	}
}

func (si *scriptInjector) push(op resilience.Op, errs ...error) {
	si.mu.Lock()
	defer si.mu.Unlock()
	si.faults[op] = append(si.faults[op], errs...)
}

func (si *scriptInjector) Fault(op resilience.Op) resilience.Fault {
	si.mu.Lock()
	defer si.mu.Unlock()
	si.hits[op]++
	q := si.faults[op]
	if len(q) == 0 {
		return resilience.Fault{}
	}
	err := q[0]
	si.faults[op] = q[1:]
	return resilience.Fault{Err: err}
}

// noSleep is a retry policy with the default attempt budget but no
// real backoff, so fault tests stay fast.
var noSleep = resilience.RetryPolicy{Sleep: func(time.Duration) {}}

// TestBootRemovesOrphanTempFiles: snapshot temp files left by a crash
// mid-compaction are deleted during the boot scan and counted in the
// recovery stats; real data is untouched.
func TestBootRemovesOrphanTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	dbA := testDB(1, 3, 5)
	if err := s.LogPut("a", 1, dbA); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		snapshotName(7) + ".tmp",
		snapshotName(8) + ".tmp",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	assertState(t, s2, map[string]DatasetState{"a": {DB: dbA, Version: 1}}, 1)
	if got := s2.RecoveryStats().TempFilesRemoved; got != 2 {
		t.Errorf("TempFilesRemoved = %d, want 2", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("orphan temp file %q survived boot", e.Name())
		}
	}
}

// TestWALWriteRetriesTransient: a transient EIO on a WAL append is
// retried under the store's retry policy and the mutation still
// commits — durably, as a crash-reopen proves.
func TestWALWriteRetriesTransient(t *testing.T) {
	dir := t.TempDir()
	si := newScriptInjector()
	si.push(resilience.OpWALWrite, errors.New("injected transient eio"))
	s := mustOpen(t, dir, Options{Injector: si, Retry: noSleep})
	db := testDB(1, 2, 3)
	if err := s.LogPut("a", 1, db); err != nil {
		t.Fatalf("put with one transient failure: %v", err)
	}

	// Crash (no Close) and reopen without the injector: the record made
	// it to disk exactly once.
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	assertState(t, s2, map[string]DatasetState{"a": {DB: db, Version: 1}}, 1)
}

// TestTornWALWriteRollsBack: the first WAL write tears — half the frame
// lands on disk before EIO. The rollback truncates the prefix, the
// retry commits, and a crash-reopen replays each record exactly once
// with no damaged tail left for recovery to cut.
func TestTornWALWriteRollsBack(t *testing.T) {
	dir := t.TempDir()
	torn := 0
	inj := injectorFunc(func(op resilience.Op) resilience.Fault {
		if op != resilience.OpWALWrite || torn > 0 {
			return resilience.Fault{}
		}
		torn++
		return resilience.Fault{Err: fmt.Errorf("injected torn write: %w", syscall.EIO), PartialFraction: 0.5}
	})
	s := mustOpen(t, dir, Options{Injector: inj, Retry: noSleep})
	m := NewMetrics(obs.NewRegistry())
	s.SetMetrics(m)
	dbA, dbB := testDB(1, 2, 3), testDB(2, 2, 2)
	if err := s.LogPut("a", 1, dbA); err != nil {
		t.Fatalf("put after a torn write: %v", err)
	}
	if err := s.LogPut("b", 2, dbB); err != nil {
		t.Fatal(err)
	}
	if torn != 1 {
		t.Fatalf("torn writes injected = %d, want 1", torn)
	}
	count := func(v *obs.CounterVec, op string) uint64 { return v.With(blobBackend, op).Value() }
	if got := count(m.BlobErrors, "append_write"); got != 1 {
		t.Errorf("errors[append_write] = %d, want 1", got)
	}
	if got := count(m.BlobOps, "append_truncate"); got != 1 {
		t.Errorf("ops[append_truncate] = %d, want 1", got)
	}
	// The prefix really landed: more bytes were written than the
	// segment holds.
	if _, size := walSize(t, dir); count(m.BlobBytes, "append_write") <= uint64(size) {
		t.Errorf("append_write moved %d bytes into a %d-byte segment: the torn prefix never landed",
			count(m.BlobBytes, "append_write"), size)
	}

	// Crash (no Close) and reopen without the injector.
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	assertState(t, s2, map[string]DatasetState{
		"a": {DB: dbA, Version: 1},
		"b": {DB: dbB, Version: 2},
	}, 2)
	if rs := s2.RecoveryStats(); rs.RecordsReplayed != 2 || rs.Truncations != 0 {
		t.Errorf("recovery stats = %+v, want 2 replayed and no truncation", rs)
	}
}

// TestPermanentFailureFailsFastAndProbeRecovers: ENOSPC is classified
// permanent — one attempt, no retries — and once the condition clears,
// Probe restores the write path without a restart.
func TestPermanentFailureFailsFastAndProbeRecovers(t *testing.T) {
	dir := t.TempDir()
	var failing sync.Map // non-empty => inject ENOSPC on WAL writes
	failing.Store("on", true)
	attempts := 0
	inj := injectorFunc(func(op resilience.Op) resilience.Fault {
		if op != resilience.OpWALWrite {
			return resilience.Fault{}
		}
		if _, on := failing.Load("on"); !on {
			return resilience.Fault{}
		}
		attempts++
		return resilience.Fault{Err: syscall.ENOSPC}
	})
	s := mustOpen(t, dir, Options{Injector: inj, Retry: noSleep})
	defer s.Close()
	dbA := testDB(1, 2, 3)
	if err := s.LogPut("a", 1, dbA); err == nil {
		t.Fatal("put succeeded despite ENOSPC")
	} else if !resilience.IsPermanent(err) {
		t.Errorf("ENOSPC not classified permanent: %v", err)
	}
	if attempts != 1 {
		t.Errorf("ENOSPC write attempted %d times, want 1 (no retries on permanent failures)", attempts)
	}

	// Disk comes back; a probe re-journals the mirror and writes flow.
	failing.Delete("on")
	if err := s.Probe(); err != nil {
		t.Fatalf("probe after recovery: %v", err)
	}
	if err := s.LogPut("a", 2, dbA); err != nil {
		t.Fatalf("put after probe: %v", err)
	}
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	assertState(t, s2, map[string]DatasetState{"a": {DB: dbA, Version: 2}}, 2)
}

// TestFsyncFailureVetoesRecord: a failed fsync must reject the mutation
// AND roll the record off the log — an unacknowledged write that
// resurrected on replay would be a lie in the other direction. The
// fsync is never retried (one failure means the kernel may have dropped
// the dirty pages; a passing retry proves nothing).
func TestFsyncFailureVetoesRecord(t *testing.T) {
	dir := t.TempDir()
	si := newScriptInjector()
	s := mustOpen(t, dir, Options{Injector: si, Retry: noSleep})
	dbA, dbB := testDB(1, 2, 3), testDB(2, 2, 2)
	if err := s.LogPut("a", 1, dbA); err != nil {
		t.Fatal(err)
	}

	si.push(resilience.OpWALSync, errors.New("injected fsync failure"))
	if err := s.LogPut("b", 2, dbB); err == nil {
		t.Fatal("put acknowledged despite failed fsync")
	}
	// The store must keep serving writes after the veto.
	if err := s.LogPut("c", 3, dbB); err != nil {
		t.Fatalf("put after fsync veto: %v", err)
	}

	// Crash-reopen: the vetoed record must not resurrect.
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	assertState(t, s2, map[string]DatasetState{
		"a": {DB: dbA, Version: 1},
		"c": {DB: dbB, Version: 3},
	}, 3)
	if rs := s2.RecoveryStats(); rs.Truncations != 0 {
		t.Errorf("rollback left a torn tail for recovery to fix: %+v", rs)
	}
}

// TestSnapshotFaultLeavesNoTemp: every failure path of the snapshot
// write removes its temp file, so retries and boot cleanup never trip
// over a half-written artifact.
func TestSnapshotFaultLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	si := newScriptInjector()
	s := mustOpen(t, dir, Options{Injector: si, Retry: resilience.RetryPolicy{MaxAttempts: 1, Sleep: func(time.Duration) {}}})
	defer s.Close()
	if err := s.LogPut("a", 1, testDB(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	for _, op := range []resilience.Op{
		resilience.OpSnapshotWrite,
		resilience.OpSnapshotSync,
		resilience.OpSnapshotRename,
	} {
		si.push(op, errors.New("injected "+string(op)+" failure"))
		if err := s.Snapshot(); err == nil {
			t.Fatalf("%s: snapshot succeeded despite injected fault", op)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".tmp") {
				t.Errorf("%s: temp file %q left behind", op, e.Name())
			}
		}
	}
	// With the faults drained the snapshot goes through.
	if err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot after faults drained: %v", err)
	}
}
