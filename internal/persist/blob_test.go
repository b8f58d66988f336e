package persist

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tpminer/internal/blob"
	"tpminer/internal/blob/blobtest"
	"tpminer/internal/resilience"
)

// TestConformanceFaultStore proves the fault decorator keeps the blob
// contract when no fault fires, by running the full suite through it.
func TestConformanceFaultStore(t *testing.T) {
	quiet := injectorFunc(func(resilience.Op) resilience.Fault { return resilience.Fault{} })
	blobtest.Run(t, func(t *testing.T, dir string) blob.Store {
		bs, err := blob.NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return newFaultStore(bs, quiet)
	})
}

// failGetStore makes snapshot blobs unreadable, standing in for a
// stat/read failure on disk.
type failGetStore struct{ blob.Store }

func (s failGetStore) Get(key string) ([]byte, error) {
	if isSnapshotKey(key) {
		return nil, errors.New("injected read failure")
	}
	return s.Store.Get(key)
}

// TestInspectStoreReportsUnreadableSnapshot: an unreadable snapshot
// must surface as an UNREADABLE entry (with the error), not as a
// phantom 0-byte file, and must not abort the rest of the dump.
func TestInspectStoreReportsUnreadableSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{FsyncMode: FsyncAlways})
	if err := s.LogPut("d", 1, testDB(1, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.LogPut("e", 2, testDB(2, 1, 2)); err != nil {
		t.Fatal(err)
	}

	bs, err := blob.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	var buf bytes.Buffer
	if err := inspect(failGetStore{bs}, dir, &buf); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "UNREADABLE: injected read failure") {
		t.Errorf("unreadable snapshot not reported:\n%s", out)
	}
	if strings.Contains(out, ".snap  0 bytes") {
		t.Errorf("unreadable snapshot reported with a phantom size:\n%s", out)
	}
	if !strings.Contains(out, "wal wal-") {
		t.Errorf("WAL dump missing after the unreadable snapshot:\n%s", out)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// nopMetrics satisfies Metrics with no-ops, for stubs that care about
// one method.
type nopMetrics struct{}

func (nopMetrics) WALBytes(int64)                       {}
func (nopMetrics) RecordAppended()                      {}
func (nopMetrics) FsyncDone()                           {}
func (nopMetrics) SnapshotDone(time.Duration)           {}
func (nopMetrics) RecoveryDone(time.Duration, int, int) {}
func (nopMetrics) RetryDone(string)                     {}
func (nopMetrics) BlobOp(string, int, error)            {}

// blobOpCount is a Metrics stub counting BlobOp deliveries.
type blobOpCount struct {
	nopMetrics
	ops  atomic.Int64
	errs atomic.Int64
}

func (m *blobOpCount) BlobOp(op string, n int, err error) {
	m.ops.Add(1)
	if err != nil {
		m.errs.Add(1)
	}
}

// TestSetMetricsWiresBlobOps: attaching persist metrics must start the
// per-operation blob accounting beneath the store.
func TestSetMetricsWiresBlobOps(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{FsyncMode: FsyncAlways})
	defer s.Close()
	m := &blobOpCount{}
	s.SetMetrics(m)
	if err := s.LogPut("d", 1, testDB(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if m.ops.Load() == 0 {
		t.Fatal("no blob ops recorded after a logged mutation")
	}
	if m.errs.Load() != 0 {
		t.Fatalf("%d blob errors recorded on a healthy store", m.errs.Load())
	}
}
