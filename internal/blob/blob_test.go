package blob_test

import (
	"sync"
	"testing"

	"tpminer/internal/blob"
	"tpminer/internal/blob/blobtest"
)

func openDir(t *testing.T, dir string) blob.Store {
	t.Helper()
	s, err := blob.NewFileStore(dir)
	if err != nil {
		t.Fatalf("NewFileStore(%s): %v", dir, err)
	}
	return s
}

func TestConformanceFile(t *testing.T) {
	blobtest.Run(t, openDir)
}

// TestConformanceInstrumented proves the metrics decorator is
// semantics-preserving by running the full suite through it.
func TestConformanceInstrumented(t *testing.T) {
	blobtest.Run(t, func(t *testing.T, dir string) blob.Store {
		return blob.Instrument(openDir(t, dir))
	})
}

// opCount is a Metrics sink recording per-op counts, bytes, and errors.
type opCount struct {
	mu    sync.Mutex
	ops   map[string]int
	bytes map[string]int
	errs  map[string]int
}

func (c *opCount) Op(op string, n int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops[op]++
	c.bytes[op] += n
	if err != nil {
		c.errs[op]++
	}
}

func TestInstrumentedRecordsOps(t *testing.T) {
	s := blob.Instrument(openDir(t, t.TempDir()))
	sink := &opCount{ops: map[string]int{}, bytes: map[string]int{}, errs: map[string]int{}}

	// Before a sink is attached, operations must still work.
	if err := s.Put("pre", []byte("xx")); err != nil {
		t.Fatal(err)
	}
	s.SetMetrics(sink)

	if err := s.Put("k", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("missing"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := s.List(""); err != nil {
		t.Fatal(err)
	}
	a, err := s.Append("log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	for op, want := range map[string]int{"put": 1, "get": 2, "list": 1, "append_open": 1, "append_write": 1, "append_sync": 1} {
		if sink.ops[op] != want {
			t.Errorf("ops[%s] = %d, want %d", op, sink.ops[op], want)
		}
	}
	if sink.bytes["put"] != 5 || sink.bytes["append_write"] != 3 {
		t.Errorf("byte counts: put=%d append_write=%d", sink.bytes["put"], sink.bytes["append_write"])
	}
	if sink.errs["get"] != 1 {
		t.Errorf("errs[get] = %d, want 1 (the missing key)", sink.errs["get"])
	}
	if sink.ops["put"] != 1 {
		t.Errorf("pre-sink put leaked into the counts: %d", sink.ops["put"])
	}
}
