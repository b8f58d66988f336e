package blob_test

import (
	"testing"

	"tpminer/internal/blob"
	"tpminer/internal/blob/blobtest"
	"tpminer/internal/obs"
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

func TestInstrumentedRecordsOps(t *testing.T) {
	s := blob.Instrument(openDir(t, t.TempDir()))
	reg := obs.NewRegistry()
	ops := reg.NewCounterVec("ops", "", "backend", "op")
	bytes := reg.NewCounterVec("bytes", "", "backend", "op")
	errs := reg.NewCounterVec("errs", "", "backend", "op")

	// Before the counters are attached, operations must still work.
	if err := s.Put("pre", []byte("xx")); err != nil {
		t.Fatal(err)
	}
	s.SetMetrics(ops, bytes, errs)

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

	count := func(v *obs.CounterVec, op string) uint64 { return v.With(blob.Backend, op).Value() }
	for op, want := range map[string]uint64{"put": 1, "get": 2, "list": 1, "append_open": 1, "append_write": 1, "append_sync": 1} {
		if got := count(ops, op); got != want {
			t.Errorf("ops[%s] = %d, want %d", op, got, want)
		}
	}
	if count(bytes, "put") != 5 || count(bytes, "append_write") != 3 {
		t.Errorf("byte counts: put=%d append_write=%d", count(bytes, "put"), count(bytes, "append_write"))
	}
	if got := count(errs, "get"); got != 1 {
		t.Errorf("errs[get] = %d, want 1 (the missing key)", got)
	}
	if got := count(ops, "put"); got != 1 {
		t.Errorf("pre-attach put leaked into the counts: %d", got)
	}
}
