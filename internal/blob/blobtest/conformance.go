// Package blobtest is the shared conformance suite for blob.Store
// implementations: the file store and every decorator wrapped around it.
// It pins down the semantics internal/persist's durability invariants
// lean on — atomic Put, ErrNotFound mapping, sorted List, idempotent
// Delete, append/truncate/reopen behavior — so a decorator proves it
// keeps the contract by running one function, not by re-deriving it
// from the WAL's failure modes.
package blobtest

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"tpminer/internal/blob"
)

// Opener returns a store over the existing directory dir. The suite
// calls it with a fresh directory per subtest, and a second time on the
// same directory to simulate a process restart.
type Opener func(t *testing.T, dir string) blob.Store

// Run executes the full conformance suite against the stores open builds.
func Run(t *testing.T, open Opener) {
	fresh := func(t *testing.T) blob.Store { return open(t, t.TempDir()) }
	t.Run("PutGetRoundTrip", func(t *testing.T) { testPutGet(t, fresh(t)) })
	t.Run("NotFound", func(t *testing.T) { testNotFound(t, fresh(t)) })
	t.Run("ListPrefixSorted", func(t *testing.T) { testList(t, fresh(t)) })
	t.Run("DeleteIdempotent", func(t *testing.T) { testDelete(t, fresh(t)) })
	t.Run("KeyValidation", func(t *testing.T) { testKeys(t, fresh(t)) })
	t.Run("AppendTruncate", func(t *testing.T) { testAppend(t, fresh(t)) })
	t.Run("AppendSingleWriter", func(t *testing.T) { testSingleWriter(t, fresh(t)) })
	t.Run("GetIsolation", func(t *testing.T) { testIsolation(t, fresh(t)) })
	t.Run("ConcurrentDistinctKeys", func(t *testing.T) { testConcurrent(t, fresh(t)) })
	t.Run("SyncAfterMutations", func(t *testing.T) { testSync(t, fresh(t)) })
	t.Run("ReopenSeesData", func(t *testing.T) { testReopen(t, open) })
}

func testPutGet(t *testing.T, s blob.Store) {
	defer s.Close()
	want := []byte("hello blob")
	if err := s.Put("k", want); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, err := s.Get("k")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("get = %q, want %q", got, want)
	}
	// Overwrite fully replaces, including with shorter data.
	if err := s.Put("k", []byte("v2")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if got, _ := s.Get("k"); !bytes.Equal(got, []byte("v2")) {
		t.Errorf("after overwrite: %q, want %q", got, "v2")
	}
	// Empty objects are legal.
	if err := s.Put("empty", nil); err != nil {
		t.Fatalf("put empty: %v", err)
	}
	if got, err := s.Get("empty"); err != nil || len(got) != 0 {
		t.Errorf("get empty = %q, %v; want zero bytes, nil", got, err)
	}
}

func testNotFound(t *testing.T, s blob.Store) {
	defer s.Close()
	if _, err := s.Get("missing"); !errors.Is(err, blob.ErrNotFound) {
		t.Errorf("Get(missing) = %v, want ErrNotFound", err)
	}
}

func testList(t *testing.T, s blob.Store) {
	defer s.Close()
	for _, k := range []string{"wal-2", "snap-1", "wal-1", "other"} {
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.List("wal-")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if want := []string{"wal-1", "wal-2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("List(wal-) = %v, want %v", got, want)
	}
	all, err := s.List("")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"other", "snap-1", "wal-1", "wal-2"}; !reflect.DeepEqual(all, want) {
		t.Errorf("List() = %v, want %v", all, want)
	}
	if err := s.Delete("wal-2"); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.List("wal-"); !reflect.DeepEqual(got, []string{"wal-1"}) {
		t.Errorf("List after delete = %v, want [wal-1]", got)
	}
}

func testDelete(t *testing.T, s blob.Store) {
	defer s.Close()
	if err := s.Put("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := s.Get("k"); !errors.Is(err, blob.ErrNotFound) {
		t.Errorf("Get after delete = %v, want ErrNotFound", err)
	}
	if err := s.Delete("k"); err != nil {
		t.Errorf("second delete = %v, want nil (idempotent)", err)
	}
	if err := s.Delete("never-existed"); err != nil {
		t.Errorf("delete of absent key = %v, want nil", err)
	}
}

func testKeys(t *testing.T, s blob.Store) {
	defer s.Close()
	for _, bad := range []string{"", "a/b", `a\b`, "..", "."} {
		if err := s.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", bad)
		}
		if _, err := s.Get(bad); err == nil {
			t.Errorf("Get(%q) accepted an invalid key", bad)
		}
	}
}

func testAppend(t *testing.T, s blob.Store) {
	defer s.Close()
	a, err := s.Append("log")
	if err != nil {
		t.Fatalf("append open: %v", err)
	}
	if a.Size() != 0 {
		t.Errorf("fresh appender Size = %d, want 0", a.Size())
	}
	mustWrite(t, a, "aaaa")
	mustWrite(t, a, "bbbb")
	if a.Size() != 8 {
		t.Errorf("Size after 8 bytes = %d", a.Size())
	}
	// Appended bytes are visible to readers before Sync or Close.
	if got, err := s.Get("log"); err != nil || string(got) != "aaaabbbb" {
		t.Errorf("Get mid-append = %q, %v", got, err)
	}
	if err := a.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	// Truncate cuts an exact suffix; writes continue from the cut.
	if err := a.Truncate(6); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if a.Size() != 6 {
		t.Errorf("Size after truncate = %d, want 6", a.Size())
	}
	mustWrite(t, a, "CC")
	if err := a.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got, _ := s.Get("log"); string(got) != "aaaabbCC" {
		t.Errorf("after truncate+write: %q, want aaaabbCC", got)
	}
	// Reopening appends at the existing end.
	a2, err := s.Append("log")
	if err != nil {
		t.Fatalf("reopen appender: %v", err)
	}
	if a2.Size() != 8 {
		t.Errorf("reopened Size = %d, want 8", a2.Size())
	}
	mustWrite(t, a2, "!")
	if err := a2.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get("log"); string(got) != "aaaabbCC!" {
		t.Errorf("after reopen append: %q", got)
	}
}

func testSingleWriter(t *testing.T, s blob.Store) {
	defer s.Close()
	a, err := s.Append("log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("log"); err == nil {
		t.Error("second concurrent appender on one key was allowed")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a2, err := s.Append("log")
	if err != nil {
		t.Fatalf("append after close: %v", err)
	}
	if err := a2.Close(); err != nil {
		t.Fatal(err)
	}
}

func testIsolation(t *testing.T, s blob.Store) {
	defer s.Close()
	buf := []byte("original")
	if err := s.Put("k", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // caller scribbles on its slice after Put
	got, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Errorf("Put aliased the caller's buffer: stored %q", got)
	}
	got[0] = 'Y' // caller scribbles on Get's result
	if again, _ := s.Get("k"); string(again) != "original" {
		t.Errorf("Get aliased store memory: second read %q", again)
	}
}

func testConcurrent(t *testing.T, s blob.Store) {
	defer s.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("obj-%d", i)
			want := bytes.Repeat([]byte{byte('a' + i)}, 512)
			if err := s.Put(key, want); err != nil {
				errs <- err
				return
			}
			got, err := s.Get(key)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, want) {
				errs <- fmt.Errorf("%s: round trip mismatch", key)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if keys, _ := s.List("obj-"); len(keys) != 8 {
		t.Errorf("List found %d objects, want 8", len(keys))
	}
}

func testSync(t *testing.T, s blob.Store) {
	defer s.Close()
	if err := s.Put("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Errorf("Sync after put: %v", err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Errorf("Sync after delete: %v", err)
	}
}

func testReopen(t *testing.T, open Opener) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.Put("persisted", []byte("survives")); err != nil {
		t.Fatal(err)
	}
	a, err := s.Append("log")
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, a, "entry")
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir)
	defer s2.Close()
	if got, err := s2.Get("persisted"); err != nil || string(got) != "survives" {
		t.Errorf("reopen Get = %q, %v", got, err)
	}
	if got, err := s2.Get("log"); err != nil || string(got) != "entry" {
		t.Errorf("reopen Get(log) = %q, %v", got, err)
	}
	keys, err := s2.List("")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"log", "persisted"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("reopen List = %v, want %v", keys, want)
	}
}

func mustWrite(t *testing.T, a blob.Appender, s string) {
	t.Helper()
	n, err := a.Write([]byte(s))
	if err != nil || n != len(s) {
		t.Fatalf("write %q: n=%d err=%v", s, n, err)
	}
}
