package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"

	"tpminer/internal/obs"
	"tpminer/internal/resilience"
)

// newFiles returns the file layer over dir, counting on a private
// registry.
func newFiles(t *testing.T, dir string) *files {
	return &files{dir: dir, met: NewMetrics(obs.NewRegistry())}
}

// runFiles runs the file-layer contract against the layers open builds:
// over a fresh directory per subtest, and twice over one directory in
// ReopenSeesData, as a process restart would.
func runFiles(t *testing.T, open func(t *testing.T, dir string) *files) {
	fresh := func(t *testing.T) *files { return open(t, t.TempDir()) }
	t.Run("PutGetRoundTrip", func(t *testing.T) { testFilesPutGet(t, fresh(t)) })
	t.Run("NotFound", func(t *testing.T) { testFilesNotFound(t, fresh(t)) })
	t.Run("ListPrefixSorted", func(t *testing.T) { testFilesList(t, fresh(t)) })
	t.Run("DeleteIdempotent", func(t *testing.T) { testFilesDelete(t, fresh(t)) })
	t.Run("AppendTruncate", func(t *testing.T) { testFilesAppend(t, fresh(t)) })
	t.Run("GetIsolation", func(t *testing.T) { testFilesIsolation(t, fresh(t)) })
	t.Run("ConcurrentDistinctKeys", func(t *testing.T) { testFilesConcurrent(t, fresh(t)) })
	t.Run("SyncAfterMutations", func(t *testing.T) { testFilesSync(t, fresh(t)) })
	t.Run("ReopenSeesData", func(t *testing.T) { testFilesReopen(t, open) })
}

// TestFiles pins the semantics the store's durability invariants lean
// on: an atomic put that leaves nothing behind, a not-exist error for a
// missing file, a sorted list, an idempotent delete, and a WAL handle
// that appends, truncates and reopens at the end of its file.
func TestFiles(t *testing.T) {
	runFiles(t, newFiles)
}

// TestConformanceFaultStore runs the contract through the file layer
// as the chaos suite configures it, with a fault injector attached: the
// layer keeps its semantics when no fault fires, and the suite passes
// through every fault point on the way.
func TestConformanceFaultStore(t *testing.T) {
	si := newScriptInjector() // nothing queued: every roll is quiet
	runFiles(t, func(t *testing.T, dir string) *files {
		fs := newFiles(t, dir)
		fs.inj = si
		return fs
	})
	for _, op := range []resilience.Op{
		resilience.OpWALOpen, resilience.OpWALWrite, resilience.OpWALSync,
		resilience.OpSnapshotWrite, resilience.OpSnapshotSync, resilience.OpSnapshotRename,
	} {
		if si.hits[op] == 0 {
			t.Errorf("the suite never consulted the injector at %s", op)
		}
	}
}

// TestFilesCounted runs the contract through layers that share one
// registry, then reads it back: every op name was counted, and errors
// were counted only for the failures the suite provokes (gets of absent
// files, a put over a directory). A delete of a missing file and every
// other healthy operation count none.
func TestFilesCounted(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	runFiles(t, func(t *testing.T, dir string) *files {
		return &files{dir: dir, met: m}
	})
	for _, op := range []string{"put", "get", "list", "delete", "sync", "append_open", "append_write", "append_sync", "append_truncate"} {
		if m.BlobOps.With(blobBackend, op).Value() == 0 {
			t.Errorf("ops[%s] = 0 after the suite", op)
		}
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var errOps []string
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, `tpmd_blob_errors_total{backend="file",op="`); ok {
			errOps = append(errOps, rest[:strings.IndexByte(rest, '"')])
		}
	}
	if want := []string{"get", "put"}; !reflect.DeepEqual(errOps, want) {
		t.Errorf("error series for ops %q, want %q", errOps, want)
	}
}

func testFilesPutGet(t *testing.T, fs *files) {
	want := []byte("hello file")
	if err := fs.put("k", want); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, err := fs.get("k")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("get = %q, want %q", got, want)
	}
	// Overwrite fully replaces, including with shorter data.
	if err := fs.put("k", []byte("v2")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if got, _ := fs.get("k"); !bytes.Equal(got, []byte("v2")) {
		t.Errorf("after overwrite: %q, want %q", got, "v2")
	}
	// Empty files are legal.
	if err := fs.put("empty", nil); err != nil {
		t.Fatalf("put empty: %v", err)
	}
	if got, err := fs.get("empty"); err != nil || len(got) != 0 {
		t.Errorf("get empty = %q, %v; want zero bytes, nil", got, err)
	}
	// A put whose rename fails (the target is a non-empty directory)
	// reports the failure, leaves the target as it was, and removes its
	// temp file.
	if err := os.MkdirAll(filepath.Join(fs.dir, "taken", "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.put("taken", []byte("x")); err == nil {
		t.Error("put over a non-empty directory succeeded")
	}
	if fi, err := os.Stat(filepath.Join(fs.dir, "taken")); err != nil || !fi.IsDir() {
		t.Errorf("failed put disturbed its target: %v", err)
	}
	names, err := fs.list()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"empty", "k"}; !reflect.DeepEqual(names, want) {
		t.Errorf("after puts the directory lists %v, want %v: a temp file was left behind", names, want)
	}
}

func testFilesNotFound(t *testing.T, fs *files) {
	if _, err := fs.get("missing"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("get(missing) = %v, want a not-exist error", err)
	}
}

// testFilesList: the listing is sorted, so the segments the store picks
// out of it by prefix come in sequence order (the names are
// zero-padded), and subdirectories are not files of the layer.
func testFilesList(t *testing.T, fs *files) {
	for _, k := range []string{walName(10), snapshotName(3), walName(2), "other"} {
		if err := fs.put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(fs.dir, "subdir"), 0o755); err != nil {
		t.Fatal(err)
	}
	wals := func() []string {
		all, err := fs.list()
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, k := range all {
			if isWALKey(k) {
				out = append(out, k)
			}
		}
		return out
	}
	all, err := fs.list()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"other", snapshotName(3), walName(2), walName(10)}; !reflect.DeepEqual(all, want) {
		t.Errorf("list = %v, want %v", all, want)
	}
	if got, want := wals(), []string{walName(2), walName(10)}; !reflect.DeepEqual(got, want) {
		t.Errorf("WAL segments = %v, want %v", got, want)
	}
	if err := fs.delete(walName(10)); err != nil {
		t.Fatal(err)
	}
	if got, want := wals(), []string{walName(2)}; !reflect.DeepEqual(got, want) {
		t.Errorf("WAL segments after delete = %v, want %v", got, want)
	}
}

func testFilesDelete(t *testing.T, fs *files) {
	if err := fs.put("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.delete("k"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := fs.get("k"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("get after delete = %v, want a not-exist error", err)
	}
	if err := fs.delete("k"); err != nil {
		t.Errorf("second delete = %v, want nil (idempotent)", err)
	}
	if err := fs.delete("never-existed"); err != nil {
		t.Errorf("delete of an absent file = %v, want nil", err)
	}
}

func testFilesAppend(t *testing.T, fs *files) {
	w, err := fs.openWAL("log")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if w.size != 0 {
		t.Errorf("fresh WAL size = %d, want 0", w.size)
	}
	mustWrite(t, w, "aaaa")
	mustWrite(t, w, "bbbb")
	// Appended bytes are visible to readers before sync or close.
	if got, err := fs.get("log"); err != nil || string(got) != "aaaabbbb" {
		t.Errorf("get mid-append = %q, %v", got, err)
	}
	if err := w.sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	// Truncate cuts an exact suffix; writes continue from the cut.
	if err := w.truncate(6); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if got, err := fs.get("log"); err != nil || string(got) != "aaaabb" {
		t.Errorf("get after truncate = %q, %v, want aaaabb", got, err)
	}
	mustWrite(t, w, "CC")
	if err := w.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got, _ := fs.get("log"); string(got) != "aaaabbCC" {
		t.Errorf("after truncate+write: %q, want aaaabbCC", got)
	}
	// Reopening appends at the existing end.
	w2, err := fs.openWAL("log")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if w2.size != 8 {
		t.Errorf("reopened size = %d, want 8", w2.size)
	}
	mustWrite(t, w2, "!")
	if err := w2.close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.get("log"); string(got) != "aaaabbCC!" {
		t.Errorf("after reopen append: %q", got)
	}
}

func testFilesIsolation(t *testing.T, fs *files) {
	buf := []byte("original")
	if err := fs.put("k", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // caller scribbles on its slice after put
	got, err := fs.get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Errorf("put aliased the caller's buffer: stored %q", got)
	}
	got[0] = 'Y' // caller scribbles on get's result
	if again, _ := fs.get("k"); string(again) != "original" {
		t.Errorf("get aliased stored bytes: second read %q", again)
	}
}

func testFilesConcurrent(t *testing.T, fs *files) {
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("obj-%d", i)
			want := bytes.Repeat([]byte{byte('a' + i)}, 512)
			if err := fs.put(key, want); err != nil {
				errs <- err
				return
			}
			got, err := fs.get(key)
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
	if names, _ := fs.list(); len(names) != 8 {
		t.Errorf("list found %d files, want 8: %v", len(names), names)
	}
}

func testFilesSync(t *testing.T, fs *files) {
	if err := fs.put("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.sync(); err != nil {
		t.Errorf("sync after put: %v", err)
	}
	if err := fs.delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := fs.sync(); err != nil {
		t.Errorf("sync after delete: %v", err)
	}
}

func testFilesReopen(t *testing.T, open func(t *testing.T, dir string) *files) {
	dir := t.TempDir()
	fs := open(t, dir)
	if err := fs.put("persisted", []byte("survives")); err != nil {
		t.Fatal(err)
	}
	w, err := fs.openWAL("log")
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, w, "entry")
	if err := w.sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	fs2 := open(t, dir)
	if got, err := fs2.get("persisted"); err != nil || string(got) != "survives" {
		t.Errorf("reopen get = %q, %v", got, err)
	}
	if got, err := fs2.get("log"); err != nil || string(got) != "entry" {
		t.Errorf("reopen get(log) = %q, %v", got, err)
	}
	names, err := fs2.list()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"log", "persisted"}; !reflect.DeepEqual(names, want) {
		t.Errorf("reopen list = %v, want %v", names, want)
	}
}

func mustWrite(t *testing.T, w *walFile, s string) {
	t.Helper()
	n, err := w.write([]byte(s))
	if err != nil || n != len(s) {
		t.Fatalf("write %q: n=%d err=%v", s, n, err)
	}
}

// TestFilesCountsEveryOp: the file layer counts each operation under
// its op name with the payload bytes it moved, and an error only for an
// operation that failed. A torn write counts the prefix that landed.
func TestFilesCountsEveryOp(t *testing.T) {
	tear := true
	inj := injectorFunc(func(op resilience.Op) resilience.Fault {
		if op == resilience.OpWALWrite && tear {
			tear = false
			return resilience.Fault{Err: syscall.EIO, PartialFraction: 0.5}
		}
		return resilience.Fault{}
	})
	m := NewMetrics(obs.NewRegistry())
	fs := &files{dir: t.TempDir(), inj: inj, met: m}

	if err := fs.put("k", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.get("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.get("missing"); err == nil {
		t.Fatal("get of a missing file succeeded")
	}
	if _, err := fs.list(); err != nil {
		t.Fatal(err)
	}
	if err := fs.delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := fs.sync(); err != nil {
		t.Fatal(err)
	}
	w, err := fs.openWAL("log")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := w.write([]byte("abcd")); !errors.Is(err, syscall.EIO) || n != 2 {
		t.Fatalf("torn write = %d, %v; want 2, EIO", n, err)
	}
	if err := w.truncate(0); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, w, "abcd")
	if err := w.sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	count := func(v *obs.CounterVec, op string) uint64 { return v.With(blobBackend, op).Value() }
	for op, want := range map[string]uint64{
		"put": 1, "get": 2, "list": 1, "delete": 1, "sync": 1,
		"append_open": 1, "append_write": 2, "append_sync": 1, "append_truncate": 1,
	} {
		if got := count(m.BlobOps, op); got != want {
			t.Errorf("ops[%s] = %d, want %d", op, got, want)
		}
	}
	for op, want := range map[string]uint64{"put": 5, "get": 5, "append_write": 2 + 4} {
		if got := count(m.BlobBytes, op); got != want {
			t.Errorf("bytes[%s] = %d, want %d", op, got, want)
		}
	}
	for op, want := range map[string]uint64{"get": 1, "append_write": 1, "put": 0, "delete": 0, "append_truncate": 0} {
		if got := count(m.BlobErrors, op); got != want {
			t.Errorf("errors[%s] = %d, want %d", op, got, want)
		}
	}
}

// TestSetMetricsWiresBlobOps: once SetMetrics attaches a registry, the
// file layer beneath the store counts every operation under its op
// name — and nothing from before the attach — with the payload bytes it
// moved, and an error series only for an operation that failed,
// injected failures included.
func TestSetMetricsWiresBlobOps(t *testing.T) {
	dir := t.TempDir()
	si := newScriptInjector()
	s := mustOpen(t, dir, Options{Injector: si, Retry: noSleep})
	defer s.Close()
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	s.SetMetrics(m)

	if err := s.LogPut("d", 1, testDB(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	// One failed write: the rollback truncates, and the retry commits.
	si.push(resilience.OpWALWrite, errors.New("injected write failure"))
	if err := s.LogPut("e", 2, testDB(2, 1, 1)); err != nil {
		t.Fatal(err)
	}
	_, walBytes := walSize(t, dir)
	// A snapshot puts, syncs the directory, rotates the WAL (sync,
	// open) and lists and deletes the superseded segment.
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snapshot, err := s.files.get(snapshotName(2))
	if err != nil {
		t.Fatal(err)
	}

	count := func(v *obs.CounterVec, op string) uint64 { return v.With(blobBackend, op).Value() }
	for op, want := range map[string]uint64{
		"put": 1, "get": 1, "list": 1, "delete": 1, "sync": 3,
		"append_open": 1, "append_write": 3, "append_sync": 3, "append_truncate": 1,
	} {
		if got := count(m.BlobOps, op); got != want {
			t.Errorf("ops[%s] = %d, want %d", op, got, want)
		}
	}
	if got, want := count(m.BlobBytes, "put"), uint64(len(snapshot)); got != want {
		t.Errorf("bytes[put] = %d, want the snapshot's %d", got, want)
	}
	if got := count(m.BlobBytes, "get"); got != uint64(len(snapshot)) {
		t.Errorf("bytes[get] = %d, want the snapshot's %d", got, len(snapshot))
	}
	if got := count(m.BlobBytes, "append_write"); got != uint64(walBytes) {
		t.Errorf("bytes[append_write] = %d, want the segment's %d", got, walBytes)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var errSeries []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "tpmd_blob_errors_total{") {
			errSeries = append(errSeries, line)
		}
	}
	if want := []string{`tpmd_blob_errors_total{backend="file",op="append_write"} 1`}; !reflect.DeepEqual(errSeries, want) {
		t.Errorf("error series = %q, want %q", errSeries, want)
	}
}

// TestInspectStoreReportsUnreadableSnapshot: an unreadable snapshot
// must surface as an UNREADABLE entry (with the error), not as a
// phantom 0-byte file, and must not abort the rest of the dump. A
// dangling symlink is listed like any file but cannot be read, even by
// root, which a permission bit cannot achieve.
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
	unreadable := snapshotName(99)
	if err := os.Symlink(filepath.Join(dir, "no-such-target"), filepath.Join(dir, unreadable)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := Inspect(dir, &buf); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "snapshot "+unreadable+"  UNREADABLE: ") {
		t.Errorf("unreadable snapshot not reported:\n%s", out)
	}
	if strings.Contains(out, ".snap  0 bytes") {
		t.Errorf("unreadable snapshot reported with a phantom size:\n%s", out)
	}
	if !strings.Contains(out, "version=1 datasets=1") {
		t.Errorf("readable snapshot missing from the dump:\n%s", out)
	}
	if !strings.Contains(out, "wal wal-") {
		t.Errorf("WAL dump missing after the unreadable snapshot:\n%s", out)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
