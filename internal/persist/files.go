package persist

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tpminer/internal/resilience"
)

// files is the store's file layer: the flat data directory that holds
// the WAL segments and the snapshots. It offers exactly what the store
// calls, and nothing reaches the disk another way:
//
//   - put is atomic: a reader, the boot scan included, sees the old
//     file or the complete new one, never a prefix;
//   - the WAL handle appends in order, syncs, and truncates an exact
//     suffix (the rollback after a failed write or fsync);
//   - sync is the directory barrier: creations, deletions and put
//     renames issued before it survive power loss.
//
// Every operation counts itself into met's tpmd_blob_* families under
// its op name, injected failures included. Each injectable step
// consults the fault injector where it happens, so a torn write lands
// real bytes and a seeded profile replays the same schedule.
type files struct {
	dir string
	inj resilience.Injector // nil: no fault injection
	// met is never nil. The store swaps it in SetMetrics under its
	// mutex, which the store's file operations also run under.
	met *Metrics
}

// blobBackend is the backend label of the tpmd_blob_* families; the
// data directory is the only backend, and the label keeps the series
// names stable.
const blobBackend = "file"

// tmpSuffix marks an in-flight put's temp file. A crash mid-put leaves
// one behind, and the boot scan removes it.
const tmpSuffix = ".tmp"

// count records one operation: the payload bytes it moved and whether
// it failed.
func (fs *files) count(op string, n int, err error) {
	fs.met.BlobOps.With(blobBackend, op).Inc()
	if n > 0 {
		fs.met.BlobBytes.With(blobBackend, op).Add(uint64(n))
	}
	if err != nil {
		fs.met.BlobErrors.With(blobBackend, op).Inc()
	}
}

// fault rolls the injector for op, sleeping any injected latency, and
// returns the planted fault; the zero Fault when injection is off.
func (fs *files) fault(op resilience.Op) resilience.Fault {
	if fs.inj == nil {
		return resilience.Fault{}
	}
	fa := fs.inj.Fault(op)
	if fa.Delay > 0 {
		time.Sleep(fa.Delay)
	}
	return fa
}

// put installs data as name: write a temp file, fsync it, rename it
// over name. Every failure removes the temp file. The three steps are
// the snapshot_write, snapshot_sync and snapshot_rename fault points.
func (fs *files) put(name string, data []byte) (err error) {
	defer func() { fs.count("put", len(data), err) }()
	final := filepath.Join(fs.dir, name)
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			// The put failed, so these errors add nothing actionable;
			// closing an already closed file only returns one.
			_ = f.Close()
			_ = os.Remove(tmp)
		}
	}()
	if err := fs.fault(resilience.OpSnapshotWrite).Err; err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := fs.fault(resilience.OpSnapshotSync).Err; err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.fault(resilience.OpSnapshotRename).Err; err != nil {
		return err
	}
	return os.Rename(tmp, final)
}

// get reads the whole file name.
func (fs *files) get(name string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(fs.dir, name))
	fs.count("get", len(data), err)
	return data, err
}

// list returns the names of the directory's non-directory entries,
// sorted (os.ReadDir sorts by name).
func (fs *files) list() ([]string, error) {
	entries, err := os.ReadDir(fs.dir)
	fs.count("list", 0, err)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// delete removes name; a missing file is not an error.
func (fs *files) delete(name string) error {
	err := os.Remove(filepath.Join(fs.dir, name))
	if errors.Is(err, os.ErrNotExist) {
		err = nil
	}
	fs.count("delete", 0, err)
	return err
}

// sync fsyncs the directory. Some filesystems refuse a directory
// fsync; the caller decides whether that is worth a warning.
func (fs *files) sync() error {
	d, err := os.Open(fs.dir)
	if err == nil {
		err = d.Sync()
		_ = d.Close() // read-only handle: nothing to flush
	}
	fs.count("sync", 0, err)
	return err
}

// openWAL opens name for appending, creating it empty if it is missing:
// the wal_open fault point.
func (fs *files) openWAL(name string) (w *walFile, err error) {
	defer func() { fs.count("append_open", 0, err) }()
	if err := fs.fault(resilience.OpWALOpen).Err; err != nil {
		return nil, err
	}
	// O_APPEND keeps every write at the current end of the file, also
	// after a truncate: the WAL's write, roll back, rewrite cycle.
	f, err := os.OpenFile(filepath.Join(fs.dir, name), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		_ = f.Close() // the open failed; the handle is unused
		return nil, err
	}
	return &walFile{fs: fs, f: f, size: fi.Size()}, nil
}

// walFile is the live WAL segment, open for appending.
type walFile struct {
	fs *files
	f  *os.File
	// size is the segment's length at open; from there the store
	// tracks the committed length itself.
	size int64
}

// write appends b: the wal_write fault point. An injected torn write
// lands a real prefix of b before it fails, as a crash mid-write would,
// and the caller's rollback must truncate it away.
func (w *walFile) write(b []byte) (n int, err error) {
	if fa := w.fs.fault(resilience.OpWALWrite); fa.Err != nil {
		if cut := int(float64(len(b)) * fa.PartialFraction); cut > 0 {
			n, _ = w.f.Write(b[:cut]) // the write fails with fa.Err either way
		}
		err = fa.Err
	} else {
		n, err = w.f.Write(b)
	}
	w.fs.count("append_write", n, err)
	return n, err
}

// sync makes every byte written so far durable: the wal_sync fault
// point.
func (w *walFile) sync() error {
	err := w.fs.fault(resilience.OpWALSync).Err
	if err == nil {
		err = w.f.Sync()
	}
	w.fs.count("append_sync", 0, err)
	return err
}

// truncate cuts the segment to exactly size bytes; later writes
// continue from the cut.
func (w *walFile) truncate(size int64) error {
	err := w.f.Truncate(size)
	w.fs.count("append_truncate", 0, err)
	return err
}

// close releases the handle without an implicit sync.
func (w *walFile) close() error { return w.f.Close() }

// isTempKey reports whether name is a leftover put's temp file.
func isTempKey(name string) bool { return strings.HasSuffix(name, tmpSuffix) }
