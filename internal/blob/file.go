package blob

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// fileStore keeps every object as one file directly under dir. Put
// commits through a temp file (key + tmpSuffix) so a crash at any point
// leaves either the old object or a *.tmp the caller's recovery scan
// can discard; Sync fsyncs the directory so creates, deletes, and Put
// renames survive power loss.
type fileStore struct {
	dir string

	// appendMu serializes Appender opens per key; the interface promises
	// single-writer appenders and this catches violations early instead
	// of corrupting a log.
	appendMu sync.Mutex
	open     map[string]bool
}

// tmpSuffix marks in-flight Put temp files. Exposed to List so crash
// recovery can find and remove orphans, exactly as the persist layer's
// boot scan always has.
const tmpSuffix = ".tmp"

// NewFileStore returns the store over the existing directory dir. It
// creates nothing: a missing dir is an error naming it, so a read-only
// caller such as the WAL inspector never modifies the path it is given.
func NewFileStore(dir string) (Store, error) {
	fi, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("blob: file store: %w", err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("blob: file store: %s is not a directory", dir)
	}
	return &fileStore{dir: dir, open: make(map[string]bool)}, nil
}

func (s *fileStore) path(key string) string { return filepath.Join(s.dir, key) }

func (s *fileStore) Put(key string, data []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	final := s.path(key)
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("blob: put %s: %w", key, err)
	}
	if _, err := f.Write(data); err != nil {
		s.discardTemp(f, tmp)
		return fmt.Errorf("blob: put %s: %w", key, err)
	}
	if err := f.Sync(); err != nil {
		s.discardTemp(f, tmp)
		return fmt.Errorf("blob: put %s: fsync: %w", key, err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("blob: put %s: close: %w", key, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("blob: put %s: commit: %w", key, err)
	}
	return nil
}

// discardTemp closes and removes a failed Put's temp file; the put
// already failed, so these errors add nothing actionable.
func (s *fileStore) discardTemp(f *os.File, tmp string) {
	_ = f.Close()
	_ = os.Remove(tmp)
}

func (s *fileStore) Get(key string) ([]byte, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, wrapNotFound("get", key, err)
	}
	return data, nil
}

// wrapNotFound maps the OS's not-exist error onto the interface's
// ErrNotFound, so callers and decorators need not know the OS error.
func wrapNotFound(op, key string, err error) error {
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("blob: %s %s: %w", op, key, ErrNotFound)
	}
	return fmt.Errorf("blob: %s %s: %w", op, key, err)
}

func (s *fileStore) List(prefix string) ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("blob: list: %w", err)
	}
	var keys []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if name := e.Name(); strings.HasPrefix(name, prefix) {
			keys = append(keys, name)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

func (s *fileStore) Delete(key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	if err := os.Remove(s.path(key)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("blob: delete %s: %w", key, err)
	}
	return nil
}

func (s *fileStore) Sync() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("blob: sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// Some filesystems refuse directory fsync; the caller decides
		// whether that is warn-worthy or fatal.
		return fmt.Errorf("blob: sync %s: %w", s.dir, err)
	}
	return nil
}

func (s *fileStore) Append(key string) (Appender, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	s.appendMu.Lock()
	if s.open[key] {
		s.appendMu.Unlock()
		return nil, fmt.Errorf("blob: append %s: an appender is already open (single-writer)", key)
	}
	s.open[key] = true
	s.appendMu.Unlock()
	// O_APPEND keeps every write at the current end of file, including
	// after a Truncate — exactly the WAL's write-rollback-rewrite cycle.
	f, err := os.OpenFile(s.path(key), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		s.releaseAppender(key)
		return nil, fmt.Errorf("blob: append %s: %w", key, err)
	}
	fi, err := f.Stat()
	if err != nil {
		_ = f.Close()
		s.releaseAppender(key)
		return nil, fmt.Errorf("blob: append %s: %w", key, err)
	}
	return &fileAppender{store: s, key: key, f: f, size: fi.Size()}, nil
}

func (s *fileStore) releaseAppender(key string) {
	s.appendMu.Lock()
	delete(s.open, key)
	s.appendMu.Unlock()
}

func (s *fileStore) Close() error { return nil }

// fileAppender tracks the object size itself (one Stat at open, then
// arithmetic) so the WAL hot path never issues size syscalls.
type fileAppender struct {
	store *fileStore
	key   string
	f     *os.File
	size  int64
}

func (a *fileAppender) Write(b []byte) (int, error) {
	n, err := a.f.Write(b)
	a.size += int64(n)
	return n, err
}

func (a *fileAppender) Sync() error { return a.f.Sync() }

func (a *fileAppender) Truncate(size int64) error {
	if err := a.f.Truncate(size); err != nil {
		return err
	}
	a.size = size
	return nil
}

func (a *fileAppender) Size() int64 { return a.size }

func (a *fileAppender) Close() error {
	a.store.releaseAppender(a.key)
	return a.f.Close()
}
