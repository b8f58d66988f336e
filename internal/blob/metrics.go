package blob

import (
	"sync/atomic"

	"tpminer/internal/obs"
)

// Backend is the backend label value of the blob counter families. The
// file store is the only backend; the label keeps the series names
// stable.
const Backend = "file"

// Instrumented wraps a Store and counts every operation into three
// counter families labelled (backend, op) — operations, payload bytes
// moved, and errors. The operation names are "put", "get", "list",
// "delete", "sync", "append_open", "append_write", "append_sync" and
// "append_truncate". internal/persist registers the families
// (tpmd_blob_{ops,bytes,errors}_total) and attaches them with
// SetMetrics; until then operations go uncounted, at the cost of one
// atomic load each.
type Instrumented struct {
	inner Store
	c     atomic.Pointer[counters]
}

type counters struct{ ops, bytes, errs *obs.CounterVec }

// Instrument wraps s; attach the counter families with SetMetrics.
func Instrument(s Store) *Instrumented { return &Instrumented{inner: s} }

// SetMetrics attaches (or replaces) the operation, byte and error
// families, each labelled (backend, op).
func (s *Instrumented) SetMetrics(ops, bytes, errs *obs.CounterVec) {
	s.c.Store(&counters{ops: ops, bytes: bytes, errs: errs})
}

// record counts one completed operation: the payload bytes it moved (0
// when it moves none) and its error outcome.
func (s *Instrumented) record(op string, n int, err error) {
	c := s.c.Load()
	if c == nil {
		return
	}
	c.ops.With(Backend, op).Inc()
	if n > 0 {
		c.bytes.With(Backend, op).Add(uint64(n))
	}
	if err != nil {
		c.errs.With(Backend, op).Inc()
	}
}

func (s *Instrumented) Put(key string, data []byte) error {
	err := s.inner.Put(key, data)
	s.record("put", len(data), err)
	return err
}

func (s *Instrumented) Get(key string) ([]byte, error) {
	data, err := s.inner.Get(key)
	s.record("get", len(data), err)
	return data, err
}

func (s *Instrumented) List(prefix string) ([]string, error) {
	keys, err := s.inner.List(prefix)
	s.record("list", 0, err)
	return keys, err
}

func (s *Instrumented) Delete(key string) error {
	err := s.inner.Delete(key)
	s.record("delete", 0, err)
	return err
}

func (s *Instrumented) Sync() error {
	err := s.inner.Sync()
	s.record("sync", 0, err)
	return err
}

func (s *Instrumented) Append(key string) (Appender, error) {
	a, err := s.inner.Append(key)
	s.record("append_open", 0, err)
	if err != nil {
		return nil, err
	}
	return &instrumentedAppender{inner: a, store: s}, nil
}

func (s *Instrumented) Close() error { return s.inner.Close() }

type instrumentedAppender struct {
	inner Appender
	store *Instrumented
}

func (a *instrumentedAppender) Write(b []byte) (int, error) {
	n, err := a.inner.Write(b)
	a.store.record("append_write", n, err)
	return n, err
}

func (a *instrumentedAppender) Sync() error {
	err := a.inner.Sync()
	a.store.record("append_sync", 0, err)
	return err
}

func (a *instrumentedAppender) Truncate(size int64) error {
	err := a.inner.Truncate(size)
	a.store.record("append_truncate", 0, err)
	return err
}

func (a *instrumentedAppender) Size() int64 { return a.inner.Size() }

func (a *instrumentedAppender) Close() error { return a.inner.Close() }
