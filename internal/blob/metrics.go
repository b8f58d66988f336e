package blob

import "sync/atomic"

// Metrics receives one call per store operation. Implementations must
// be safe for concurrent use; internal/server adapts this onto the
// tpmd_blob_{ops,bytes,errors}_total{backend,op} Prometheus families.
type Metrics interface {
	// Op records one completed operation: the operation name ("put",
	// "get", "list", "delete", "sync", "append_open", "append_write",
	// "append_sync", "append_truncate"), the payload bytes moved (0 when
	// the op moves none), and the error outcome (nil on success).
	Op(op string, n int, err error)
}

// Instrumented wraps a Store and reports every operation to a sink that
// can be attached after construction — the server wires its registry in
// once metrics exist, the way persist.SetMetrics always has. A nil sink
// costs one atomic load per operation.
type Instrumented struct {
	inner Store
	sink  atomic.Pointer[Metrics]
}

// Instrument wraps s; attach a sink with SetMetrics.
func Instrument(s Store) *Instrumented { return &Instrumented{inner: s} }

// SetMetrics attaches (or replaces) the metrics sink.
func (s *Instrumented) SetMetrics(m Metrics) {
	if m == nil {
		s.sink.Store(nil)
		return
	}
	s.sink.Store(&m)
}

func (s *Instrumented) record(op string, n int, err error) {
	if m := s.sink.Load(); m != nil {
		(*m).Op(op, n, err)
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
