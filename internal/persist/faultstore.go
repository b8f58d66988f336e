package persist

import (
	"time"

	"tpminer/internal/blob"
	"tpminer/internal/resilience"
)

// faultStore is the persistence layer's fault-injection seam on the
// blob.Store boundary: a decorator that consults a resilience.Injector
// before delegating to the file store. The key's role decides which
// injection ops apply — WAL segments (wal-*.log) answer to
// wal_open/wal_write/wal_sync, snapshots (snapshot-*.snap) to
// snapshot_write/snapshot_sync/snapshot_rename — which keeps every
// existing -fault-profile spec meaningful.
//
// Because Put is atomic at the interface, a fault injected on any of
// its three sub-ops (write, sync, rename) simply fails the Put before
// the inner store runs: from the outside that is indistinguishable
// from the old temp-file dance failing at that step, since every
// failure path there removed the temp file anyway. Torn writes stay
// real on the WAL path: an injected partial append lands a prefix of
// the frame through the inner appender before the error is reported,
// exactly what a crash mid-write leaves on a real disk.
type faultStore struct {
	blob.Store
	inj resilience.Injector
}

// newFaultStore wraps inner; inj must be non-nil.
func newFaultStore(inner blob.Store, inj resilience.Injector) *faultStore {
	return &faultStore{Store: inner, inj: inj}
}

// isWALKey/isSnapshotKey classify a blob key by the persist layout.
func isWALKey(key string) bool {
	_, ok := parseSeqName(key, "wal-", ".log")
	return ok
}

func isSnapshotKey(key string) bool {
	_, ok := parseSeqName(key, "snapshot-", ".snap")
	return ok
}

// consult rolls the injector for op, sleeping any injected latency, and
// returns the fault decision.
func (s *faultStore) consult(op resilience.Op) resilience.Fault {
	fa := s.inj.Fault(op)
	if fa.Delay > 0 {
		time.Sleep(fa.Delay)
	}
	return fa
}

func (s *faultStore) Put(key string, data []byte) error {
	if isSnapshotKey(key) {
		// Mirror the commit pipeline's three fault points in order;
		// failing any one fails the whole atomic Put.
		for _, op := range []resilience.Op{
			resilience.OpSnapshotWrite,
			resilience.OpSnapshotSync,
			resilience.OpSnapshotRename,
		} {
			if fa := s.consult(op); fa.Err != nil {
				return fa.Err
			}
		}
	}
	return s.Store.Put(key, data)
}

func (s *faultStore) Append(key string) (blob.Appender, error) {
	wal := isWALKey(key)
	if wal {
		if fa := s.consult(resilience.OpWALOpen); fa.Err != nil {
			return nil, fa.Err
		}
	}
	a, err := s.Store.Append(key)
	if err != nil {
		return nil, err
	}
	if !wal {
		return a, nil
	}
	return &faultAppender{Appender: a, store: s}, nil
}

// faultAppender injects on the WAL's write and fsync paths. An injected
// partial write lands a real prefix of b through the inner appender
// before reporting the error — a torn write with genuine bytes on the
// backend, which recovery must truncate away.
type faultAppender struct {
	blob.Appender
	store *faultStore
}

func (a *faultAppender) Write(b []byte) (int, error) {
	if fa := a.store.consult(resilience.OpWALWrite); fa.Err != nil {
		n := 0
		if fa.PartialFraction > 0 {
			if cut := int(float64(len(b)) * fa.PartialFraction); cut > 0 {
				n, _ = a.Appender.Write(b[:cut])
			}
		}
		return n, fa.Err
	}
	return a.Appender.Write(b)
}

func (a *faultAppender) Sync() error {
	if fa := a.store.consult(resilience.OpWALSync); fa.Err != nil {
		return fa.Err
	}
	return a.Appender.Sync()
}
