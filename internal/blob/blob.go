// Package blob is persistence's storage seam: a flat namespace of
// named byte objects kept as files in one local directory, behind a
// Store interface small enough that persist's fault-injection decorator,
// the metrics decorator and test stubs implement it too.
//
// # Commit semantics
//
// The interface encodes the two durability contracts internal/persist
// relies on:
//
//   - Put is atomic: a reader (including a crash-recovery scan) sees
//     either the complete object or no object — never a prefix. The
//     file store implements this with the classic temp-file, write,
//     fsync, rename dance.
//   - Append is ordered and truncatable: an Appender writes at the end
//     of the object, Sync makes acknowledged bytes durable, and
//     Truncate cuts an exact suffix off (the WAL's rollback primitive
//     after a failed write or fsync).
//
// Store.Sync is the namespace barrier: after it returns, object
// creations, deletions, and Put renames that happened before the call
// survive power loss (a directory fsync).
//
// The conformance suite in internal/blob/blobtest pins these semantics;
// the file store and both decorators run it.
package blob

import (
	"errors"
	"fmt"
	"strings"
)

// ErrNotFound is wrapped by Get when the key has no object.
var ErrNotFound = errors.New("blob: object not found")

// Store is one flat namespace of byte objects. Implementations must be
// safe for concurrent use by multiple goroutines, with one exception:
// at most one Appender per key may be open at a time (the WAL is
// single-writer by design).
type Store interface {
	// Put atomically installs data under key, replacing any existing
	// object. Readers never observe a partial object: on return with a
	// nil error the object is complete and durable; on error the
	// previous object (or absence) is intact and no partial artifact
	// outlives the call.
	Put(key string, data []byte) error

	// Get reads the complete object at key. A missing key reports an
	// error wrapping ErrNotFound. The returned slice is the caller's to
	// keep.
	Get(key string) ([]byte, error)

	// List returns the keys that start with prefix, sorted ascending.
	// An empty prefix lists everything.
	List(prefix string) ([]string, error)

	// Delete removes the object at key. Deleting a missing key is not
	// an error (idempotent).
	Delete(key string) error

	// Sync is the namespace durability barrier: object creations,
	// deletions, and Put commits issued before the call survive power
	// loss once it returns.
	Sync() error

	// Append opens key for appending, creating an empty object if none
	// exists. Bytes written become visible to Get immediately and
	// durable after Appender.Sync.
	Append(key string) (Appender, error)

	// Close releases the store's resources; the objects outlive it.
	Close() error
}

// Appender is an open append-only handle on one object.
type Appender interface {
	// Write appends b at the current end of the object. A short or
	// failed write may leave a prefix of b appended (a torn write);
	// Truncate is the recovery primitive.
	Write(b []byte) (n int, err error)

	// Sync makes every byte written so far durable.
	Sync() error

	// Truncate cuts the object to exactly size bytes. Subsequent
	// writes continue from the new end.
	Truncate(size int64) error

	// Size returns the object's current length in bytes.
	Size() int64

	// Close releases the handle without an implicit Sync.
	Close() error
}

// validKey rejects keys that could escape a flat namespace: empty keys
// and path separators would turn keys into relative paths.
func validKey(key string) error {
	if key == "" {
		return errors.New("blob: empty key")
	}
	if strings.ContainsAny(key, "/\\") || key == "." || key == ".." {
		return fmt.Errorf("blob: key %q must be a flat name without path separators", key)
	}
	return nil
}
