package server

import (
	"fmt"
	"sync"

	"tpminer/internal/incremental"
	"tpminer/internal/interval"
	"tpminer/internal/shard"
)

// storeJournal is the durability hook on the store's mutation paths.
// Each method is called with the version the mutation is about to
// install, *before* the mutation becomes visible; an error vetoes the
// mutation (commit-before-visible write-ahead logging). internal/persist
// implements it; a nil journal keeps the store purely in-memory.
type storeJournal interface {
	LogPut(name string, version uint64, db *interval.Database) error
	LogAppend(name string, version uint64, add *interval.Database) error
	LogDelete(name string, version uint64) error
	LogJobPut(id string, version uint64, spec []byte) error
	LogJobDelete(id string, version uint64) error
	LogJobResult(id string, version uint64, result []byte) error
}

// journalError marks a failure in the durability layer (as opposed to
// client-attributable validation), so handlers map it to a 500.
type journalError struct{ err error }

func (e *journalError) Error() string { return e.err.Error() }
func (e *journalError) Unwrap() error { return e.err }

// datasetStore holds the server's named datasets with a monotonic
// version per dataset. Stored databases are immutable: PUT installs a
// fresh database, and append replaces the entry with a copy-on-write
// extension instead of mutating in place. Readers (summaries and mining
// snapshots) therefore share the stored pointer with no cloning and no
// lock held during the mine.
//
// Versions drive exact cache invalidation: every mutation (PUT, append,
// DELETE) draws from one store-wide counter, so a dataset deleted and
// re-created never repeats a version and a (name, version) pair
// identifies one immutable database state forever. With a journal
// attached, recovery restores the counter across restarts, preserving
// that invariant for cache keys and strong ETags.
type datasetStore struct {
	mu      sync.RWMutex
	entries map[string]*datasetEntry
	verSeq  uint64
	journal storeJournal // nil = in-memory only

	// shards/shardMinSeqs configure the mining partition kept on each
	// entry (see datasetEntry.part). Set once at server construction,
	// before any entry exists; zero values partition everything into a
	// single shard (unsharded mining).
	shards       int
	shardMinSeqs int

	// onPartition, when set, observes every freshly computed partition
	// (put, append, recovery load) — the hook behind the shard-skew
	// gauge. Called with the store lock held; must be cheap.
	onPartition func(p *shard.Partition)
}

// datasetEntry is one stored dataset. The summary is computed once at
// mutation time — incrementally on append — so list and GET never walk
// interval data under the read lock; symbols carries the distinct
// symbol set forward to make the summary update O(increment).
type datasetEntry struct {
	db      *interval.Database // immutable once stored
	version uint64
	summary DatasetSummary
	symbols map[string]struct{}

	// part is the dataset's mining partition, computed at mutation time
	// so shard IDs stay stable across mines: appends extend it in place
	// (new sequences fill the least-loaded shards) and only a load-skew
	// past the threshold or an effective-shard-count change triggers a
	// full repartition. Like db, immutable once stored.
	part *shard.Partition
}

func newDatasetStore() *datasetStore {
	return &datasetStore{entries: make(map[string]*datasetEntry)}
}

// buildEntry computes the stored form of a freshly installed database:
// its summary and distinct-symbol set, both in one O(db) pass, plus a
// fresh mining partition.
func (st *datasetStore) buildEntry(name string, db *interval.Database, version uint64) *datasetEntry {
	symbols := make(map[string]struct{})
	intervals := 0
	for i := range db.Sequences {
		seq := &db.Sequences[i]
		intervals += len(seq.Intervals)
		for _, iv := range seq.Intervals {
			symbols[iv.Symbol] = struct{}{}
		}
	}
	sum := DatasetSummary{
		Name:      name,
		Sequences: db.Len(),
		Intervals: intervals,
		Symbols:   len(symbols),
	}
	if sum.Sequences > 0 {
		sum.AvgSeqLen = float64(sum.Intervals) / float64(sum.Sequences)
	}
	return &datasetEntry{
		db:      db,
		version: version,
		summary: sum,
		symbols: symbols,
		part:    shard.New(db, st.shards, st.shardMinSeqs),
	}
}

// extendEntry derives the entry for old extended by add: the sequence
// slice headers are copied shallowly (the stored database is immutable,
// so the interval arrays are shared, never cloned — appends cost
// O(sequences + increment), not O(total intervals)), and the summary is
// updated incrementally from the increment alone. The partition extends
// with stable shard IDs unless the append skews it past the threshold.
func (st *datasetStore) extendEntry(old *datasetEntry, add *interval.Database, version uint64) *datasetEntry {
	grown := &interval.Database{
		Sequences: make([]interval.Sequence, 0, len(old.db.Sequences)+len(add.Sequences)),
	}
	grown.Sequences = append(grown.Sequences, old.db.Sequences...)
	grown.Sequences = append(grown.Sequences, add.Sequences...)

	symbols := make(map[string]struct{}, len(old.symbols))
	for sym := range old.symbols {
		symbols[sym] = struct{}{}
	}
	addIntervals := 0
	for i := range add.Sequences {
		addIntervals += len(add.Sequences[i].Intervals)
		for _, iv := range add.Sequences[i].Intervals {
			symbols[iv.Symbol] = struct{}{}
		}
	}
	sum := old.summary
	sum.Sequences += add.Len()
	sum.Intervals += addIntervals
	sum.Symbols = len(symbols)
	if sum.Sequences > 0 {
		sum.AvgSeqLen = float64(sum.Intervals) / float64(sum.Sequences)
	}
	part := old.part
	if part == nil {
		part = shard.New(grown, st.shards, st.shardMinSeqs)
	} else {
		part = part.Extend(grown, st.shards, st.shardMinSeqs, shard.DefaultSkewThreshold)
	}
	return &datasetEntry{db: grown, version: version, summary: sum, symbols: symbols, part: part}
}

// load seeds one recovered dataset without journaling it (it is already
// durable). Only used while wiring up a server, before traffic.
func (st *datasetStore) load(name string, db *interval.Database, version uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	entry := st.buildEntry(name, db, version)
	st.entries[name] = entry
	if version > st.verSeq {
		st.verSeq = version
	}
	if st.onPartition != nil {
		st.onPartition(entry.part)
	}
}

// setVersionFloor raises the store's version counter to at least seq,
// restoring monotonicity across restarts (deletes bump the counter too,
// so the recovered floor can exceed every surviving dataset's version).
func (st *datasetStore) setVersionFloor(seq uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if seq > st.verSeq {
		st.verSeq = seq
	}
}

// put installs db under name, bumping the version. The caller hands
// over ownership: db must not be modified afterwards. With a journal
// attached the mutation commits to the WAL first; a journal error
// rejects the put and leaves the store untouched.
func (st *datasetStore) put(name string, db *interval.Database) (version uint64, existed bool, sum DatasetSummary, err error) {
	entry := st.buildEntry(name, db, 0)
	st.mu.Lock()
	defer st.mu.Unlock()
	ver := st.verSeq + 1
	if st.journal != nil {
		if err := st.journal.LogPut(name, ver, db); err != nil {
			return 0, false, DatasetSummary{}, &journalError{fmt.Errorf("persist put: %w", err)}
		}
	}
	_, existed = st.entries[name]
	st.verSeq = ver
	entry.version = ver
	st.entries[name] = entry
	if st.onPartition != nil {
		st.onPartition(entry.part)
	}
	return ver, existed, entry.summary, nil
}

// snapshot returns the named dataset's current database, its mining
// partition, and version. Database and partition are immutable and safe
// to read concurrently; callers must not modify them.
func (st *datasetStore) snapshot(name string) (*interval.Database, *shard.Partition, uint64, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	e, ok := st.entries[name]
	if !ok {
		return nil, nil, 0, false
	}
	return e.db, e.part, e.version, true
}

// stat returns the named dataset's precomputed summary and version.
func (st *datasetStore) stat(name string) (DatasetSummary, uint64, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	e, ok := st.entries[name]
	if !ok {
		return DatasetSummary{}, 0, false
	}
	return e.summary, e.version, true
}

// append extends the named dataset with add's sequences, copy-on-write:
// the increment is validated first (via the incremental package's
// encoding gate, so the server and the incremental miner accept exactly
// the same data), then a new database replaces the entry under a bumped
// version. A validation or journal error leaves the dataset untouched
// at its old version. found=false means no such dataset.
func (st *datasetStore) append(name string, add *interval.Database) (db *interval.Database, version uint64, sum DatasetSummary, found bool, err error) {
	if err := incremental.ValidateSequences(add.Sequences...); err != nil {
		return nil, 0, DatasetSummary{}, true, fmt.Errorf("append rejected: %w", err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[name]
	if !ok {
		return nil, 0, DatasetSummary{}, false, nil
	}
	ver := st.verSeq + 1
	if st.journal != nil {
		if err := st.journal.LogAppend(name, ver, add); err != nil {
			return nil, 0, DatasetSummary{}, true, &journalError{fmt.Errorf("persist append: %w", err)}
		}
	}
	entry := st.extendEntry(e, add, ver)
	st.verSeq = ver
	st.entries[name] = entry
	if st.onPartition != nil {
		st.onPartition(entry.part)
	}
	return entry.db, ver, entry.summary, true, nil
}

// delete removes the named dataset. The version counter still advances
// so a later re-creation cannot resurrect stale cache keys; the journal
// records the bump so that holds across restarts too. The returned
// version (the delete's own) lets callers notify watchers of the
// mutation.
func (st *datasetStore) delete(name string) (version uint64, found bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.entries[name]; !ok {
		return 0, false, nil
	}
	ver := st.verSeq + 1
	if st.journal != nil {
		if err := st.journal.LogDelete(name, ver); err != nil {
			return 0, true, &journalError{fmt.Errorf("persist delete: %w", err)}
		}
	}
	st.verSeq = ver
	delete(st.entries, name)
	return ver, true, nil
}

// journalJob durably records one job mutation under the next store
// version, drawn under the store lock (commit-before-visible: the jobs
// manager only applies the mutation if this succeeds). Job records draw
// versions from the same store-wide counter as dataset mutations — the
// persist layer's replay-skip invariant (records at or below the
// snapshot version are skipped on recovery) only holds if every
// journaled record's version is unique and monotone across the store.
// With no journal attached jobs are memory-only and this is a no-op.
func (st *datasetStore) journalJob(op string, log func(j storeJournal, version uint64) error) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.journal == nil {
		return nil
	}
	ver := st.verSeq + 1
	if err := log(st.journal, ver); err != nil {
		return &journalError{fmt.Errorf("persist %s: %w", op, err)}
	}
	st.verSeq = ver
	return nil
}

// list returns the precomputed summary of every dataset; no interval
// data is touched under the lock.
func (st *datasetStore) list() []DatasetSummary {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]DatasetSummary, 0, len(st.entries))
	for _, e := range st.entries {
		out = append(out, e.summary)
	}
	return out
}
