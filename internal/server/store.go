package server

import (
	"errors"
	"fmt"
	"sync"

	"tpminer/internal/interval"
	"tpminer/internal/persist"
)

// journalError marks a failure in the durability layer (as opposed to
// client-attributable validation), so writeError maps it to a 500, or
// to a 503 while the journal is degraded.
type journalError struct{ err error }

func (e *journalError) Error() string { return e.err.Error() }
func (e *journalError) Unwrap() error { return e.err }

// errNotFound wraps a mutation of a dataset the store does not hold.
var errNotFound = errors.New("not found")

// datasetStore holds the server's named datasets with a monotonic
// version per dataset, and nothing else: a mining partition is derived
// from a snapshot when a mine needs one. Stored databases are immutable:
// PUT installs a fresh database, and append replaces the entry with a
// copy-on-write extension instead of mutating in place. Readers
// (summaries and mining snapshots) therefore share the stored pointer
// with no cloning and no lock held during the mine.
//
// Versions drive exact cache invalidation: every mutation (PUT, append,
// DELETE, and each job record) draws from one store-wide counter in
// commit, so a dataset deleted and re-created never repeats a version
// and a (name, version) pair identifies one immutable database state
// forever. With a journal attached, recovery restores the counter across
// restarts, preserving that invariant for cache keys and strong ETags.
type datasetStore struct {
	mu      sync.RWMutex
	entries map[string]*datasetEntry
	verSeq  uint64
	journal *resilientJournal // nil = in-memory only

	// onCommit runs after each dataset mutation commits, outside the
	// store lock. nil in bare stores.
	onCommit func(name string, version uint64)
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
}

func newDatasetStore() *datasetStore {
	return &datasetStore{entries: make(map[string]*datasetEntry)}
}

// newEntry computes the stored form of a freshly installed database:
// its summary and distinct-symbol set, both in one O(db) pass.
func newEntry(name string, db *interval.Database) *datasetEntry {
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
	return &datasetEntry{db: db, summary: sum, symbols: symbols}
}

// extendEntry derives the entry for old extended by add: the sequence
// slice headers are copied shallowly (the stored database is immutable,
// so the interval arrays are shared, never cloned — appends cost
// O(sequences + increment), not O(total intervals)), and the summary is
// updated incrementally from the increment alone.
func extendEntry(old *datasetEntry, add *interval.Database) *datasetEntry {
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
	return &datasetEntry{db: grown, summary: sum, symbols: symbols}
}

// restore seeds the store with the state persist recovered, before
// traffic and before the journal is attached: those datasets are
// already durable. verSeq is the recovered counter, which deletes and
// job records can leave above every surviving dataset's version.
func (st *datasetStore) restore(state map[string]persist.DatasetState, verSeq uint64) {
	for name, ds := range state {
		e := newEntry(name, ds.DB)
		e.version = ds.Version
		st.entries[name] = e
	}
	st.verSeq = verSeq
}

// change is one store mutation, decided under the store lock against
// the current entries. record journals it under the version it
// installs. A dataset change names the dataset and the entry it holds
// afterwards (nil removes it); a job record has only its record.
type change struct {
	record func(ps *persist.Store, version uint64) error
	name   string
	entry  *datasetEntry
}

// commit is the store's one write path. Under the store lock it asks
// decide for the change against the current entries (an error commits
// nothing), draws the next store-wide version, journals the change
// under it through the resilient journal, and only then installs it and
// advances the counter: commit-before-visible, so a journal error leaves the
// store untouched. Without a journal the record is skipped. A dataset
// change then runs onCommit once the lock is released — the hook
// notifies jobs, and the jobs manager journals through this store while
// holding its own lock. Job records share the counter because persist's
// replay skips records at or below its snapshot's version, which holds
// only if every record's version is unique and monotone. commit returns
// the version it installed.
func (st *datasetStore) commit(op string, decide func() (change, error)) (uint64, error) {
	st.mu.Lock()
	c, err := decide()
	ver := st.verSeq + 1
	if err == nil && st.journal != nil {
		if jerr := st.journal.write(ver, c.record); jerr != nil {
			err = &journalError{fmt.Errorf("persist %s: %w", op, jerr)}
		}
	}
	if err != nil {
		st.mu.Unlock()
		return 0, err
	}
	if c.entry != nil {
		c.entry.version = ver
		st.entries[c.name] = c.entry
	} else if c.name != "" {
		delete(st.entries, c.name)
	}
	st.verSeq = ver
	st.mu.Unlock()
	if c.name != "" && st.onCommit != nil {
		st.onCommit(c.name, ver)
	}
	return ver, nil
}

// put installs db under name. The caller hands over ownership: db must
// not be modified afterwards.
func (st *datasetStore) put(name string, db *interval.Database) (sum DatasetSummary, version uint64, existed bool, err error) {
	e := newEntry(name, db)
	version, err = st.commit("put", func() (change, error) {
		_, existed = st.entries[name]
		return change{record: func(ps *persist.Store, v uint64) error { return ps.LogPut(name, v, db) }, name: name, entry: e}, nil
	})
	return e.summary, version, existed, err
}

// append extends the named dataset with add's sequences, copy-on-write,
// under a new version. Each sequence is validated first with
// Sequence.Valid, the only check endpoint encoding (and so the
// incremental miner's append) can fail, so the server and the
// incremental miner accept exactly the same data. A missing dataset is
// errNotFound unless create is set: then add becomes the dataset,
// journaled as a put, in the same critical section that found it
// missing — ingest's auto-create, which no concurrent PUT can slip
// between.
func (st *datasetStore) append(name string, add *interval.Database, create bool) (DatasetSummary, uint64, error) {
	for i := range add.Sequences {
		if err := add.Sequences[i].Valid(); err != nil {
			return DatasetSummary{}, 0, fmt.Errorf("append rejected: %w", err)
		}
	}
	var e *datasetEntry
	ver, err := st.commit("append", func() (change, error) {
		old, ok := st.entries[name]
		switch {
		case ok:
			e = extendEntry(old, add)
			return change{record: func(ps *persist.Store, v uint64) error { return ps.LogAppend(name, v, add) }, name: name, entry: e}, nil
		case create:
			e = newEntry(name, add)
			return change{record: func(ps *persist.Store, v uint64) error { return ps.LogPut(name, v, add) }, name: name, entry: e}, nil
		}
		return change{}, fmt.Errorf("dataset %q %w", name, errNotFound)
	})
	if err != nil {
		return DatasetSummary{}, 0, err
	}
	return e.summary, ver, nil
}

// delete removes the named dataset. The version counter still advances
// so a later re-creation cannot resurrect stale cache keys; the journal
// records the bump so that holds across restarts too.
func (st *datasetStore) delete(name string) error {
	_, err := st.commit("delete", func() (change, error) {
		if _, ok := st.entries[name]; !ok {
			return change{}, fmt.Errorf("dataset %q %w", name, errNotFound)
		}
		return change{record: func(ps *persist.Store, v uint64) error { return ps.LogDelete(name, v) }, name: name}, nil
	})
	return err
}

// JobPut, JobDelete and JobResult implement jobs.Journal: each commits
// one job record (the manager applies the mutation only if it does).
func (st *datasetStore) JobPut(id string, spec []byte) error {
	return st.commitJob("job put", func(ps *persist.Store, v uint64) error { return ps.LogJobPut(id, v, spec) })
}

func (st *datasetStore) JobDelete(id string) error {
	return st.commitJob("job delete", func(ps *persist.Store, v uint64) error { return ps.LogJobDelete(id, v) })
}

func (st *datasetStore) JobResult(id string, result []byte) error {
	return st.commitJob("job result", func(ps *persist.Store, v uint64) error { return ps.LogJobResult(id, v, result) })
}

func (st *datasetStore) commitJob(op string, record func(*persist.Store, uint64) error) error {
	_, err := st.commit(op, func() (change, error) { return change{record: record}, nil })
	return err
}

// snapshot returns the named dataset's current database and version.
// The database is immutable and safe to read concurrently; callers must
// not modify it.
func (st *datasetStore) snapshot(name string) (*interval.Database, uint64, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	e, ok := st.entries[name]
	if !ok {
		return nil, 0, false
	}
	return e.db, e.version, true
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
