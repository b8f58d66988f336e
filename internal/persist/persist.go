// Package persist makes tpmd's dataset store durable: an append-only
// write-ahead log of framed, CRC32C-checksummed mutation records
// (put/append/delete for datasets, job-put/job-delete/job-result for
// continuous-mining jobs, each carrying the name and the store version
// it installed), periodic full-state snapshots, and boot-time recovery
// that loads the newest valid snapshot and replays the WAL tail.
//
// All I/O goes through a blob.Store (internal/blob) over the data
// directory: WAL segments are append-only blobs and snapshots are
// atomic-Put blobs. The blob interface carries exactly the commit
// semantics the invariants below need: atomic Put (a snapshot is never
// observable half-written), ordered truncatable appends (the WAL's
// write/rollback cycle), and a namespace Sync barrier (the directory
// fsync that makes segment creation and deletion durable).
//
// # Protocol
//
// The server's store calls the Log* methods *before* a mutation becomes
// visible, so an acknowledged mutation is always in the log
// (commit-before-visible). Every Log* method appends its record and then
// folds it into the in-memory mirror through the same function replay
// uses, so the live and the recovered mirror cannot drift. Each record
// carries the store version it installs; recovery restores the version
// counter to the maximum seen across the snapshot and the replayed
// tail, so (name, version) cache keys and the strong ETags derived from
// them never repeat across restarts — even when the last mutation
// before a crash was a delete.
//
// # Crash tolerance
//
// Recovery tolerates a torn final record (the signature of a crash mid
// write): the log is truncated at the first damaged frame and the
// prefix is kept. A corrupt frame anywhere — bit-flipped CRC, garbled
// varint — stops replay the same way, because framing after a bad
// record cannot be trusted. Snapshots commit atomically through
// blob.Store.Put; a partial snapshot (possible only through damage
// outside the store's control) fails its length/CRC check and recovery
// falls back to the next older valid one (the WAL covering it is only
// deleted after the newer snapshot is durable, so no data is lost).
//
// # Compaction
//
// When the live WAL segment grows past Options.WALMaxBytes, the store
// cuts a snapshot of its in-memory mirror state, opens a fresh segment,
// and deletes the old segments and snapshots the new one supersedes.
// Close flushes, fsyncs, and cuts a final snapshot so a clean shutdown
// restarts without any replay.
//
// # Durability modes
//
// Options.FsyncMode trades write latency for crash durability:
// "always" fsyncs the WAL after every record (an acknowledged mutation
// survives power loss), "interval" fsyncs on a background tick
// (bounded-loss, Redis-AOF-everysec style), "never" leaves flushing to
// the OS (survives process crash, not power loss).
package persist

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"sync"
	"time"

	"tpminer/internal/blob"
	"tpminer/internal/interval"
	"tpminer/internal/obs"
	"tpminer/internal/resilience"
)

// Fsync policy names accepted by Options.FsyncMode.
const (
	FsyncAlways   = "always"
	FsyncInterval = "interval"
	FsyncNever    = "never"
)

// Defaults for Options zero values.
const (
	// DefaultWALMaxBytes is the live-segment size that triggers
	// snapshot + compaction (64 MiB).
	DefaultWALMaxBytes = 64 << 20
	// DefaultFsyncInterval is the background fsync cadence in
	// "interval" mode.
	DefaultFsyncInterval = 100 * time.Millisecond
)

// Options configures a Store. The zero value selects "always" fsync
// and the default compaction threshold.
type Options struct {
	// FsyncMode is "always" (default), "interval", or "never".
	FsyncMode string
	// FsyncInterval is the flush cadence in "interval" mode. 0 means
	// DefaultFsyncInterval.
	FsyncInterval time.Duration
	// WALMaxBytes triggers snapshot + compaction when the live segment
	// passes it. 0 means DefaultWALMaxBytes.
	WALMaxBytes int64
	// Logger receives recovery and compaction records; nil disables.
	Logger *slog.Logger
	// Injector, when non-nil, wraps the blob store in a fault-injecting
	// decorator so tests and the -fault-profile dev flag can plant
	// errors, latency, and torn writes at the WAL and snapshot I/O
	// boundaries. nil (the production default) disables injection.
	Injector resilience.Injector
	// Retry governs how transient I/O failures on WAL appends and
	// snapshot writes are retried. The zero value selects the
	// resilience defaults (3 attempts, 5ms..80ms jittered backoff).
	// Fsyncs are deliberately never retried: after one failed fsync the
	// kernel may already have dropped the dirty pages, so a passing
	// retry proves nothing (the record is rolled back instead).
	Retry resilience.RetryPolicy
}

func (o Options) withDefaults() (Options, error) {
	switch o.FsyncMode {
	case "":
		o.FsyncMode = FsyncAlways
	case FsyncAlways, FsyncInterval, FsyncNever:
	default:
		return o, fmt.Errorf("persist: unknown fsync mode %q (want always, interval, or never)", o.FsyncMode)
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = DefaultFsyncInterval
	}
	if o.WALMaxBytes <= 0 {
		o.WALMaxBytes = DefaultWALMaxBytes
	}
	if o.Logger == nil {
		o.Logger = obs.Discard()
	}
	return o, nil
}

// DatasetState is one recovered dataset: the database and the store
// version under which it was installed.
type DatasetState struct {
	DB      *interval.Database
	Version uint64
}

// JobState is one recovered continuous-mining job: the opaque spec
// blob journaled at creation and, when the job has completed at least
// one run, the opaque blob of its latest result. Persist never looks
// inside either blob — the server owns their schema (JSON job specs and
// result summaries) — it only guarantees they survive restarts.
type JobState struct {
	// Spec is the job definition, journaled by LogJobPut; SpecVersion is
	// the store version that installed it.
	Spec        []byte
	SpecVersion uint64
	// Result is the latest run's stored summary (nil until the first
	// LogJobResult); ResultVersion is the store version that installed
	// it.
	Result        []byte
	ResultVersion uint64
}

// RecoveryStats describes what Open found in the store.
type RecoveryStats struct {
	// Duration is the wall time of snapshot load + WAL replay.
	Duration time.Duration
	// SnapshotLoaded reports whether a valid snapshot seeded the state;
	// SnapshotVersion is its verSeq.
	SnapshotLoaded  bool
	SnapshotVersion uint64
	// RecordsReplayed counts WAL records applied on top of the snapshot.
	RecordsReplayed int
	// Truncations counts logs cut short at a torn or corrupt frame.
	Truncations int
	// TempFilesRemoved counts orphaned snapshot temp files (left by a
	// compaction that died mid-write) deleted during the boot scan.
	TempFilesRemoved int
}

// Metrics holds the store's handles: the tpmd_persist_* families, the
// tpmd_blob_* families its blob store counts every operation into, and
// tpmd_resilience_retries_total, which its retried I/O feeds. The store
// bumps them directly; NewMetrics documents each in its HELP text.
type Metrics struct {
	WALBytes         *obs.Gauge
	Records          *obs.Counter
	Fsyncs           *obs.Counter
	Snapshots        *obs.Counter
	SnapshotDuration *obs.Histogram
	RecoveryDuration *obs.Histogram
	Replayed         *obs.Gauge
	Truncations      *obs.Counter
	BlobOps          *obs.CounterVec // backend, op
	BlobBytes        *obs.CounterVec // backend, op
	BlobErrors       *obs.CounterVec // backend, op
	Retries          *obs.CounterVec // op
}

// NewMetrics registers the store's families on reg, in exposition
// order.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		WALBytes: reg.NewGauge("tpmd_persist_wal_bytes",
			"Size of the live write-ahead-log segment."),
		Records: reg.NewCounter("tpmd_persist_wal_records_total",
			"Mutation records committed to the write-ahead log."),
		Fsyncs: reg.NewCounter("tpmd_persist_fsyncs_total",
			"fsync calls issued on the write-ahead log."),
		Snapshots: reg.NewCounter("tpmd_persist_snapshots_total",
			"Snapshots cut (compaction and shutdown)."),
		SnapshotDuration: reg.NewHistogram("tpmd_persist_snapshot_duration_seconds",
			"Wall time to write one snapshot.", nil),
		RecoveryDuration: reg.NewHistogram("tpmd_persist_recovery_duration_seconds",
			"Wall time of boot-time recovery (snapshot load + WAL replay).", nil),
		Replayed: reg.NewGauge("tpmd_persist_recovery_records_replayed",
			"WAL records replayed on top of the snapshot at the last boot."),
		Truncations: reg.NewCounter("tpmd_persist_torn_tail_truncations_total",
			"WAL logs cut short at a torn or corrupt frame during recovery."),
		BlobOps: reg.NewCounterVec("tpmd_blob_ops_total",
			"Blob-store operations issued by persistence, by backend kind and operation.", "backend", "op"),
		BlobBytes: reg.NewCounterVec("tpmd_blob_bytes_total",
			"Payload bytes moved through the blob store, by backend kind and operation.", "backend", "op"),
		BlobErrors: reg.NewCounterVec("tpmd_blob_errors_total",
			"Blob-store operations that returned an error, by backend kind and operation.", "backend", "op"),
		Retries: reg.NewCounterVec("tpmd_resilience_retries_total",
			"Persistence I/O retries after a transient failure, by operation.", "op"),
	}
}

// ErrClosed is returned by mutations on a closed Store.
var ErrClosed = errors.New("persist: store is closed")

// Store is the durability engine: one blob store holding the live WAL
// segment and the snapshots, plus an in-memory mirror of the full
// dataset state (sharing the immutable databases, so the mirror costs
// pointers, not copies) from which snapshots are cut.
type Store struct {
	opt    Options
	logger *slog.Logger

	// bs is the store all I/O goes through: the file store, wrapped
	// first by the fault injector (when configured) and then by the
	// instrumentation (inst), outermost so every attempt — including
	// injected failures — is counted in met's blob families.
	bs   blob.Store
	inst *blob.Instrumented

	mu        sync.Mutex
	wal       blob.Appender
	walKey    string
	walBytes  int64
	compactAt int64
	dirty     bool  // bytes written since the last fsync
	failed    error // sticky failure: set when the WAL is wedged or the store closed
	state     map[string]DatasetState
	jobs      map[string]JobState
	verSeq    uint64
	met       *Metrics // never nil; see SetMetrics
	recov     RecoveryStats

	stopSync chan struct{} // closes the interval-mode syncer
	syncDone chan struct{}
}

// Open recovers the state in the data directory dir, creating it if
// needed, and returns a store ready for logging. Recovery loads the
// newest valid snapshot, replays the WAL tail on top, truncates at the
// first torn or corrupt frame, and keeps appending to the surviving
// segment.
func Open(dir string, opt Options) (*Store, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	bs, err := blob.NewFileStore(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if opt.Injector != nil {
		bs = newFaultStore(bs, opt.Injector)
	}
	inst := blob.Instrument(bs)
	s := &Store{
		opt:       opt,
		logger:    opt.Logger,
		bs:        inst,
		inst:      inst,
		compactAt: opt.WALMaxBytes,
		state:     make(map[string]DatasetState),
		jobs:      make(map[string]JobState),
	}
	s.SetMetrics(nil)
	start := time.Now()
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.recov.Duration = time.Since(start)
	s.logger.Info("persist recovered",
		"store", dir,
		"datasets", len(s.state),
		"jobs", len(s.jobs),
		"version", s.verSeq,
		"snapshot_loaded", s.recov.SnapshotLoaded,
		"records_replayed", s.recov.RecordsReplayed,
		"truncations", s.recov.Truncations,
		"duration_ms", s.recov.Duration.Milliseconds())
	if opt.FsyncMode == FsyncInterval {
		s.stopSync = make(chan struct{})
		s.syncDone = make(chan struct{})
		go s.syncLoop()
	}
	return s, nil
}

// Recovered returns the dataset state and version counter restored by
// Open. The caller may take ownership of the map; the databases are
// shared and must be treated as immutable.
func (s *Store) Recovered() (map[string]DatasetState, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]DatasetState, len(s.state))
	for name, ds := range s.state {
		out[name] = ds
	}
	return out, s.verSeq
}

// RecoveredJobs returns the continuous-mining job table restored by
// Open. The caller may take ownership of the map and the blobs inside
// (persist keeps its own references but never mutates the bytes).
func (s *Store) RecoveredJobs() map[string]JobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]JobState, len(s.jobs))
	for id, js := range s.jobs {
		out[id] = js
	}
	return out
}

// RecoveryStats returns what Open found in the store.
func (s *Store) RecoveryStats() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recov
}

// SetMetrics points the store's instrumentation — and the blob
// store's beneath it — at m, and immediately reports the recovery
// outcome and current WAL size, so a server wiring metrics after Open
// still sees the boot numbers. Until then, and after SetMetrics(nil),
// the store counts on a private registry.
func (s *Store) SetMetrics(m *Metrics) {
	if m == nil {
		m = NewMetrics(obs.NewRegistry())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met = m
	s.inst.SetMetrics(m.BlobOps, m.BlobBytes, m.BlobErrors)
	m.RecoveryDuration.Observe(s.recov.Duration.Seconds())
	m.Replayed.Set(int64(s.recov.RecordsReplayed))
	m.Truncations.Add(uint64(s.recov.Truncations))
	m.WALBytes.Set(s.walBytes)
}

// LogPut commits a dataset replacement. db must be treated as
// immutable from here on.
func (s *Store) LogPut(name string, version uint64, db *interval.Database) error {
	return s.commit(record{typ: recPut, version: version, name: name, db: db})
}

// LogAppend commits an append of add's sequences to an existing
// dataset. Only the increment is logged; the mirror state extends its
// copy with shared sequence headers, exactly as the server store does.
func (s *Store) LogAppend(name string, version uint64, add *interval.Database) error {
	return s.commit(record{typ: recAppend, version: version, name: name, db: add})
}

// LogDelete commits a dataset removal. The version still advances so
// the counter recovers correctly even when a delete is the last record
// before a crash.
func (s *Store) LogDelete(name string, version uint64) error {
	return s.commit(record{typ: recDelete, version: version, name: name})
}

// LogJobPut commits a continuous-mining job creation. spec is opaque to
// persist (the server journals its JSON job spec); version must come
// from the same store-wide counter as dataset mutations, or the
// replay-skip invariant breaks. A re-put of an existing id replaces the
// job and drops its stored result.
func (s *Store) LogJobPut(id string, version uint64, spec []byte) error {
	return s.commit(record{typ: recJobPut, version: version, name: id, blob: spec})
}

// LogJobDelete commits a job removal. As with dataset deletes, the
// version still advances so the counter recovers correctly even when
// this is the last record before a crash.
func (s *Store) LogJobDelete(id string, version uint64) error {
	return s.commit(record{typ: recJobDelete, version: version, name: id})
}

// LogJobResult commits the latest result summary of a job run. Only the
// newest result is retained — each record supersedes the previous one
// in the mirror, and compaction folds the chain into one snapshot
// entry.
func (s *Store) LogJobResult(id string, version uint64, result []byte) error {
	return s.commit(record{typ: recJobResult, version: version, name: id, blob: result})
}

// commit appends rec to the live WAL segment, then folds it into the
// mirror state with applyRecord — the code replay runs — and compacts
// once the segment has grown past the threshold.
func (s *Store) commit(rec record) error {
	payload := encodeRecord(rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendLocked(payload); err != nil {
		return err
	}
	s.applyRecord(rec)
	s.maybeCompactLocked()
	return nil
}

// appendLocked writes one framed record to the live WAL segment and
// applies the fsync policy. Transient write failures are retried under
// the store's retry policy, with the partial frame rolled back before
// each retry so the log never gains an interior torn record. A failed
// fsync is never retried — after one failure the kernel may already
// have dropped the dirty pages, so a passing retry proves nothing
// (the fsyncgate lesson); the record is rolled back and the mutation
// rejected instead, leaving recovery to the caller's probe. Only a
// failed rollback wedges the store (sticky failure): the log tail is
// then in an unknown state and no further append can be trusted.
func (s *Store) appendLocked(payload []byte) error {
	if s.failed != nil {
		return s.failed
	}
	if s.wal == nil {
		return errors.New("persist: WAL not open")
	}
	frame := appendFrame(make([]byte, 0, frameHeaderLen+len(payload)), payload)
	write := func() error {
		if s.failed != nil {
			return s.failed
		}
		_, err := s.wal.Write(frame)
		if err == nil {
			return nil
		}
		// The frame may be half on the backend; cut it off so a retry
		// starts from a clean tail.
		if werr := s.rollbackTailLocked(err); werr != nil {
			return werr
		}
		return err
	}
	if err := s.retryLocked(resilience.OpWALWrite, write); err != nil {
		if s.failed != nil {
			return s.failed
		}
		return fmt.Errorf("persist: WAL append: %w", err)
	}
	if s.opt.FsyncMode == FsyncAlways {
		if err := s.wal.Sync(); err != nil {
			// Roll the unacknowledged record back so it can never
			// resurrect on replay after the caller was told it failed.
			if werr := s.rollbackTailLocked(err); werr != nil {
				return werr
			}
			return fmt.Errorf("persist: WAL fsync: %w", err)
		}
		s.dirty = false
		s.met.Fsyncs.Inc()
	} else {
		s.dirty = true
	}
	s.walBytes += int64(len(frame))
	s.met.Records.Inc()
	s.met.WALBytes.Set(s.walBytes)
	return nil
}

// rollbackTailLocked truncates the WAL back to the last committed
// record (s.walBytes) after a failed write or fsync. cause is the I/O
// error that forced the rollback. If the rollback itself fails the
// store wedges — the sticky failure is tagged permanent so no layer
// above retries against a log tail in an unknown state.
func (s *Store) rollbackTailLocked(cause error) error {
	if terr := s.wal.Truncate(s.walBytes); terr != nil {
		s.failed = fmt.Errorf("persist: WAL wedged (write failed: %v; truncate failed: %v): %w",
			cause, terr, resilience.ErrPermanent)
		return s.failed
	}
	return nil
}

// retryLocked runs op under the store's retry policy, logging and
// counting every retried attempt. Backoff sleeps hold the store lock —
// acceptable because the WAL is strictly ordered, so no other mutation
// could make progress anyway, and the capped backoff bounds the stall.
func (s *Store) retryLocked(op resilience.Op, f func() error) error {
	return s.opt.Retry.Do(f, func(err error, attempt int) {
		s.logger.Warn("persist: retrying after transient failure",
			"op", string(op), "attempt", attempt, "error", err)
		s.met.Retries.With(string(op)).Inc()
	})
}

// maybeCompactLocked cuts a snapshot and rotates the WAL once the live
// segment passes the threshold. Failure is non-fatal — the record is
// already durable in the WAL — but backs off so a persistently failing
// snapshot is not retried on every write.
func (s *Store) maybeCompactLocked() {
	if s.walBytes < s.compactAt {
		return
	}
	if err := s.snapshotLocked(true); err != nil {
		s.logger.Warn("persist compaction failed; will retry later", "error", err)
		s.compactAt = s.walBytes + s.opt.WALMaxBytes
		return
	}
	s.compactAt = s.opt.WALMaxBytes
}

// Snapshot forces a snapshot + WAL rotation now. Typically only needed
// by tests and at shutdown (Close cuts one automatically).
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	return s.snapshotLocked(true)
}

// Probe attempts to restore a store whose write path has been failing
// — the recovery path the server's circuit breaker drives while in
// degraded mode. It clears any sticky failure and re-journals the full
// in-memory mirror: a fresh snapshot (the mirror always equals the
// acknowledged visible state, because mutations commit here before
// becoming visible), a fresh WAL segment, and removal of everything
// superseded. On failure the prior sticky failure (if any) is restored
// so the store stays firmly wedged rather than half-open. A closed
// store reports ErrClosed.
func (s *Store) Probe() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if errors.Is(s.failed, ErrClosed) {
		return ErrClosed
	}
	prevFailed := s.failed
	s.failed = nil
	if err := s.snapshotLocked(true); err != nil {
		// snapshotLocked may itself have set a fresh sticky failure
		// (e.g. the WAL rotation failed); keep the newer diagnosis.
		if s.failed == nil {
			s.failed = prevFailed
		}
		return err
	}
	s.logger.Info("persist probe succeeded; write path restored",
		"version", s.verSeq, "datasets", len(s.state))
	return nil
}

// snapshotLocked writes the mirror state as a snapshot, then — when
// rotate is set — opens a fresh WAL segment and deletes the blobs the
// snapshot supersedes.
func (s *Store) snapshotLocked(rotate bool) error {
	start := time.Now()
	// The snapshot commits atomically (blob.Store.Put) and is made
	// namespace-durable before any WAL segment is removed, so
	// superseded records are never deleted ahead of their replacement
	// being durable. Transient Put failures retry; the atomic-Put
	// contract guarantees each failed attempt leaves nothing behind.
	err := s.retryLocked(resilience.OpSnapshotWrite, func() error {
		return s.bs.Put(snapshotName(s.verSeq), encodeSnapshotFile(s.state, s.jobs, s.verSeq))
	})
	if err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	s.namespaceSyncLocked()
	s.met.Snapshots.Inc()
	s.met.SnapshotDuration.Observe(time.Since(start).Seconds())
	if !rotate {
		return nil
	}
	if err := s.openWALLocked(s.verSeq, true); err != nil {
		return err
	}
	s.removeSupersededLocked(s.verSeq)
	s.logger.Info("persist snapshot cut", "version", s.verSeq, "datasets", len(s.state),
		"duration_ms", time.Since(start).Milliseconds())
	return nil
}

// openWALLocked closes the current segment (if any) and opens the
// segment named for baseVer, truncating it when fresh is set. The
// namespace sync afterwards makes a freshly created segment's existence
// durable — without it, a power cut could lose the dirent and with it
// every record fsynced into the file.
func (s *Store) openWALLocked(baseVer uint64, fresh bool) error {
	if s.wal != nil {
		if err := s.wal.Sync(); err != nil {
			s.logger.Warn("persist: final fsync of rotated WAL segment failed", "segment", s.walKey, "error", err)
		}
		if err := s.wal.Close(); err != nil {
			s.logger.Warn("persist: closing rotated WAL segment failed", "segment", s.walKey, "error", err)
		}
		s.wal = nil
	}
	key := walName(baseVer)
	a, err := s.bs.Append(key)
	if err != nil {
		s.failed = fmt.Errorf("persist: open WAL: %w", err)
		return s.failed
	}
	if fresh && a.Size() > 0 {
		if err := a.Truncate(0); err != nil {
			if cerr := a.Close(); cerr != nil {
				s.logger.Warn("persist: closing unusable WAL segment failed", "segment", key, "error", cerr)
			}
			s.failed = fmt.Errorf("persist: reset WAL: %w", err)
			return s.failed
		}
	}
	s.wal, s.walKey, s.walBytes, s.dirty = a, key, a.Size(), false
	s.namespaceSyncLocked()
	s.met.WALBytes.Set(s.walBytes)
	return nil
}

// namespaceSyncLocked runs the blob store's namespace durability
// barrier (a directory fsync) so blob creations, deletions, and Put
// commits issued so far survive power loss. Refusals are logged at warn
// — some filesystems reject directory fsync, and a silently weakened
// durability contract is the kind of thing an operator needs to see.
func (s *Store) namespaceSyncLocked() {
	if err := s.bs.Sync(); err != nil {
		s.logger.Warn("persist: namespace sync failed; recent blob creates/deletes may not survive power loss",
			"error", err)
	}
}

// removeSupersededLocked deletes WAL segments and snapshots made
// redundant by a durable snapshot at verSeq, then syncs the namespace
// so the deletions are themselves durable.
func (s *Store) removeSupersededLocked(verSeq uint64) {
	keys, err := s.bs.List("")
	if err != nil {
		s.logger.Warn("persist: listing superseded blobs failed; skipping cleanup", "error", err)
		return
	}
	keepSnap := snapshotName(verSeq)
	removed := 0
	for _, key := range keys {
		if key == keepSnap || key == s.walKey {
			continue
		}
		if isSnapshotKey(key) || isWALKey(key) || isTempKey(key) {
			if err := s.bs.Delete(key); err != nil {
				s.logger.Warn("persist: deleting superseded blob failed", "key", key, "error", err)
				continue
			}
			removed++
		}
	}
	if removed > 0 {
		s.namespaceSyncLocked()
	}
}

// isTempKey reports whether key is a leftover atomic-Put temp object.
func isTempKey(key string) bool {
	return len(key) > 4 && key[len(key)-4:] == ".tmp"
}

// syncIfDirty flushes pending WAL bytes; the interval-mode loop calls
// it on every tick.
func (s *Store) syncIfDirty() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil || !s.dirty || s.wal == nil {
		return
	}
	if err := s.wal.Sync(); err != nil {
		// The already-acknowledged dirty records may or may not be on
		// the platter (interval mode accepts bounded loss); sticky-fail
		// so the caller's recovery probe re-journals the full state.
		s.failed = fmt.Errorf("persist: WAL fsync: %w", err)
		return
	}
	s.dirty = false
	s.met.Fsyncs.Inc()
}

func (s *Store) syncLoop() {
	defer close(s.syncDone)
	t := time.NewTicker(s.opt.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopSync:
			return
		case <-t.C:
			s.syncIfDirty()
		}
	}
}

// Close flushes and fsyncs the WAL, cuts a final snapshot so the next
// boot needs no replay, releases the store, and closes the blob
// store. Mutations after Close return ErrClosed.
func (s *Store) Close() error {
	if s.stopSync != nil {
		close(s.stopSync)
		<-s.syncDone
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if errors.Is(s.failed, ErrClosed) {
		return nil
	}
	var firstErr error
	if s.wal != nil && s.failed == nil {
		if err := s.wal.Sync(); err != nil {
			firstErr = fmt.Errorf("persist: close fsync: %w", err)
		} else {
			s.dirty = false
			s.met.Fsyncs.Inc()
			if err := s.snapshotLocked(false); err != nil {
				firstErr = err
			} else {
				// The snapshot covers everything; the segments are now
				// redundant. walKey is cleared first so the live
				// segment is removed too.
				key := s.walKey
				s.walKey = ""
				s.removeSupersededLocked(s.verSeq)
				if err := s.bs.Delete(key); err != nil {
					s.logger.Warn("persist: deleting final WAL segment failed", "key", key, "error", err)
				}
				s.namespaceSyncLocked()
			}
		}
	}
	if s.wal != nil {
		if err := s.wal.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("persist: close WAL: %w", err)
		}
		s.wal = nil
	}
	if err := s.bs.Close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("persist: close blob store: %w", err)
	}
	s.failed = ErrClosed
	return firstErr
}

// ------------------------------------------------------------- recovery

// recover loads the newest valid snapshot, replays the WAL tail, and
// leaves the store appending to the surviving segment.
func (s *Store) recover() error {
	keys, err := s.bs.List("")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	type seqFile struct {
		seq  uint64
		name string
	}
	var snaps, wals []seqFile
	cleaned := false
	for _, key := range keys {
		if v, ok := parseSeqName(key, "snapshot-", ".snap"); ok {
			snaps = append(snaps, seqFile{v, key})
		}
		if v, ok := parseSeqName(key, "wal-", ".log"); ok {
			wals = append(wals, seqFile{v, key})
		}
		if isTempKey(key) {
			// An atomic Put that died mid-commit leaves its temp object
			// behind; without cleanup they accumulate forever. The
			// commit never happened, so the object is covered by the
			// live WAL and safe to drop.
			if err := s.bs.Delete(key); err != nil {
				s.logger.Warn("persist: removing orphaned temp blob failed", "key", key, "error", err)
				continue
			}
			s.recov.TempFilesRemoved++
			cleaned = true
			s.logger.Info("persist: removed orphaned snapshot temp file", "file", key)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq > snaps[j].seq }) // newest first
	sort.Slice(wals, func(i, j int) bool { return wals[i].seq < wals[j].seq })    // oldest first

	for _, sn := range snaps {
		buf, err := s.bs.Get(sn.name)
		if err != nil {
			s.logger.Warn("persist: skipping unreadable snapshot", "file", sn.name, "error", err)
			continue
		}
		state, jobs, verSeq, err := decodeSnapshotFile(buf)
		if err != nil {
			s.logger.Warn("persist: skipping invalid snapshot", "file", sn.name, "error", err)
			continue
		}
		s.state, s.jobs, s.verSeq = state, jobs, verSeq
		s.recov.SnapshotLoaded = true
		s.recov.SnapshotVersion = verSeq
		break
	}

	// Replay every segment in order, skipping records the snapshot
	// already covers. A torn or corrupt frame truncates its segment and
	// ends replay: frames after it cannot be trusted, and later
	// segments would skip over the gap. (In practice compaction leaves
	// a single live segment, so "later segments" only exist after an
	// unclean shutdown mid-rotation.) The truncation itself happens
	// through the reopened appender below, once the surviving segment
	// is the live one.
	lastIdx := -1
	truncAt := int64(-1)
	stopped := false
	for i, wf := range wals {
		if stopped {
			// Unreachable records; drop the segment so the next boot
			// does not see a gap.
			if err := s.bs.Delete(wf.name); err != nil {
				s.logger.Warn("persist: deleting unreachable WAL segment failed", "key", wf.name, "error", err)
			} else {
				cleaned = true
			}
			continue
		}
		lastIdx = i
		data, err := s.bs.Get(wf.name)
		if err != nil {
			return fmt.Errorf("persist: read WAL %s: %w", wf.name, err)
		}
		stop := scanWAL(data, func(_ int, rec record, _ int) {
			if s.recov.SnapshotLoaded && rec.version <= s.recov.SnapshotVersion {
				return // already in the snapshot
			}
			s.applyRecord(rec)
			s.recov.RecordsReplayed++
		})
		if stop != nil {
			s.logger.Warn("persist: truncating WAL at damaged record",
				"file", wf.name, "offset", stop.off, "damage", stop.damage, "error", stop.err)
			truncAt = int64(stop.off)
			s.recov.Truncations++
			stopped = true
		}
	}
	if cleaned {
		// Make the boot-time deletions durable: a power cut must not
		// resurrect unreachable segments or orphaned temp objects.
		s.namespaceSyncLocked()
	}

	// Keep appending to the surviving segment (repairing its damaged
	// tail first), or start a fresh one.
	if lastIdx >= 0 {
		if err := s.openWALLocked(wals[lastIdx].seq, false); err != nil {
			return err
		}
		if truncAt >= 0 {
			if err := s.wal.Truncate(truncAt); err != nil {
				return fmt.Errorf("persist: truncate WAL %s: %w", wals[lastIdx].name, err)
			}
			// Fsync the repair so the damaged tail cannot resurrect
			// after a power cut between boot and the next record.
			if err := s.wal.Sync(); err != nil {
				s.logger.Warn("persist: fsync of repaired WAL tail failed", "error", err)
			}
			s.walBytes = truncAt
		}
		return nil
	}
	return s.openWALLocked(s.verSeq, false)
}

// applyRecord folds one committed or replayed record into the mirror
// state and advances the version counter to cover it. An append or a
// job result whose target is missing changes only the counter (on
// replay, its put may have been lost to a truncation).
func (s *Store) applyRecord(rec record) {
	switch rec.typ {
	case recPut:
		s.state[rec.name] = DatasetState{DB: rec.db, Version: rec.version}
	case recAppend:
		if old, ok := s.state[rec.name]; ok {
			// Shared sequence headers: the stored databases are immutable,
			// so sequences are never copied deeply.
			grown := &interval.Database{Sequences: make([]interval.Sequence, 0, len(old.DB.Sequences)+len(rec.db.Sequences))}
			grown.Sequences = append(grown.Sequences, old.DB.Sequences...)
			grown.Sequences = append(grown.Sequences, rec.db.Sequences...)
			s.state[rec.name] = DatasetState{DB: grown, Version: rec.version}
		}
	case recDelete:
		delete(s.state, rec.name)
	case recJobPut:
		s.jobs[rec.name] = JobState{Spec: rec.blob, SpecVersion: rec.version}
	case recJobDelete:
		delete(s.jobs, rec.name)
	case recJobResult:
		if js, ok := s.jobs[rec.name]; ok {
			js.Result, js.ResultVersion = rec.blob, rec.version
			s.jobs[rec.name] = js
		}
	}
	if rec.version > s.verSeq {
		s.verSeq = rec.version
	}
}
