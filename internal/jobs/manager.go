package jobs

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tpminer/internal/api"
	"tpminer/internal/dataio"
	"tpminer/internal/obs"
)

// Errors of the job resource.
var (
	// ErrNotFound is returned for an unknown job id.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrExists is returned when creating a job whose id is taken.
	ErrExists = errors.New("jobs: job id already exists")
	// ErrClosed is returned by mutations on a closed manager.
	ErrClosed = errors.New("jobs: manager is closed")
	// ErrDatasetMissing is returned by a Runner when the watched dataset
	// does not exist (yet). The run is a silent no-op: the job stays
	// armed and the dataset's first mutation triggers the first real run.
	ErrDatasetMissing = errors.New("jobs: dataset does not exist")
)

// Runner executes one mining run for a job. The server implements it on
// top of its cached/sharded mine path, so a job run is
// result-identical to the batch endpoint with the same spec.
type Runner interface {
	// RunJob mines spec's dataset (window applied) and returns the
	// pattern set plus the dataset version it mined. ErrDatasetMissing
	// (possibly wrapped) marks the watched dataset as absent.
	RunJob(ctx context.Context, spec api.JobSpec) (RunOutput, error)
}

// RunOutput is one run's product.
type RunOutput struct {
	// Version is the dataset version the run observed.
	Version uint64
	// Patterns is the mined set in the miner's deterministic order.
	Patterns []Pattern
}

// Journal persists job state. The server implements it on the WAL, so
// specs and latest results survive restarts. JobPut/JobDelete failures
// fail the API call (a job that cannot be journaled must not exist);
// JobResult failures are logged and tolerated — the run's delta is
// still published, and the next successful journal write supersedes.
type Journal interface {
	JobPut(id string, spec []byte) error
	JobDelete(id string) error
	JobResult(id string, result []byte) error
}

// Metrics holds the subsystem's tpmd_job_* and tpmd_sse_* handles; the
// manager bumps them directly, and NewMetrics documents each in its
// HELP text. Labels deliberately exclude the job id — ids are
// client-chosen and would be unbounded label cardinality.
type Metrics struct {
	Jobs        *obs.Gauge
	Runs        *obs.CounterVec // outcome: ok, noop (version unchanged or dataset missing), error
	RunDuration *obs.Histogram
	Events      *obs.Counter
	Subscribers *obs.Gauge
	SSESent     *obs.Counter
	SSEDropped  *obs.Counter
}

// NewMetrics registers the subsystem's families on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Jobs: reg.NewGauge("tpmd_job_count",
			"Continuous-mining jobs currently resident."),
		Runs: reg.NewCounterVec("tpmd_job_runs_total",
			"Continuous-mining job runs, by outcome (ok, noop, error).", "outcome"),
		RunDuration: reg.NewHistogram("tpmd_job_run_duration_seconds",
			"Wall time of one continuous-mining job run (mine + diff + publish).", nil),
		Events: reg.NewCounter("tpmd_job_events_published_total",
			"Delta/result events published by job runs."),
		Subscribers: reg.NewGauge("tpmd_sse_subscribers",
			"SSE subscribers currently connected across all jobs."),
		SSESent: reg.NewCounter("tpmd_sse_events_sent_total",
			"Events enqueued to SSE subscribers (one per event per subscriber)."),
		SSEDropped: reg.NewCounter("tpmd_sse_dropped_total",
			"SSE subscribers disconnected for not draining their event queue."),
	}
}

// runDone counts one run with its outcome and wall time.
func (m *Metrics) runDone(outcome string, d time.Duration) {
	m.Runs.With(outcome).Inc()
	m.RunDuration.Observe(d.Seconds())
}

// Config configures a Manager. Runner and Journal are required.
type Config struct {
	Runner  Runner
	Journal Journal
	// Logger receives run/lifecycle records; nil disables.
	Logger *slog.Logger
	// Metrics receives counters; nil counts on a private registry.
	Metrics *Metrics
	// Debounce is the quiet period a job waits after a change
	// notification before re-mining, for jobs that don't set their own
	// DebounceMillis. 0 means DefaultDebounce.
	Debounce time.Duration
	// QueueSize is each subscriber's queue capacity. 0 means
	// DefaultQueueSize.
	QueueSize int
	// RingSize is the per-job replay ring capacity (how far back
	// Last-Event-ID resume can reach without a snapshot). 0 means
	// DefaultRingSize.
	RingSize int
}

// Defaults for Config zero values.
const (
	DefaultDebounce  = 100 * time.Millisecond
	DefaultQueueSize = 64
	DefaultRingSize  = 64
)

// Status is the API view of one job.
type Status struct {
	ID   string      `json:"id"`
	Spec api.JobSpec `json:"spec"`
	// RunSeq is the sequence number of the latest published run (0
	// before the first).
	RunSeq uint64 `json:"run_seq"`
	// Version is the dataset version last mined.
	Version uint64 `json:"version,omitempty"`
	// LastError is the most recent failed run's error, cleared by the
	// next success.
	LastError string `json:"last_error,omitempty"`
	// Subscribers is the current stream subscriber count.
	Subscribers int `json:"subscribers"`
	// Dropped counts subscribers disconnected for not draining.
	Dropped uint64 `json:"dropped_subscribers,omitempty"`
}

// StoredJob is one job as recovered from the journal: the opaque spec
// and (possibly nil) latest-result blobs the persist layer carried.
type StoredJob struct {
	ID     string
	Spec   []byte
	Result []byte
}

// Manager owns every continuous-mining job: creation, recovery,
// change notification, the per-job run loops, and the subscriber hubs.
type Manager struct {
	cfg    Config
	logger *slog.Logger
	met    *Metrics

	ctx    context.Context // canceled on Close; parents every run
	cancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*job
	idSeq  uint64
	closed bool
}

// job is one continuous-mining job. A single mutex guards both the
// mined state and the subscriber hub, so a new subscriber's snapshot
// and its position in the event stream are always consistent.
type job struct {
	spec     api.JobSpec
	debounce time.Duration

	// pending is the latest notified dataset version (0 = none yet);
	// written by Notify, consumed by the run loop.
	pending atomic.Uint64

	trigger chan struct{} // capacity 1: notifications coalesce
	stop    chan struct{}
	done    chan struct{}

	mu       sync.Mutex
	runSeq   uint64
	version  uint64 // dataset version last mined
	last     *Result
	lastErr  string
	ring     []Event
	subs     map[*subscriber]struct{}
	dropped  uint64
	stopping bool
}

type subscriber struct {
	ch chan Event
}

// Subscription is one live event stream. Receive from C; a closed C
// means the subscriber was dropped (slow consumer) or the job was
// deleted. Close releases the subscription.
type Subscription struct {
	C <-chan Event

	m   *Manager
	j   *job
	sub *subscriber
}

// Close unregisters the subscription. Safe to call after the channel
// was closed by a drop or job deletion.
func (s *Subscription) Close() {
	s.j.mu.Lock()
	_, live := s.j.subs[s.sub]
	if live {
		delete(s.j.subs, s.sub)
		close(s.sub.ch)
	}
	s.j.mu.Unlock()
	if live {
		s.m.met.Subscribers.Dec()
	}
}

// New builds a Manager. Call Restore before serving if the journal
// holds recovered jobs, and Close on shutdown.
func New(cfg Config) (*Manager, error) {
	if cfg.Runner == nil || cfg.Journal == nil {
		return nil, errors.New("jobs: Config.Runner and Config.Journal are required")
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(obs.NewRegistry())
	}
	if cfg.Debounce <= 0 {
		cfg.Debounce = DefaultDebounce
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = DefaultQueueSize
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		cfg:    cfg,
		logger: cfg.Logger,
		met:    cfg.Metrics,
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*job),
	}, nil
}

// Restore installs journal-recovered jobs and starts their run loops,
// seeded with their last results so the first post-restart run diffs
// against pre-restart state instead of re-announcing everything. An
// undecodable spec is logged and skipped — one corrupt job must not
// take down boot. Specs decode as strictly as a create request
// (dataio.DecodeJSON): an unknown field or data after the JSON value
// makes a spec undecodable, because dropping either could restore a
// different job (a spec spelling its mode as "type" would mine temporal
// patterns). Call once, before the first Create/Notify.
func (m *Manager) Restore(stored []StoredJob) {
	for _, sj := range stored {
		var spec api.JobSpec
		if err := dataio.DecodeJSON(bytes.NewReader(sj.Spec), &spec); err != nil {
			m.logger.Warn("jobs: skipping job with undecodable journaled spec", "job", sj.ID, "error", err)
			continue
		}
		var last *Result
		if len(sj.Result) > 0 {
			var res Result
			if err := json.Unmarshal(sj.Result, &res); err != nil {
				m.logger.Warn("jobs: ignoring undecodable journaled result", "job", sj.ID, "error", err)
			} else {
				last = &res
			}
		}
		spec.ID = sj.ID
		m.mu.Lock()
		if _, dup := m.jobs[sj.ID]; dup {
			m.mu.Unlock()
			m.logger.Warn("jobs: duplicate job id in journal; keeping first", "job", sj.ID)
			continue
		}
		j := m.newJobLocked(spec)
		if last != nil {
			j.runSeq, j.version, j.last = last.RunSeq, last.Version, last
		}
		m.jobs[sj.ID] = j
		m.mu.Unlock()
		go m.runLoop(j)
		// Arm an immediate run: if the dataset moved (or first appeared)
		// while the server was down, the job catches up now; if not, the
		// version check makes this a no-op.
		j.notify(0)
	}
	m.met.Jobs.Set(int64(m.Count()))
}

// newJobLocked builds the in-memory job for spec. Caller holds m.mu.
func (m *Manager) newJobLocked(spec api.JobSpec) *job {
	debounce := m.cfg.Debounce
	if spec.DebounceMillis > 0 {
		debounce = time.Duration(spec.DebounceMillis) * time.Millisecond
	}
	return &job{
		spec:     spec,
		debounce: debounce,
		trigger:  make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		subs:     make(map[*subscriber]struct{}),
	}
}

// Create validates, journals, and starts a new job, returning its
// status (with the generated id when the spec left it empty).
func (m *Manager) Create(spec api.JobSpec) (Status, error) {
	if err := spec.Validate(); err != nil {
		return Status{}, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Status{}, ErrClosed
	}
	if spec.ID == "" {
		for {
			m.idSeq++
			id := fmt.Sprintf("job-%d", m.idSeq)
			if _, taken := m.jobs[id]; !taken {
				spec.ID = id
				break
			}
		}
	} else if _, taken := m.jobs[spec.ID]; taken {
		m.mu.Unlock()
		return Status{}, ErrExists
	}
	blob, err := json.Marshal(spec)
	if err != nil { // unreachable: specs are plain data
		m.mu.Unlock()
		return Status{}, fmt.Errorf("jobs: encode spec: %w", err)
	}
	// Commit-before-visible: the job exists only if the journal took it.
	if err := m.cfg.Journal.JobPut(spec.ID, blob); err != nil {
		m.mu.Unlock()
		return Status{}, err
	}
	j := m.newJobLocked(spec)
	m.jobs[spec.ID] = j
	n := len(m.jobs)
	m.mu.Unlock()
	m.met.Jobs.Set(int64(n))
	m.logger.Info("job created", "job", spec.ID, "dataset", spec.Dataset,
		"mode", cmp.Or(spec.Mine.Mode, api.ModeTemporal), "window", spec.Mine.Window.Kind)
	go m.runLoop(j)
	j.notify(0) // first run: mine whatever is there now
	return j.status(), nil
}

// Get returns one job's status.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, ErrNotFound
	}
	return j.status(), nil
}

// List returns every job's status, ordered by id.
func (m *Manager) List() []Status {
	m.mu.Lock()
	js := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	out := make([]Status, 0, len(js))
	for _, j := range js {
		out = append(out, j.status())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Result returns the latest journaled-equivalent result of a job, or
// ok=false before the first completed run.
func (m *Manager) Result(id string) (Result, bool, error) {
	m.mu.Lock()
	j, exists := m.jobs[id]
	m.mu.Unlock()
	if !exists {
		return Result{}, false, ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.last == nil {
		return Result{}, false, nil
	}
	return *j.last, true, nil
}

// Delete journals the removal, stops the run loop, and disconnects
// every subscriber.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrNotFound
	}
	if err := m.cfg.Journal.JobDelete(id); err != nil {
		m.mu.Unlock()
		return err
	}
	delete(m.jobs, id)
	n := len(m.jobs)
	m.mu.Unlock()
	m.met.Jobs.Set(int64(n))
	m.stopJob(j)
	m.logger.Info("job deleted", "job", id)
	return nil
}

// stopJob halts a job's run loop and closes its subscribers.
func (m *Manager) stopJob(j *job) {
	j.mu.Lock()
	already := j.stopping
	j.stopping = true
	j.mu.Unlock()
	if !already {
		close(j.stop)
	}
	<-j.done
	j.mu.Lock()
	subs := make([]*subscriber, 0, len(j.subs))
	for sub := range j.subs {
		subs = append(subs, sub)
	}
	for _, sub := range subs {
		delete(j.subs, sub)
		close(sub.ch)
	}
	j.mu.Unlock()
	m.met.Subscribers.Add(-int64(len(subs)))
}

// Count returns the number of live jobs.
func (m *Manager) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// Notify tells the manager a dataset changed. Every job watching it is
// armed with the new version; bursts coalesce in the trigger channel
// and the per-job debounce. Safe to call from any goroutine and cheap
// enough for the mutation hot path (a map scan and an atomic store).
func (m *Manager) Notify(dataset string, version uint64) {
	m.mu.Lock()
	var armed []*job
	for _, j := range m.jobs {
		if j.spec.Dataset == dataset {
			armed = append(armed, j)
		}
	}
	m.mu.Unlock()
	for _, j := range armed {
		j.notify(version)
	}
}

// Close stops every run loop and closes every subscriber. Jobs remain
// journaled; the next boot restores them.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	js := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	m.cancel()
	for _, j := range js {
		m.stopJob(j)
	}
}

// notify arms the job with a (possibly unknown = 0) new version.
func (j *job) notify(version uint64) {
	if version != 0 {
		j.pending.Store(version)
	}
	select {
	case j.trigger <- struct{}{}:
	default: // already armed; versions coalesce via j.pending
	}
}

// status snapshots the job for the API.
func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:          j.spec.ID,
		Spec:        j.spec,
		RunSeq:      j.runSeq,
		Version:     j.version,
		LastError:   j.lastErr,
		Subscribers: len(j.subs),
		Dropped:     j.dropped,
	}
}

// runLoop is the job's goroutine: wait for a trigger, debounce the
// burst, run once, repeat. One loop per job means runs never overlap.
func (m *Manager) runLoop(j *job) {
	defer close(j.done)
	for {
		select {
		case <-j.stop:
			return
		case <-j.trigger:
		}
		// Debounce: restart the quiet-period timer on every further
		// notification, so an ingest burst becomes one run.
		timer := time.NewTimer(j.debounce)
	quiet:
		for {
			select {
			case <-j.stop:
				timer.Stop()
				return
			case <-j.trigger:
				if !timer.Stop() {
					<-timer.C
				}
				timer.Reset(j.debounce)
			case <-timer.C:
				break quiet
			}
		}
		m.runOnce(j)
	}
}

// runOnce executes one mining run and publishes its delta. Runs where
// the dataset version has not moved — including the armed run a
// restart schedules — are no-ops.
func (m *Manager) runOnce(j *job) {
	j.mu.Lock()
	lastVersion := j.version
	j.mu.Unlock()
	if pending := j.pending.Load(); pending != 0 && pending == lastVersion {
		m.met.runDone("noop", 0)
		return
	}

	start := time.Now()
	out, err := m.cfg.Runner.RunJob(m.ctx, j.spec)
	switch {
	case errors.Is(err, ErrDatasetMissing):
		// Not an error state: the job waits for the dataset to appear.
		m.met.runDone("noop", time.Since(start))
		return
	case err != nil:
		if m.ctx.Err() != nil {
			return // shutdown canceled the run; not a job failure
		}
		j.mu.Lock()
		j.lastErr = err.Error()
		j.mu.Unlock()
		m.met.runDone("error", time.Since(start))
		m.logger.Warn("job run failed", "job", j.spec.ID, "error", err)
		return
	case out.Version == lastVersion:
		// Redundant trigger (or post-restart catch-up with nothing to
		// catch up on): same version ⇒ same patterns; publish nothing.
		m.met.runDone("noop", time.Since(start))
		return
	}

	j.mu.Lock()
	prev := j.last
	runSeq := j.runSeq + 1
	j.mu.Unlock()

	var prevPatterns []Pattern
	if prev != nil {
		prevPatterns = prev.Patterns
	}
	added, removed, changed := Diff(prevPatterns, out.Patterns)
	delta := Delta{
		JobID:   j.spec.ID,
		RunSeq:  runSeq,
		Dataset: j.spec.Dataset,
		Version: out.Version,
		Added:   added,
		Removed: removed,
		Changed: changed,
		Total:   len(out.Patterns),
	}
	result := &Result{
		JobID:    j.spec.ID,
		RunSeq:   runSeq,
		Dataset:  j.spec.Dataset,
		Version:  out.Version,
		Patterns: out.Patterns,
	}
	deltaJSON, err := json.Marshal(delta)
	if err != nil { // unreachable: deltas are plain data
		m.logger.Warn("job delta encode failed", "job", j.spec.ID, "error", err)
		return
	}
	resultJSON, err := json.Marshal(result)
	if err != nil {
		m.logger.Warn("job result encode failed", "job", j.spec.ID, "error", err)
		return
	}
	// Journal the full result before publishing (best effort: a journal
	// outage must not stop the stream — the next successful write
	// supersedes, and subscribers resume from the ring).
	if err := m.cfg.Journal.JobResult(j.spec.ID, resultJSON); err != nil {
		m.logger.Warn("job result journaling failed; continuing", "job", j.spec.ID, "error", err)
	}

	ev := Event{ID: runSeq, Type: EventDelta, Data: deltaJSON}
	j.mu.Lock()
	j.runSeq = runSeq
	j.version = out.Version
	j.last = result
	j.lastErr = ""
	fanout, droppedNow := j.publishLocked(ev, m.cfg.RingSize)
	j.mu.Unlock()
	m.met.runDone("ok", time.Since(start))
	m.met.Events.Inc()
	m.met.SSESent.Add(uint64(fanout))
	m.met.SSEDropped.Add(uint64(len(droppedNow)))
	m.met.Subscribers.Add(-int64(len(droppedNow)))
	m.logger.Info("job run published", "job", j.spec.ID, "run", runSeq,
		"version", out.Version, "patterns", len(out.Patterns),
		"added", len(added), "removed", len(removed), "changed", len(changed),
		"duration_ms", time.Since(start).Milliseconds())
}

// publishLocked appends ev to the replay ring and fans it out to every
// subscriber. A subscriber whose queue is full is dropped: its channel
// closes mid-stream and the client reconnects with Last-Event-ID.
// Returns the number of subscribers reached and those dropped. Caller
// holds j.mu.
func (j *job) publishLocked(ev Event, ringSize int) (fanout int, dropped []*subscriber) {
	j.ring = append(j.ring, ev)
	if len(j.ring) > ringSize {
		j.ring = j.ring[len(j.ring)-ringSize:]
	}
	for sub := range j.subs {
		select {
		case sub.ch <- ev:
			fanout++
		default:
			delete(j.subs, sub)
			close(sub.ch)
			j.dropped++
			dropped = append(dropped, sub)
		}
	}
	return fanout, dropped
}

// Subscribe opens an event stream on a job. lastEventID is the
// client's Last-Event-ID (nil for a fresh subscriber). The returned
// backlog must be delivered before reading from the subscription: it
// is either the replayed deltas the client missed (when the ring still
// covers its position), a full "result" snapshot (fresh subscriber, or
// resume position fallen out of the ring — e.g. after a restart), or
// empty (client already current, or no run has completed yet). Events
// published after Subscribe returns arrive on the channel; the split
// is race-free because backlog and registration are decided under one
// lock.
func (m *Manager) Subscribe(id string, lastEventID *uint64) (*Subscription, []Event, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, nil, ErrNotFound
	}
	sub := &subscriber{ch: make(chan Event, m.cfg.QueueSize)}
	j.mu.Lock()
	if j.stopping {
		j.mu.Unlock()
		return nil, nil, ErrNotFound
	}
	backlog := j.backlogLocked(lastEventID)
	j.subs[sub] = struct{}{}
	j.mu.Unlock()
	m.met.Subscribers.Inc()
	return &Subscription{C: sub.ch, m: m, j: j, sub: sub}, backlog, nil
}

// backlogLocked decides what a new subscriber must be sent first.
// Caller holds j.mu.
func (j *job) backlogLocked(lastEventID *uint64) []Event {
	if lastEventID != nil {
		last := *lastEventID
		if last >= j.runSeq {
			return nil // already current (or ahead — a restart reset runSeq is impossible; it is journaled)
		}
		// Replay from the ring when it still covers last+1.
		if len(j.ring) > 0 && j.ring[0].ID <= last+1 {
			var out []Event
			for _, ev := range j.ring {
				if ev.ID > last {
					out = append(out, ev)
				}
			}
			return out
		}
		// Gap (ring trimmed, or emptied by a restart): fall through to a
		// snapshot.
	}
	if j.last == nil {
		return nil // no run yet; the first delta will arrive live
	}
	data, err := json.Marshal(j.last)
	if err != nil { // unreachable: results are plain data
		return nil
	}
	return []Event{{ID: j.runSeq, Type: EventResult, Data: data}}
}
