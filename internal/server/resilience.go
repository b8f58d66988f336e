package server

import (
	"errors"
	"log/slog"
	"sync"
	"time"

	"tpminer/internal/persist"
	"tpminer/internal/resilience"
)

// errDegraded is returned by the resilient journal while it is
// degraded: persistence is unavailable and mutations are being
// rejected. writeError maps it to 503 with the stable "degraded" code
// and a Retry-After hint; reads and cached mines keep serving
// throughout.
var errDegraded = errors.New("persistence degraded: server is read-only while the store recovers")

// defaultBreakerThreshold is the failure score that trips the journal
// into degraded mode when Config.BreakerFailureThreshold is 0.
const defaultBreakerThreshold = 3

// The values of the tpmd_resilience_breaker_state gauge.
const (
	stateReadWrite = 0
	stateDegraded  = 1
	stateProbing   = 2
)

// resilientJournal wraps the persist store's journal and is the one
// owner of read-only degraded mode, turning persistent disk trouble
// into graceful degradation instead of an unbounded stream of failing
// writes. One mutex guards its state: a failure score and the time the
// current degraded episode began.
//
//   - While read-write every mutation journals as before (the store
//     itself retries transient I/O internally). A failure adds to the
//     score — a permanent one (ENOSPC, EROFS) 2, a transient one 1 —
//     and any success clears it.
//   - A score at the threshold starts a degraded episode. From then on
//     mutations fail fast with errDegraded — no disk I/O at all — while
//     reads, cached mines, and fresh mines over resident datasets keep
//     serving.
//   - The episode's one prober periodically asks the store to prove
//     itself (persist.Store.Probe re-commits the acknowledged state as
//     a snapshot). Its first success ends the episode, under the mutex,
//     and the server returns to read-write on its own; no operator
//     action or restart is needed. Client writes stay refused until
//     then, so they never race a probe.
type resilientJournal struct {
	inner      *persist.Store
	threshold  int
	met        *resilienceMetrics
	logger     *slog.Logger
	probeEvery time.Duration

	mu        sync.Mutex
	failures  int       // weighted failure score since the last success
	trippedAt time.Time // when the degraded episode began; zero while read-write

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newResilientJournal(inner *persist.Store, threshold int, probeEvery time.Duration, met *resilienceMetrics, logger *slog.Logger) *resilientJournal {
	return &resilientJournal{
		inner:      inner,
		threshold:  threshold,
		met:        met,
		logger:     logger,
		probeEvery: probeEvery,
		stop:       make(chan struct{}),
	}
}

// write journals one record under version; the store's commit sends
// every record here. A degraded journal refuses it without I/O.
func (j *resilientJournal) write(version uint64, record func(*persist.Store, uint64) error) error {
	if j.degraded() {
		return errDegraded
	}
	err := record(j.inner, version)
	if j.score(err) {
		j.logger.Warn("persistence breaker tripped; entering read-only degraded mode",
			"error", err.Error(), "probe_interval", j.probeEvery.String())
	}
	return err
}

// score takes in one write's outcome: a success clears the failure
// score, and a failure that brings it to the threshold starts a
// degraded episode and its prober, and reports true.
func (j *resilientJournal) score(err error) (tripped bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err == nil {
		j.failures = 0
		return false
	}
	if !j.trippedAt.IsZero() {
		return false // a concurrent write tripped first; its episode runs
	}
	j.failures++
	if resilience.IsPermanent(err) {
		j.failures++
	}
	if j.failures < j.threshold {
		return false
	}
	j.trippedAt = time.Now()
	j.met.breakerTrips.Inc()
	j.met.breakerState.Set(stateDegraded)
	j.wg.Add(1)
	go j.probeLoop()
	return true
}

// degraded reports whether the server should be refusing mutations.
func (j *resilientJournal) degraded() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.trippedAt.IsZero()
}

// probeLoop is the episode's prober: every probeEvery it asks the
// persist store to prove it can write again, and ends the episode on
// the first success. It exits then, or when the journal closes. Only
// this goroutine sets the gauge during its episode, and it sets it last
// under the lock that ends the episode, so a write tripping the next
// episode right after finds the gauge its own.
func (j *resilientJournal) probeLoop() {
	defer j.wg.Done()
	t := time.NewTicker(j.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-t.C:
		}
		j.met.breakerState.Set(stateProbing)
		if err := j.inner.Probe(); err != nil {
			j.met.breakerState.Set(stateDegraded)
			j.met.probes.With("fail").Inc()
			j.logger.Warn("persistence recovery probe failed; staying degraded", "error", err.Error())
			continue
		}
		j.met.probes.With("ok").Inc()
		j.mu.Lock()
		dur := time.Since(j.trippedAt)
		j.trippedAt, j.failures = time.Time{}, 0
		j.met.degradedSeconds.Add(dur.Seconds())
		j.met.breakerState.Set(stateReadWrite)
		j.mu.Unlock()
		j.logger.Info("persistence recovered; resuming read-write",
			"degraded_for", dur.String())
		return
	}
}

// close stops the prober and accounts a still-open degraded episode,
// which stays open: nothing probes the store after close. Idempotent;
// the underlying persist store is owned by the caller of NewWithConfig
// and is not closed here.
func (j *resilientJournal) close() {
	j.stopOnce.Do(func() {
		close(j.stop)
		j.wg.Wait()
		j.mu.Lock()
		defer j.mu.Unlock()
		if !j.trippedAt.IsZero() {
			j.met.degradedSeconds.Add(time.Since(j.trippedAt).Seconds())
		}
	})
}
