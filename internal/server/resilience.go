package server

import (
	"errors"
	"log/slog"
	"sync"
	"time"

	"tpminer/internal/persist"
	"tpminer/internal/resilience"
)

// errDegraded is returned by the resilient journal while the circuit
// breaker is open: persistence is unavailable and mutations are being
// rejected. writeError maps it to 503 with the stable "degraded" code and
// a Retry-After hint; reads and cached mines keep serving throughout.
var errDegraded = errors.New("persistence degraded: server is read-only while the store recovers")

// resilientJournal wraps the persist store's journal with a circuit
// breaker and a background recovery probe, turning persistent disk
// trouble into graceful read-only degradation instead of an unbounded
// stream of failing writes:
//
//   - While the breaker is closed every mutation journals as before (the
//     store itself retries transient I/O internally).
//   - Repeated journal failures trip the breaker open. From then on
//     mutations fail fast with errDegraded — no disk I/O at all — while
//     reads, cached mines, and fresh mines over resident datasets keep
//     serving.
//   - A background prober periodically moves the breaker to half-open
//     and asks the store to prove itself (persist.Store.Probe re-commits
//     the acknowledged state as a snapshot). The first success closes
//     the breaker and the server returns to read-write on its own; no
//     operator action or restart is needed.
type resilientJournal struct {
	inner      *persist.Store
	br         *resilience.Breaker
	met        *resilienceMetrics
	logger     *slog.Logger
	probeEvery time.Duration

	mu        sync.Mutex
	probing   bool      // a probeLoop goroutine is live
	trippedAt time.Time // when the current degraded episode began

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newResilientJournal(inner *persist.Store, threshold int, probeEvery time.Duration, met *resilienceMetrics, logger *slog.Logger) *resilientJournal {
	return &resilientJournal{
		inner:      inner,
		br:         resilience.NewBreaker(threshold),
		met:        met,
		logger:     logger,
		probeEvery: probeEvery,
		stop:       make(chan struct{}),
	}
}

// write journals one record under version through the breaker; the
// store's commit sends every record here. Only the closed state admits
// writes; half-open is reserved for the background prober, so client
// traffic never races the recovery check.
func (j *resilientJournal) write(version uint64, record func(*persist.Store, uint64) error) error {
	if !j.br.Allow() {
		return errDegraded
	}
	err := record(j.inner, version)
	if err == nil {
		j.br.Success()
		return nil
	}
	if j.br.Failure(resilience.IsPermanent(err)) {
		j.met.breakerTrips.Inc()
		j.met.breakerState.Set(int64(resilience.BreakerOpen))
		j.logger.Warn("persistence breaker tripped; entering read-only degraded mode",
			"error", err.Error(), "probe_interval", j.probeEvery.String())
		j.startProber()
	}
	return err
}

// degraded reports whether the server should be refusing mutations.
func (j *resilientJournal) degraded() bool {
	return j.br.State() != resilience.BreakerClosed
}

// startProber launches the recovery probe goroutine for this degraded
// episode, exactly once per episode.
func (j *resilientJournal) startProber() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.probing {
		return
	}
	j.probing = true
	j.trippedAt = time.Now()
	j.wg.Add(1)
	go j.probeLoop()
}

// probeLoop periodically asks the persist store to prove it can write
// again, closing the breaker on the first success. It exits when the
// breaker closes or the journal shuts down.
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
		if !j.br.BeginProbe() {
			// Not open: either we already closed it (done) or a probe is
			// somehow mid-flight; only this goroutine probes, so treat a
			// closed breaker as the end of the episode.
			if j.br.State() == resilience.BreakerClosed {
				j.finishEpisode()
				return
			}
			continue
		}
		j.met.breakerState.Set(int64(resilience.BreakerHalfOpen))
		err := j.inner.Probe()
		if err != nil {
			j.met.probes.With("fail").Inc()
			j.br.ProbeResult(false)
			j.met.breakerState.Set(int64(resilience.BreakerOpen))
			j.logger.Warn("persistence recovery probe failed; staying degraded", "error", err.Error())
			continue
		}
		j.met.probes.With("ok").Inc()
		// Clear the episode bookkeeping *before* closing the breaker: the
		// instant ProbeResult(true) lands, a mutation can fail and trip
		// the breaker again, and that new episode must be able to start
		// its own prober.
		dur := j.finishEpisode()
		j.br.ProbeResult(true)
		j.met.breakerState.Set(int64(resilience.BreakerClosed))
		j.logger.Info("persistence recovered; resuming read-write",
			"degraded_for", dur.String())
		return
	}
}

// finishEpisode closes out the current degraded episode's bookkeeping
// and returns how long it lasted.
func (j *resilientJournal) finishEpisode() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.probing {
		return 0
	}
	j.probing = false
	dur := time.Since(j.trippedAt)
	j.met.degradedSeconds.Add(dur.Seconds())
	return dur
}

// close stops the prober and accounts any still-open degraded episode.
// Idempotent; the underlying persist store is owned by the caller of
// NewWithConfig and is not closed here.
func (j *resilientJournal) close() {
	j.stopOnce.Do(func() { close(j.stop) })
	j.wg.Wait()
	j.finishEpisode()
}
