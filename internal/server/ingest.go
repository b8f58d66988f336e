package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"time"

	"tpminer/internal/api"
	"tpminer/internal/dataio"
	"tpminer/internal/interval"
)

// This file implements chunked streaming ingestion: POST
// /v1/datasets/{name}/events accepts newline-delimited JSON event
// intervals and batches them into versioned dataset appends. Batching is
// two-dimensional — the buffer flushes, as one append, once it holds
// IngestFlushCount events (inline, while the triggering request is
// still being handled, so that request observes the append's error) or
// when the oldest buffered event reaches IngestFlushAge (on a timer, so
// a trickle of events still becomes visible without waiting for a full
// batch).

// ingestEvent is one NDJSON line: an interval destined for a sequence.
type ingestEvent struct {
	Seq    string `json:"seq"`
	Symbol string `json:"symbol"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// ingestPool owns one batcher per dataset, created lazily on first
// ingest and kept for the server's lifetime (batchers are tiny when
// idle).
type ingestPool struct {
	s *Server

	mu       sync.Mutex
	batchers map[string]*ingestBatcher
	closed   bool
}

func (p *ingestPool) batcher(name string) (*ingestBatcher, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errShuttingDown
	}
	b, ok := p.batchers[name]
	if !ok {
		b = &ingestBatcher{pool: p, dataset: name}
		p.batchers[name] = b
	}
	return b, nil
}

// close stops age timers and flushes whatever is still buffered, so a
// clean shutdown loses no acknowledged events (their final append is
// journaled before Close returns).
func (p *ingestPool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	batchers := make([]*ingestBatcher, 0, len(p.batchers))
	for _, b := range p.batchers {
		batchers = append(batchers, b)
	}
	p.mu.Unlock()
	for _, b := range batchers {
		b.shutdown()
	}
}

// ingestBatcher accumulates events for one dataset between flushes.
type ingestBatcher struct {
	pool    *ingestPool
	dataset string

	mu      sync.Mutex
	pending []ingestEvent
	timer   *time.Timer // age flush; armed iff pending is non-empty
	flushes uint64      // total flushes for this dataset (response telemetry)
	closed  bool
}

// add buffers one request's events, all or nothing. Once the buffer
// holds the configured count it flushes inline, whole, as one append;
// if that fails the buffer goes back to what it held before the
// request, so the client sees the error and a retry ingests its events
// exactly once, while events acknowledged earlier stay buffered for the
// age timer. The returned version is the dataset version after the
// flush (0 if everything is still buffered), and pending is the number
// of events left waiting on the age timer.
func (b *ingestBatcher) add(events []ingestEvent) (version uint64, pending int, flushes uint64, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, 0, b.flushes, errShuttingDown
	}
	held := len(b.pending)
	b.pending = append(b.pending, events...)
	if len(b.pending) >= b.pool.s.cfg.IngestFlushCount {
		version, err = b.flushLocked(b.pending)
		if err != nil {
			b.pending = b.pending[:held]
		} else {
			b.pending = b.pending[:0]
		}
	}
	b.scheduleLocked()
	return version, len(b.pending), b.flushes, err
}

// scheduleLocked arms (or disarms) the age-flush timer to match the
// buffer state. Caller holds b.mu.
func (b *ingestBatcher) scheduleLocked() {
	if len(b.pending) == 0 || b.closed {
		if b.timer != nil {
			b.timer.Stop()
			b.timer = nil
		}
		return
	}
	if b.timer == nil {
		b.timer = time.AfterFunc(b.pool.s.cfg.IngestFlushAge, b.ageFlush)
	}
}

// ageFlush is the timer path: flush whatever has accumulated. Errors
// here have no request to report to; the events stay buffered for the
// next attempt, but the buffer is capped so a persistently failing store
// cannot grow it without bound — overflow is dropped and counted.
func (b *ingestBatcher) ageFlush() {
	s := b.pool.s
	b.mu.Lock()
	defer b.mu.Unlock()
	b.timer = nil
	if b.closed || len(b.pending) == 0 {
		return
	}
	if _, err := b.flushLocked(b.pending); err != nil {
		if max := 8 * s.cfg.IngestFlushCount; len(b.pending) > max {
			dropped := len(b.pending) - max
			b.pending = b.pending[:max]
			s.met.ingestRejected.Add(uint64(dropped))
			s.logger.Warn("ingest buffer overflow while store unavailable; dropping oldest-pending events",
				"dataset", b.dataset, "dropped", dropped, "error", err.Error())
		}
		b.scheduleLocked()
		return
	}
	b.pending = b.pending[:0]
}

// flushLocked appends one batch to the store as a new dataset version,
// creating the dataset if this is its first event; the store's commit
// hook then drops cached results and wakes the jobs watching the
// dataset. Caller holds b.mu.
func (b *ingestBatcher) flushLocked(batch []ingestEvent) (uint64, error) {
	s := b.pool.s
	_, ver, err := s.store.append(b.dataset, eventsToDatabase(batch), true)
	if err != nil {
		return 0, err
	}
	b.flushes++
	s.met.ingestEvents.Add(uint64(len(batch)))
	s.met.ingestBatches.Inc()
	return ver, nil
}

// shutdown flushes the remaining buffer once, best-effort, and marks the
// batcher closed.
func (b *ingestBatcher) shutdown() {
	s := b.pool.s
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	if len(b.pending) == 0 {
		return
	}
	if _, err := b.flushLocked(b.pending); err != nil {
		s.met.ingestRejected.Add(uint64(len(b.pending)))
		s.logger.Warn("dropping buffered ingest events at shutdown",
			"dataset", b.dataset, "dropped", len(b.pending), "error", err.Error())
	}
	b.pending = nil
}

// eventsToDatabase groups a batch into sequences. Events for the same
// sequence keep arrival order within the batch; intervals are sorted per
// sequence so the increment satisfies the store's validated-input
// invariant regardless of arrival order.
func eventsToDatabase(batch []ingestEvent) *interval.Database {
	index := make(map[string]int, len(batch))
	seqs := make([]interval.Sequence, 0, len(batch))
	for _, ev := range batch {
		iv := interval.Interval{Symbol: ev.Symbol, Start: interval.Time(ev.Start), End: interval.Time(ev.End)}
		i, ok := index[ev.Seq]
		if !ok {
			i = len(seqs)
			index[ev.Seq] = i
			seqs = append(seqs, interval.Sequence{ID: ev.Seq})
		}
		seqs[i].Intervals = append(seqs[i].Intervals, iv)
	}
	for i := range seqs {
		interval.SortIntervals(seqs[i].Intervals)
	}
	return &interval.Database{Sequences: seqs}
}

// ingestResponse acknowledges one ingest request. Accepted events are
// durable up to Version; Pending counts events still buffered awaiting
// the age flush (they become durable within IngestFlushAge).
type ingestResponse struct {
	Dataset  string `json:"dataset"`
	Accepted int    `json:"accepted"`
	Pending  int    `json:"pending"`
	Flushes  uint64 `json:"flushes"`
	Version  uint64 `json:"version,omitempty"`
}

// decodeIngestLine decodes one NDJSON line, which must hold exactly one
// event, and validates the event.
func decodeIngestLine(line []byte) (ingestEvent, error) {
	var ev ingestEvent
	if err := dataio.DecodeJSON(bytes.NewReader(line), &ev); err != nil {
		return ingestEvent{}, err
	}
	if ev.Seq == "" {
		return ingestEvent{}, &api.FieldError{Field: "seq", Msg: "missing sequence id"}
	}
	iv := interval.Interval{Symbol: ev.Symbol, Start: interval.Time(ev.Start), End: interval.Time(ev.End)}
	if err := iv.Valid(); err != nil {
		return ingestEvent{}, err
	}
	return ev, nil
}

// handleIngest streams NDJSON event intervals into a dataset. Each line
// is validated as it is read — the first bad line fails the whole
// request with its line number, before anything from the request is
// buffered — so a 202 means every line was accepted.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.requireContentType(w, r, "application/x-ndjson", "application/json") {
		return
	}
	name := r.PathValue("name")
	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var events []ingestEvent
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		ev, err := decodeIngestLine(raw)
		if err != nil {
			s.writeError(w, r, fmt.Errorf("line %d: %w", line, err))
			return
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		s.writeError(w, r, err)
		return
	}
	if len(events) == 0 {
		s.writeError(w, r, fmt.Errorf("no events in request body"))
		return
	}
	b, err := s.ingest.batcher(name)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	ver, pending, flushes, err := b.add(events)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, ingestResponse{
		Dataset:  name,
		Accepted: len(events),
		Pending:  pending,
		Flushes:  flushes,
		Version:  ver,
	})
}
