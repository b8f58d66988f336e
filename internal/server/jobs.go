package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"tpminer/internal/api"
	"tpminer/internal/cache"
	"tpminer/internal/jobs"
)

// This file is the server side of continuous mining: the /v1/jobs
// resource handlers, the SSE delta stream, and jobRunner, which plugs
// the jobs manager into the cached/sharded mine path, so a job run and
// a batch request with the same spec share cache entries and produce
// identical patterns. The manager journals through the dataset store
// itself (its JobPut/JobDelete/JobResult commit like any mutation), so
// jobs and their latest results survive restarts.

// jobRunner implements jobs.Runner on the server's mine path.
type jobRunner struct{ s *Server }

func (jr jobRunner) RunJob(ctx context.Context, spec api.JobSpec) (jobs.RunOutput, error) {
	s := jr.s
	db, ver, ok := s.store.snapshot(spec.Dataset)
	if !ok {
		return jobs.RunOutput{}, jobs.ErrDatasetMissing
	}
	// Identical key to a batch mine with this spec: a job run right after
	// a client's own mine (or vice versa) is a cache hit, not a re-mine.
	key := cache.Key{Dataset: spec.Dataset, Version: ver, Options: spec.Mine.ResultOptions(), Exec: spec.Mine.ExecOptions()}
	e, _, err := s.cachedMine(ctx, key, db, spec.Mine)
	if err != nil {
		return jobs.RunOutput{}, err
	}
	// Job specs never select rules mode, so the entry has rows. They are
	// shared with every hit on the entry, and the manager only reads them.
	return jobs.RunOutput{Version: ver, Patterns: e.rows}, nil
}

// minedPatternKey is the stable identity of a mined pattern across
// runs: its rendering plus relation summary — everything but the
// support, whose changes the deltas track.
func minedPatternKey(p MinedPattern) string {
	if p.Relations == "" {
		return p.Pattern
	}
	return p.Pattern + "\x1f" + p.Relations
}

// --------------------------------------------------------- job handlers

func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	if !s.requireContentType(w, r, "application/json") {
		return
	}
	var spec api.JobSpec
	if err := s.decodeJSONBody(r, &spec); err != nil {
		s.writeError(w, r, err)
		return
	}
	st, err := s.jobMgr.Create(spec)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.logger.Info("job created", "request_id", requestID(r), "job", st.ID,
		"dataset", spec.Dataset)
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	s.writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.jobMgr.List())
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.jobMgr.Get(id)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.jobMgr.Delete(id); err != nil {
		s.writeError(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleJobResult serves the latest run's full pattern set, with the
// same strong-ETag/304 machinery as batch mining: the tag pins (job,
// run), and a run is immutable once published.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, ok, err := s.jobMgr.Result(id)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if !ok {
		s.writeError(w, r, fmt.Errorf("job %q result %w: no run has completed yet", id, errNotFound))
		return
	}
	etag := resultETag(cache.Key{Dataset: "job/" + id, Version: res.RunSeq, Options: "job-result"})
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("ETag", etag)
	s.writeJSON(w, http.StatusOK, res)
}

// handleJobEvents streams a job's deltas as Server-Sent Events. Each
// event's id is the run sequence, so a dropped client resumes exactly by
// sending Last-Event-ID: the replay ring fills small gaps, and larger
// ones (a restart, a slow consumer far behind) get one full "result"
// snapshot to rebase on. Heartbeat comments keep idle connections alive
// through proxies; a subscriber that cannot drain its queue is
// disconnected (its channel closes) rather than allowed to stall the
// job.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, r, fmt.Errorf("%w: streaming unsupported by this connection", errInternal))
		return
	}
	var lastEventID *uint64
	if h := r.Header.Get("Last-Event-ID"); h != "" {
		v, err := strconv.ParseUint(h, 10, 64)
		if err != nil {
			s.writeError(w, r, fmt.Errorf("malformed Last-Event-ID %q", h))
			return
		}
		lastEventID = &v
	}
	sub, backlog, err := s.jobMgr.Subscribe(id, lastEventID)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	for _, ev := range backlog {
		if err := writeSSE(w, ev); err != nil {
			return
		}
	}
	flusher.Flush()

	heartbeat := time.NewTicker(s.cfg.SSEHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			// Client went away; Subscribe's Close (deferred) unregisters.
			return
		case ev, open := <-sub.C:
			if !open {
				// Dropped as a slow consumer, or the job was deleted / the
				// server is closing. Ending the response makes the client
				// reconnect with Last-Event-ID and resume (or get the 404).
				return
			}
			if err := writeSSE(w, ev); err != nil {
				return
			}
			// Drain whatever else is queued before flushing once.
			for {
				select {
				case ev, open := <-sub.C:
					if !open {
						flusher.Flush()
						return
					}
					if err := writeSSE(w, ev); err != nil {
						return
					}
					continue
				default:
				}
				break
			}
			flusher.Flush()
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// writeSSE frames one event in text/event-stream format. Payloads are
// single-line JSON, so no data-field splitting is needed.
func writeSSE(w interface{ Write([]byte) (int, error) }, ev jobs.Event) error {
	_, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, ev.Data)
	return err
}
