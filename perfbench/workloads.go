package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"tpminer/internal/api"
	"tpminer/internal/interval"
	"tpminer/internal/jobs"
	"tpminer/internal/persist"
	"tpminer/internal/server"
)

// Workload sizes. Each timed operation does the same work, and each
// run makes at least minTimedOps of them.
const (
	coldSequences   = 1000 // mine_cold and shard_remote dataset
	coldMinSupport  = 0.01
	hotSequences    = 1000 // read_hot dataset
	hotMinSupport   = 0.003
	ingestSequences = 1000 // ingest_job seed dataset and sliding window
	ingestSupport   = 0.01
	ingestEvents    = server.DefaultIngestFlushCount // one inline flush per request
	ingestDebounce  = 1                              // job debounce_ms

	coldWarmups   = 2  // untimed mines after the upload
	hotWarmups    = 20 // untimed hits after the filling miss
	ingestWarmups = 2  // untimed appends after the job's first run
)

// opResult is what one timed operation observed.
type opResult struct {
	latency   time.Duration
	bytes     int     // response body (or SSE delta payload) bytes
	elapsedMs float64 // server-reported mining time; -1 when nothing was mined
	patterns  int     // patterns this operation mined (0 on a cache hit)
	deltaSize int     // ingest_job: added + removed + changed patterns
}

// workload is one named traffic mix against fresh tpmd processes.
type workload interface {
	// launch starts the workload's tpmd processes and waits until each
	// answers.
	launch(bin, dir string) (*deployment, error)
	// prepare runs the rest of set-up on a fresh deployment: uploads, job
	// creation and the untimed warm-up operations.
	prepare(d *deployment) error
	// op runs timed operation i and checks its output.
	op(d *deployment) (opResult, error)
	// verify runs the end-of-run output checks.
	verify() error
	// guard checks the workload's character on the metric deltas of ops
	// timed operations and returns every violation.
	guard(before, after series, ops int) []string
	// replay re-runs n operations in process through the layers' public
	// functions, recording spans into tr.
	replay(d *deployment, tr *tracer, n int) (*replayCounts, error)
	// teardown releases what prepare opened against the deployment.
	teardown()
	// describe reports input sizes and settings for the provenance line.
	describe() map[string]any
}

// newWorkload builds the named workload's inputs from seed.
func newWorkload(name string, seed int64, dir string) (workload, error) {
	pool, err := questPool()
	if err != nil {
		return nil, err
	}
	seqs := draw(pool, seed)
	switch name {
	case "mine_cold", "shard_remote":
		in, err := newMineInputs(seqs[:coldSequences], coldMinSupport, api.WindowSpec{})
		if err != nil {
			return nil, err
		}
		return &mineWorkload{in: in, remote: name == "shard_remote"}, nil
	case "read_hot":
		in, err := newMineInputs(seqs[:hotSequences], hotMinSupport, api.WindowSpec{})
		if err != nil {
			return nil, err
		}
		return &mineWorkload{in: in, hot: true}, nil
	case "ingest_job":
		return newIngestWorkload(seqs, dir)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// workloadNames lists the workloads in the order the steadiness mode
// runs them.
var workloadNames = []string{"mine_cold", "read_hot", "ingest_job", "shard_remote"}

// ------------------------------------------------------------- mining

// mineWorkload drives the mine route: mine_cold (a re-PUT before every
// mine so each one misses the cache), shard_remote (the same against a
// server whose shards run on a worker process) and read_hot (the same
// request on an unchanged dataset, so every mine is a cache hit).
type mineWorkload struct {
	in     *mineInputs
	remote bool
	hot    bool

	shards  int    // the server's configured shard count
	hitBody []byte // read_hot: the verified bytes every hit must repeat
}

func (w *mineWorkload) launch(bin, dir string) (*deployment, error) {
	roles := []string{"server"}
	if w.remote {
		roles = []string{"worker", "server"}
	}
	return launch(bin, dir, roles, func(role string, started []*proc) []string {
		switch {
		case role == "worker":
			return []string{"-role", "worker"}
		case w.remote:
			return []string{"-workers", "http://" + started[0].addr}
		}
		return nil
	})
}

func (w *mineWorkload) put(d *deployment, want int) error {
	_, err := expect(d.hc, want, http.MethodPut, d.base+"/v1/datasets/bench", "text/csv", w.in.csv)
	return err
}

func (w *mineWorkload) prepare(d *deployment) error {
	if err := w.put(d, http.StatusCreated); err != nil {
		return err
	}
	n, err := d.server.gomaxprocs()
	if err != nil {
		return err
	}
	w.shards = n // tpmd's default -shards is GOMAXPROCS
	w.hitBody = nil
	if w.hot {
		// The first mine fills the cache; the first hit after it is
		// decoded and checked, and every later hit must repeat its bytes.
		if _, err := w.mine(d, "miss"); err != nil {
			return err
		}
		for i := 0; i < hotWarmups; i++ {
			if _, err := w.op(d); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < coldWarmups; i++ {
		if _, err := w.op(d); err != nil {
			return err
		}
	}
	return nil
}

func (w *mineWorkload) op(d *deployment) (opResult, error) {
	if w.hot {
		return w.mine(d, "hit")
	}
	// Re-uploading the same bytes bumps the dataset version, so the mine
	// that follows misses the cache. The upload is not timed.
	if err := w.put(d, http.StatusOK); err != nil {
		return opResult{}, err
	}
	return w.mine(d, "miss")
}

// mine posts the workload's request and checks the response against the
// reference; want is the cache outcome the response must report.
func (w *mineWorkload) mine(d *deployment, want string) (opResult, error) {
	t0 := time.Now()
	status, body, err := d.request(http.MethodPost, "/v1/datasets/bench/mine", "application/json", w.in.body)
	r := opResult{latency: time.Since(t0), bytes: len(body), elapsedMs: -1}
	if err != nil {
		return r, err
	}
	if status != http.StatusOK {
		return r, fmt.Errorf("mine: HTTP %d: %.200s", status, body)
	}
	if w.hitBody != nil && bytes.Equal(body, w.hitBody) {
		return r, nil
	}
	var resp server.MineResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return r, fmt.Errorf("mine: decode response: %w", err)
	}
	if resp.Cache != want {
		return r, fmt.Errorf("mine: cache %q, want %q", resp.Cache, want)
	}
	if resp.Count != len(resp.Patterns) {
		return r, fmt.Errorf("mine: count %d but %d patterns", resp.Count, len(resp.Patterns))
	}
	if err := samePatterns(resp.Patterns, w.in.ref); err != nil {
		return r, fmt.Errorf("mine: %w", err)
	}
	if want == "hit" {
		w.hitBody = append([]byte(nil), body...)
		return r, nil
	}
	r.elapsedMs = float64(resp.Stats.ElapsedMillis)
	r.patterns = resp.Count
	return r, nil
}

func (w *mineWorkload) verify() error { return nil }
func (w *mineWorkload) teardown()     {}

func (w *mineWorkload) guard(before, after series, ops int) []string {
	g := guards{before: before, after: after}
	n := float64(ops)
	if w.hot {
		g.want("tpmd_cache_hits_total", n)
		g.want("tpmd_cache_misses_total", 0)
		g.want("tpmd_miner_nodes_total", 0)
	} else {
		g.want("tpmd_cache_misses_total", n)
		g.want("tpmd_cache_hits_total", 0)
		g.want(`tpmd_mine_runs_total{type="temporal",outcome="ok"}`, n)
		if w.shards > 1 {
			g.want("tpmd_shard_fanout_total", n)
		}
	}
	if w.remote {
		g.want("tpmd_remote_shard_pushes_total", n*float64(w.shards))
		g.want(`tpmd_remote_rpcs_total{op="mine",outcome="ok"}`, n*float64(w.shards))
	} else {
		g.want("tpmd_remote_rpcs_total", 0)
	}
	g.common()
	return g.violations
}

func (w *mineWorkload) describe() map[string]any {
	return map[string]any{
		"sequences":     w.in.db.Len(),
		"intervals":     countIntervals(w.in.db.Sequences),
		"upload_bytes":  len(w.in.csv),
		"request":       json.RawMessage(w.in.body),
		"patterns":      len(w.in.ref),
		"reupload_each": !w.hot,
		"fsync":         "none (in-memory)",
	}
}

// ------------------------------------------------------------- ingest

// ingestWorkload streams NDJSON events into a persistent tpmd that runs
// a sliding-window job over the dataset, and times each append until
// the job's delta for it arrives over SSE.
type ingestWorkload struct {
	in     *mineInputs           // the seed dataset and the job's mine spec
	chunks [][]byte              // event request bodies, ingestEvents events each
	added  [][]interval.Sequence // the sequences each chunk appends
	dir    string                // run directory: data dirs live under it
	spec   []byte                // the job spec body

	shards int
	sseHC  *http.Client
	sse    *sseStream
	state  []jobs.Pattern // the job's patterns, rebuilt from its events
	next   int            // next chunk to send
}

func newIngestWorkload(seqs []interval.Sequence, dir string) (*ingestWorkload, error) {
	win := api.WindowSpec{Kind: api.WindowSliding, Count: ingestSequences}
	in, err := newMineInputs(seqs[:ingestSequences], ingestSupport, win)
	if err != nil {
		return nil, err
	}
	// The rest of the pool streams in, twice over (the second time under
	// new sequence ids), enough appends for a minute and a half.
	stream := append([]interval.Sequence(nil), seqs[ingestSequences:]...)
	for _, s := range seqs[ingestSequences:] {
		s.ID += ".2"
		stream = append(stream, s)
	}
	chunks, added, err := eventChunks(stream, ingestEvents)
	if err != nil {
		return nil, err
	}
	spec, err := json.Marshal(api.JobSpec{ID: "bench", Dataset: "bench", Mine: in.spec, DebounceMillis: ingestDebounce})
	if err != nil {
		return nil, err
	}
	return &ingestWorkload{in: in, chunks: chunks, added: added, dir: dir, spec: spec}, nil
}

func (w *ingestWorkload) launch(bin, dir string) (*deployment, error) {
	data, err := os.MkdirTemp(dir, "data-")
	if err != nil {
		return nil, err
	}
	d, err := launch(bin, dir, []string{"server"}, func(string, []*proc) []string {
		return []string{"-data-dir", data, "-fsync", persist.FsyncAlways}
	})
	if err != nil {
		os.RemoveAll(data)
		return nil, err
	}
	d.scratch = append(d.scratch, data)
	return d, nil
}

func (w *ingestWorkload) prepare(d *deployment) error {
	w.state, w.next = nil, 0
	if _, err := expect(d.hc, http.StatusCreated, http.MethodPut, d.base+"/v1/datasets/bench", "text/csv", w.in.csv); err != nil {
		return err
	}
	n, err := d.server.gomaxprocs()
	if err != nil {
		return err
	}
	w.shards = n
	if _, err := expect(d.hc, http.StatusCreated, http.MethodPost, d.base+"/v1/jobs", "application/json", w.spec); err != nil {
		return err
	}
	// The stream's connection lives as long as the run, so its client has
	// no overall timeout; each wait for an event is bounded instead.
	w.sseHC = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	if w.sse, err = openSSE(w.sseHC, d.base+"/v1/jobs/bench/events"); err != nil {
		return err
	}
	// The job's first run mines the seed dataset: its result arrives as
	// a snapshot (run already done) or as the first delta.
	ev, err := w.sse.next(time.Minute)
	if err != nil {
		return fmt.Errorf("first job run: %w", err)
	}
	switch ev.kind {
	case jobs.EventResult:
		var res jobs.Result
		if err := json.Unmarshal(ev.data, &res); err != nil {
			return fmt.Errorf("first job result: %w", err)
		}
		w.state = res.Patterns
		jobs.SortPatterns(w.state)
	case jobs.EventDelta:
		if _, err := w.apply(ev); err != nil {
			return err
		}
	default:
		return fmt.Errorf("first job event has type %q", ev.kind)
	}
	for i := 0; i < ingestWarmups; i++ {
		if _, err := w.op(d); err != nil {
			return err
		}
	}
	return nil
}

// apply folds one delta event into the tracked pattern set and checks
// the delta's own total.
func (w *ingestWorkload) apply(ev sseEvent) (jobs.Delta, error) {
	var dl jobs.Delta
	if ev.kind != jobs.EventDelta {
		return dl, fmt.Errorf("job event type %q, want %q", ev.kind, jobs.EventDelta)
	}
	if err := json.Unmarshal(ev.data, &dl); err != nil {
		return dl, fmt.Errorf("decode job delta: %w", err)
	}
	w.state = jobs.Apply(w.state, dl)
	if dl.Total != len(w.state) {
		return dl, fmt.Errorf("delta for version %d totals %d, applied state has %d", dl.Version, dl.Total, len(w.state))
	}
	return dl, nil
}

func (w *ingestWorkload) op(d *deployment) (opResult, error) {
	if w.next >= len(w.chunks) {
		return opResult{}, fmt.Errorf("event stream exhausted after %d appends", w.next)
	}
	t0 := time.Now()
	body, err := expect(d.hc, http.StatusAccepted, http.MethodPost, d.base+"/v1/datasets/bench/events", "application/x-ndjson", w.chunks[w.next])
	if err != nil {
		return opResult{}, err
	}
	w.next++
	var ack struct {
		Version uint64 `json:"version"`
		Pending int    `json:"pending"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return opResult{}, fmt.Errorf("decode ingest ack: %w", err)
	}
	if ack.Version == 0 || ack.Pending != 0 {
		return opResult{}, fmt.Errorf("ingest did not flush inline: %s", body)
	}
	for {
		ev, err := w.sse.next(time.Minute)
		if err != nil {
			return opResult{}, err
		}
		dl, err := w.apply(ev)
		if err != nil {
			return opResult{}, err
		}
		switch {
		case dl.Version == ack.Version:
			return opResult{
				latency:   time.Since(t0),
				bytes:     len(ev.data),
				elapsedMs: -1,
				patterns:  dl.Total,
				deltaSize: len(dl.Added) + len(dl.Removed) + len(dl.Changed),
			}, nil
		case dl.Version > ack.Version:
			return opResult{}, fmt.Errorf("delta for version %d arrived while waiting for %d", dl.Version, ack.Version)
		}
	}
}

// verify checks that the cumulative deltas equal a fresh serial mine of
// the final window, byte for byte.
func (w *ingestWorkload) verify() error {
	seqs := append([]interval.Sequence(nil), w.in.db.Sequences...)
	for _, a := range w.added[:w.next] {
		seqs = append(seqs, a...)
	}
	window := &interval.Database{Sequences: seqs[len(seqs)-ingestSequences:]}
	ref, err := reference(window, w.in.spec)
	if err != nil {
		return err
	}
	want, err := jobPatterns(ref)
	if err != nil {
		return err
	}
	jobs.SortPatterns(want)
	if len(want) != len(w.state) {
		return fmt.Errorf("cumulative deltas hold %d patterns, a fresh mine of the final window has %d", len(w.state), len(want))
	}
	for i := range want {
		g, r := w.state[i], want[i]
		if g.Key != r.Key || g.Support != r.Support || !bytes.Equal(g.Body, r.Body) {
			return fmt.Errorf("cumulative pattern %d is %s (support %d), fresh mine has %s (support %d)", i, g.Key, g.Support, r.Key, r.Support)
		}
	}
	return nil
}

// jobPatterns converts mine rows to the job's pattern form, keyed the
// way the server keys them: the rendering plus the relation summary.
func jobPatterns(rows []server.MinedPattern) ([]jobs.Pattern, error) {
	out := make([]jobs.Pattern, len(rows))
	for i, mp := range rows {
		body, err := json.Marshal(mp)
		if err != nil {
			return nil, err
		}
		key := mp.Pattern
		if mp.Relations != "" {
			key += "\x1f" + mp.Relations
		}
		out[i] = jobs.Pattern{Key: key, Support: mp.Support, Body: body}
	}
	return out, nil
}

func (w *ingestWorkload) teardown() {
	if w.sse != nil {
		w.sse.close()
		w.sse = nil
	}
	if w.sseHC != nil {
		w.sseHC.CloseIdleConnections()
	}
}

func (w *ingestWorkload) guard(before, after series, ops int) []string {
	g := guards{before: before, after: after}
	n := float64(ops)
	g.want(`tpmd_job_runs_total{outcome="ok"}`, n)
	g.want(`tpmd_job_runs_total{outcome="error"}`, 0)
	g.want("tpmd_ingest_batches_total", n)
	g.want("tpmd_cache_misses_total", n)
	g.want("tpmd_cache_hits_total", 0)
	g.want("tpmd_sse_dropped_total", 0)
	g.atLeast("tpmd_persist_fsyncs_total", 2*n) // the append and the job result
	g.common()
	return g.violations
}

func (w *ingestWorkload) describe() map[string]any {
	return map[string]any{
		"seed_sequences":  w.in.db.Len(),
		"seed_intervals":  countIntervals(w.in.db.Sequences),
		"window":          ingestSequences,
		"events_per_op":   ingestEvents,
		"job":             json.RawMessage(w.spec),
		"fsync":           persist.FsyncAlways,
		"appends_sent":    w.next,
		"appends_planned": len(w.chunks),
	}
}

// ------------------------------------------------------------- guards

// guards collects violations of a workload's expected metric deltas.
type guards struct {
	before, after series
	violations    []string
}

func (g *guards) want(metric string, v float64) {
	name, labels := splitSeries(metric)
	if got := delta(g.before, g.after, name, labels...); got != v {
		g.violations = append(g.violations, fmt.Sprintf("%s moved by %v, want %v", metric, got, v))
	}
}

func (g *guards) atLeast(metric string, v float64) {
	name, labels := splitSeries(metric)
	if got := delta(g.before, g.after, name, labels...); got < v {
		g.violations = append(g.violations, fmt.Sprintf("%s moved by %v, want at least %v", metric, got, v))
	}
}

// common holds for every workload: no remote retries or failovers, no
// shed or failed mines.
func (g *guards) common() {
	g.want("tpmd_remote_retries_total", 0)
	g.want("tpmd_remote_failovers_total", 0)
	g.want("tpmd_resilience_shed_total", 0)
	for _, outcome := range []string{"truncated", "deadline", "canceled", "invalid"} {
		g.want(`tpmd_mine_runs_total{outcome="`+outcome+`"}`, 0)
	}
}

// splitSeries turns `name{a="b",c="d"}` into the name and its label
// pairs (no label value here contains a comma).
func splitSeries(s string) (string, []string) {
	name, rest, ok := strings.Cut(s, "{")
	if !ok {
		return s, nil
	}
	return name, strings.Split(strings.TrimSuffix(rest, "}"), ",")
}

func countIntervals(seqs []interval.Sequence) int {
	n := 0
	for _, s := range seqs {
		n += len(s.Intervals)
	}
	return n
}
