package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tpminer/internal/api"
	"tpminer/internal/dataio"
	"tpminer/internal/interval"
	"tpminer/internal/jobs"
	"tpminer/internal/persist"
	"tpminer/internal/shard/workertest"
)

// newStreamServer builds a server tuned for streaming tests: tiny flush
// thresholds and debounce so ingestion and job runs settle in
// milliseconds. It returns the Server itself (so tests can Close it and
// reach the jobs manager) alongside the HTTP front end.
func newStreamServer(t *testing.T, ps *persist.Store, queue int) (*Server, *httptest.Server) {
	t.Helper()
	svc := NewWithConfig(nil, Config{
		MaxConcurrentMines: 8,
		Persist:            ps,
		IngestFlushCount:   4,
		IngestFlushAge:     20 * time.Millisecond,
		JobDebounce:        5 * time.Millisecond,
		SSESubscriberQueue: queue,
		SSEHeartbeat:       100 * time.Millisecond,
	})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return svc, ts
}

// sseClient is a minimal text/event-stream reader over one connection.
type sseClient struct {
	cancel context.CancelFunc
	body   interface{ Close() error }
	sc     *bufio.Scanner
}

func dialSSE(t *testing.T, url string, lastEventID string) *sseClient {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatalf("dial SSE: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		cancel()
		t.Fatalf("dial SSE: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		cancel()
		t.Fatalf("dial SSE: Content-Type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	return &sseClient{cancel: cancel, body: resp.Body, sc: sc}
}

func (c *sseClient) close() {
	c.cancel()
	c.body.Close()
}

// next reads one event (skipping heartbeats), failing the test after
// the deadline.
func (c *sseClient) next(t *testing.T, timeout time.Duration) (id uint64, event string, data []byte) {
	t.Helper()
	done := make(chan struct{})
	var ok bool
	go func() {
		defer close(done)
		for c.sc.Scan() {
			line := c.sc.Text()
			switch {
			case line == "":
				if event != "" {
					ok = true
					return
				}
				id, event, data = 0, "", nil
			case strings.HasPrefix(line, ":"):
				// heartbeat
			case strings.HasPrefix(line, "id: "):
				id, _ = strconv.ParseUint(line[4:], 10, 64)
			case strings.HasPrefix(line, "event: "):
				event = line[7:]
			case strings.HasPrefix(line, "data: "):
				data = append(data, line[6:]...)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		c.cancel() // unblocks the scanner goroutine
		<-done
		t.Fatalf("no SSE event within %v", timeout)
	}
	if !ok {
		t.Fatalf("SSE stream ended: %v", c.sc.Err())
	}
	return id, event, data
}

// ndjsonWave renders count sequences of exactly 4 events each, starting
// at sequence number from. Symbol choice varies with the wave so
// consecutive waves both add patterns and change supports.
func ndjsonWave(from, count int, extra string) string {
	var b strings.Builder
	for i := from; i < from+count; i++ {
		seq := fmt.Sprintf("s%04d", i)
		fmt.Fprintf(&b, `{"seq":%q,"symbol":"A","start":0,"end":10}`+"\n", seq)
		fmt.Fprintf(&b, `{"seq":%q,"symbol":"B","start":5,"end":15}`+"\n", seq)
		fmt.Fprintf(&b, `{"seq":%q,"symbol":%q,"start":20,"end":30}`+"\n", seq, extra)
		fmt.Fprintf(&b, `{"seq":%q,"symbol":"A","start":25,"end":28}`+"\n", seq)
	}
	return b.String()
}

// jobPatternsOf converts a batch mine response to the jobs-package
// pattern form, using the same key and body encoding as the job runner.
func jobPatternsOf(t *testing.T, mineBody string) []jobs.Pattern {
	t.Helper()
	var resp MineResponse
	if err := json.Unmarshal([]byte(mineBody), &resp); err != nil {
		t.Fatalf("mine response: %v", err)
	}
	out := make([]jobs.Pattern, 0, len(resp.Patterns))
	for _, mp := range resp.Patterns {
		body, err := json.Marshal(mp)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, jobs.Pattern{Key: minedPatternKey(mp), Support: mp.Support, Body: body})
	}
	return out
}

func sortPatterns(ps []jobs.Pattern) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Key < ps[j].Key })
}

// expectSamePatterns asserts two pattern sets are identical as sets —
// same keys, same supports, byte-identical bodies.
func expectSamePatterns(t *testing.T, label string, got, want []jobs.Pattern) {
	t.Helper()
	sortPatterns(got)
	sortPatterns(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d patterns, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || got[i].Support != want[i].Support ||
			string(got[i].Body) != string(want[i].Body) {
			t.Fatalf("%s: pattern %d differs:\n got  %s sup=%d %s\n want %s sup=%d %s",
				label, i, got[i].Key, got[i].Support, got[i].Body,
				want[i].Key, want[i].Support, want[i].Body)
		}
	}
}

const streamJobSpec = `{"id":"live","dataset":"stream",
	"mine":{"mode":"temporal","min_count":2,"window":{"kind":"sliding","count":40}},
	"debounce_ms":5}`

const streamMineSpec = `{"mode":"temporal","min_count":2,"window":{"kind":"sliding","count":40}}`

// waitJobVersion polls the job status until its last mined version
// reaches want.
func waitJobVersion(t *testing.T, baseURL string, want uint64) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body := do(t, "GET", baseURL+"/v1/jobs/live", "", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job status: %d %s", resp.StatusCode, body)
		}
		var st jobs.Status
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("job status: %v", err)
		}
		if st.Version >= want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached version %d: %+v", want, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamingEndToEnd is the acceptance test for streaming ingestion
// plus continuous mining: NDJSON events flow in while a sliding-window
// job is live; the cumulative application of its SSE deltas must equal
// a fresh batch mine of the same window byte-for-byte, and the job and
// its last result must survive a clean server restart, including
// Last-Event-ID resume across it.
func TestStreamingEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ps, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newStreamServer(t, ps, 0)

	if resp, body := do(t, "POST", ts.URL+"/v1/jobs", "application/json", streamJobSpec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create job: %d %s", resp.StatusCode, body)
	} else if loc := resp.Header.Get("Location"); loc != "/v1/jobs/live" {
		t.Fatalf("create job: Location %q", loc)
	}

	sse := dialSSE(t, ts.URL+"/v1/jobs/live/events", "")
	defer sse.close()

	// Three ingest waves; every wave is whole 4-event sequences, so with
	// IngestFlushCount=4 each request flushes completely inline
	// (pending must be 0) and reports the version of its last flush.
	var lastVersion uint64
	for wave, extra := range []string{"C", "C", "D"} {
		resp, body := do(t, "POST", ts.URL+"/v1/datasets/stream/events", "application/x-ndjson",
			ndjsonWave(wave*20, 20, extra))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest wave %d: %d %s", wave, resp.StatusCode, body)
		}
		var ack struct {
			Accepted int    `json:"accepted"`
			Pending  int    `json:"pending"`
			Version  uint64 `json:"version"`
		}
		if err := json.Unmarshal([]byte(body), &ack); err != nil {
			t.Fatal(err)
		}
		if ack.Accepted != 80 || ack.Pending != 0 || ack.Version == 0 {
			t.Fatalf("ingest wave %d ack: %+v", wave, ack)
		}
		lastVersion = ack.Version
	}

	st := waitJobVersion(t, ts.URL, lastVersion)
	if st.RunSeq == 0 || st.LastError != "" {
		t.Fatalf("job after ingest: %+v", st)
	}

	// Fresh batch mine of the same window, same spec: the reference.
	mineResp, mineBody := do(t, "POST", ts.URL+"/v1/datasets/stream/mine", "application/json", streamMineSpec)
	if mineResp.StatusCode != http.StatusOK {
		t.Fatalf("batch mine: %d %s", mineResp.StatusCode, mineBody)
	}
	want := jobPatternsOf(t, mineBody)
	if len(want) == 0 {
		t.Fatal("batch mine found no patterns; test data is broken")
	}

	// Apply the deltas cumulatively until the job's last run.
	var cumulative []jobs.Pattern
	var lastID uint64
	sawDelta := false
	for {
		id, event, data := sse.next(t, 5*time.Second)
		if event != jobs.EventDelta {
			t.Fatalf("unexpected event %q before first delta", event)
		}
		var d jobs.Delta
		if err := json.Unmarshal(data, &d); err != nil {
			t.Fatalf("delta: %v", err)
		}
		cumulative = jobs.Apply(cumulative, d)
		if len(cumulative) != d.Total {
			t.Fatalf("delta run=%d: applied set has %d patterns, Total says %d", d.RunSeq, len(cumulative), d.Total)
		}
		sawDelta = true
		lastID = id
		if d.Version == lastVersion {
			break
		}
	}
	if !sawDelta {
		t.Fatal("no deltas received")
	}
	expectSamePatterns(t, "cumulative deltas vs batch mine", cumulative, want)

	// The stored latest result agrees too, and carries an ETag.
	resResp, resBody := do(t, "GET", ts.URL+"/v1/jobs/live/result", "", "")
	if resResp.StatusCode != http.StatusOK {
		t.Fatalf("job result: %d %s", resResp.StatusCode, resBody)
	}
	etag := resResp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("job result has no ETag")
	}
	var res jobs.Result
	if err := json.Unmarshal([]byte(resBody), &res); err != nil {
		t.Fatal(err)
	}
	expectSamePatterns(t, "stored result vs batch mine", res.Patterns, want)

	// Clean restart: jobs and their last results are journaled.
	sse.close()
	ts.Close()
	svc.Close()
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	ps2, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newStreamServer(t, ps2, 0)

	resp, body := do(t, "GET", ts2.URL+"/v1/jobs/live", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job after restart: %d %s", resp.StatusCode, body)
	}
	var st2 jobs.Status
	if err := json.Unmarshal([]byte(body), &st2); err != nil {
		t.Fatal(err)
	}
	if st2.RunSeq != res.RunSeq {
		t.Fatalf("job run seq after restart: %d, want %d", st2.RunSeq, res.RunSeq)
	}
	resp, body2 := do(t, "GET", ts2.URL+"/v1/jobs/live/result", "", "")
	if resp.StatusCode != http.StatusOK || body2 != resBody {
		t.Fatalf("job result after restart: %d; body changed: %v", resp.StatusCode, body2 != resBody)
	}
	if tag2 := resp.Header.Get("ETag"); tag2 != etag {
		t.Fatalf("result ETag after restart: %q, want %q", tag2, etag)
	}

	// Last-Event-ID resume across the restart: the replay ring died with
	// the process, so a resumer behind the current run gets one full
	// "result" snapshot to rebase on — identical to the stored result.
	resume := dialSSE(t, ts2.URL+"/v1/jobs/live/events", strconv.FormatUint(lastID-1, 10))
	// Closed before ts2's cleanup, which waits for the open handler.
	defer resume.close()
	id, event, data := resume.next(t, 5*time.Second)
	if event != jobs.EventResult {
		t.Fatalf("resume after restart: got %q event, want %q", event, jobs.EventResult)
	}
	if id != res.RunSeq {
		t.Fatalf("resume snapshot id %d, want %d", id, res.RunSeq)
	}
	var snap jobs.Result
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	expectSamePatterns(t, "restart resume snapshot", snap.Patterns, want)

	// New ingest after the restart produces deltas diffed against the
	// restored state — the stream continues, not restarts. The wave is
	// several inline flushes, and the job's debounce can expire between
	// them, so read deltas until one reports the ingest's last version.
	resp, body = do(t, "POST", ts2.URL+"/v1/datasets/stream/events", "application/x-ndjson",
		ndjsonWave(60, 20, "E"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-restart ingest: %d %s", resp.StatusCode, body)
	}
	var ack struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal([]byte(body), &ack); err != nil {
		t.Fatal(err)
	}
	rebased := snap.Patterns
	for wantRun := res.RunSeq + 1; ; wantRun++ {
		_, event, data = resume.next(t, 5*time.Second)
		if event != jobs.EventDelta {
			t.Fatalf("post-restart event: %q, want delta", event)
		}
		var d jobs.Delta
		if err := json.Unmarshal(data, &d); err != nil {
			t.Fatal(err)
		}
		if d.RunSeq != wantRun {
			t.Fatalf("post-restart delta run %d, want %d", d.RunSeq, wantRun)
		}
		rebased = jobs.Apply(rebased, d)
		if d.Version == ack.Version {
			break
		}
	}
	mineResp, mineBody = do(t, "POST", ts2.URL+"/v1/datasets/stream/mine", "application/json", streamMineSpec)
	if mineResp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart batch mine: %d %s", mineResp.StatusCode, mineBody)
	}
	expectSamePatterns(t, "post-restart deltas vs batch mine", rebased, jobPatternsOf(t, mineBody))
}

// TestSSEClientDisconnectNoLeak: subscribers that vanish must leave no
// handler goroutine and no registration behind.
func TestSSEClientDisconnectNoLeak(t *testing.T) {
	_, ts := newStreamServer(t, nil, 0)
	if resp, body := do(t, "POST", ts.URL+"/v1/jobs", "application/json", streamJobSpec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create job: %d %s", resp.StatusCode, body)
	}
	do(t, "POST", ts.URL+"/v1/datasets/stream/events", "application/x-ndjson", ndjsonWave(0, 4, "C"))
	waitJobVersion(t, ts.URL, 1)

	baseline := runtime.NumGoroutine()
	clients := make([]*sseClient, 0, 8)
	for i := 0; i < 8; i++ {
		clients = append(clients, dialSSE(t, ts.URL+"/v1/jobs/live/events", ""))
	}
	// Every subscriber gets the snapshot backlog; read it to prove the
	// streams are live before tearing them down.
	for _, c := range clients {
		if _, event, _ := c.next(t, 5*time.Second); event != jobs.EventResult {
			t.Fatalf("backlog event %q, want result", event)
		}
	}
	for _, c := range clients {
		c.close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body := do(t, "GET", ts.URL+"/v1/jobs/live", "", "")
		var st jobs.Status
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("job status: %d %s", resp.StatusCode, body)
		}
		if st.Subscribers == 0 && runtime.NumGoroutine() <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak: %d subscribers, %d goroutines (baseline %d)",
				st.Subscribers, runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// blockingWriter is an http.ResponseWriter whose Write parks until the
// test releases it — a subscriber whose connection has stopped
// accepting bytes, seen from the handler's side.
type blockingWriter struct {
	mu      sync.Mutex
	header  http.Header
	release chan struct{}
	wrote   chan struct{} // closed on first blocked write
	once    sync.Once
}

func newBlockingWriter() *blockingWriter {
	return &blockingWriter{
		header:  make(http.Header),
		release: make(chan struct{}),
		wrote:   make(chan struct{}),
	}
}

func (w *blockingWriter) Header() http.Header { return w.header }
func (w *blockingWriter) WriteHeader(int)     {}
func (w *blockingWriter) Flush()              {}
func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.wrote) })
	<-w.release
	return len(p), nil
}

// TestSSESlowConsumerDroppedHTTP: with a queue of one, a subscriber
// whose connection stops draining is dropped by the publisher — its
// channel closes, the handler returns, and the drop is accounted — while
// the job keeps running.
func TestSSESlowConsumerDroppedHTTP(t *testing.T) {
	svc, ts := newStreamServer(t, nil, 1)
	if resp, body := do(t, "POST", ts.URL+"/v1/jobs", "application/json", streamJobSpec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create job: %d %s", resp.StatusCode, body)
	}
	do(t, "POST", ts.URL+"/v1/datasets/stream/events", "application/x-ndjson", ndjsonWave(0, 4, "C"))
	waitJobVersion(t, ts.URL, 1)

	w := newBlockingWriter()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", "/v1/jobs/live/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.SetPathValue("id", "live")
	done := make(chan struct{})
	go func() {
		defer close(done)
		svc.handleJobEvents(w, req)
	}()

	// The backlog snapshot is the first write; it parks the handler.
	select {
	case <-w.wrote:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never wrote the backlog")
	}

	// Each wave bumps the version and publishes a delta. The handler is
	// stuck mid-write, so the first delta sits in the queue (capacity 1)
	// and a later one finds it full: drop.
	deadline := time.Now().Add(10 * time.Second)
	for wave := 1; ; wave++ {
		do(t, "POST", ts.URL+"/v1/datasets/stream/events", "application/x-ndjson", ndjsonWave(wave*4, 4, "C"))
		_, body := do(t, "GET", ts.URL+"/v1/jobs/live", "", "")
		var st jobs.Status
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if st.Dropped >= 1 {
			if st.Subscribers != 0 {
				t.Fatalf("dropped subscriber still registered: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow consumer never dropped: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Release the parked write: the handler must observe its closed
	// channel and return promptly.
	close(w.release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return after the drop")
	}

	// The job itself is unaffected: a fresh subscriber streams fine.
	fresh := dialSSE(t, ts.URL+"/v1/jobs/live/events", "")
	defer fresh.close()
	if _, event, _ := fresh.next(t, 5*time.Second); event != jobs.EventResult {
		t.Fatalf("fresh subscriber after drop: event %q", event)
	}
}

// TestJobDeleteIsDurable: a deleted job must stay deleted across a
// restart — the tombstone is journaled like any other mutation.
func TestJobDeleteIsDurable(t *testing.T) {
	dir := t.TempDir()
	ps, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newStreamServer(t, ps, 0)
	if resp, body := do(t, "POST", ts.URL+"/v1/jobs", "application/json", streamJobSpec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create job: %d %s", resp.StatusCode, body)
	}
	if resp, body := do(t, "POST", ts.URL+"/v1/jobs", "application/json", streamJobSpec); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate job: %d %s (want 409)", resp.StatusCode, body)
	}
	if resp, _ := do(t, "DELETE", ts.URL+"/v1/jobs/live", "", ""); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete job: %d", resp.StatusCode)
	}
	ts.Close()
	svc.Close()
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	ps2, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newStreamServer(t, ps2, 0)
	if resp, body := do(t, "GET", ts2.URL+"/v1/jobs/live", "", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted job resurrected: %d %s", resp.StatusCode, body)
	}
	if resp, body := do(t, "GET", ts2.URL+"/v1/jobs", "", ""); resp.StatusCode != http.StatusOK || strings.Contains(body, "live") {
		t.Fatalf("job list after restart: %d %s", resp.StatusCode, body)
	}
}

// FuzzJobDeltasAgree is FuzzMinePathsAgree's draw taken through a
// continuous job: the first half of the drawn sequences is PUT in the
// JSON body format (which carries empty sequences), a job with the drawn
// mine spec is created, and the rest is appended in one request. After
// each version, the cumulative application of the job's SSE events
// must equal the rows of a batch mine of the same spec at that version.
func FuzzJobDeltasAgree(f *testing.F) {
	svc := NewWithConfig(nil, Config{MaxConcurrentMines: 8, SSEHeartbeat: time.Second})
	ts := httptest.NewServer(svc.Handler())
	f.Cleanup(func() { ts.Close(); svc.Close() })
	var n int
	f.Fuzz(func(t *testing.T, data []byte) {
		db, kind, topK, opt := workertest.MineInput(data)
		n++
		name := fmt.Sprintf("d%d", n)
		spec, err := json.Marshal(api.MineSpec{Mode: string(kind), MiningOptions: api.MiningOptions{MinCount: opt.MinCount},
			MaxSpan: int64(opt.MaxSpan), MaxGap: int64(opt.MaxGap), TopK: topK})
		if err != nil {
			t.Fatal(err)
		}
		upload := func(method, path string, seqs []interval.Sequence) uint64 {
			t.Helper()
			var body strings.Builder
			if err := dataio.WriteJSON(&body, &interval.Database{Sequences: seqs}); err != nil {
				t.Fatal(err)
			}
			if resp, reply := do(t, method, ts.URL+path, "application/json", body.String()); resp.StatusCode/100 != 2 {
				t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, reply)
			}
			_, version, _ := svc.store.snapshot(name)
			return version
		}
		half := len(db.Sequences) / 2
		version := upload("PUT", "/v1/datasets/"+name, db.Sequences[:half])
		job := fmt.Sprintf(`{"id":%q,"dataset":%q,"mine":%s,"debounce_ms":1}`, name, name, spec)
		if resp, reply := do(t, "POST", ts.URL+"/v1/jobs", "application/json", job); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create job %s: %d %s", job, resp.StatusCode, reply)
		}
		defer do(t, "DELETE", ts.URL+"/v1/datasets/"+name, "", "")
		defer do(t, "DELETE", ts.URL+"/v1/jobs/"+name, "", "")
		// Resuming from event 0 replays every delta from the job's first
		// run on, however far the job has run by now.
		sse := dialSSE(t, ts.URL+"/v1/jobs/"+name+"/events", "0")
		defer sse.close()

		var rows []jobs.Pattern
		check := func(version uint64) {
			t.Helper()
			for at := uint64(0); at != version; {
				_, event, data := sse.next(t, 5*time.Second)
				if event != jobs.EventDelta {
					t.Fatalf("event %q, want %q", event, jobs.EventDelta)
				}
				var d jobs.Delta
				if err := json.Unmarshal(data, &d); err != nil {
					t.Fatalf("delta: %v", err)
				}
				rows, at = jobs.Apply(rows, d), d.Version
			}
			resp, body := do(t, "POST", ts.URL+"/v1/datasets/"+name+"/mine", "application/json", string(spec))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch mine %s: %d %s", spec, resp.StatusCode, body)
			}
			expectSamePatterns(t, fmt.Sprintf("job deltas vs batch mine %s of %+v at version %d", spec, db.Sequences, version),
				slices.Clone(rows), jobPatternsOf(t, body))
		}
		check(version)
		check(upload("POST", "/v1/datasets/"+name+"/append", db.Sequences[half:]))
	})
}
