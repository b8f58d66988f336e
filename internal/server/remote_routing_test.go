package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tpminer/internal/persist"
	"tpminer/internal/remote"
)

// elapsedRE matches the one measured-not-computed field in a mine
// response. Everything else in a sharded response is deterministic, so
// the local-vs-remote byte comparison normalizes exactly this and
// nothing more.
var elapsedRE = regexp.MustCompile(`"elapsed_ms":\d+`)

func normalizeElapsed(body string) string {
	return elapsedRE.ReplaceAllString(body, `"elapsed_ms":0`)
}

// statsRE matches the whole stats object. Serial and sharded mining do
// different amounts of search work (nodes, scans, prunings), so
// serial-vs-sharded comparisons normalize the work counters while still
// comparing every pattern, support, and ordering byte.
var statsRE = regexp.MustCompile(`"stats":\{[^}]*\}`)

func normalizeStats(body string) string {
	return statsRE.ReplaceAllString(body, `"stats":{}`)
}

// mineKiller drops the TCP connection of every mine request while
// armed — a worker process dying mid-request, as seen by the client.
type mineKiller struct {
	inner http.Handler
	kill  atomic.Bool
}

func (h *mineKiller) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.kill.Load() && strings.HasSuffix(r.URL.Path, "/mine") {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			panic(err)
		}
		conn.Close()
		return
	}
	h.inner.ServeHTTP(w, r)
}

// TestRemoteMineMatchesLocal is the acceptance test for distributed
// mining: a dataset mined through two remote HTTP worker processes must
// be byte-identical (after normalizing elapsed wall time) to both the
// in-process sharded server and the serial one — including when one
// worker is killed mid-request and its shard fails over — with no
// goroutines leaked.
func TestRemoteMineMatchesLocal(t *testing.T) {
	before := runtime.NumGoroutine()

	var killer *mineKiller
	var workerURLs []string
	var workerTS []*httptest.Server
	for i := 0; i < 2; i++ {
		var h http.Handler = remote.NewWorkerServer(remote.WorkerConfig{}).Handler()
		if i == 0 {
			killer = &mineKiller{inner: h}
			h = killer
		}
		ws := httptest.NewServer(h)
		workerTS = append(workerTS, ws)
		workerURLs = append(workerURLs, ws.URL)
	}

	base := Config{MaxConcurrentMines: 32, Shards: 4, ShardMinSeqs: 1}
	serial := NewWithConfig(nil, Config{MaxConcurrentMines: 32, Shards: 1})
	local := NewWithConfig(nil, base)
	remoteCfg := base
	remoteCfg.Workers = workerURLs
	remoteCfg.WorkerProbeInterval = -time.Second // no background probe: health changes only via RPC outcomes
	remoteSrv := NewWithConfig(nil, remoteCfg)

	tsSerial := httptest.NewServer(serial.Handler())
	tsLocal := httptest.NewServer(local.Handler())
	tsRemote := httptest.NewServer(remoteSrv.Handler())

	csv := shardedCSV()
	for _, ts := range []*httptest.Server{tsSerial, tsLocal, tsRemote} {
		if resp, body := do(t, "PUT", ts.URL+"/v1/datasets/d", "text/csv", csv); resp.StatusCode != http.StatusCreated {
			t.Fatalf("put: %d %q", resp.StatusCode, body)
		}
	}
	if shardCount(t, tsRemote.URL, "d") < 2 {
		t.Fatal("remote server did not shard the dataset; test is vacuous")
	}

	// readyz reports the full pool before anything has failed.
	if resp, body := do(t, "GET", tsRemote.URL+"/v1/readyz", "", ""); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, `"healthy":2`) || !strings.Contains(body, `"total":2`) {
		t.Errorf("readyz before faults: %d %q, want 200 with healthy 2/2", resp.StatusCode, body)
	}

	requests := []struct{ path, body string }{
		{"/v1/datasets/d/mine", `{"min_count":3}`},
		{"/v1/datasets/d/mine", `{"min_count":2,"max_span":20,"max_gap":10}`},
		{"/v1/datasets/d/mine", `{"min_count":2,"top_k":10}`},
		{"/v1/datasets/d/mine", `{"mode":"coincidence","min_count":3}`},
		{"/v1/datasets/d/mine", `{"mode":"rules","min_count":2,"min_confidence":0.2}`},
	}
	compare := func(rq struct{ path, body string }) {
		t.Helper()
		respS, bodyS := do(t, "POST", tsSerial.URL+rq.path, "application/json", rq.body)
		respL, bodyL := do(t, "POST", tsLocal.URL+rq.path, "application/json", rq.body)
		respR, bodyR := do(t, "POST", tsRemote.URL+rq.path, "application/json", rq.body)
		if respS.StatusCode != http.StatusOK || respL.StatusCode != http.StatusOK || respR.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: serial %d, local %d, remote %d (%q)", rq.path, rq.body,
				respS.StatusCode, respL.StatusCode, respR.StatusCode, bodyR)
		}
		etagS, etagL, etagR := respS.Header.Get("ETag"), respL.Header.Get("ETag"), respR.Header.Get("ETag")
		if etagS == "" || etagS != etagL || etagS != etagR {
			t.Errorf("%s %s: ETag mismatch: serial %q, local %q, remote %q", rq.path, rq.body, etagS, etagL, etagR)
		}
		bodyS, bodyL, bodyR = normalizeElapsed(bodyS), normalizeElapsed(bodyL), normalizeElapsed(bodyR)
		// Remote workers must be invisible: byte-for-byte the in-process
		// sharded response.
		if bodyL != bodyR {
			t.Errorf("%s %s: remote differs from local sharded:\nlocal:  %s\nremote: %s", rq.path, rq.body, bodyL, bodyR)
		}
		// And sharding (either kind) preserves every pattern byte of the
		// serial answer; only the search-work counters may differ.
		if ns, nr := normalizeStats(bodyS), normalizeStats(bodyR); ns != nr {
			t.Errorf("%s %s: remote differs from serial:\nserial: %s\nremote: %s", rq.path, rq.body, ns, nr)
		}
		if !strings.Contains(bodyS, `"support":`) && !strings.Contains(bodyS, `"confidence"`) {
			t.Fatalf("%s %s: serial body has no results; test is vacuous: %s", rq.path, rq.body, bodyS)
		}
	}
	for _, rq := range requests {
		compare(rq)
	}

	// The shards debug endpoint shows the placement and push state the
	// mines above created.
	{
		resp, body := do(t, "GET", tsRemote.URL+"/v1/datasets/d/shards", "", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shards endpoint: %d %q", resp.StatusCode, body)
		}
		var layout ShardLayout
		if err := json.Unmarshal([]byte(body), &layout); err != nil {
			t.Fatalf("shards body: %v (%q)", err, body)
		}
		if layout.Dataset != "d" || len(layout.Shards) < 2 || layout.Skew < 1 {
			t.Fatalf("shards layout: %+v", layout)
		}
		for _, sh := range layout.Shards {
			if sh.Worker != workerURLs[sh.ID%len(workerURLs)] {
				t.Errorf("shard %d assigned %q, want %q", sh.ID, sh.Worker, workerURLs[sh.ID%len(workerURLs)])
			}
			if !sh.Pushed {
				t.Errorf("shard %d not pushed after mining", sh.ID)
			}
			if sh.Sequences == 0 || sh.Load == 0 {
				t.Errorf("shard %d has empty layout row: %+v", sh.ID, sh)
			}
		}
		if layout.Workers == nil || layout.Workers.Healthy != 2 {
			t.Errorf("shards layout workers: %+v, want 2 healthy", layout.Workers)
		}
	}

	// Kill worker 0 mid-mine: fresh options miss every cache, the dying
	// worker's shards fail over to local re-mining, and the response must
	// still be byte-identical to the serial server's.
	killer.kill.Store(true)
	compare(struct{ path, body string }{"/v1/datasets/d/mine", `{"min_count":4}`})
	compare(struct{ path, body string }{"/v1/datasets/d/mine", `{"mode":"coincidence","min_count":4}`})

	// The failover is observable: metrics count it, and readyz demotes
	// the dead worker.
	_, metrics := do(t, "GET", tsRemote.URL+"/v1/metrics", "", "")
	for _, want := range []string{"tpmd_remote_rpcs_total", "tpmd_remote_shard_pushes_total", "tpmd_remote_failovers_total"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
	if strings.Contains(metrics, "tpmd_remote_failovers_total 0") {
		t.Error("tpmd_remote_failovers_total is 0 after a worker died mid-mine")
	}
	if !strings.Contains(metrics, "tpmd_remote_worker_up 1") {
		t.Error("tpmd_remote_worker_up did not drop to 1 after the failover")
	}
	if resp, body := do(t, "GET", tsRemote.URL+"/v1/readyz", "", ""); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, `"healthy":1`) {
		t.Errorf("readyz after failover: %d %q, want 200 with 1 healthy worker", resp.StatusCode, body)
	}

	// A clean shutdown leaks nothing: close every server and wait for the
	// goroutine count to settle back.
	tsSerial.Close()
	tsLocal.Close()
	tsRemote.Close()
	serial.Close()
	local.Close()
	remoteSrv.Close()
	for _, ws := range workerTS {
		ws.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after shutdown\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// newRemoteCoordinator opens a durable coordinator over dir that mines
// through remote workers; stop shuts it down cleanly, as a restart
// would.
func newRemoteCoordinator(t *testing.T, dir string, cfg Config) (ts *httptest.Server, stop func()) {
	t.Helper()
	ps, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	cfg.MaxConcurrentMines = 8
	cfg.Persist = ps
	cfg.WorkerProbeInterval = -time.Second
	s := NewWithConfig(nil, cfg)
	ts = httptest.NewServer(s.Handler())
	return ts, func() {
		ts.Close()
		s.Close()
		if err := ps.Close(); err != nil {
			t.Errorf("persist.Close: %v", err)
		}
	}
}

// minePatterns runs one mine and returns its body with the measured
// and search-work fields normalized away.
func minePatterns(t *testing.T, baseURL, spec string) string {
	t.Helper()
	resp, body := do(t, "POST", baseURL+"/v1/datasets/d/mine", "application/json", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine %s: %d %q", spec, resp.StatusCode, body)
	}
	return normalizeStats(normalizeElapsed(body))
}

// serialMine mines the given uploads, in order, on an unsharded
// in-memory server: the reference every remote mine must equal.
func serialMine(t *testing.T, spec string, csvs ...string) string {
	t.Helper()
	s := NewWithConfig(nil, Config{MaxConcurrentMines: 8, Shards: 1})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	for i, csv := range csvs {
		method, path := "POST", "/v1/datasets/d/append"
		if i == 0 {
			method, path = "PUT", "/v1/datasets/d"
		}
		if resp, body := do(t, method, ts.URL+path, "text/csv", csv); resp.StatusCode/100 != 2 {
			t.Fatalf("serial %s: %d %q", method, resp.StatusCode, body)
		}
	}
	body := minePatterns(t, ts.URL, spec)
	if !strings.Contains(body, `"support":`) {
		t.Fatalf("serial mine %s found no patterns; test is vacuous: %s", spec, body)
	}
	return body
}

// workerPushBytes reads a worker's tpmd_worker_shard_push_bytes_total.
func workerPushBytes(t *testing.T, workerURL string) float64 {
	t.Helper()
	_, body := do(t, "GET", workerURL+"/v1/worker/metrics", "", "")
	return parseMetrics(t, body)["tpmd_worker_shard_push_bytes_total"]
}

// appendCSV builds 12 more sequences for shardedCSV's dataset.
func appendCSV() string {
	rng := rand.New(rand.NewSource(11))
	var b strings.Builder
	b.WriteString("sequence_id,symbol,start,end\n")
	for s := 0; s < 12; s++ {
		for i, n := 0, 1+rng.Intn(8); i < n; i++ {
			start := rng.Intn(40)
			fmt.Fprintf(&b, "a%d,%c,%d,%d\n", s, 'A'+rng.Intn(5), start, start+1+rng.Intn(10))
		}
	}
	return b.String()
}

// TestRemoteRestartAfterAppend: a coordinator mines an appended dataset
// through two workers, restarts, and mines it again with one worker
// kept and the other replaced. The restarted coordinator partitions the
// recovered snapshot exactly as it did before, so its push to the kept
// worker names a digest the worker holds and is a no-op, and the mine
// equals the serial one.
func TestRemoteRestartAfterAppend(t *testing.T) {
	kept := httptest.NewServer(remote.NewWorkerServer(remote.WorkerConfig{}).Handler())
	defer kept.Close()
	var current atomic.Value
	current.Store(remote.NewWorkerServer(remote.WorkerConfig{}).Handler())
	replaced := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer replaced.Close()

	dir := t.TempDir()
	cfg := Config{Shards: 2, ShardMinSeqs: 1, Workers: []string{kept.URL, replaced.URL}}
	const spec = `{"min_count":3}`
	ts, stop := newRemoteCoordinator(t, dir, cfg)
	if resp, body := do(t, "PUT", ts.URL+"/v1/datasets/d", "text/csv", shardedCSV()); resp.StatusCode != http.StatusCreated {
		t.Fatalf("put: %d %q", resp.StatusCode, body)
	}
	minePatterns(t, ts.URL, spec)
	if resp, body := do(t, "POST", ts.URL+"/v1/datasets/d/append", "text/csv", appendCSV()); resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %q", resp.StatusCode, body)
	}
	minePatterns(t, ts.URL, spec)
	stop()

	current.Store(remote.NewWorkerServer(remote.WorkerConfig{}).Handler())
	keptBytes := workerPushBytes(t, kept.URL)
	ts, stop = newRemoteCoordinator(t, dir, cfg)
	defer stop()
	got := minePatterns(t, ts.URL, spec)
	if want := serialMine(t, spec, shardedCSV(), appendCSV()); got != want {
		t.Errorf("remote mine after restart differs from serial:\nremote: %s\nserial: %s", got, want)
	}
	if b := workerPushBytes(t, kept.URL); b != keptBytes {
		t.Errorf("kept worker accepted %v push bytes after the restart, want 0: the partition moved", b-keptBytes)
	}
	if workerPushBytes(t, replaced.URL) == 0 {
		t.Error("replaced worker received no shard; test is vacuous")
	}
}

// TestRemoteRestartWithNewShardCount: a coordinator restarted with
// another shard count sends different sequences under the shard keys it
// pushed to a kept worker before. They are other digests, so the worker
// decodes and caches them, and the mine equals the serial one.
func TestRemoteRestartWithNewShardCount(t *testing.T) {
	kept := httptest.NewServer(remote.NewWorkerServer(remote.WorkerConfig{}).Handler())
	defer kept.Close()
	dir := t.TempDir()
	const spec = `{"min_count":3}`
	ts, stop := newRemoteCoordinator(t, dir, Config{Shards: 2, ShardMinSeqs: 1, Workers: []string{kept.URL}})
	if resp, body := do(t, "PUT", ts.URL+"/v1/datasets/d", "text/csv", shardedCSV()); resp.StatusCode != http.StatusCreated {
		t.Fatalf("put: %d %q", resp.StatusCode, body)
	}
	minePatterns(t, ts.URL, spec)
	stop()

	keptBytes := workerPushBytes(t, kept.URL)
	ts, stop = newRemoteCoordinator(t, dir, Config{Shards: 3, ShardMinSeqs: 1, Workers: []string{kept.URL}})
	defer stop()
	got := minePatterns(t, ts.URL, spec)
	if want := serialMine(t, spec, shardedCSV()); got != want {
		t.Errorf("remote mine after a shard-count change differs from serial:\nremote: %s\nserial: %s", got, want)
	}
	if workerPushBytes(t, kept.URL) == keptBytes {
		t.Error("kept worker decoded no push after the shard count changed")
	}
}

// TestRemoteCoordinatorsShareWorker: two coordinators share one worker,
// and each holds a dataset of the same name at the same version, with
// different data. Every mine names its shards by digest, so each
// coordinator mines its own bytes, and every mine equals the serial
// one.
func TestRemoteCoordinatorsShareWorker(t *testing.T) {
	worker := httptest.NewServer(remote.NewWorkerServer(remote.WorkerConfig{}).Handler())
	defer worker.Close()
	cfg := Config{MaxConcurrentMines: 8, Shards: 2, ShardMinSeqs: 1,
		Workers: []string{worker.URL}, WorkerProbeInterval: -time.Second}
	csvs := map[string]string{"A": shardedCSV(), "B": appendCSV()}
	urls := map[string]string{}
	for _, name := range []string{"A", "B"} {
		s := NewWithConfig(nil, cfg)
		ts := httptest.NewServer(s.Handler())
		defer func() { ts.Close(); s.Close() }()
		if resp, body := do(t, "PUT", ts.URL+"/v1/datasets/d", "text/csv", csvs[name]); resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s put: %d %q", name, resp.StatusCode, body)
		}
		_, body := do(t, "GET", ts.URL+"/v1/datasets/d/shards", "", "")
		var layout ShardLayout
		if err := json.Unmarshal([]byte(body), &layout); err != nil || layout.Version != 1 || len(layout.Shards) < 2 {
			t.Fatalf("%s shard layout %q (%v), want version 1 in at least 2 shards", name, body, err)
		}
		urls[name] = ts.URL
	}
	for _, step := range []struct{ name, spec string }{
		{"A", `{"min_count":3}`},
		{"B", `{"min_count":3}`},
		{"A", `{"min_count":2}`},
	} {
		got := minePatterns(t, urls[step.name], step.spec)
		if want := serialMine(t, step.spec, csvs[step.name]); got != want {
			t.Errorf("coordinator %s, mine %s differs from serial:\nremote: %s\nserial: %s", step.name, step.spec, got, want)
		}
	}
}

// TestRemoteCoordinatorsInterleave: two coordinators share one worker,
// and each holds a dataset of the same name at the same version, with
// different data. Their mines interleave, A, B, A, B, A, B over three
// specs. The worker keys each shard by its digest, so neither push
// frees the other's shards: each coordinator pushes each shard once and
// retries nothing, and every mine equals the serial one.
func TestRemoteCoordinatorsInterleave(t *testing.T) {
	worker := httptest.NewServer(remote.NewWorkerServer(remote.WorkerConfig{}).Handler())
	defer worker.Close()
	cfg := Config{MaxConcurrentMines: 8, Shards: 2, ShardMinSeqs: 1,
		Workers: []string{worker.URL}, WorkerProbeInterval: -time.Second}
	csvs := map[string]string{"A": shardedCSV(), "B": appendCSV()}
	urls := map[string]string{}
	shards := map[string]float64{}
	for _, name := range []string{"A", "B"} {
		s := NewWithConfig(nil, cfg)
		ts := httptest.NewServer(s.Handler())
		defer func() { ts.Close(); s.Close() }()
		if resp, body := do(t, "PUT", ts.URL+"/v1/datasets/d", "text/csv", csvs[name]); resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s put: %d %q", name, resp.StatusCode, body)
		}
		_, body := do(t, "GET", ts.URL+"/v1/datasets/d/shards", "", "")
		var layout ShardLayout
		if err := json.Unmarshal([]byte(body), &layout); err != nil || layout.Version != 1 || len(layout.Shards) < 2 {
			t.Fatalf("%s shard layout %q (%v), want version 1 in at least 2 shards", name, body, err)
		}
		urls[name], shards[name] = ts.URL, float64(len(layout.Shards))
	}
	for _, spec := range []string{`{"min_count":3}`, `{"min_count":2}`, `{"min_count":4}`} {
		for _, name := range []string{"A", "B"} {
			got := minePatterns(t, urls[name], spec)
			if want := serialMine(t, spec, csvs[name]); got != want {
				t.Errorf("coordinator %s, mine %s differs from serial:\nremote: %s\nserial: %s", name, spec, got, want)
			}
		}
	}
	for _, name := range []string{"A", "B"} {
		_, body := do(t, "GET", urls[name]+"/v1/metrics", "", "")
		m := parseMetrics(t, body)
		var retries float64
		for series, v := range m {
			if strings.HasPrefix(series, "tpmd_remote_retries_total") {
				retries += v
			}
		}
		if got := m["tpmd_remote_shard_pushes_total"]; got != shards[name] {
			t.Errorf("coordinator %s pushed %v shards over three mines, want %v (one per shard)", name, got, shards[name])
		}
		if retries != 0 {
			t.Errorf("coordinator %s retried %v RPCs, want 0", name, retries)
		}
	}
}
