package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"tpminer/internal/persist"
	"tpminer/internal/resilience"
)

// The TestChaos* suite is the randomized fault-schedule harness behind
// `make chaos`: it hammers a durable server with concurrent traffic
// while a seeded fault injector tears up the persistence layer, and
// checks the degradation contract on every single response. All tests
// here are deterministic per seed; the headline test logs its seed so a
// failure can be replayed exactly with TPMD_CHAOS_SEED.

// chaosSeed returns the run's fault-schedule seed: TPMD_CHAOS_SEED if
// set, otherwise the wall clock.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	seed := time.Now().UnixNano()
	if env := os.Getenv("TPMD_CHAOS_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("TPMD_CHAOS_SEED=%q: %v", env, err)
		}
		seed = v
	}
	t.Logf("chaos seed = %d (replay: TPMD_CHAOS_SEED=%d make chaos)", seed, seed)
	return seed
}

// chaosProfile is the fault mix for the randomized schedule: transient
// and permanent write errors, torn writes, failed fsyncs, sabotaged
// snapshots, and a sprinkle of latency on everything.
func chaosProfile(seed int64) *resilience.Profile {
	p := resilience.NewProfile(seed)
	p.Add(resilience.OpWALWrite, resilience.FaultRule{Prob: 0.10, Err: fmt.Errorf("injected: %w", syscall.EIO)})
	p.Add(resilience.OpWALWrite, resilience.FaultRule{Prob: 0.04, Err: fmt.Errorf("injected: %w", syscall.ENOSPC)})
	p.Add(resilience.OpWALWrite, resilience.FaultRule{Prob: 0.04, Err: fmt.Errorf("injected torn write: %w", syscall.EIO), Partial: true})
	p.Add(resilience.OpWALSync, resilience.FaultRule{Prob: 0.06, Err: fmt.Errorf("injected: %w", syscall.EIO)})
	p.Add(resilience.OpSnapshotWrite, resilience.FaultRule{Prob: 0.15, Err: fmt.Errorf("injected: %w", syscall.EIO)})
	p.Add(resilience.OpSnapshotRename, resilience.FaultRule{Prob: 0.05, Err: fmt.Errorf("injected: %w", syscall.EIO)})
	p.Add(resilience.OpAll, resilience.FaultRule{Prob: 0.05, Delay: time.Millisecond})
	return p
}

// noBackoff keeps the store's default retry budget but sleeps zero time
// between attempts, so the chaos run stays fast under -race.
var noBackoff = resilience.RetryPolicy{Sleep: func(time.Duration) {}}

// TestChaosRandomFaultSchedule runs concurrent per-dataset writers and
// readers against a durable server while the seeded fault profile is
// active, asserting on every response:
//
//   - mutations either ack (2xx) or fail with exactly 500
//     "persist_unavailable" (journal veto) or 503 "degraded" (breaker
//     open, Retry-After present) — never anything else;
//   - an acked mutation always yields a fresh ETag, never one seen
//     before anywhere in the run (the store-wide version never reuses);
//   - a failed mutation leaves the dataset byte-identical (commit-
//     before-visible);
//   - reads and mines keep succeeding throughout, degraded or not.
//
// Then the faults stop, the server must return to read-write on its own
// (no restart), and a crash-reopen without the injector must replay
// exactly the acknowledged state.
func TestChaosRandomFaultSchedule(t *testing.T) {
	seed := chaosSeed(t)
	toggle := resilience.NewToggle(chaosProfile(seed))

	dir := t.TempDir()
	ps, err := persist.Open(dir, persist.Options{
		Injector:    toggle,
		Retry:       noBackoff,
		WALMaxBytes: 16 << 10, // small: compactions happen mid-run, under fire
	})
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	s := NewWithConfig(nil, Config{
		MaxConcurrentMines:    8,
		Persist:               ps,
		RecoveryProbeInterval: 20 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Every ETag ever produced by an acked mutation, across all
	// datasets. An acked mutation must never mint one of these again.
	var etagMu sync.Mutex
	seenTags := map[string]bool{}
	freshTag := func(tag string) bool {
		etagMu.Lock()
		defer etagMu.Unlock()
		if tag == "" || seenTags[tag] {
			return false
		}
		seenTags[tag] = true
		return true
	}

	type finalState struct {
		exists bool
		tag    string
		body   string
	}
	const workers = 4
	const opsPerWorker = 40
	finals := make([]finalState, workers)

	toggle.Set(true)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			name := fmt.Sprintf("chaos-%d", w)
			url := ts.URL + "/v1/datasets/" + name
			exists := false
			lastTag, lastBody := "", ""

			// observe re-reads the dataset and folds the result into the
			// single-writer model of its state.
			observe := func(afterAck bool) {
				status, tag, body := getETag(t, url)
				if !exists {
					if status != http.StatusNotFound {
						t.Errorf("%s: read of deleted dataset: %d %q, want 404", name, status, body)
					}
					return
				}
				if status != http.StatusOK {
					t.Errorf("%s: read failed during chaos: %d %q, want 200", name, status, body)
					return
				}
				if afterAck {
					if !freshTag(tag) {
						t.Errorf("%s: acked mutation produced stale/reused ETag %q", name, tag)
					}
					lastTag, lastBody = tag, body
					return
				}
				if tag != lastTag || body != lastBody {
					t.Errorf("%s: dataset drifted without an acked mutation: tag %q→%q", name, lastTag, tag)
				}
			}

			// checkMutation enforces the mutation response contract and
			// reports whether the mutation was acknowledged.
			checkMutation := func(verb string, resp *http.Response, body string) bool {
				switch resp.StatusCode {
				case http.StatusOK, http.StatusCreated, http.StatusNoContent:
					return true
				case http.StatusInternalServerError, http.StatusServiceUnavailable:
					var eb ErrorEnvelope
					if err := json.Unmarshal([]byte(body), &eb); err != nil {
						t.Errorf("%s %s: %d body not an envelope: %q", verb, name, resp.StatusCode, body)
						return false
					}
					if resp.StatusCode == http.StatusInternalServerError && eb.Error.Code != "persist_unavailable" {
						t.Errorf("%s %s: 500 code %q, want persist_unavailable", verb, name, eb.Error.Code)
					}
					if resp.StatusCode == http.StatusServiceUnavailable {
						if eb.Error.Code != "degraded" {
							t.Errorf("%s %s: 503 code %q, want degraded", verb, name, eb.Error.Code)
						}
						if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
							t.Errorf("%s %s: 503 Retry-After %q, want integer >= 1", verb, name, resp.Header.Get("Retry-After"))
						}
					}
					return false
				default:
					t.Errorf("%s %s: unexpected status %d %q", verb, name, resp.StatusCode, body)
					return false
				}
			}

			for i := 0; i < opsPerWorker; i++ {
				if !exists {
					resp, body := do(t, "PUT", url, "text/csv", csvBody)
					if checkMutation("PUT", resp, body) {
						exists = true
						observe(true)
					}
					continue
				}
				switch op := rng.Intn(10); {
				case op < 3: // append
					resp, body := do(t, "POST", url+"/append", "text/csv", csvAppendBody)
					observe(checkMutation("APPEND", resp, body))
				case op < 5: // put (replace)
					resp, body := do(t, "PUT", url, "text/csv", csvBody)
					observe(checkMutation("PUT", resp, body))
				case op < 6: // delete
					resp, body := do(t, "DELETE", url, "", "")
					if checkMutation("DELETE", resp, body) {
						exists = false
					}
					observe(false)
				case op < 8: // plain read
					observe(false)
				default: // mine — must serve even while degraded
					resp, body := do(t, "POST", url+"/mine", "application/json", `{"min_count":1,"timeout_ms":5000}`)
					if resp.StatusCode != http.StatusOK {
						t.Errorf("mine %s during chaos: %d %q, want 200", name, resp.StatusCode, body)
					}
				}
			}
			finals[w] = finalState{exists: exists, tag: lastTag, body: lastBody}
		}(w)
	}
	wg.Wait()

	// Faults stop. The server must find its way back to read-write by
	// itself — the readiness probe flips without any restart or nudge.
	toggle.Set(false)
	waitReady(t, ts.URL, 10*time.Second)

	// Every dataset accepts writes again, and the new ETags are fresh.
	for w := 0; w < workers; w++ {
		url := fmt.Sprintf("%s/v1/datasets/chaos-%d", ts.URL, w)
		if resp, body := do(t, "PUT", url, "text/csv", csvBody); resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			t.Fatalf("put after recovery: %d %q", resp.StatusCode, body)
		}
		status, tag, body := getETag(t, url)
		if status != http.StatusOK {
			t.Fatalf("read after recovery: %d", status)
		}
		if !freshTag(tag) {
			t.Errorf("post-recovery mutation reused ETag %q", tag)
		}
		finals[w] = finalState{exists: true, tag: tag, body: body}
	}

	// Clean shutdown, then reopen the same dir with no injector: the
	// replayed state must be exactly what was acknowledged.
	ts.Close()
	s.Close()
	if err := ps.Close(); err != nil {
		t.Fatalf("persist.Close: %v", err)
	}
	ts2, ps2 := newPersistServer(t, dir)
	defer ps2.Close()
	for w, want := range finals {
		url := fmt.Sprintf("%s/v1/datasets/chaos-%d", ts2.URL, w)
		status, tag, body := getETag(t, url)
		if !want.exists {
			if status != http.StatusNotFound {
				t.Errorf("chaos-%d: deleted dataset resurrected after reopen: %d %q", w, status, body)
			}
			continue
		}
		if status != http.StatusOK || tag != want.tag || body != want.body {
			t.Errorf("chaos-%d after reopen: status %d tag %q, want 200 tag %q (body match: %v)",
				w, status, tag, want.tag, body == want.body)
		}
	}
}

// waitReady polls /v1/readyz until it reports ready or the deadline
// passes.
func waitReady(t *testing.T, baseURL string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, body := do(t, "GET", baseURL+"/v1/readyz", "", "")
		if resp.StatusCode == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server still not ready after %v: %d %q", timeout, resp.StatusCode, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// blackoutInjector fails every persistence operation while on — WAL
// writes trip the breaker, and snapshot faults keep the recovery probe
// failing, pinning the server in degraded mode until the switch flips.
type blackoutInjector struct{ on atomic.Bool }

func (b *blackoutInjector) Fault(resilience.Op) resilience.Fault {
	if !b.on.Load() {
		return resilience.Fault{}
	}
	return resilience.Fault{Err: fmt.Errorf("injected blackout: %w", syscall.ENOSPC)}
}

// TestChaosDegradedLifecycle walks one full degraded episode
// deterministically and checks the contract at every stage: the 500
// that trips the breaker, 503 "degraded" mutations with Retry-After,
// reads and cached mines serving throughout, healthz/readyz semantics,
// automatic recovery, and ETag/version-floor continuity across
// enter-degraded → recover → restart.
func TestChaosDegradedLifecycle(t *testing.T) {
	inj := &blackoutInjector{}
	dir := t.TempDir()
	ps, err := persist.Open(dir, persist.Options{Injector: inj, Retry: noBackoff})
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	s := NewWithConfig(nil, Config{
		MaxConcurrentMines:      4,
		Persist:                 ps,
		BreakerFailureThreshold: 1,
		RecoveryProbeInterval:   15 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	url := ts.URL + "/v1/datasets/alpha"
	if resp, body := do(t, "PUT", url, "text/csv", csvBody); resp.StatusCode != http.StatusCreated {
		t.Fatalf("put alpha: %d %q", resp.StatusCode, body)
	}
	_, tag1, body1 := getETag(t, url)
	// Seed the result cache so the degraded-mode mine below is a hit.
	if resp, _ := do(t, "POST", url+"/mine", "application/json", `{"min_count":2}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed mine: %d", resp.StatusCode)
	}

	// Disk dies. ENOSPC is permanent (weight 2 >= threshold 1): the
	// first failing mutation returns the journal 500 and trips the
	// breaker in the same breath.
	inj.on.Store(true)
	resp, body := do(t, "PUT", url, "text/csv", csvAppendBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("put on dead disk: %d %q, want 500", resp.StatusCode, body)
	}
	var eb ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Error.Code != "persist_unavailable" || eb.RequestID == "" {
		t.Errorf("journal 500 envelope: %q (err=%v), want code persist_unavailable", body, err)
	}

	// Breaker open: mutations are refused up front with the stable
	// degraded code and a Retry-After hint; no disk I/O happens at all.
	resp, body = do(t, "PUT", url, "text/csv", csvBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("put while degraded: %d %q, want 503", resp.StatusCode, body)
	}
	if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Error.Code != "degraded" {
		t.Errorf("degraded envelope: %q, want code degraded", body)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 || ra > 30 {
		t.Errorf("degraded Retry-After = %q, want integer in [1,30]", resp.Header.Get("Retry-After"))
	}
	if resp, _ := do(t, "DELETE", url, "", ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("delete while degraded: %d, want 503", resp.StatusCode)
	}

	// The read path is untouched: summaries and cached mines serve.
	if status, tag, _ := getETag(t, url); status != http.StatusOK || tag != tag1 {
		t.Errorf("read while degraded: %d tag %q, want 200 %q", status, tag, tag1)
	}
	if resp, body := do(t, "POST", url+"/mine", "application/json", `{"min_count":2}`); resp.StatusCode != http.StatusOK {
		t.Errorf("cached mine while degraded: %d %q, want 200", resp.StatusCode, body)
	}

	// Liveness vs readiness: healthz stays 200 (the process is fine),
	// readyz flips to 503 so load balancers drain write traffic.
	if resp, body := do(t, "GET", ts.URL+"/v1/healthz", "", ""); resp.StatusCode != http.StatusOK || !strings.Contains(body, "read_only") {
		t.Errorf("healthz while degraded: %d %q, want 200 + mode read_only", resp.StatusCode, body)
	}
	if resp, body := do(t, "GET", ts.URL+"/v1/readyz", "", ""); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "read_only") {
		t.Errorf("readyz while degraded: %d %q, want 503 + mode read_only", resp.StatusCode, body)
	}

	// Disk returns; the background probe notices and reopens writes
	// with no restart and no operator action.
	inj.on.Store(false)
	waitReady(t, ts.URL, 5*time.Second)
	if resp, body := do(t, "GET", ts.URL+"/v1/healthz", "", ""); !strings.Contains(body, "read_write") {
		t.Errorf("healthz after recovery: %d %q, want mode read_write", resp.StatusCode, body)
	}
	resp, body = do(t, "PUT", url, "text/csv", csvAppendBody)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		t.Fatalf("put after recovery: %d %q", resp.StatusCode, body)
	}
	_, tag2, body2 := getETag(t, url)
	if tag2 == "" || tag2 == tag1 {
		t.Fatalf("post-recovery ETag %q not fresh (pre-degraded was %q)", tag2, tag1)
	}
	if body2 == body1 {
		t.Error("post-recovery body unchanged despite acked replace")
	}

	// The episode is visible in the metrics the chaos target watches.
	_, mbody := do(t, "GET", ts.URL+"/v1/metrics", "", "")
	m := parseMetrics(t, mbody)
	if m[`tpmd_resilience_breaker_trips_total`] < 1 {
		t.Error("breaker trip not counted")
	}
	if m[`tpmd_resilience_probes_total{outcome="ok"}`] < 1 {
		t.Error("successful recovery probe not counted")
	}
	if m[`tpmd_resilience_degraded_seconds_total`] <= 0 {
		t.Error("degraded episode duration not accounted")
	}
	if m[`tpmd_cache_degraded_hits_total`] < 1 {
		t.Error("cache hit served during degradation not counted")
	}
	if m[`tpmd_blob_errors_total{backend="file",op="append_write"}`] < 1 {
		t.Error("failed WAL writes not counted under the file backend label")
	}
	if m[`tpmd_resilience_breaker_state`] != 0 {
		t.Errorf("breaker state gauge = %v after recovery, want 0 (closed)", m[`tpmd_resilience_breaker_state`])
	}

	// Restart on the same dir: the version floor carries across the
	// whole episode, so no pre- or post-degraded ETag is ever reissued.
	ts.Close()
	s.Close()
	if err := ps.Close(); err != nil {
		t.Fatalf("persist.Close: %v", err)
	}
	ts2, ps2 := newPersistServer(t, dir)
	defer ps2.Close()
	url2 := ts2.URL + "/v1/datasets/alpha"
	if status, tag, body := getETag(t, url2); status != http.StatusOK || tag != tag2 || body != body2 {
		t.Errorf("alpha after restart: %d tag %q, want 200 %q", status, tag, tag2)
	}
	if resp, _ := do(t, "PUT", url2, "text/csv", csvBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("put after restart: %d", resp.StatusCode)
	}
	if _, tag3, _ := getETag(t, url2); tag3 == tag1 || tag3 == tag2 {
		t.Errorf("post-restart mutation reused an old ETag: %q in {%q, %q}", tag3, tag1, tag2)
	}
}

// TestChaosAdmissionShed: deadline-aware admission sheds a queued mine
// whose deadline cannot outlast the queue (429 + shed counter), but
// parks one whose deadline can — and hands it the slot when it frees.
func TestChaosAdmissionShed(t *testing.T) {
	s, ts := newHardenedServer(t, Config{MaxConcurrentMines: 1})
	do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", csvBody)

	s.mineSem <- struct{}{} // occupy the only slot
	resp, _ := do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json",
		`{"min_count":2,"timeout_ms":1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("doomed-deadline mine: %d, want 429 shed", resp.StatusCode)
	}
	_, mbody := do(t, "GET", ts.URL+"/v1/metrics", "", "")
	if parseMetrics(t, mbody)[`tpmd_resilience_shed_total`] < 1 {
		t.Error("shed not counted in tpmd_resilience_shed_total")
	}

	// A patient request parks instead, and proceeds once the slot frees.
	go func() {
		time.Sleep(100 * time.Millisecond)
		<-s.mineSem
	}()
	resp, body := do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json",
		`{"min_count":2,"timeout_ms":10000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("parked mine after slot freed: %d %q, want 200", resp.StatusCode, body)
	}
}

// TestChaosParkedDisconnectNoLeak: a client that disconnects while its
// mine request is parked in admission must unpark the handler
// immediately; the goroutine count settles back to baseline. (Caching
// is disabled so the mine context follows the client connection — with
// caching on, parking is bounded by the job deadline instead.)
func TestChaosParkedDisconnectNoLeak(t *testing.T) {
	s, ts := newHardenedServer(t, Config{MaxConcurrentMines: 1, CacheBudgetBytes: -1})
	do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", csvBody)
	baseline := runtime.NumGoroutine()

	s.mineSem <- struct{}{} // occupy the only slot: the next mine parks
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/datasets/demo/mine",
		strings.NewReader(`{"min_count":2}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	time.Sleep(150 * time.Millisecond) // let the request reach the parking lot
	cancel()                           // client walks away
	select {
	case err := <-errc:
		if err == nil {
			t.Error("canceled parked mine returned a response, want transport error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked mine did not unpark on client disconnect")
	}
	<-s.mineSem // release the slot only after the disconnect resolved

	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after parked disconnect: %d running, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
