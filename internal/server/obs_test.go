package server

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMineRequestValidation: every numeric field that used to flow into
// the miner unchecked is now rejected with 400 naming the field.
func TestMineRequestValidation(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/v1/datasets/v", "text/csv", csvBody)

	cases := []struct {
		name string
		body string
	}{
		{"min_support", `{"min_support":-0.1}`},
		{"min_support", `{"min_support":1.5}`},
		{"min_count", `{"min_count":-1}`},
		{"max_intervals", `{"min_count":2,"max_intervals":-2}`},
		{"max_elements", `{"min_count":2,"max_elements":-1}`},
		{"max_items_per_element", `{"min_count":2,"max_items_per_element":-3}`},
		{"max_span", `{"min_count":2,"max_span":-5}`},
		{"max_gap", `{"min_count":2,"max_gap":-5}`},
		{"top_k", `{"min_count":2,"top_k":-1}`},
		{"timeout_ms", `{"min_count":2,"timeout_ms":-100}`},
		{"time_budget_ms", `{"min_count":2,"time_budget_ms":-1}`},
		{"max_patterns", `{"min_count":2,"max_patterns":-7}`},
		{"parallel", `{"min_count":2,"parallel":-4}`},
	}
	for _, c := range cases {
		resp, body := do(t, "POST", ts.URL+"/v1/datasets/v/mine", "application/json", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d %q, want 400", c.name, resp.StatusCode, body)
			continue
		}
		if !strings.Contains(body, c.name) {
			t.Errorf("%s: error %q does not name the field", c.name, body)
		}
	}

	// A well-formed request still mines.
	resp, body := do(t, "POST", ts.URL+"/v1/datasets/v/mine", "application/json",
		`{"min_count":2,"timeout_ms":5000,"max_patterns":100,"parallel":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("valid request: %d %q", resp.StatusCode, body)
	}
}

// TestRulesRequestValidation: rules mode applies the same negative-field
// screening.
func TestRulesRequestValidation(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/v1/datasets/v", "text/csv", csvBody)

	for _, c := range []struct{ name, body string }{
		{"min_support", `{"mode":"rules","min_support":2}`},
		{"min_count", `{"mode":"rules","min_count":-1}`},
		{"max_intervals", `{"mode":"rules","min_count":2,"max_intervals":-1}`},
		{"min_confidence", `{"mode":"rules","min_count":2,"min_confidence":-0.5}`},
		{"min_lift", `{"mode":"rules","min_count":2,"min_lift":-1}`},
		{"timeout_ms", `{"mode":"rules","min_count":2,"timeout_ms":-1}`},
	} {
		resp, body := do(t, "POST", ts.URL+"/v1/datasets/v/mine", "application/json", c.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, c.name) {
			t.Errorf("%s: %d %q, want 400 naming the field", c.name, resp.StatusCode, body)
		}
	}
	resp, body := do(t, "POST", ts.URL+"/v1/datasets/v/mine", "application/json", `{"mode":"rules","min_count":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("valid rules request: %d %q", resp.StatusCode, body)
	}
}

// TestMinePanicReleasesSlot: a handler that dies after claiming the only
// mining slot must still release it — otherwise one crash starves every
// future mine into permanent 429 — and must not leak goroutines.
func TestMinePanicReleasesSlot(t *testing.T) {
	s, ts := newHardenedServer(t, Config{MaxConcurrentMines: 1})
	// Install the failure hook before any request so no goroutine races
	// the write; only the first mine trips it.
	var calls atomic.Int64
	s.testMineHook = func() {
		if calls.Add(1) == 1 {
			panic("injected mine failure")
		}
	}
	do(t, "PUT", ts.URL+"/v1/datasets/p", "text/csv", csvBody)
	baseline := runtime.NumGoroutine()

	resp, _ := do(t, "POST", ts.URL+"/v1/datasets/p/mine", "application/json", `{"min_count":2}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking mine: %d, want 500", resp.StatusCode)
	}

	// Every subsequent mine must get the slot back, not a 429.
	for i := 0; i < 4; i++ {
		resp, body := do(t, "POST", ts.URL+"/v1/datasets/p/mine", "application/json", `{"min_count":2}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mine %d after panic: %d %q, want 200", i, resp.StatusCode, body)
		}
	}

	// Goroutine count settles back to (near) baseline once idle HTTP
	// connections are dropped; a stuck semaphore waiter would not.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// parseMetrics decodes Prometheus text exposition into sample-name
// (including label set) → value. It fails the test on any line that is
// neither a comment nor a "name{labels} value" sample.
func parseMetrics(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsEndpoint: /metrics parses, carries the expected families
// after traffic, and no counter ever goes backwards between scrapes.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/v1/datasets/m", "text/csv", csvBody)
	do(t, "POST", ts.URL+"/v1/datasets/m/mine", "application/json", `{"min_count":2}`)

	resp, body := do(t, "GET", ts.URL+"/v1/metrics", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q, want text exposition 0.0.4", ct)
	}
	first := parseMetrics(t, body)

	for _, want := range []string{
		`tpmd_http_requests_total{route="/datasets/{name}/mine",class="2xx"}`,
		`tpmd_http_request_duration_seconds_bucket{route="/datasets/{name}/mine",le="+Inf"}`,
		`tpmd_cache_misses_total`,
		`tpmd_cache_resident_bytes`,
		`tpmd_mine_runs_total{type="temporal",outcome="ok"}`,
		`tpmd_mine_duration_seconds_count`,
		`tpmd_miner_nodes_total`,
		`tpmd_miner_pruned_total{technique="p1"}`,
		`tpmd_http_requests_in_flight`,
		`tpmd_cache_degraded_hits_total`,
		`tpmd_resilience_breaker_state`,
		`tpmd_resilience_breaker_trips_total`,
		`tpmd_resilience_shed_total`,
		`tpmd_resilience_degraded_seconds_total`,
	} {
		if _, ok := first[want]; !ok {
			t.Errorf("metrics missing sample %s", want)
		}
	}

	// More traffic, including an error path, then rescrape: cumulative
	// series must be monotone.
	do(t, "POST", ts.URL+"/v1/datasets/m/mine", "application/json", `{"min_count":2}`)
	do(t, "POST", ts.URL+"/v1/datasets/m/mine", "application/json", `{"min_count":-1}`)
	do(t, "POST", ts.URL+"/v1/datasets/m/mine", "application/json", `{"mode":"rules","min_count":2}`)
	_, body2 := do(t, "GET", ts.URL+"/v1/metrics", "", "")
	second := parseMetrics(t, body2)

	for name, v1 := range first {
		if name == "tpmd_http_requests_in_flight" {
			continue // a gauge; everything else exposed is cumulative
		}
		v2, ok := second[name]
		if !ok {
			t.Errorf("series %s disappeared between scrapes", name)
			continue
		}
		if v2 < v1 {
			t.Errorf("counter %s regressed: %v -> %v", name, v1, v2)
		}
	}
	if second[`tpmd_http_requests_total{route="/datasets/{name}/mine",class="4xx"}`] < 1 {
		t.Error("invalid mine request not counted as 4xx")
	}
	if second[`tpmd_mine_runs_total{type="rules",outcome="ok"}`] < 1 {
		t.Error("rules run not recorded in tpmd_mine_runs_total")
	}
}

// TestRetryAfterDerived: the 429 Retry-After hint is an integer number
// of seconds within [1, 30], derived from the mine-duration histogram.
func TestRetryAfterDerived(t *testing.T) {
	s, ts := newHardenedServer(t, Config{MaxConcurrentMines: 1})
	do(t, "PUT", ts.URL+"/v1/datasets/r", "text/csv", csvBody)
	// Seed the duration histogram with real (fast) mines.
	for i := 0; i < 3; i++ {
		do(t, "POST", ts.URL+"/v1/datasets/r/mine", "application/json", `{"min_count":2}`)
	}

	s.mineSem <- struct{}{} // occupy the only slot
	// Different options from the seeding mines, so this cannot be served
	// from the result cache and must contend for the slot; the tight
	// timeout_ms makes deadline-aware admission shed it immediately.
	resp, _ := do(t, "POST", ts.URL+"/v1/datasets/r/mine", "application/json", `{"min_count":1,"timeout_ms":1}`)
	<-s.mineSem
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("busy mine: %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if ra < minRetryAfterSeconds || ra > maxRetryAfterSeconds {
		t.Errorf("Retry-After = %d outside [%d, %d]", ra, minRetryAfterSeconds, maxRetryAfterSeconds)
	}
	// Sub-second mines must hint the floor, not round down to zero.
	if ra != 1 {
		t.Errorf("Retry-After = %d after millisecond mines, want the 1s floor", ra)
	}
}

// TestElapsedMillisWireFormat: stats carry the machine-readable
// elapsed_ms integer.
func TestElapsedMillisWireFormat(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/v1/datasets/e", "text/csv", csvBody)
	resp, body := do(t, "POST", ts.URL+"/v1/datasets/e/mine", "application/json", `{"min_count":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine: %d %q", resp.StatusCode, body)
	}
	var mr struct {
		Stats map[string]json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal([]byte(body), &mr); err != nil {
		t.Fatal(err)
	}
	rawMs, ok := mr.Stats["elapsed_ms"]
	if !ok {
		t.Fatal("stats missing elapsed_ms")
	}
	var ms int64
	if err := json.Unmarshal(rawMs, &ms); err != nil || ms < 0 {
		t.Errorf("elapsed_ms %s is not a non-negative integer (err=%v)", rawMs, err)
	}
}
