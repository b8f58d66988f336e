package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newHardenedServer starts a test server with explicit resource bounds
// and returns the Server for white-box access (e.g. filling the mining
// semaphore deterministically).
func newHardenedServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewWithConfig(nil, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// explosiveCSV builds a dataset whose mining search space explodes:
// nSeq identical sequences of nSym pairwise-overlapping intervals. At
// min_count == nSeq an unbounded mine takes far longer than any test
// budget, so timeouts and soft budgets always trip.
func explosiveCSV(nSeq, nSym int) string {
	var b strings.Builder
	b.WriteString("sequence_id,symbol,start,end\n")
	for s := 0; s < nSeq; s++ {
		for i := 0; i < nSym; i++ {
			fmt.Fprintf(&b, "e%d,S%02d,%d,%d\n", s, i, i, nSym+i)
		}
	}
	return b.String()
}

func TestMineBackpressure429(t *testing.T) {
	s, ts := newHardenedServer(t, Config{MaxConcurrentMines: 1})
	do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", csvBody)

	// Occupy the only mining slot. The tight timeout_ms keeps the
	// deadline-aware admission from parking the request: with ~no
	// deadline left it is shed immediately.
	s.mineSem <- struct{}{}
	resp, body := do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json",
		`{"min_count":2,"timeout_ms":1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("busy mine: %d %q, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	var eb ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Error.Message == "" || eb.RequestID == "" {
		t.Errorf("429 envelope: %q (err=%v)", body, err)
	}
	if eb.Error.Code != "rate_limited" {
		t.Errorf("429 error code = %q, want rate_limited", eb.Error.Code)
	}

	// Rules mode shares the semaphore.
	resp, _ = do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json",
		`{"mode":"rules","min_count":2,"timeout_ms":1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("busy rules: %d, want 429", resp.StatusCode)
	}

	// Releasing the slot restores service.
	<-s.mineSem
	resp, body = do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json",
		`{"min_count":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("mine after release: %d %q", resp.StatusCode, body)
	}
}

func TestPanicRecovery500(t *testing.T) {
	s := NewWithConfig(nil, Config{})
	h := s.middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	resp, body := do(t, "GET", ts.URL+"/anything", "", "")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: %d %q, want 500", resp.StatusCode, body)
	}
	var eb ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &eb); err != nil {
		t.Fatalf("500 body not JSON: %q", body)
	}
	if eb.Error.Code != "internal" || eb.Error.Message != "internal server error" || eb.RequestID == "" {
		t.Errorf("500 envelope: %+v", eb)
	}
	if got := resp.Header.Get("X-Request-ID"); got != eb.RequestID {
		t.Errorf("header request ID %q != body request ID %q", got, eb.RequestID)
	}
}

func TestRequestIDPropagation(t *testing.T) {
	_, ts := newHardenedServer(t, Config{})

	// Client-supplied IDs are honored and echoed.
	req, err := http.NewRequest("GET", ts.URL+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "trace-abc")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-abc" {
		t.Errorf("echoed ID = %q, want trace-abc", got)
	}

	// Generated IDs land in error envelopes.
	resp2, body := do(t, "GET", ts.URL+"/v1/datasets/nope", "", "")
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("get missing: %d", resp2.StatusCode)
	}
	var eb ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.RequestID == "" {
		t.Errorf("404 envelope missing request_id: %q", body)
	}
	if eb.Error.Code != "not_found" {
		t.Errorf("404 error code = %q, want not_found", eb.Error.Code)
	}
	if got := resp2.Header.Get("X-Request-ID"); got != eb.RequestID {
		t.Errorf("header ID %q != body ID %q", got, eb.RequestID)
	}
}

func TestBodyTooLarge413(t *testing.T) {
	_, ts := newHardenedServer(t, Config{MaxBodyBytes: 64})

	big := explosiveCSV(4, 8) // well over 64 bytes
	resp, body := do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: %d %q, want 413", resp.StatusCode, body)
	}
	var eb ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &eb); err != nil {
		t.Fatalf("413 body not JSON: %q", body)
	}
	if eb.Error.Code != "payload_too_large" || !strings.Contains(eb.Error.Message, "exceeds 64 bytes") || eb.RequestID == "" {
		t.Errorf("413 envelope: %+v", eb)
	}

	// JSON request bodies are bounded the same way.
	resp, body = do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json",
		`{"min_count":2,"max_elements":1,"max_intervals":1,"max_patterns":100000}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized mine request: %d %q, want 413", resp.StatusCode, body)
	}
}

func TestMineTimeout504(t *testing.T) {
	_, ts := newHardenedServer(t, Config{})
	do(t, "PUT", ts.URL+"/v1/datasets/big", "text/csv", explosiveCSV(3, 16))

	start := time.Now()
	resp, body := do(t, "POST", ts.URL+"/v1/datasets/big/mine", "application/json",
		`{"min_count":3,"timeout_ms":50}`)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out mine: %d %q, want 504", resp.StatusCode, body)
	}
	if !strings.Contains(body, "deadline") {
		t.Errorf("504 body: %q", body)
	}
	if elapsed > 2*time.Second {
		t.Errorf("50ms-timeout mine took %v", elapsed)
	}
}

func TestServerCeilingCapsTimeout(t *testing.T) {
	// The per-request timeout can never raise the server ceiling.
	_, ts := newHardenedServer(t, Config{MaxMineDuration: 50 * time.Millisecond})
	do(t, "PUT", ts.URL+"/v1/datasets/big", "text/csv", explosiveCSV(3, 16))

	resp, body := do(t, "POST", ts.URL+"/v1/datasets/big/mine", "application/json",
		`{"min_count":3,"timeout_ms":600000}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("ceiling-capped mine: %d %q, want 504", resp.StatusCode, body)
	}
}

func TestMineSoftBudgetsOnWire(t *testing.T) {
	_, ts := newHardenedServer(t, Config{})
	do(t, "PUT", ts.URL+"/v1/datasets/big", "text/csv", explosiveCSV(3, 10))

	// max_patterns: partial results, 200, truncation flagged.
	resp, body := do(t, "POST", ts.URL+"/v1/datasets/big/mine", "application/json",
		`{"min_count":3,"max_patterns":5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("max_patterns mine: %d %q", resp.StatusCode, body)
	}
	var mr MineResponse
	if err := json.Unmarshal([]byte(body), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Count == 0 || mr.Count > 5 {
		t.Errorf("count = %d, want 1..5", mr.Count)
	}
	if !mr.Stats.Truncated || mr.Stats.TruncatedBy != "max_patterns" {
		t.Errorf("stats: %+v", mr.Stats)
	}

	// time_budget_ms on an explosive dataset: 200 with truncation.
	do(t, "PUT", ts.URL+"/v1/datasets/huge", "text/csv", explosiveCSV(3, 16))
	resp, body = do(t, "POST", ts.URL+"/v1/datasets/huge/mine", "application/json",
		`{"min_count":3,"time_budget_ms":50}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("time_budget mine: %d %q", resp.StatusCode, body)
	}
	if err := json.Unmarshal([]byte(body), &mr); err != nil {
		t.Fatal(err)
	}
	if !mr.Stats.Truncated || mr.Stats.TruncatedBy != "time_budget" {
		t.Errorf("stats: %+v", mr.Stats)
	}
}

func TestShutdownDrainsInflightMine(t *testing.T) {
	s := NewWithConfig(nil, Config{MaxConcurrentMines: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	do(t, "PUT", ts.URL+"/v1/datasets/big", "text/csv", explosiveCSV(3, 16))

	type result struct {
		status int
		body   string
		err    error
	}
	ch := make(chan result, 1)
	go func() {
		// A mine that runs ~400ms, then completes normally (soft
		// budget). No t helpers here: this is not the test goroutine.
		resp, err := http.Post(ts.URL+"/v1/datasets/big/mine", "application/json",
			strings.NewReader(`{"min_count":3,"time_budget_ms":400}`))
		if err != nil {
			ch <- result{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		ch <- result{resp.StatusCode, string(data), err}
	}()

	time.Sleep(100 * time.Millisecond) // let the mine start
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ts.Config.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}

	res := <-ch
	if res.err != nil {
		t.Fatalf("in-flight mine failed: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight mine after shutdown: %d %q", res.status, res.body)
	}
	var mr MineResponse
	if err := json.Unmarshal([]byte(res.body), &mr); err != nil {
		t.Fatal(err)
	}
	if !mr.Stats.Truncated {
		t.Errorf("expected truncated stats from budgeted mine: %+v", mr.Stats)
	}
}
