package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// doHdr is do with extra request headers.
func doHdr(t *testing.T, method, url, contentType, body string, hdr map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(data)
}

// TestMineSingleFlight is the acceptance test for request coalescing: N
// concurrent identical mine requests execute exactly one miner run, and
// every caller gets the full response — one "miss", the rest
// "coalesced".
func TestMineSingleFlight(t *testing.T) {
	s := NewWithConfig(nil, Config{MaxConcurrentMines: 32})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", csvBody)

	// The hook holds the one real miner run open until every other
	// request has joined the flight, so coalescing is deterministic, not
	// a timing accident.
	release := make(chan struct{})
	s.testMineHook = func() { <-release }

	const n = 8
	type result struct {
		status int
		cache  string
		body   string
	}
	results := make(chan result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/datasets/demo/mine", "application/json",
				strings.NewReader(`{"min_count":2}`))
			if err != nil {
				results <- result{status: -1, body: err.Error()}
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			results <- result{resp.StatusCode, resp.Header.Get("X-Cache"), string(data)}
		}()
	}

	// Wait until the n-1 non-leaders have coalesced onto the flight,
	// then let the leader mine.
	deadline := time.Now().Add(10 * time.Second)
	for s.met.cache.Coalesced.Value() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests coalesced", s.met.cache.Coalesced.Value(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(results)

	var misses, coalesced int
	for r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request failed: %d %q", r.status, r.body)
		}
		var mr MineResponse
		if err := json.Unmarshal([]byte(r.body), &mr); err != nil {
			t.Fatal(err)
		}
		if mr.Count == 0 || mr.Count != len(mr.Patterns) {
			t.Errorf("coalesced caller got an incomplete response: %+v", mr)
		}
		if mr.Cache != r.cache {
			t.Errorf("body cache %q != X-Cache header %q", mr.Cache, r.cache)
		}
		switch r.cache {
		case "miss":
			misses++
		case "coalesced":
			coalesced++
		default:
			t.Errorf("unexpected cache outcome %q", r.cache)
		}
	}
	if misses != 1 || coalesced != n-1 {
		t.Errorf("outcomes: %d miss / %d coalesced, want 1 / %d", misses, coalesced, n-1)
	}
	// The decisive count: exactly one miner run happened.
	if runs := s.met.mineRuns.With("temporal", "ok").Value(); runs != 1 {
		t.Errorf("miner ran %d times for %d identical requests, want exactly 1", runs, n)
	}
	if s.met.cache.Misses.Value() != 1 {
		t.Errorf("cache misses = %d, want 1", s.met.cache.Misses.Value())
	}
}

// TestMineCachedAcrossRequests: a repeated identical request is served
// from cache (no second miner run), carries the same ETag, and an
// append flips both — the ETag changes and the miner runs again.
func TestMineCachedAcrossRequests(t *testing.T) {
	s := NewWithConfig(nil, Config{MaxConcurrentMines: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", csvBody)

	mineOnce := func() (*http.Response, MineResponse) {
		resp, body := do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json", `{"min_count":2}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mine: %d %q", resp.StatusCode, body)
		}
		var mr MineResponse
		if err := json.Unmarshal([]byte(body), &mr); err != nil {
			t.Fatal(err)
		}
		return resp, mr
	}

	r1, m1 := mineOnce()
	if m1.Cache != "miss" {
		t.Errorf("first mine cache = %q, want miss", m1.Cache)
	}
	etag1 := r1.Header.Get("ETag")
	if etag1 == "" {
		t.Fatal("complete mine response without ETag")
	}

	r2, m2 := mineOnce()
	if m2.Cache != "hit" {
		t.Errorf("repeated mine cache = %q, want hit", m2.Cache)
	}
	if got := r2.Header.Get("ETag"); got != etag1 {
		t.Errorf("ETag changed without a dataset change: %q -> %q", etag1, got)
	}
	if m2.Count != m1.Count {
		t.Errorf("cached response differs: %d vs %d patterns", m2.Count, m1.Count)
	}
	if runs := s.met.mineRuns.With("temporal", "ok").Value(); runs != 1 {
		t.Errorf("repeat request ran the miner (%d runs)", runs)
	}

	// If-None-Match with the current ETag: 304, still no miner run.
	resp, _ := doHdr(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json",
		`{"min_count":2}`, map[string]string{"If-None-Match": etag1})
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match mine: %d, want 304", resp.StatusCode)
	}

	// Appending changes the version: the ETag must flip and the next
	// mine must be a miss that runs the miner on the grown dataset.
	do(t, "POST", ts.URL+"/v1/datasets/demo/append", "text/plain", "s4: A[0,4] B[2,6]\n")
	r3, m3 := mineOnce()
	if m3.Cache != "miss" {
		t.Errorf("post-append mine cache = %q, want miss", m3.Cache)
	}
	if got := r3.Header.Get("ETag"); got == "" || got == etag1 {
		t.Errorf("ETag did not flip after append: %q", got)
	}
	if m3.Stats.Sequences != 4 {
		t.Errorf("post-append mine saw %d sequences, want 4", m3.Stats.Sequences)
	}
	if runs := s.met.mineRuns.With("temporal", "ok").Value(); runs != 2 {
		t.Errorf("post-append mine runs = %d, want 2", runs)
	}
	// The stale pre-append ETag no longer matches.
	resp, _ = doHdr(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json",
		`{"min_count":2}`, map[string]string{"If-None-Match": etag1})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stale If-None-Match: %d, want 200", resp.StatusCode)
	}
}

// TestTruncatedNeverCached: results cut short by a soft budget carry no
// ETag and are recomputed on every request.
func TestTruncatedNeverCached(t *testing.T) {
	s := NewWithConfig(nil, Config{MaxConcurrentMines: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	do(t, "PUT", ts.URL+"/v1/datasets/big", "text/csv", explosiveCSV(3, 10))

	for i := 0; i < 2; i++ {
		resp, body := do(t, "POST", ts.URL+"/v1/datasets/big/mine", "application/json",
			`{"min_count":3,"max_patterns":5}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("truncated mine %d: %d %q", i, resp.StatusCode, body)
		}
		var mr MineResponse
		if err := json.Unmarshal([]byte(body), &mr); err != nil {
			t.Fatal(err)
		}
		if !mr.Stats.Truncated {
			t.Fatalf("expected a truncated run: %+v", mr.Stats)
		}
		if mr.Cache != "miss" {
			t.Errorf("truncated mine %d served as %q, want miss", i, mr.Cache)
		}
		if et := resp.Header.Get("ETag"); et != "" {
			t.Errorf("truncated response carries ETag %q", et)
		}
	}
	if n := s.met.cache.Hits.Value(); n != 0 {
		t.Errorf("truncated result produced %d cache hits", n)
	}
	if s.results.Len() != 0 {
		t.Errorf("truncated result stored in cache (len=%d)", s.results.Len())
	}
}

// TestRulesCached: the rules endpoint shares the caching machinery.
func TestRulesCached(t *testing.T) {
	s := NewWithConfig(nil, Config{MaxConcurrentMines: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", csvBody)

	req := `{"mode":"rules","min_count":2,"min_confidence":0.5}`
	resp1, body1 := do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json", req)
	resp2, body2 := do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json", req)
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("rules: %d / %d", resp1.StatusCode, resp2.StatusCode)
	}
	if body1 != body2 {
		t.Error("cached rules response differs from the original")
	}
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Errorf("repeated rules X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
	if runs := s.met.mineRuns.With("rules", "ok").Value(); runs != 1 {
		t.Errorf("rules miner ran %d times, want 1", runs)
	}
	// 304 with the returned ETag.
	etag := resp1.Header.Get("ETag")
	resp3, _ := doHdr(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json", req,
		map[string]string{"If-None-Match": etag})
	if resp3.StatusCode != http.StatusNotModified {
		t.Errorf("rules If-None-Match: %d, want 304", resp3.StatusCode)
	}
}

// TestCacheDisabled: a negative budget turns caching and coalescing off;
// every request runs the miner and reports no cache outcome.
func TestCacheDisabled(t *testing.T) {
	s := NewWithConfig(nil, Config{MaxConcurrentMines: 4, CacheBudgetBytes: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", csvBody)

	for i := 0; i < 2; i++ {
		resp, body := do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json", `{"min_count":2}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mine %d: %d %q", i, resp.StatusCode, body)
		}
		if h := resp.Header.Get("X-Cache"); h != "" {
			t.Errorf("X-Cache %q with caching disabled", h)
		}
		if strings.Contains(body, `"cache"`) {
			t.Errorf("cache field present with caching disabled: %q", body)
		}
	}
	if runs := s.met.mineRuns.With("temporal", "ok").Value(); runs != 2 {
		t.Errorf("miner runs = %d, want 2 (no memoization)", runs)
	}
}

// TestDatasetETagLifecycle covers the store edge cases on the wire: PUT
// overwrite bumps the version (fresh ETag, cached results invalidated),
// GET honors If-None-Match, and append to a missing dataset is a 404
// envelope.
func TestDatasetETagLifecycle(t *testing.T) {
	s := NewWithConfig(nil, Config{MaxConcurrentMines: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp1, _ := do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", csvBody)
	etag1 := resp1.Header.Get("ETag")
	if resp1.StatusCode != http.StatusCreated || etag1 == "" {
		t.Fatalf("put: %d etag %q", resp1.StatusCode, etag1)
	}

	// GET returns the same ETag; If-None-Match short-circuits to 304.
	respGet, _ := do(t, "GET", ts.URL+"/v1/datasets/demo", "", "")
	if got := respGet.Header.Get("ETag"); got != etag1 {
		t.Errorf("GET etag %q != PUT etag %q", got, etag1)
	}
	resp304, body304 := doHdr(t, "GET", ts.URL+"/v1/datasets/demo", "", "",
		map[string]string{"If-None-Match": etag1})
	if resp304.StatusCode != http.StatusNotModified || body304 != "" {
		t.Errorf("conditional GET: %d %q, want empty 304", resp304.StatusCode, body304)
	}

	// Populate the result cache, then overwrite the dataset: the version
	// bump must invalidate it even though name and options are unchanged.
	do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json", `{"min_count":2}`)
	if s.results.Len() == 0 {
		t.Fatal("mine did not populate the cache")
	}
	resp2, _ := do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", csvBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("overwrite: %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("ETag"); got == "" || got == etag1 {
		t.Errorf("overwrite did not flip the ETag: %q", got)
	}
	if s.results.Len() != 0 {
		t.Errorf("overwrite left %d cached results for the old version", s.results.Len())
	}
	_, body := do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json", `{"min_count":2}`)
	var mr MineResponse
	if err := json.Unmarshal([]byte(body), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Cache != "miss" {
		t.Errorf("mine after overwrite served %q, want miss", mr.Cache)
	}

	// Append to a dataset that does not exist: 404 with the envelope.
	respA, bodyA := do(t, "POST", ts.URL+"/v1/datasets/ghost/append", "text/plain", "g1: A[0,4]\n")
	if respA.StatusCode != http.StatusNotFound {
		t.Fatalf("append to missing dataset: %d %q", respA.StatusCode, bodyA)
	}
	var eb ErrorEnvelope
	if err := json.Unmarshal([]byte(bodyA), &eb); err != nil || eb.Error.Code != "not_found" {
		t.Errorf("append-404 envelope: %q (err=%v)", bodyA, err)
	}

	// Malformed append (End < Start) is rejected by the shared
	// incremental validation gate without touching the dataset.
	respB, bodyB := do(t, "POST", ts.URL+"/v1/datasets/demo/append", "text/plain", "b1: A[5,1]\n")
	if respB.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid append: %d %q, want 400", respB.StatusCode, bodyB)
	}
	respC, _ := do(t, "GET", ts.URL+"/v1/datasets/demo", "", "")
	if got := respC.Header.Get("ETag"); got != resp2.Header.Get("ETag") {
		t.Errorf("rejected append changed the dataset version: %q -> %q", resp2.Header.Get("ETag"), got)
	}
}

// TestDeleteDuringInflightMine: deleting (and even replacing) a dataset
// while a mine on its old snapshot is in flight must not disturb the
// mine — the store is copy-on-write, so the snapshot stays valid. Run
// under -race this is also the store's concurrency gate.
func TestDeleteDuringInflightMine(t *testing.T) {
	s := NewWithConfig(nil, Config{MaxConcurrentMines: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", csvBody)

	started := make(chan struct{}, 1)
	proceed := make(chan struct{})
	s.testMineHook = func() {
		started <- struct{}{}
		<-proceed
	}

	type result struct {
		status int
		body   string
	}
	ch := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/datasets/demo/mine", "application/json",
			strings.NewReader(`{"min_count":2}`))
		if err != nil {
			ch <- result{-1, err.Error()}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		ch <- result{resp.StatusCode, string(data)}
	}()

	<-started
	// Delete the dataset out from under the in-flight mine, then re-use
	// the name with different data.
	resp, _ := do(t, "DELETE", ts.URL+"/v1/datasets/demo", "", "")
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete during mine: %d", resp.StatusCode)
	}
	do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/plain", "z1: C[0,9]\n")
	close(proceed)

	res := <-ch
	if res.status != http.StatusOK {
		t.Fatalf("in-flight mine after delete: %d %q", res.status, res.body)
	}
	var mr MineResponse
	if err := json.Unmarshal([]byte(res.body), &mr); err != nil {
		t.Fatal(err)
	}
	// The mine must have seen its original snapshot, not the replacement.
	if mr.Stats.Sequences != 3 {
		t.Errorf("in-flight mine saw %d sequences, want the original 3", mr.Stats.Sequences)
	}
	// And a fresh mine on the re-created dataset sees the new data, not
	// a stale cache entry keyed to the deleted incarnation.
	_, body := do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json", `{"min_count":1}`)
	var fresh MineResponse
	if err := json.Unmarshal([]byte(body), &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.Stats.Sequences != 1 {
		t.Errorf("post-recreate mine saw %d sequences, want 1", fresh.Stats.Sequences)
	}
}

// TestV1ErrorEnvelopeShape: every error class carries the uniform
// envelope with a stable code on the /v1 surface.
func TestV1ErrorEnvelopeShape(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", csvBody)

	cases := []struct {
		name         string
		method, path string
		body         string
		wantStatus   int
		wantCode     string
		wantField    string
	}{
		{"not found", "GET", "/v1/datasets/nope", "", 404, "not_found", ""},
		{"bad field", "POST", "/v1/datasets/demo/mine", `{"min_support":-1}`, 400, "invalid_request", "min_support"},
		{"bad mode", "POST", "/v1/datasets/demo/mine", `{"mode":"x","min_count":1}`, 400, "invalid_request", "mode"},
		{"rules field", "POST", "/v1/datasets/demo/mine", `{"mode":"rules","min_count":1,"min_lift":-1}`, 400, "invalid_request", "min_lift"},
	}
	for _, c := range cases {
		ctype := ""
		if c.body != "" {
			ctype = "application/json"
		}
		resp, body := do(t, c.method, ts.URL+c.path, ctype, c.body)
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s: status %d, want %d (%q)", c.name, resp.StatusCode, c.wantStatus, body)
			continue
		}
		var eb ErrorEnvelope
		if err := json.Unmarshal([]byte(body), &eb); err != nil {
			t.Errorf("%s: body %q not an envelope: %v", c.name, body, err)
			continue
		}
		if eb.Error.Code != c.wantCode || eb.Error.Message == "" || eb.RequestID == "" {
			t.Errorf("%s: envelope %+v, want code %q", c.name, eb, c.wantCode)
		}
		if eb.Error.Field != c.wantField {
			t.Errorf("%s: field %q, want %q", c.name, eb.Error.Field, c.wantField)
		}
	}
}

// TestConcurrentMineAppendDeleteChurn hammers all mutating routes against
// mines concurrently; under -race this is the end-to-end store/cache
// concurrency gate.
func TestConcurrentMineAppendDeleteChurn(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/v1/datasets/churn", "text/csv", csvBody)

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				switch (g + i) % 4 {
				case 0:
					do(t, "POST", ts.URL+"/v1/datasets/churn/mine", "application/json", `{"min_count":1}`)
				case 1:
					do(t, "POST", ts.URL+"/v1/datasets/churn/append", "text/plain",
						fmt.Sprintf("c%d-%d: A[0,4]\n", g, i))
				case 2:
					do(t, "DELETE", ts.URL+"/v1/datasets/churn", "", "")
					do(t, "PUT", ts.URL+"/v1/datasets/churn", "text/csv", csvBody)
				case 3:
					do(t, "GET", ts.URL+"/v1/datasets/churn", "", "")
				}
			}
		}(g)
	}
	wg.Wait()
}
