package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

const csvBody = `sequence_id,symbol,start,end
s1,A,0,4
s1,B,2,6
s2,A,10,14
s2,B,12,16
s3,B,0,2
`

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	// A roomy semaphore: these tests exercise functional behavior, not
	// backpressure (hardening_test.go covers 429s deterministically).
	ts := httptest.NewServer(NewWithConfig(nil, Config{MaxConcurrentMines: 32}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func do(t *testing.T, method, url, contentType, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
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

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, body := do(t, "GET", ts.URL+"/v1/healthz", "", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}
}

func TestDatasetLifecycle(t *testing.T) {
	ts := newTestServer(t)

	// Create.
	resp, body := do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", csvBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put: %d %q", resp.StatusCode, body)
	}
	var sum DatasetSummary
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Sequences != 3 || sum.Intervals != 5 || sum.Symbols != 2 {
		t.Errorf("summary: %+v", sum)
	}

	// Replace returns 200.
	resp, _ = do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", csvBody)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("replace: %d", resp.StatusCode)
	}

	// Get.
	resp, body = do(t, "GET", ts.URL+"/v1/datasets/demo", "", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"sequences":3`) {
		t.Errorf("get: %d %q", resp.StatusCode, body)
	}

	// List.
	resp, body = do(t, "GET", ts.URL+"/v1/datasets", "", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"name":"demo"`) {
		t.Errorf("list: %d %q", resp.StatusCode, body)
	}

	// Append (line format).
	resp, body = do(t, "POST", ts.URL+"/v1/datasets/demo/append", "text/plain", "s4: A[0,4] B[2,6]\n")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"sequences":4`) {
		t.Errorf("append: %d %q", resp.StatusCode, body)
	}

	// Delete.
	resp, _ = do(t, "DELETE", ts.URL+"/v1/datasets/demo", "", "")
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("delete: %d", resp.StatusCode)
	}
	resp, _ = do(t, "GET", ts.URL+"/v1/datasets/demo", "", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("get after delete: %d", resp.StatusCode)
	}
}

func TestMineTemporalEndpoint(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", csvBody)

	resp, body := do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json",
		`{"min_count":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine: %d %q", resp.StatusCode, body)
	}
	var mr MineResponse
	if err := json.Unmarshal([]byte(body), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Type != "temporal" || mr.Count == 0 || mr.Count != len(mr.Patterns) {
		t.Errorf("response: %+v", mr)
	}
	foundOverlap := false
	for _, p := range mr.Patterns {
		if p.Pattern == "A+ B+ A- B-" && p.Support == 2 && p.Relations == "A overlaps B" {
			foundOverlap = true
		}
	}
	if !foundOverlap {
		t.Errorf("overlap pattern missing: %+v", mr.Patterns)
	}
	if mr.Stats.Sequences != 3 || mr.Stats.MinCount != 2 {
		t.Errorf("stats: %+v", mr.Stats)
	}
}

func TestMineVariants(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", csvBody)

	// Coincidence.
	resp, body := do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json",
		`{"mode":"coincidence","min_count":2}`)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "{A B}") {
		t.Errorf("coincidence: %d %q", resp.StatusCode, body)
	}

	// Top-k.
	resp, body = do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json",
		`{"top_k":2}`)
	var mr MineResponse
	if err := json.Unmarshal([]byte(body), &mr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || mr.Count != 2 {
		t.Errorf("topk: %d count=%d", resp.StatusCode, mr.Count)
	}

	// Maximal filter removes subsumed single intervals.
	resp, body = do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json",
		`{"min_count":2,"filter":"maximal"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("maximal: %d %q", resp.StatusCode, body)
	}
	if strings.Contains(body, `"pattern":"A+ A-"`) {
		t.Errorf("maximal kept subsumed pattern: %q", body)
	}
}

// TestMineParallelField: the "parallel" request field is honored —
// results match a serial mine exactly — and the server ceiling caps it
// rather than rejecting the request, mirroring timeout_ms semantics.
func TestMineParallelField(t *testing.T) {
	srv := NewWithConfig(nil, Config{MaxConcurrentMines: 32, MaxParallel: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", csvBody)

	_, serialBody := do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json",
		`{"min_count":2}`)
	var serial MineResponse
	if err := json.Unmarshal([]byte(serialBody), &serial); err != nil {
		t.Fatal(err)
	}
	for _, req := range []string{
		`{"min_count":2,"parallel":2}`,
		`{"min_count":2,"parallel":64}`, // above the ceiling: capped, not rejected
	} {
		resp, body := do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("parallel mine %s: %d %q", req, resp.StatusCode, body)
		}
		var par MineResponse
		if err := json.Unmarshal([]byte(body), &par); err != nil {
			t.Fatal(err)
		}
		if par.Count != serial.Count || !reflect.DeepEqual(par.Patterns, serial.Patterns) {
			t.Errorf("parallel mine %s differs from serial:\n%+v\nvs\n%+v", req, par.Patterns, serial.Patterns)
		}
	}

	// Negative worker counts are invalid options.
	resp, body := do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json",
		`{"min_count":2,"parallel":-1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative parallel: %d %q", resp.StatusCode, body)
	}
}

// TestMineRequestParallelCap: the option conversion clamps at the
// configured ceiling.
func TestMineRequestParallelCap(t *testing.T) {
	cases := []struct{ req, ceil, want int }{
		{0, 4, 0}, {3, 4, 3}, {4, 4, 4}, {9, 4, 4},
	}
	for _, c := range cases {
		opt := MineSpec{MiningOptions: MiningOptions{MinCount: 1}, Parallel: c.req}.Options(c.ceil)
		if opt.Parallel != c.want {
			t.Errorf("options(%d) with ceiling %d: Parallel = %d, want %d", c.req, c.ceil, opt.Parallel, c.want)
		}
	}
}

func TestRulesEndpoint(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", csvBody)

	resp, body := do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json",
		`{"mode":"rules","min_count":2,"min_confidence":0.5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rules: %d %q", resp.StatusCode, body)
	}
	var rules []WireRule
	if err := json.Unmarshal([]byte(body), &rules); err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules derived")
	}
	for _, r := range rules {
		if r.Confidence < 0.5 || r.Confidence > 1 {
			t.Errorf("confidence out of range: %+v", r)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", csvBody)

	cases := []struct {
		name         string
		method, path string
		ctype, body  string
		wantStatus   int
	}{
		{"mine missing dataset", "POST", "/v1/datasets/nope/mine", "application/json", `{"min_count":1}`, 404},
		{"append missing dataset", "POST", "/v1/datasets/nope/append", "text/plain", "A[1,2]\n", 404},
		{"delete missing dataset", "DELETE", "/v1/datasets/nope", "", "", 404},
		{"bad upload format", "PUT", "/v1/datasets/x", "application/xml", "<x/>", 415},
		{"bad csv", "PUT", "/v1/datasets/x", "text/csv", "a,b\n", 400},
		{"mine no threshold", "POST", "/v1/datasets/demo/mine", "application/json", `{}`, 400},
		{"mine bad mode", "POST", "/v1/datasets/demo/mine", "application/json", `{"mode":"x","min_count":1}`, 400},
		{"mine bad filter", "POST", "/v1/datasets/demo/mine", "application/json", `{"min_count":1,"filter":"x"}`, 400},
		{"mine unknown field", "POST", "/v1/datasets/demo/mine", "application/json", `{"bogus":1}`, 400},
		{"rules bad confidence", "POST", "/v1/datasets/demo/mine", "application/json", `{"mode":"rules","min_count":1,"min_confidence":3}`, 400},
	}
	for _, c := range cases {
		resp, body := do(t, c.method, ts.URL+c.path, c.ctype, c.body)
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s: status %d (want %d), body %q", c.name, resp.StatusCode, c.wantStatus, body)
		}
		if c.wantStatus >= 400 && !strings.Contains(body, `"error"`) {
			t.Errorf("%s: error envelope missing: %q", c.name, body)
		}
	}
}

func TestConcurrentMineAndAppend(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", csvBody)

	done := make(chan error, 20)
	for i := 0; i < 10; i++ {
		go func() {
			resp, _ := do(t, "POST", ts.URL+"/v1/datasets/demo/mine", "application/json", `{"min_count":1}`)
			if resp.StatusCode != http.StatusOK {
				done <- fmt.Errorf("mine status %d", resp.StatusCode)
				return
			}
			done <- nil
		}()
		go func(i int) {
			resp, _ := do(t, "POST", ts.URL+"/v1/datasets/demo/append", "text/plain",
				fmt.Sprintf("x%d: A[0,4]\n", i))
			if resp.StatusCode != http.StatusOK {
				done <- fmt.Errorf("append status %d", resp.StatusCode)
				return
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 20; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}
