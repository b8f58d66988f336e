package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// fetchRouteTable pulls the machine-readable route table from a live
// server — the same JSON clients use for discovery — so the contract
// tests assert against what is actually served, not a parallel list.
func fetchRouteTable(t *testing.T, baseURL string) []RouteInfo {
	t.Helper()
	resp, body := do(t, "GET", baseURL+"/v1/routes", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/routes: %d %q", resp.StatusCode, body)
	}
	var payload struct {
		Routes []RouteInfo `json:"routes"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("GET /v1/routes: malformed JSON: %v", err)
	}
	if len(payload.Routes) == 0 {
		t.Fatal("GET /v1/routes returned no routes")
	}
	return payload.Routes
}

// TestRoutesDocumentedInREADME is the route contract: every route the
// server serves — as listed by its own GET /v1/routes endpoint — must
// appear, verbatim as "METHOD /v1/path", in the README's API reference
// table. Adding a route without documenting it fails `make verify`.
func TestRoutesDocumentedInREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("README.md not readable from the package directory: %v", err)
	}
	doc := string(readme)
	ts := newTestServer(t)
	for _, rt := range fetchRouteTable(t, ts.URL) {
		route := rt.Method + " /v1" + rt.Pattern
		if !strings.Contains(doc, route) {
			t.Errorf("served route %q is missing from the README API reference table", route)
		}
		if rt.Summary == "" {
			t.Errorf("route %q has no summary in the route table", route)
		}
	}
}

// TestRouteTableMatchesServer: the served table and the compiled-in one
// agree, and Routes() renders every entry.
func TestRouteTableMatchesServer(t *testing.T) {
	ts := newTestServer(t)
	served := fetchRouteTable(t, ts.URL)
	compiled := RouteTable()
	if len(served) != len(compiled) {
		t.Fatalf("served table has %d routes, RouteTable() has %d", len(served), len(compiled))
	}
	for i, rt := range compiled {
		if served[i] != rt {
			t.Errorf("route %d: served %+v != compiled %+v", i, served[i], rt)
		}
	}
	routes := Routes()
	if len(routes) != len(compiled) {
		t.Fatalf("Routes() has %d entries, RouteTable() has %d", len(routes), len(compiled))
	}
	for i, rt := range compiled {
		want := rt.Method + " /v1" + rt.Pattern
		if routes[i] != want {
			t.Errorf("Routes()[%d] = %q, want %q", i, routes[i], want)
		}
	}
}

// TestRouteTableIsServed proves the route table is not aspirational:
// every listed route resolves to a handler (no 404/405 from the mux)
// under /v1, and unlisted paths still 404.
func TestRouteTableIsServed(t *testing.T) {
	ts := newTestServer(t)

	for _, rt := range fetchRouteTable(t, ts.URL) {
		p := "/v1" + strings.ReplaceAll(rt.Pattern, "{name}", "x")
		p = strings.ReplaceAll(p, "{id}", "j1")
		// Recreate the dataset and job each time so earlier DELETE
		// iterations cannot turn a served route into a spurious 404.
		do(t, "PUT", ts.URL+"/v1/datasets/x", "text/csv", csvBody)
		do(t, "POST", ts.URL+"/v1/jobs", "application/json", `{"id":"j1","dataset":"x"}`)
		body, ctype := "", ""
		if rt.Method == "POST" || rt.Method == "PUT" {
			body, ctype = "s9: A[0,4]\n", "text/plain"
			switch {
			case strings.HasSuffix(p, "/mine"):
				body, ctype = `{"min_count":2}`, "application/json"
			case strings.HasSuffix(p, "/events"):
				body, ctype = `{"seq":"s9","symbol":"A","start":0,"end":4}`+"\n", "application/x-ndjson"
			case p == "/v1/jobs":
				body, ctype = `{"id":"j2","dataset":"x"}`, "application/json"
			}
		}
		status, respBody := doRoute(t, rt.Method, ts.URL+p, ctype, body)
		// A handler's own 404 (uniform error envelope) still proves the
		// route resolved; the mux's plain-text 404 means it did not.
		handlerNotFound := status == http.StatusNotFound && strings.Contains(respBody, `"error"`)
		if (status == http.StatusNotFound && !handlerNotFound) || status == http.StatusMethodNotAllowed {
			t.Errorf("listed route %s %s not served: %d %q", rt.Method, p, status, respBody)
		}
		do(t, "DELETE", ts.URL+"/v1/jobs/j2", "", "")
	}

	resp, _ := do(t, "GET", ts.URL+"/v1/unknown", "", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unlisted path served: %d", resp.StatusCode)
	}
}

// doRoute issues one request but, unlike do, never blocks on an
// unbounded body: the SSE events route streams until the client
// disconnects, so only its status matters here.
func doRoute(t *testing.T, method, url, contentType, body string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, strings.NewReader(body))
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
	if strings.Contains(resp.Header.Get("Content-Type"), "text/event-stream") {
		return resp.StatusCode, "(event stream)"
	}
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	return resp.StatusCode, string(buf[:n])
}

// TestRemovedSurfaceAnswers pins how the server answers clients of
// surface it no longer has: paths outside /v1 and the old rules route
// are 404s from the mux, a request spelling the mode as "type" is a 400,
// and no response, stats object, metric, or route-table row carries the
// old deprecation markers.
func TestRemovedSurfaceAnswers(t *testing.T) {
	s := NewWithConfig(nil, Config{MaxConcurrentMines: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	do(t, "PUT", ts.URL+"/v1/datasets/x", "text/csv", csvBody)

	for _, rq := range []struct{ method, path, ctype, body string }{
		{"GET", "/healthz", "", ""},
		{"GET", "/datasets", "", ""},
		{"GET", "/datasets/x", "", ""},
		{"POST", "/datasets/x/mine", "application/json", `{"min_count":2}`},
		{"POST", "/datasets/x/rules", "application/json", `{"min_count":2}`},
		{"POST", "/v1/datasets/x/rules", "application/json", `{"min_count":2}`},
	} {
		resp, body := do(t, rq.method, ts.URL+rq.path, rq.ctype, rq.body)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: %d %q, want 404", rq.method, rq.path, resp.StatusCode, body)
		}
	}
	for _, rq := range []struct{ path, body string }{
		{"/v1/datasets/x/mine", `{"type":"coincidence","min_count":2}`},
		{"/v1/jobs", `{"dataset":"x","mine":{"type":"coincidence","min_count":2}}`},
	} {
		resp, body := do(t, "POST", ts.URL+rq.path, "application/json", rq.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, `unknown field \"type\"`) {
			t.Errorf("POST %s with type: %d %q, want 400 naming the field", rq.path, resp.StatusCode, body)
		}
	}

	resp, body := do(t, "POST", ts.URL+"/v1/datasets/x/mine", "application/json", `{"min_count":2}`)
	if resp.StatusCode != http.StatusOK || strings.Contains(body, `"elapsed":`) {
		t.Errorf("mine: %d %q, want 200 without a stats.elapsed field", resp.StatusCode, body)
	}
	if h := resp.Header.Get("Deprecation"); h != "" {
		t.Errorf("mine response carries Deprecation %q", h)
	}
	_, metrics := do(t, "GET", ts.URL+"/v1/metrics", "", "")
	if strings.Contains(metrics, `api="`) {
		t.Error("metrics still carry the api label")
	}
	if !strings.Contains(metrics, `tpmd_http_requests_total{route="/datasets/{name}/mine",class="2xx"} 1`) ||
		!strings.Contains(metrics, `tpmd_http_requests_total{route="other",class="4xx"} 6`) {
		t.Error("route labels: want the mine route counted once and the six 404s as other")
	}

	_, body = do(t, "GET", ts.URL+"/v1/routes", "", "")
	var payload struct {
		Routes []map[string]any `json:"routes"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatal(err)
	}
	for _, row := range payload.Routes {
		if len(row) != 3 || row["method"] == nil || row["pattern"] == nil || row["summary"] == nil {
			t.Errorf("route row %v, want exactly method, pattern, and summary", row)
		}
	}
}

// TestMetricsExpositionGolden is the exposition contract: a fresh
// server's GET /v1/metrics carries exactly the # HELP and # TYPE lines
// of testdata/metrics_exposition.golden, in order. Every family is
// registered at construction, so the list is the same before any
// traffic; a renamed, retyped, reordered, added or dropped family —
// or a changed HELP string — fails `make contract`.
func TestMetricsExpositionGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/metrics_exposition.golden")
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t)
	resp, body := do(t, "GET", ts.URL+"/v1/metrics", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: %d", resp.StatusCode)
	}
	var got []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			got = append(got, line)
		}
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("exposition line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}
