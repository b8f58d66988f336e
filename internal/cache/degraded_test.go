package cache_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"tpminer/internal/persist"
	"tpminer/internal/resilience"
	"tpminer/internal/server"
)

const csvBody = `sequence_id,symbol,start,end
s1,A,0,4
s1,B,2,6
s2,A,10,14
s2,B,12,16
`

// TestDegradedHitAccounting: a tpmd server counts a result-cache hit in
// tpmd_cache_degraded_hits_total only while persistence is degraded;
// hits while read-write, and misses at any time, are not counted. The
// server runs over a real persist.Store whose every I/O fails with
// ENOSPC while the toggle is on, at threshold 1, so the first failed
// write trips read-only mode and the first probe after the toggle goes
// off ends it.
func TestDegradedHitAccounting(t *testing.T) {
	faults := resilience.NewToggle(resilience.NewProfile(1).
		Add(resilience.OpAll, resilience.FaultRule{Prob: 1, Err: syscall.ENOSPC}))
	ps, err := persist.Open(t.TempDir(), persist.Options{Injector: faults})
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	s := server.NewWithConfig(nil, server.Config{
		Persist:                 ps,
		BreakerFailureThreshold: 1,
		RecoveryProbeInterval:   10 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
		if err := ps.Close(); err != nil {
			t.Errorf("persist.Close: %v", err)
		}
	})

	request := func(method, path, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		switch method {
		case "PUT":
			req.Header.Set("Content-Type", "text/csv")
		case "POST":
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return resp
	}
	status := func(method, path, body string) int {
		t.Helper()
		resp := request(method, path, body)
		resp.Body.Close()
		return resp.StatusCode
	}
	mine := func(body, outcome string) {
		t.Helper()
		resp := request("POST", "/v1/datasets/alpha/mine", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != outcome {
			t.Fatalf("mine %s: %d X-Cache %q, want 200 %s", body, resp.StatusCode, resp.Header.Get("X-Cache"), outcome)
		}
	}
	metric := func(name string) float64 {
		t.Helper()
		resp := request("GET", "/v1/metrics", "")
		page, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(page), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return f
			}
		}
		t.Fatalf("no %s sample on /v1/metrics", name)
		return 0
	}

	if got := status("PUT", "/v1/datasets/alpha", csvBody); got != http.StatusCreated {
		t.Fatalf("put alpha: %d", got)
	}
	mine(`{"min_count":2}`, "miss")
	mine(`{"min_count":2}`, "hit") // read-write hit

	faults.Set(true)
	if got := status("PUT", "/v1/datasets/alpha", csvBody); got != http.StatusInternalServerError {
		t.Fatalf("put on a full disk: %d, want 500", got)
	}
	if got := status("GET", "/v1/readyz", ""); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz after the trip: %d, want 503", got)
	}
	mine(`{"min_count":2}`, "hit") // degraded hit
	mine(`{"min_count":2}`, "hit") // degraded hit
	mine(`{"min_count":1}`, "miss")

	faults.Set(false)
	for deadline := time.Now().Add(5 * time.Second); status("GET", "/v1/readyz", "") != http.StatusOK; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for read-write")
		}
	}
	mine(`{"min_count":2}`, "hit") // read-write again

	if got := metric("tpmd_cache_hits_total"); got != 4 {
		t.Errorf("hits = %v, want 4", got)
	}
	if got := metric("tpmd_cache_degraded_hits_total"); got != 2 {
		t.Errorf("degraded hits = %v, want 2", got)
	}
}
