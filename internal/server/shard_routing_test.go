package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// shardedCSV builds a deterministic 48-sequence dataset large enough to
// split into several shards.
func shardedCSV() string {
	rng := rand.New(rand.NewSource(7))
	var b strings.Builder
	b.WriteString("sequence_id,symbol,start,end\n")
	for s := 0; s < 48; s++ {
		n := 2 + rng.Intn(5)
		for i := 0; i < n; i++ {
			sym := string(rune('A' + rng.Intn(5)))
			start := rng.Intn(40)
			dur := 1 + rng.Intn(10)
			fmt.Fprintf(&b, "s%d,%s,%d,%d\n", s, sym, start, start+dur)
		}
	}
	return b.String()
}

// shardCount reads how many shards the server partitions a dataset into
// from its shards endpoint.
func shardCount(t *testing.T, baseURL, name string) int {
	t.Helper()
	resp, body := do(t, "GET", baseURL+"/v1/datasets/"+name+"/shards", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shards endpoint: %d %q", resp.StatusCode, body)
	}
	var layout ShardLayout
	if err := json.Unmarshal([]byte(body), &layout); err != nil {
		t.Fatalf("shards body: %v (%q)", err, body)
	}
	return len(layout.Shards)
}

// TestShardedMineMatchesUnsharded: the same dataset mined through a
// sharded server and an unsharded one must produce identical patterns,
// supports, ordering, and ETags — sharding is invisible to clients.
func TestShardedMineMatchesUnsharded(t *testing.T) {
	serial := NewWithConfig(nil, Config{MaxConcurrentMines: 32, Shards: 1})
	sharded := NewWithConfig(nil, Config{MaxConcurrentMines: 32, Shards: 4, ShardMinSeqs: 1})
	tsSerial := httptest.NewServer(serial.Handler())
	tsSharded := httptest.NewServer(sharded.Handler())
	t.Cleanup(tsSerial.Close)
	t.Cleanup(tsSharded.Close)

	csv := shardedCSV()
	for _, ts := range []*httptest.Server{tsSerial, tsSharded} {
		if resp, body := do(t, "PUT", ts.URL+"/v1/datasets/d", "text/csv", csv); resp.StatusCode != http.StatusCreated {
			t.Fatalf("put: %d %q", resp.StatusCode, body)
		}
	}
	// The sharded server must actually have fanned the dataset out.
	if n := shardCount(t, tsSharded.URL, "d"); n < 2 {
		t.Fatalf("sharded store holds %v shards, want >= 2", n)
	}

	requests := []struct{ path, body string }{
		{"/v1/datasets/d/mine", `{"min_count":3}`},
		{"/v1/datasets/d/mine", `{"min_support":0.2}`},
		{"/v1/datasets/d/mine", `{"min_count":2,"max_span":20,"max_gap":10}`},
		{"/v1/datasets/d/mine", `{"min_count":2,"top_k":10}`},
		{"/v1/datasets/d/mine", `{"min_count":3,"filter":"closed"}`},
		{"/v1/datasets/d/mine", `{"min_count":3,"filter":"maximal"}`},
		{"/v1/datasets/d/mine", `{"min_count":2,"top_k":10,"filter":"closed"}`},
		{"/v1/datasets/d/mine", `{"mode":"coincidence","min_count":3}`},
		{"/v1/datasets/d/mine", `{"mode":"coincidence","min_count":3,"filter":"closed"}`},
		{"/v1/datasets/d/mine", `{"mode":"coincidence","min_count":3,"filter":"maximal"}`},
		{"/v1/datasets/d/mine", `{"mode":"coincidence","min_count":2,"top_k":8}`},
		{"/v1/datasets/d/mine", `{"mode":"coincidence","min_count":2,"top_k":8,"filter":"maximal"}`},
		{"/v1/datasets/d/mine", `{"mode":"rules","min_count":3,"min_confidence":0.5}`},
		{"/v1/datasets/d/mine", `{"mode":"rules","min_count":2,"min_confidence":0.3}`},
		{"/v1/datasets/d/mine", `{"min_count":2,"window":{"kind":"sliding","count":30}}`},
		{"/v1/datasets/d/mine", `{"min_count":2,"window":{"kind":"tumbling","count":20}}`},
		{"/v1/datasets/d/mine", `{"mode":"coincidence","min_count":2,"window":{"kind":"sliding","count":30}}`},
		{"/v1/datasets/d/mine", `{"mode":"coincidence","min_count":2,"window":{"kind":"tumbling","count":20}}`},
		{"/v1/datasets/d/mine", `{"mode":"rules","min_count":2,"min_confidence":0.3,"window":{"kind":"sliding","count":30}}`},
		{"/v1/datasets/d/mine", `{"mode":"rules","min_count":2,"min_confidence":0.3,"window":{"kind":"tumbling","count":20}}`},
	}
	for _, rq := range requests {
		respA, bodyA := do(t, "POST", tsSerial.URL+rq.path, "application/json", rq.body)
		respB, bodyB := do(t, "POST", tsSharded.URL+rq.path, "application/json", rq.body)
		if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: serial %d, sharded %d (%q / %q)", rq.path, rq.body,
				respA.StatusCode, respB.StatusCode, bodyA, bodyB)
		}
		if a, b := respA.Header.Get("ETag"), respB.Header.Get("ETag"); a == "" || a != b {
			t.Errorf("%s %s: ETag mismatch: serial %q, sharded %q", rq.path, rq.body, a, b)
		}
		if strings.Contains(rq.body, `"mode":"rules"`) {
			if bodyA != bodyB {
				t.Errorf("%s %s: rules bodies differ:\nserial:  %s\nsharded: %s", rq.path, rq.body, bodyA, bodyB)
			}
			continue
		}
		var a, b MineResponse
		if err := json.Unmarshal([]byte(bodyA), &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(bodyB), &b); err != nil {
			t.Fatal(err)
		}
		if len(a.Patterns) == 0 {
			t.Fatalf("%s %s: serial run found no patterns; test is vacuous", rq.path, rq.body)
		}
		if len(a.Patterns) != len(b.Patterns) {
			t.Fatalf("%s %s: serial %d patterns, sharded %d", rq.path, rq.body, len(a.Patterns), len(b.Patterns))
		}
		for i := range a.Patterns {
			if a.Patterns[i] != b.Patterns[i] {
				t.Errorf("%s %s: pattern %d differs: serial %+v, sharded %+v",
					rq.path, rq.body, i, a.Patterns[i], b.Patterns[i])
			}
		}
	}

	// The fan-out is observable: the sharded server's metrics must show
	// it routed mines through the coordinator.
	_, metrics := do(t, "GET", tsSharded.URL+"/v1/metrics", "", "")
	for _, want := range []string{"tpmd_shard_fanout_total", "tpmd_shard_skew_ratio", "tpmd_shard_mine_duration_seconds"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
	if strings.Contains(metrics, "tpmd_shard_fanout_total 0") {
		t.Error("tpmd_shard_fanout_total is 0 after sharded mines")
	}
}

// TestSmallDatasetStaysUnsharded: with the default shard-min-seqs
// floor, a tiny dataset keeps a single shard and mines serially even
// when the server allows many shards.
func TestSmallDatasetStaysUnsharded(t *testing.T) {
	s := NewWithConfig(nil, Config{MaxConcurrentMines: 32, Shards: 8})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if resp, body := do(t, "PUT", ts.URL+"/v1/datasets/d", "text/csv", csvBody); resp.StatusCode != http.StatusCreated {
		t.Fatalf("put: %d %q", resp.StatusCode, body)
	}
	if n := shardCount(t, ts.URL, "d"); n != 1 {
		t.Fatalf("3-sequence dataset got %d shards, want 1", n)
	}
	if resp, body := do(t, "POST", ts.URL+"/v1/datasets/d/mine", "application/json", `{"min_count":2}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("mine: %d %q", resp.StatusCode, body)
	}
	_, metrics := do(t, "GET", ts.URL+"/v1/metrics", "", "")
	if !strings.Contains(metrics, "tpmd_shard_fanout_total 0") {
		t.Error("single-shard dataset should not fan out")
	}
}

// TestWindowedMinesDoNotFanOut: a window is a slice no stored partition
// covers, so a windowed mine and a windowed job run mine on one worker
// even when the dataset itself is sharded — only whole-dataset mines
// fan out.
func TestWindowedMinesDoNotFanOut(t *testing.T) {
	s := NewWithConfig(nil, Config{MaxConcurrentMines: 32, Shards: 4, ShardMinSeqs: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	if resp, body := do(t, "PUT", ts.URL+"/v1/datasets/d", "text/csv", shardedCSV()); resp.StatusCode != http.StatusCreated {
		t.Fatalf("put: %d %q", resp.StatusCode, body)
	}
	if n := shardCount(t, ts.URL, "d"); n < 2 {
		t.Fatalf("dataset holds %d shards, want >= 2", n)
	}

	mine := `{"min_count":2,"window":{"kind":"sliding","count":30}}`
	if resp, body := do(t, "POST", ts.URL+"/v1/datasets/d/mine", "application/json", mine); resp.StatusCode != http.StatusOK {
		t.Fatalf("windowed mine: %d %q", resp.StatusCode, body)
	}
	job := `{"id":"live","dataset":"d","mine":{"min_count":2,"window":{"kind":"tumbling","count":20}},"debounce_ms":5}`
	if resp, body := do(t, "POST", ts.URL+"/v1/jobs", "application/json", job); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create job: %d %q", resp.StatusCode, body)
	}
	if st := waitJobVersion(t, ts.URL, 1); st.RunSeq < 1 {
		t.Fatalf("job published no run: %+v", st)
	}

	_, body := do(t, "GET", ts.URL+"/v1/metrics", "", "")
	m := parseMetrics(t, body)
	if got := m["tpmd_shard_fanout_total"]; got != 0 {
		t.Errorf("tpmd_shard_fanout_total = %v after windowed mines, want 0", got)
	}
	if got := m[`tpmd_job_runs_total{outcome="ok"}`]; got < 1 {
		t.Errorf(`tpmd_job_runs_total{outcome="ok"} = %v, want >= 1`, got)
	}
}
