package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tpminer/internal/persist"
)

// TestIngestRequestAllOrNothing: an ingest request whose inline flush
// fails leaves nothing buffered, so the client's retry after recovery
// ingests its events exactly once, in one flush.
func TestIngestRequestAllOrNothing(t *testing.T) {
	inj := &blackoutInjector{}
	ps, err := persist.Open(t.TempDir(), persist.Options{Injector: inj, Retry: noBackoff})
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	defer ps.Close()
	s := NewWithConfig(nil, Config{
		MaxConcurrentMines:      4,
		Persist:                 ps,
		BreakerFailureThreshold: 1,
		RecoveryProbeInterval:   15 * time.Millisecond,
		IngestFlushCount:        4,
		IngestFlushAge:          time.Hour, // only the inline flush may append
	})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	url := ts.URL + "/v1/datasets/alpha"
	if resp, body := do(t, "PUT", url, "text/csv", csvBody); resp.StatusCode != http.StatusCreated {
		t.Fatalf("put: %d %q", resp.StatusCode, body)
	}
	events := `{"seq":"e1","symbol":"A","start":0,"end":4}
{"seq":"e1","symbol":"B","start":2,"end":6}
{"seq":"e2","symbol":"A","start":1,"end":5}
{"seq":"e2","symbol":"C","start":3,"end":9}
`
	inj.on.Store(true)
	resp, body := do(t, "POST", url+"/events", "application/x-ndjson", events)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body, "persist_unavailable") {
		t.Fatalf("ingest on dead disk: %d %q, want 500 persist_unavailable", resp.StatusCode, body)
	}
	inj.on.Store(false)
	waitReady(t, ts.URL, 5*time.Second)

	resp, body = do(t, "POST", url+"/events", "application/x-ndjson", events)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("retried ingest: %d %q", resp.StatusCode, body)
	}
	var ack ingestResponse
	if err := json.Unmarshal([]byte(body), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 4 || ack.Pending != 0 || ack.Flushes != 1 {
		t.Errorf("retried ingest ack: %+v, want 4 accepted, 0 pending, 1 flush", ack)
	}
	var sum DatasetSummary
	_, _, got := getETag(t, url)
	if err := json.Unmarshal([]byte(got), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Intervals != 9 || sum.Sequences != 5 {
		t.Errorf("after one retried ingest: %d intervals in %d sequences, want 9 in 5", sum.Intervals, sum.Sequences)
	}
}

// TestIngestCreateRacingPut: ingest's auto-create of a new dataset and
// a client PUT of the same name race, round after round. Whichever
// commits first, the acknowledged PUT's sequences are in the dataset
// afterwards: the ingest either appends to them or is replaced by them.
func TestIngestCreateRacingPut(t *testing.T) {
	s := NewWithConfig(nil, Config{MaxConcurrentMines: 4, IngestFlushCount: 1, CacheBudgetBytes: -1})
	defer s.Close()
	h := s.Handler()
	serve := func(method, path, ct, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Content-Type", ct)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	const rounds = 2000
	lost := 0
	for i := 0; i < rounds; i++ {
		path := fmt.Sprintf("/v1/datasets/race%d", i)
		start := make(chan struct{})
		var wg sync.WaitGroup
		var put, ingest *httptest.ResponseRecorder
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			put = serve("PUT", path, "text/csv", csvBody)
		}()
		go func() {
			defer wg.Done()
			<-start
			ingest = serve("POST", path+"/events", "application/x-ndjson", `{"seq":"ev","symbol":"A","start":0,"end":3}`)
		}()
		close(start)
		wg.Wait()
		if put.Code != http.StatusCreated && put.Code != http.StatusOK {
			t.Fatalf("round %d: put %d %q", i, put.Code, put.Body)
		}
		if ingest.Code != http.StatusAccepted {
			t.Fatalf("round %d: ingest %d %q", i, ingest.Code, ingest.Body)
		}
		db, _, ok := s.store.snapshot(fmt.Sprintf("race%d", i))
		if !ok {
			t.Fatalf("round %d: dataset missing", i)
		}
		ids := map[string]bool{}
		for _, seq := range db.Sequences {
			ids[seq.ID] = true
		}
		if !ids["s1"] || !ids["s2"] || !ids["s3"] {
			lost++
		}
	}
	if lost > 0 {
		t.Errorf("%d of %d rounds lost the acknowledged PUT's sequences", lost, rounds)
	}
}
