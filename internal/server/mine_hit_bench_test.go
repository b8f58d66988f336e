package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"tpminer/internal/dataio"
	"tpminer/internal/gen"
)

// discardWriter is a ResponseWriter that drops the body, so a
// benchmark's B/op counts the handler's own allocations and not a
// recorder's copy of the response.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header  { return w.header }
func (w *discardWriter) WriteHeader(code int) { w.status = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// BenchmarkMineHit times a cache-hit POST /v1/datasets/{name}/mine
// through Server.Handler(): 1,000 Quest sequences mined at min_support
// 0.003 with max_intervals 4, a result of about 10k rows. The miss that
// fills the cache runs before the timer starts, so every timed request
// is a hit and measures decode, lookup and writing the response.
func BenchmarkMineHit(b *testing.B) {
	db, _, err := gen.Quest(gen.QuestConfig{NumSequences: 1000, AvgIntervals: 10, NumSymbols: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var csv bytes.Buffer
	if err := dataio.WriteCSV(&csv, db); err != nil {
		b.Fatal(err)
	}
	s := NewWithConfig(nil, Config{})
	defer s.Close()
	h := s.Handler()
	put := httptest.NewRequest(http.MethodPut, "/v1/datasets/bench", &csv)
	put.Header.Set("Content-Type", "text/csv")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, put)
	if rec.Code != http.StatusCreated {
		b.Fatalf("upload: %d %s", rec.Code, rec.Body)
	}

	spec := []byte(`{"min_support":0.003,"max_intervals":4}`)
	var body bytes.Reader
	req := httptest.NewRequest(http.MethodPost, "/v1/datasets/bench/mine", nil)
	req.Header.Set("Content-Type", "application/json")
	mine := func(w http.ResponseWriter) {
		body.Reset(spec)
		req.Body = io.NopCloser(&body)
		h.ServeHTTP(w, req)
	}
	rec = httptest.NewRecorder()
	mine(rec)
	var resp MineResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK || resp.Cache != "miss" {
		b.Fatalf("filling mine: %d cache %q err %v", rec.Code, resp.Cache, err)
	}

	w := &discardWriter{header: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.n = 0
		mine(w)
		if w.status != http.StatusOK || w.header.Get("X-Cache") != "hit" {
			b.Fatalf("hit: status %d, X-Cache %q", w.status, w.header.Get("X-Cache"))
		}
	}
	b.SetBytes(int64(w.n))
	b.ReportMetric(float64(resp.Count), "rows")
}
