package remote

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"tpminer/internal/core"
	"tpminer/internal/dataio"
	"tpminer/internal/shard"
)

// fuzzWorker returns the handler of a worker holding one small pushed
// shard, which the committed seed bodies address by its digest.
func fuzzWorker(f *testing.F) http.Handler {
	ws := NewWorkerServer(WorkerConfig{MaxShardBytes: decodeLimit})
	h := ws.Handler()
	payload, digest, err := NewShardData(ShardKey{Dataset: "d", Version: 1, Shard: 0}, decodeTestDB()).Encode()
	if err != nil {
		f.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("PUT", "/v1/worker/shards/"+digest, bytes.NewReader(payload)))
	if rec.Code != http.StatusNoContent || ws.Shards() != 1 {
		f.Fatalf("push: %d %s", rec.Code, rec.Body)
	}
	return h
}

// serveRPC posts body to the worker and checks the reply contract every
// RPC shares: a non-200 reply carries the worker's error envelope, with
// a code and a message. It returns the status and the reply body.
func serveRPC(t *testing.T, h http.Handler, path string, body []byte) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		var e errWire
		if err := dataio.DecodeJSON(bytes.NewReader(rec.Body.Bytes()), &e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
			t.Fatalf("%d reply is not an error envelope (%v): %s", rec.Code, err, rec.Body)
		}
	}
	return rec.Code, rec.Body.Bytes()
}

// FuzzWorkerMineBody serves arbitrary mine bodies against a pushed
// shard. The worker must never panic, every rejection must carry its
// error envelope, and an accepted body must decode, re-encode and
// decode to the same request.
func FuzzWorkerMineBody(f *testing.F) {
	h := fuzzWorker(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		if status, _ := serveRPC(t, h, "/v1/worker/mine", body); status != http.StatusOK {
			return
		}
		var req mineWire
		if err := dataio.DecodeJSON(bytes.NewReader(body), &req); err != nil {
			t.Fatalf("accepted a mine body that does not decode: %v", err)
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var back mineWire
		if err := dataio.DecodeJSON(bytes.NewReader(again), &back); err != nil {
			t.Fatalf("re-encoded mine body does not decode: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(back, req) {
			t.Fatalf("mine body changed across re-encode:\n%+v\n%+v", req, back)
		}
	})
}

// FuzzWorkerCountBody serves arbitrary count bodies against a pushed
// shard. The worker must never panic, every rejection must carry its
// error envelope, and an accepted count must answer one support per
// requested pattern of its kind.
func FuzzWorkerCountBody(f *testing.F) {
	h := fuzzWorker(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		status, reply := serveRPC(t, h, "/v1/worker/count", body)
		if status != http.StatusOK {
			return
		}
		var req countWire
		if err := dataio.DecodeJSON(bytes.NewReader(body), &req); err != nil {
			t.Fatalf("accepted a count body that does not decode: %v", err)
		}
		var resp shard.CountResponse
		if err := json.Unmarshal(reply, &resp); err != nil {
			t.Fatalf("count reply does not decode: %v", err)
		}
		want := len(req.Coinc)
		if req.Kind == core.KindTemporal {
			want = len(req.Temporal)
		}
		if len(resp.Supports) != want {
			t.Fatalf("%d supports for %d %s patterns", len(resp.Supports), want, req.Kind)
		}
	})
}
