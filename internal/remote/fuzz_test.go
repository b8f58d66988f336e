package remote

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"tpminer/internal/api"
	"tpminer/internal/core"
	"tpminer/internal/dataio"
	"tpminer/internal/shard"
)

// fuzzWorker returns the handler of a worker holding one small pushed
// shard, which the committed seed bodies address by its digest.
func fuzzWorker(f testing.TB) http.Handler {
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
		var e api.ErrorEnvelope
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
		req, err := decodeMineBody(body)
		if err != nil {
			t.Fatalf("accepted a mine body that does not decode: %v", err)
		}
		back, err := decodeMineBody(appendMineBody(nil, &req))
		if err != nil {
			t.Fatalf("re-encoded mine body does not decode: %v", err)
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
		req, err := decodeCountBody(body)
		if err != nil {
			t.Fatalf("accepted a count body that does not decode: %v", err)
		}
		resp, err := decodeSupports(reply)
		if err != nil {
			t.Fatalf("count reply does not decode: %v", err)
		}
		want := len(req.req.Coinc)
		if req.req.Kind == core.KindTemporal {
			want = len(req.req.Temporal)
		}
		if len(resp.Supports) != want {
			t.Fatalf("%d supports for %d %s patterns", len(resp.Supports), want, req.req.Kind)
		}
	})
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// maxDecodeAlloc bounds what decoding n bytes of a reply may allocate:
// every declared element costs at least one byte of the body and at
// most a slice header, a string header or a row where it lands, and
// the constant covers the decoder and its error.
func maxDecodeAlloc(n int) uint64 { return 64*uint64(n) + 64<<10 }

// FuzzDecodeReplies feeds the coordinator's reply decoders arbitrary
// bytes, as a worker that is broken, hostile or of another build could
// send them. The decoders must never panic and never allocate past what
// the body can hold, and an accepted reply must re-encode and decode to
// an equal value.
func FuzzDecodeReplies(f *testing.F) {
	for _, name := range []string{"mine_result", "count_result"} {
		f.Add(readGolden(f, name))
	}
	huge := binary.AppendUvarint([]byte{wireVersion, 0}, 1<<40)
	f.Add(huge)
	f.Add(binary.AppendUvarint([]byte{wireVersion}, 1<<40))
	f.Add([]byte{wireVersion + 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			r   *core.Result
			err error
		)
		if n := allocated(func() { r, err = decodeResult(data) }); n > maxDecodeAlloc(len(data)) {
			t.Fatalf("decoding a %d-byte mine result allocated %d bytes", len(data), n)
		}
		if err == nil {
			back, err := decodeResult(appendResult(nil, r))
			if err != nil {
				t.Fatalf("re-encoded mine result does not decode: %v", err)
			}
			if !reflect.DeepEqual(back, r) {
				t.Fatalf("mine result changed across re-encode:\n%+v\n%+v", r, back)
			}
		}
		var s *shard.CountResponse
		if n := allocated(func() { s, err = decodeSupports(data) }); n > maxDecodeAlloc(len(data)) {
			t.Fatalf("decoding a %d-byte count result allocated %d bytes", len(data), n)
		}
		if err == nil {
			back, err := decodeSupports(appendSupports(nil, s))
			if err != nil {
				t.Fatalf("re-encoded count result does not decode: %v", err)
			}
			if !reflect.DeepEqual(back, s) {
				t.Fatalf("count result changed across re-encode:\n%+v\n%+v", s, back)
			}
		}
	})
}
