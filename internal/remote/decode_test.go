package remote

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"tpminer/internal/core"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
	"tpminer/internal/persist"
	"tpminer/internal/shard"
)

// decodeLimit is the worker's MaxShardBytes in these tests: small, so
// an oversized body and a gzip bomb are cheap to build.
const decodeLimit = 1 << 10

func decodeTestDB() *interval.Database {
	return &interval.Database{Sequences: []interval.Sequence{
		{ID: "s1", Intervals: []interval.Interval{{Symbol: "A", Start: 0, End: 2}, {Symbol: "B", Start: 1, End: 4}}},
		{ID: "s2", Intervals: []interval.Interval{{Symbol: "A", Start: 3, End: 5}}},
	}}
}

func gzipBytes(t testing.TB, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func digestOf(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestWorkerRejectsMalformedBodies posts malformed mine, count and push
// bodies to a worker. Each must get a 400 with the documented error code
// and leave nothing cached; the well-formed controls at the end must
// still be served.
func TestWorkerRejectsMalformedBodies(t *testing.T) {
	ws := NewWorkerServer(WorkerConfig{MaxShardBytes: decodeLimit})
	ts := httptest.NewServer(ws.Handler())
	defer ts.Close()

	payload, digest, err := NewShardData(ShardKey{Dataset: "d", Version: 1, Shard: 0}, decodeTestDB()).Encode()
	if err != nil {
		t.Fatal(err)
	}
	bombRaw := make([]byte, 4*decodeLimit)
	mineOf := func(digest string) []byte {
		return appendMineBody(nil, &mineBody{digest: digest,
			req: shard.MineShardRequest{Kind: core.KindTemporal, Opt: core.Options{MinCount: 1}}})
	}
	countOf := func(ps ...pattern.Coinc) []byte {
		return appendCountBody(nil, &countBody{digest: digest, req: shard.CountRequest{Kind: core.KindCoincidence, Coinc: ps}})
	}
	a := pattern.Coinc{Elements: [][]string{{"A"}}}
	var (
		mine  = mineOf(digest)
		count = countOf(a)
		push  = "/v1/worker/shards/" + digest
		// Oversized bodies that would otherwise decode: the mine's
		// padded digest would answer 404 shard_not_loaded, and the
		// count would be served.
		mineOversized  = mineOf(digest + strings.Repeat("0", decodeLimit))
		countOversized = countOf(make([]pattern.Coinc, decodeLimit)...)
		badVersion     = append([]byte{wireVersion + 1}, mine[1:]...)
	)
	// countHead is a count body up to its first pattern count, with a
	// one-symbol table, for the bodies no encoder writes.
	countHead := func(kind core.Kind) []byte {
		b := []byte{wireVersion, 1}
		b = persist.AppendString(b, "A")
		b = persist.AppendString(b, digest)
		b = appendInt(b, 0)
		return persist.AppendString(b, string(kind))
	}
	var (
		// 2^40 temporal patterns, and nothing after.
		countPastEnd = binary.AppendUvarint(countHead(core.KindTemporal), 1<<40)
		// No temporal pattern; one coincidence pattern of one element
		// naming symbol 1; span and gap 0.
		countBadSymbol = append(countHead(core.KindCoincidence), 0, 1, 1, 1, 1, 0, 0)
		// One temporal pattern of one element holding symbol 0 at
		// occurrence 1 (zig-zag 2) with kind 2; no coincidence pattern;
		// span and gap 0.
		countBadKind = append(countHead(core.KindTemporal), 1, 1, 1, 0, 2, 2, 0, 0, 0)
	)

	type post struct {
		name, method, path string
		body               []byte
		code               string
	}
	cases := []post{
		{"mine oversized", "POST", "/v1/worker/mine", mineOversized, codeBadRequest},
		{"mine unknown field", "POST", "/v1/worker/mine", binary.AppendVarint(bytes.Clone(mine), 3), codeBadRequest},
		{"mine trailing data", "POST", "/v1/worker/mine", append(bytes.Clone(mine), mine...), codeBadRequest},
		{"mine unknown version", "POST", "/v1/worker/mine", badVersion, codeBadRequest},
		{"count oversized", "POST", "/v1/worker/count", countOversized, codeBadRequest},
		{"count unknown field", "POST", "/v1/worker/count", binary.AppendVarint(bytes.Clone(count), 3), codeBadRequest},
		{"count trailing data", "POST", "/v1/worker/count", append(bytes.Clone(count), " x"...), codeBadRequest},
		{"count past body end", "POST", "/v1/worker/count", countPastEnd, codeBadRequest},
		{"count symbol outside table", "POST", "/v1/worker/count", countBadSymbol, codeBadRequest},
		{"count endpoint kind", "POST", "/v1/worker/count", countBadKind, codeBadRequest},
		{"push without digest", "PUT", "/v1/worker/shards/d", payload, codeBadPayload},
		{"push uppercase digest", "PUT", "/v1/worker/shards/" + strings.ToUpper(digest), payload, codeBadPayload},
		{"push digest mismatch", "PUT", "/v1/worker/shards/" + digestOf([]byte("other")), payload, codeBadPayload},
		{"push gzip bomb", "PUT", "/v1/worker/shards/" + digestOf(bombRaw), gzipBytes(t, bombRaw), codeBadPayload},
	}
	send := func(c post) (int, string) {
		t.Helper()
		req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}
	for _, c := range cases {
		status, body := send(c)
		if status != http.StatusBadRequest || !strings.Contains(body, `"code":"`+c.code+`"`) {
			t.Errorf("%s: %d %s, want 400 %s", c.name, status, body, c.code)
		}
		if n := ws.Shards(); n != 0 {
			t.Fatalf("%s: worker caches %d shards, want 0", c.name, n)
		}
	}

	// The last control pushes a digest the worker holds: it is answered
	// without reading the body, so any body will do.
	for _, c := range []post{
		{"push", "PUT", push, payload, ""},
		{"mine", "POST", "/v1/worker/mine", mine, ""},
		{"count", "POST", "/v1/worker/count", count, ""},
		{"push of a held digest", "PUT", push, []byte("not gzip"), ""},
	} {
		if status, body := send(c); status >= 300 {
			t.Errorf("well-formed %s: %d %s", c.name, status, body)
		}
	}
}

// FuzzDecodeShardPayload feeds the worker's shard-push decoder arbitrary
// bodies and digests. With seal set, the body is taken as the raw
// encoding and is gzipped and digested here, so the database decoder
// sees arbitrary bytes too. The decoder must never panic; an accepted
// payload must inflate to at most the limit and match its digest, and
// its database must survive a re-encode and decode unchanged.
func FuzzDecodeShardPayload(f *testing.F) {
	raw := persist.EncodeDatabase(nil, decodeTestDB())
	payload := gzipBytes(f, raw)
	bomb := make([]byte, 4*decodeLimit)
	f.Add(payload, digestOf(raw), false)
	f.Add(payload, "", false)
	f.Add(payload, digestOf(nil), false)
	f.Add(gzipBytes(f, bomb), digestOf(bomb), false)
	f.Add([]byte("not gzip"), digestOf(raw), false)
	f.Add(raw, "", true)
	f.Add(raw[:len(raw)/2], "", true)
	f.Fuzz(func(t *testing.T, body []byte, digest string, seal bool) {
		if seal {
			body, digest = gzipBytes(t, body), digestOf(body)
		}
		db, n, err := decodeShardPayload(bytes.NewReader(body), digest, decodeLimit)
		if err != nil {
			return
		}
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("accepted a payload that is not gzip: %v", err)
		}
		inflated, err := io.ReadAll(io.LimitReader(zr, decodeLimit+1))
		if err != nil {
			t.Fatalf("accepted a payload that does not inflate: %v", err)
		}
		if len(inflated) > decodeLimit || int64(len(inflated)) != n {
			t.Fatalf("accepted %d inflated bytes (reported %d), limit %d", len(inflated), n, decodeLimit)
		}
		if got := digestOf(inflated); got != digest {
			t.Fatalf("accepted digest %q for a payload whose digest is %q", digest, got)
		}
		again, err := persist.DecodeDatabase(persist.EncodeDatabase(nil, db))
		if err != nil {
			t.Fatalf("accepted database does not re-decode: %v", err)
		}
		if !reflect.DeepEqual(again, db) {
			t.Fatalf("database changed across re-encode: %+v vs %+v", again, db)
		}
	})
}
