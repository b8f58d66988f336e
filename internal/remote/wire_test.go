package remote

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"tpminer/internal/core"
	"tpminer/internal/endpoint"
	"tpminer/internal/pattern"
	"tpminer/internal/shard"
)

func ep(sym string, occ int, kind endpoint.Kind) endpoint.Endpoint {
	return endpoint.Endpoint{Symbol: sym, Occ: occ, Kind: kind}
}

// The golden bodies. Their files under testdata/ were written once and
// are never regenerated: bytes that differ from them mean a format
// change, which needs a new wireVersion, since a coordinator and its
// workers of different builds must refuse each other's bodies rather
// than misread them.
var (
	goldenDigest  = digestOf([]byte("golden shard"))
	goldenAABB    = pattern.Temporal{Elements: [][]endpoint.Endpoint{{ep("A", 1, endpoint.Start)}, {ep("B", 1, endpoint.Start)}, {ep("A", 1, endpoint.Finish), ep("B", 1, endpoint.Finish)}}}
	goldenRepeatA = pattern.Temporal{Elements: [][]endpoint.Endpoint{{ep("A", 1, endpoint.Start)}, {ep("A", 1, endpoint.Finish)}, {ep("A", 2, endpoint.Start)}, {ep("A", 2, endpoint.Finish)}}}
	goldenCoAB    = pattern.Coinc{Elements: [][]string{{"A", "B"}, {"Δ"}}}

	goldenBodies = []struct {
		name  string
		value any
	}{
		{"mine_body_temporal", &mineBody{digest: goldenDigest, timeoutMillis: 1500, req: shard.MineShardRequest{
			Shard: 1, Kind: core.KindTemporal,
			Opt: core.Options{MinSupport: 0.25, MaxIntervals: 4, MaxSpan: 30, MaxGap: 10, KeepOccurrences: true, Parallel: 2},
		}}},
		{"mine_body_coincidence", &mineBody{digest: goldenDigest, req: shard.MineShardRequest{
			Kind: core.KindCoincidence, TopK: 5,
			Opt: core.Options{MinCount: 3, MaxElements: 3, MaxItemsPerElement: 2, MaxPatterns: 100,
				TimeBudget: 2 * time.Second, DisableGlobalPruning: true, DisableSizePruning: true},
		}}},
		{"mine_result", &core.Result{
			Temporal: []pattern.TemporalResult{{Pattern: goldenAABB, Support: 300}, {Pattern: goldenRepeatA, Support: 2}},
			Coinc:    []pattern.CoincResult{{Pattern: goldenCoAB, Support: 1}},
			Stats: core.Stats{Sequences: 12, MinCount: 2, ItemsRemoved: 1, Nodes: 40, Emitted: 9, CandidateScans: 1200,
				PairPruned: 5, PostfixPruned: 3, SizePruned: 7, JobsSpawned: 4, StealsTaken: 2, MaxQueueDepth: 3,
				Elapsed: 1234567 * time.Nanosecond, Truncated: true, TruncatedBy: core.TruncatedMaxPatterns},
		}},
		{"count_body_temporal", &countBody{digest: goldenDigest, req: shard.CountRequest{
			Shard: 1, Kind: core.KindTemporal, Temporal: []pattern.Temporal{goldenAABB, goldenRepeatA}, MaxSpan: 20, MaxGap: 10,
		}}},
		{"count_body_coincidence", &countBody{digest: goldenDigest, req: shard.CountRequest{
			Kind: core.KindCoincidence, Coinc: []pattern.Coinc{goldenCoAB, {Elements: [][]string{{"A"}}}},
		}}},
		{"count_result", &shard.CountResponse{Supports: []int{3, 0, 1200}}},
	}
)

// encodeGolden encodes one golden value with its body's encoder.
func encodeGolden(t testing.TB, v any) []byte {
	switch v := v.(type) {
	case *mineBody:
		return appendMineBody(nil, v)
	case *countBody:
		return appendCountBody(nil, v)
	case *core.Result:
		return appendResult(nil, v)
	case *shard.CountResponse:
		return appendSupports(nil, v)
	}
	t.Fatalf("no encoder for %T", v)
	return nil
}

// decodeGolden decodes data with the decoder of v's body.
func decodeGolden(t testing.TB, v any, data []byte) (any, error) {
	switch v.(type) {
	case *mineBody:
		b, err := decodeMineBody(data)
		return &b, err
	case *countBody:
		b, err := decodeCountBody(data)
		return &b, err
	case *core.Result:
		return decodeResult(data)
	case *shard.CountResponse:
		return decodeSupports(data)
	}
	t.Fatalf("no decoder for %T", v)
	return nil, nil
}

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWireGoldenFormat: encoding each golden value today writes its
// committed golden file byte for byte, and decoding the file gives the
// value back.
func TestWireGoldenFormat(t *testing.T) {
	for _, g := range goldenBodies {
		want := readGolden(t, g.name)
		if got := encodeGolden(t, g.value); !bytes.Equal(got, want) {
			t.Errorf("%s: encodes to %d bytes that differ from the golden %d bytes\ngot  %x\nwant %x",
				g.name, len(got), len(want), got, want)
		}
		got, err := decodeGolden(t, g.value, want)
		if err != nil {
			t.Errorf("%s: golden file does not decode: %v", g.name, err)
		} else if !reflect.DeepEqual(got, g.value) {
			t.Errorf("%s: golden file decodes to\n%+v\nwant\n%+v", g.name, got, g.value)
		}
	}
}

// setDistinct sets every exported field of the struct v points to a
// distinct non-zero value. A field of a type it cannot set fails the
// test, so a new field's type is never skipped silently.
func setDistinct(t *testing.T, v any) {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f, fv := rv.Type().Field(i), rv.Field(i)
		if !f.IsExported() {
			continue
		}
		switch fv.Kind() {
		case reflect.Int, reflect.Int64: // time.Duration too
			fv.SetInt(int64(i+1) * 1_000_003)
		case reflect.Float64:
			fv.SetFloat(1 / float64(i+2))
		case reflect.Bool:
			fv.SetBool(true)
		case reflect.String:
			fv.SetString(fmt.Sprintf("%s-%d", f.Name, i))
		default:
			t.Fatalf("%s.%s is a %s, which setDistinct cannot set", rv.Type(), f.Name, fv.Kind())
		}
	}
}

// sameExported reports each exported field of the struct want points
// to that got does not hold.
func sameExported(t *testing.T, got, want any) {
	t.Helper()
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < wv.NumField(); i++ {
		f := wv.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); g != w {
			t.Errorf("%s.%s = %v crossed the wire as %v", wv.Type(), f.Name, w, g)
		}
	}
}

// TestWireCarriesEveryField: every exported field of core.Options and
// core.Stats, each set to a distinct non-zero value, survives the mine
// body and the mine result. A field added to either struct fails here
// until the codec carries it, instead of silently leaving remote mines.
func TestWireCarriesEveryField(t *testing.T) {
	var mine mineBody
	setDistinct(t, &mine.req.Opt)
	back, err := decodeMineBody(appendMineBody(nil, &mine))
	if err != nil {
		t.Fatalf("mine body: %v", err)
	}
	sameExported(t, &back.req.Opt, &mine.req.Opt)

	var r core.Result
	setDistinct(t, &r.Stats)
	got, err := decodeResult(appendResult(nil, &r))
	if err != nil {
		t.Fatalf("mine result: %v", err)
	}
	sameExported(t, &got.Stats, &r.Stats)
}

// The fuzz seeds of the worker body targets, which the worker built by
// fuzzWorker serves.
var seedBodies = map[string]any{
	"FuzzWorkerMineBody/valid_temporal": &mineBody{req: shard.MineShardRequest{Kind: core.KindTemporal, Opt: core.Options{MinCount: 1}}},
	"FuzzWorkerMineBody/topk_parallel": &mineBody{req: shard.MineShardRequest{Kind: core.KindCoincidence, TopK: 100000000,
		Opt: core.Options{MinCount: 1, Parallel: 1000000000}}},
	"FuzzWorkerMineBody/every_option": &mineBody{timeoutMillis: 60000, req: shard.MineShardRequest{Kind: core.KindTemporal,
		Opt: core.Options{MinSupport: 0.5, MinCount: 1, MaxElements: 4, MaxIntervals: 2, MaxItemsPerElement: 2,
			MaxSpan: 10, MaxGap: 5, KeepOccurrences: true, MaxPatterns: 100, TimeBudget: time.Second,
			DisableGlobalPruning: true, DisablePairPruning: true, DisablePostfixPruning: true, DisableSizePruning: true,
			Parallel: 2}}},
	"FuzzWorkerCountBody/valid_coincidence": &countBody{req: shard.CountRequest{Kind: core.KindCoincidence,
		Coinc: []pattern.Coinc{{Elements: [][]string{{"A"}}}}}},
	"FuzzWorkerCountBody/valid_temporal": &countBody{req: shard.CountRequest{Kind: core.KindTemporal, MaxSpan: 5,
		Temporal: []pattern.Temporal{{Elements: [][]endpoint.Endpoint{{ep("A", 1, endpoint.Start)}, {ep("B", 1, endpoint.Start)},
			{ep("A", 1, endpoint.Finish)}, {ep("B", 1, endpoint.Finish)}}}}}},
}

// TestWorkerSeedBodies: each committed seed of the worker body fuzz
// targets holds its body above, addressed to fuzzWorker's shard, and
// the worker serves it with a 200, so every seed starts the fuzzer from
// an accepted body.
func TestWorkerSeedBodies(t *testing.T) {
	digest := NewShardData(ShardKey{}, decodeTestDB()).Digest()
	h := fuzzWorker(t)
	for name, v := range seedBodies {
		path := "/v1/worker/mine"
		switch b := v.(type) {
		case *mineBody:
			b.digest = digest
		case *countBody:
			b.digest, path = digest, "/v1/worker/count"
		}
		body := encodeGolden(t, v)
		file, err := os.ReadFile(filepath.Join("testdata", "fuzz", name))
		if err != nil {
			t.Fatal(err)
		}
		text, ok := strings.CutPrefix(string(file), "go test fuzz v1\n[]byte(")
		text, ok2 := strings.CutSuffix(text, ")\n")
		seed, err := strconv.Unquote(text)
		if !ok || !ok2 || err != nil {
			t.Fatalf("%s is not a one-value []byte corpus file: %q", name, file)
		}
		if seed != string(body) {
			t.Errorf("%s holds %x, want %x", name, seed, body)
		}
		if status, reply := serveRPC(t, h, path, []byte(seed)); status != http.StatusOK {
			t.Errorf("%s: %d %s", name, status, reply)
		}
	}
}
