package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"tpminer/internal/interval"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5},
		{0.25, 2}, {0.9, 4.6}, {0.1, 1.4},
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("percentile modified its input: %v", xs)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no values = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v, want 7", got)
	}
}

// The quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which computes the spreads the benchmark's bounds are checked with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 7}, [3]float64{2, 5, 8}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; !near(got[0], c.want[0]) || !near(got[1], c.want[1]) || !near(got[2], c.want[2]) {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{4, 4, 4}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name       string
		start, end int64
		children   [][2]int64
		want       int64
	}{
		{"no children", 0, 100, nil, 100},
		{"disjoint", 0, 100, [][2]int64{{10, 20}, {50, 70}}, 70},
		{"overlapping count once", 0, 100, [][2]int64{{10, 60}, {40, 80}}, 30},
		{"nested", 0, 100, [][2]int64{{10, 90}, {20, 30}}, 20},
		{"touching", 0, 100, [][2]int64{{10, 20}, {20, 30}}, 80},
		{"clipped to the span", 50, 100, [][2]int64{{0, 60}, {90, 200}}, 30},
		{"outside the span", 0, 100, [][2]int64{{200, 300}}, 100},
		{"unordered", 0, 100, [][2]int64{{70, 90}, {0, 10}, {5, 15}}, 65},
		{"fully covered", 0, 100, [][2]int64{{0, 100}}, 0},
		{"empty span", 100, 100, [][2]int64{{0, 200}}, 0},
	} {
		if got := selfTime(c.start, c.end, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSpanSummaries(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 0, Parent: -1, Op: 0, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 0, Name: "shard.mine", Start: 10, End: 90},
		{ID: 2, Parent: 1, Op: 0, Name: "shard.worker_mine", Start: 12, End: 50},
		{ID: 3, Parent: 1, Op: 0, Name: "shard.worker_mine", Start: 12, End: 60},
		{ID: 4, Parent: 1, Op: 0, Name: "shard.worker_count", Start: 62, End: 70},
		{ID: 5, Parent: 1, Op: 0, Name: "shard.worker_count", Start: 63, End: 75},
		{ID: 6, Parent: -1, Op: -1, Name: "op", Start: 200, End: 900}, // warm-up: ignored
	}
	ops := tr.byOp()
	if len(ops) != 1 {
		t.Fatalf("byOp kept %d operations, want 1 (warm-up excluded)", len(ops))
	}
	o := ops[0]
	for _, c := range []struct {
		name string
		got  int64
		want int64
	}{
		{"op self", o.selfSum("op"), 20},
		{"shard.mine self (merge)", o.selfSum("shard.mine"), 80 - 48 - 13},
		{"worker mine sum", o.durSum("shard.worker_mine"), 38 + 48},
		{"worker mine max", o.durMax("shard.worker_mine"), 48},
		{"count round wall", o.wall("shard.worker_count"), 13},
		{"fan-out", o.lastEndSince("shard.mine", "shard.worker_mine"), 50},
		{"absent", o.wall("remote.encode"), 0},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

func TestEventChunks(t *testing.T) {
	seq := func(id string, n int) interval.Sequence {
		s := interval.Sequence{ID: id}
		for i := 0; i < n; i++ {
			s.Intervals = append(s.Intervals, interval.Interval{Symbol: "a", Start: int64(i), End: int64(i + 1)})
		}
		return s
	}
	bodies, added, err := eventChunks([]interval.Sequence{seq("a", 3), seq("b", 4), seq("c", 2), seq("d", 5)}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(bodies) != 2 || len(added) != 2 {
		t.Fatalf("got %d chunks, want 2 (the remainder of d is dropped)", len(bodies))
	}
	wantLens := [][]int{{3, 2}, {2, 3}}
	wantIDs := [][]string{{"a", "b"}, {"c", "d"}}
	for i := range bodies {
		if n := bytes.Count(bodies[i], []byte("\n")); n != 5 {
			t.Errorf("chunk %d has %d events, want 5", i, n)
		}
		for j, s := range added[i] {
			if s.ID != wantIDs[i][j] || len(s.Intervals) != wantLens[i][j] {
				t.Errorf("chunk %d sequence %d is %s with %d intervals, want %s with %d",
					i, j, s.ID, len(s.Intervals), wantIDs[i][j], wantLens[i][j])
			}
		}
		db, err := parseEvents(bodies[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(db.Sequences, added[i]) {
			t.Errorf("chunk %d parses to %v, want %v", i, db.Sequences, added[i])
		}
	}
}

// Every per-layer metric a traced run prints must be declared in
// BENCHMARK.json and mapped in layers.json, and nothing else.
func TestLayerNamesAgree(t *testing.T) {
	printed := make(map[string]bool)
	for name := range layerMetrics(nil, series{}, series{}, nil, &replayCounts{}) {
		printed[name] = true
	}
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	var layers struct {
		PerLayer map[string]json.RawMessage `json:"per_layer"`
	}
	for path, v := range map[string]any{"../BENCHMARK.json": &bench, "layers.json": &layers} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	declared := make(map[string]bool)
	for _, m := range bench.PerLayer {
		declared[m.Name] = true
	}
	mapped := make(map[string]bool)
	for name := range layers.PerLayer {
		mapped[name] = true
	}
	if !reflect.DeepEqual(printed, declared) {
		t.Errorf("traced run prints %v\nBENCHMARK.json declares %v", keys(printed), keys(declared))
	}
	if !reflect.DeepEqual(printed, mapped) {
		t.Errorf("traced run prints %v\nlayers.json maps %v", keys(printed), keys(mapped))
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestKeptWindows(t *testing.T) {
	win := func(ops int, steal float64) window {
		return window{ops: ops, dur: time.Second, steal: steal}
	}
	// Enough calm time and operations: exactly the calm windows.
	p := &phase{windows: []window{win(60, 0.01), win(60, 0.2), win(60, 0), win(60, 0.02)}}
	kept := p.kept(3 * time.Second)
	if len(kept) != 3 || totalOps(kept) != 180 {
		t.Errorf("calm case kept %d windows with %d ops, want the 3 calm ones", len(kept), totalOps(kept))
	}
	// Too little calm time: the calmest windows holding minTimedOps and
	// half of all windows.
	p = &phase{windows: []window{win(30, 0.10), win(30, 0.05), win(30, 0.30), win(30, 0.04), win(30, 0.20), win(30, 0.06)}}
	kept = p.kept(10 * time.Second)
	if len(kept) != 4 {
		t.Fatalf("disturbed case kept %d windows, want 4 (120 ops >= %d)", len(kept), minTimedOps)
	}
	for _, w := range kept {
		if w.steal > 0.10 {
			t.Errorf("disturbed case kept a window with steal %v over calmer ones", w.steal)
		}
	}
}

func TestCountCPUList(t *testing.T) {
	for in, want := range map[string]int{"0": 1, "0-1": 2, "0-3,6": 5, "2,4-5,7": 4} {
		if got, err := countCPUList(in); err != nil || got != want {
			t.Errorf("countCPUList(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	if _, err := countCPUList("x"); err == nil {
		t.Error("countCPUList accepted garbage")
	}
}

func TestSeriesSum(t *testing.T) {
	s := series{
		`tpmd_job_runs_total{outcome="ok"}`:                 7,
		`tpmd_job_runs_total{outcome="noop"}`:               2,
		`tpmd_job_runs_total_extra`:                         100,
		`tpmd_remote_bytes_total{op="mine",dir="sent"}`:     10,
		`tpmd_remote_bytes_total{op="mine",dir="received"}`: 30,
		`tpmd_remote_bytes_total{op="count",dir="sent"}`:    5,
		`tpmd_cache_hits_total`:                             3,
	}
	for _, c := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"tpmd_job_runs_total", nil, 9},
		{"tpmd_job_runs_total", []string{`outcome="ok"`}, 7},
		{"tpmd_remote_bytes_total", []string{`op="mine"`}, 40},
		{"tpmd_remote_bytes_total", []string{`op="mine"`, `dir="sent"`}, 10},
		{"tpmd_cache_hits_total", nil, 3},
		{"tpmd_absent_total", nil, 0},
	} {
		if got := s.sum(c.name, c.labels...); got != c.want {
			t.Errorf("sum(%s, %v) = %v, want %v", c.name, c.labels, got, c.want)
		}
	}
	name, labels := splitSeries(`tpmd_mine_runs_total{type="temporal",outcome="ok"}`)
	if name != "tpmd_mine_runs_total" || !reflect.DeepEqual(labels, []string{`type="temporal"`, `outcome="ok"`}) {
		t.Errorf("splitSeries = %q %q", name, labels)
	}
}
