// Package workertest is the shared conformance suite every shard.Worker
// implementation must pass. It pins the contract the coordinator's
// exactness proof leans on — determinism across repeated calls, exact
// local counting consistent with mining and with the oracle's matchers
// (also for patterns the shard does not hold), prompt context-cancellation
// propagation, stats that survive the transport — so a new transport
// (the remote HTTP client, a decorator) proves itself by running one
// function against a known database instead of re-deriving the contract
// from the merge algebra.
package workertest

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"tpminer/internal/core"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
	"tpminer/internal/shard"
)

// Factory builds workers for one implementation under test.
type Factory struct {
	// New returns a worker mining exactly db. Called once per subtest;
	// cleanup belongs on t.Cleanup.
	New func(t *testing.T, db *interval.Database) shard.Worker
}

// DB builds the deterministic 12-sequence database the suite mines.
// Exported so transport tests can assert against the same data.
func DB() *interval.Database {
	db := &interval.Database{}
	for s := 0; s < 12; s++ {
		seq := interval.Sequence{ID: fmt.Sprintf("s%02d", s)}
		// Every sequence holds A and B overlapping; even sequences add
		// a C after them, and every third sequence doubles up A — so
		// the database yields patterns at several supports, with
		// repeated-symbol occurrences exercising the raw/normalized
		// distinction.
		seq.Intervals = append(seq.Intervals,
			interval.Interval{Symbol: "A", Start: 0, End: 10},
			interval.Interval{Symbol: "B", Start: 5, End: 15},
		)
		if s%2 == 0 {
			seq.Intervals = append(seq.Intervals, interval.Interval{Symbol: "C", Start: 20, End: 30})
		}
		if s%3 == 0 {
			seq.Intervals = append(seq.Intervals, interval.Interval{Symbol: "A", Start: 40, End: 50})
		}
		db.Sequences = append(db.Sequences, seq)
	}
	return db
}

// MineInput decodes fuzz bytes into a database of at most 8 sequences
// over the symbols A-D and one mine request: temporal or coincidence, a
// min_count of 1-4, a top_k of 0-5 and, for temporal mining, a max_span
// and a max_gap (0 is unbounded). Bytes past the end read as 0. Both
// differential fuzz targets decode their seeds with it.
func MineInput(data []byte) (db *interval.Database, kind core.Kind, topK int, opt core.Options) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	h := next()
	kind, topK = core.KindTemporal, h>>1%6
	if h&1 == 1 {
		kind = core.KindCoincidence
	}
	opt.MinCount = 1 + next()%4
	if kind == core.KindTemporal {
		opt.MaxSpan, opt.MaxGap = interval.Time(next()%16), interval.Time(next()%8)
	}
	db = &interval.Database{Sequences: make([]interval.Sequence, next()%9)}
	for s := range db.Sequences {
		seq := &db.Sequences[s]
		seq.ID = fmt.Sprintf("s%d", s)
		for n := next() % 6; n > 0; n-- {
			b, start := next(), interval.Time(next()%16)
			seq.Intervals = append(seq.Intervals, interval.Interval{
				Symbol: string(rune('A' + b%4)), Start: start, End: start + interval.Time(b>>2%8),
			})
		}
	}
	return db, kind, topK, opt
}

// Run executes the full conformance suite against the factory.
func Run(t *testing.T, f Factory) {
	t.Run("MineTemporalDeterministic", func(t *testing.T) { testMineDeterministic(t, f, core.KindTemporal) })
	t.Run("MineCoincidenceDeterministic", func(t *testing.T) { testMineDeterministic(t, f, core.KindCoincidence) })
	t.Run("MineMatchesLocal", func(t *testing.T) { testMineMatchesLocal(t, f) })
	t.Run("MineTopK", func(t *testing.T) { testMineTopK(t, f) })
	t.Run("MineUnknownKind", func(t *testing.T) { testUnknownKind(t, f) })
	t.Run("CountMatchesMine", func(t *testing.T) { testCountMatchesMine(t, f) })
	t.Run("CountForeignPatterns", func(t *testing.T) { testCountForeign(t, f) })
	t.Run("CountConcurrent", func(t *testing.T) { testCountConcurrent(t, f) })
	t.Run("CountParallelToRequest", func(t *testing.T) { testCountShape(t, f) })
	t.Run("StatsFold", func(t *testing.T) { testStatsFold(t, f) })
	t.Run("MineCancellation", func(t *testing.T) { testCancellation(t, f, false) })
	t.Run("CountCancellation", func(t *testing.T) { testCancellation(t, f, true) })
}

func mineReq(kind core.Kind) *shard.MineShardRequest {
	return &shard.MineShardRequest{
		Shard: 0,
		Kind:  kind,
		Opt:   core.Options{MinCount: 2, KeepOccurrences: kind == core.KindTemporal},
	}
}

// testMineDeterministic: two identical calls return identical patterns,
// supports, and search counters. Elapsed is wall time and exempt.
func testMineDeterministic(t *testing.T, f Factory, kind core.Kind) {
	w := f.New(t, DB())
	ctx := context.Background()
	a, err := w.Mine(ctx, mineReq(kind))
	if err != nil {
		t.Fatalf("mine #1: %v", err)
	}
	b, err := w.Mine(ctx, mineReq(kind))
	if err != nil {
		t.Fatalf("mine #2: %v", err)
	}
	a.Stats.Elapsed, b.Stats.Elapsed = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("repeated mine differs:\n#1: %+v\n#2: %+v", a, b)
	}
	if kind == core.KindTemporal && len(a.Temporal) == 0 {
		t.Fatal("temporal mine found nothing; suite database is broken")
	}
	if kind == core.KindCoincidence && len(a.Coinc) == 0 {
		t.Fatal("coincidence mine found nothing; suite database is broken")
	}
}

// testMineMatchesLocal: whatever the transport, the response must be
// exactly the LocalWorker's over the same database — the property the
// coordinator's merge correctness rests on.
func testMineMatchesLocal(t *testing.T, f Factory) {
	db := DB()
	w := f.New(t, db)
	ref := shard.NewLocalWorker(db)
	ctx := context.Background()
	for _, kind := range []core.Kind{core.KindTemporal, core.KindCoincidence} {
		got, err := w.Mine(ctx, mineReq(kind))
		if err != nil {
			t.Fatalf("%s: mine: %v", kind, err)
		}
		want, err := ref.Mine(ctx, mineReq(kind))
		if err != nil {
			t.Fatalf("%s: reference mine: %v", kind, err)
		}
		got.Stats.Elapsed, want.Stats.Elapsed = 0, 0
		if len(got.Temporal) != len(want.Temporal) || len(got.Coinc) != len(want.Coinc) {
			t.Fatalf("%s: %d temporal / %d coinc results, want %d / %d",
				kind, len(got.Temporal), len(got.Coinc), len(want.Temporal), len(want.Coinc))
		}
		for i := range want.Temporal {
			if got.Temporal[i].Support != want.Temporal[i].Support ||
				got.Temporal[i].Pattern.Key() != want.Temporal[i].Pattern.Key() {
				t.Errorf("%s: temporal result %d differs: got %v(%d), want %v(%d)", kind, i,
					got.Temporal[i].Pattern, got.Temporal[i].Support,
					want.Temporal[i].Pattern, want.Temporal[i].Support)
			}
		}
		for i := range want.Coinc {
			if got.Coinc[i].Support != want.Coinc[i].Support ||
				got.Coinc[i].Pattern.Key() != want.Coinc[i].Pattern.Key() {
				t.Errorf("%s: coincidence result %d differs", kind, i)
			}
		}
	}
}

// testMineTopK: the top-k path works and honors k.
func testMineTopK(t *testing.T, f Factory) {
	w := f.New(t, DB())
	req := mineReq(core.KindTemporal)
	req.TopK = 2
	resp, err := w.Mine(context.Background(), req)
	if err != nil {
		t.Fatalf("top-k mine: %v", err)
	}
	if len(resp.Temporal) == 0 || len(resp.Temporal) > 2 {
		t.Errorf("top-2 mine returned %d results", len(resp.Temporal))
	}
}

// testUnknownKind: a bogus kind is an error, not silence.
func testUnknownKind(t *testing.T, f Factory) {
	w := f.New(t, DB())
	req := mineReq(core.Kind("nonsense"))
	if _, err := w.Mine(context.Background(), req); err == nil {
		t.Error("mine with unknown kind succeeded")
	}
	creq := &shard.CountRequest{Shard: 0, Kind: core.Kind("nonsense")}
	if _, err := w.Count(context.Background(), creq); err == nil {
		t.Error("count with unknown kind succeeded")
	}
}

// testCountMatchesMine: counting a mined pattern must report the same
// support mining did — the identity support completion depends on.
func testCountMatchesMine(t *testing.T, f Factory) {
	w := f.New(t, DB())
	ctx := context.Background()
	mined, err := w.Mine(ctx, mineReq(core.KindTemporal))
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	creq := &shard.CountRequest{Shard: 0, Kind: core.KindTemporal}
	for _, r := range mined.Temporal {
		creq.Temporal = append(creq.Temporal, r.Pattern)
	}
	counted, err := w.Count(ctx, creq)
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if len(counted.Supports) != len(mined.Temporal) {
		t.Fatalf("count returned %d supports for %d patterns", len(counted.Supports), len(mined.Temporal))
	}
	for i, r := range mined.Temporal {
		if counted.Supports[i] != r.Support {
			t.Errorf("pattern %d (%v): counted %d, mined %d", i, r.Pattern, counted.Supports[i], r.Support)
		}
	}

	cm, err := w.Mine(ctx, mineReq(core.KindCoincidence))
	if err != nil {
		t.Fatalf("coincidence mine: %v", err)
	}
	ccreq := &shard.CountRequest{Shard: 0, Kind: core.KindCoincidence}
	for _, r := range cm.Coinc {
		ccreq.Coinc = append(ccreq.Coinc, r.Pattern)
	}
	ccounted, err := w.Count(ctx, ccreq)
	if err != nil {
		t.Fatalf("coincidence count: %v", err)
	}
	for i, r := range cm.Coinc {
		if ccounted.Supports[i] != r.Support {
			t.Errorf("coincidence pattern %d: counted %d, mined %d", i, ccounted.Supports[i], r.Support)
		}
	}
}

// foreignDB is a database whose patterns DB's worker is asked to count:
// it shares A and B with DB, adds D, which DB lacks, and a third A,
// which no DB sequence has, so some patterns name endpoints or symbols
// absent from the shard and count 0 there.
func foreignDB() *interval.Database {
	db := &interval.Database{}
	for s := 0; s < 6; s++ {
		seq := interval.Sequence{ID: fmt.Sprintf("f%d", s), Intervals: []interval.Interval{
			{Symbol: "A", Start: 0, End: 10},
			{Symbol: "B", Start: 5, End: 15},
		}}
		if s%2 == 0 {
			seq.Intervals = append(seq.Intervals, interval.Interval{Symbol: "D", Start: 20, End: 25})
		}
		if s%3 == 0 {
			seq.Intervals = append(seq.Intervals,
				interval.Interval{Symbol: "A", Start: 40, End: 50},
				interval.Interval{Symbol: "A", Start: 60, End: 70})
		}
		db.Sequences = append(db.Sequences, seq)
	}
	return db
}

// testCountForeign: counting patterns the worker did not mine — some
// naming endpoints or symbols its shard lacks — reports each pattern's
// exact support over the shard, as the oracle's matchers count it, with
// and without span and gap bounds. A pattern that names nothing is
// decided by the matcher too.
func testCountForeign(t *testing.T, f Factory) {
	db := DB()
	w := f.New(t, db)
	ref := shard.NewLocalWorker(foreignDB())
	ctx := context.Background()
	slices, err := pattern.EncodeDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	ixs := pattern.BuildIndexes(slices)
	cs, err := pattern.TransformDatabase(db)
	if err != nil {
		t.Fatal(err)
	}

	temporal, err := ref.Mine(ctx, &shard.MineShardRequest{Kind: core.KindTemporal, Opt: core.Options{MinCount: 1, KeepOccurrences: true}})
	if err != nil {
		t.Fatalf("foreign temporal mine: %v", err)
	}
	coinc, err := ref.Mine(ctx, &shard.MineShardRequest{Kind: core.KindCoincidence, Opt: core.Options{MinCount: 1}})
	if err != nil {
		t.Fatalf("foreign coincidence mine: %v", err)
	}
	var zero, nonzero, bounded int
	check := func(label string, got *shard.CountResponse, want []int) {
		t.Helper()
		if len(got.Supports) != len(want) {
			t.Fatalf("%s: count returned %d supports for %d patterns", label, len(got.Supports), len(want))
		}
		for i := range want {
			if got.Supports[i] != want[i] {
				t.Errorf("%s: pattern %d counted %d, oracle %d", label, i, got.Supports[i], want[i])
			}
			if want[i] == 0 {
				zero++
			} else {
				nonzero++
			}
		}
	}

	ps := []pattern.Temporal{{}}
	for _, r := range temporal.Temporal {
		ps = append(ps, r.Pattern)
	}
	unbounded := make([]int, len(ps))
	for _, span := range []interval.Time{0, 20} {
		req := &shard.CountRequest{Kind: core.KindTemporal, Temporal: ps, MaxSpan: span, MaxGap: span / 2}
		want := make([]int, len(ps))
		for i, p := range ps {
			want[i] = pattern.SupportIndexed(ixs, p, req.MaxSpan, req.MaxGap)
			if span == 0 {
				unbounded[i] = want[i]
			} else if want[i] != unbounded[i] {
				bounded++
			}
		}
		got, err := w.Count(ctx, req)
		if err != nil {
			t.Fatalf("temporal count (span %d): %v", span, err)
		}
		check(fmt.Sprintf("temporal span %d", span), got, want)
	}

	cps := []pattern.Coinc{{Elements: [][]string{{}}}}
	for _, r := range coinc.Coinc {
		cps = append(cps, r.Pattern)
	}
	want := make([]int, len(cps))
	for i, p := range cps {
		want[i] = pattern.SupportCoinc(cs, p)
	}
	got, err := w.Count(ctx, &shard.CountRequest{Kind: core.KindCoincidence, Coinc: cps})
	if err != nil {
		t.Fatalf("coincidence count: %v", err)
	}
	check("coincidence", got, want)

	if zero == 0 || nonzero == 0 || bounded == 0 {
		t.Fatalf("suite counted %d zero and %d nonzero supports, %d changed by span and gap; its databases are broken",
			zero, nonzero, bounded)
	}
}

// testCountConcurrent: concurrent counts of both kinds on one fresh
// worker — the first ones race to build its lazily cached count index —
// each answer what a serial count on a separate worker answers.
func testCountConcurrent(t *testing.T, f Factory) {
	w := f.New(t, DB())
	ref := shard.NewLocalWorker(DB())
	ctx := context.Background()
	var reqs []*shard.CountRequest
	var wants [][]int
	for _, kind := range []core.Kind{core.KindTemporal, core.KindCoincidence} {
		mined, err := ref.Mine(ctx, &shard.MineShardRequest{Kind: kind, Opt: core.Options{MinCount: 1, KeepOccurrences: true}})
		if err != nil {
			t.Fatalf("%s mine: %v", kind, err)
		}
		req := &shard.CountRequest{Kind: kind}
		for _, r := range mined.Temporal {
			req.Temporal = append(req.Temporal, r.Pattern)
		}
		for _, r := range mined.Coinc {
			req.Coinc = append(req.Coinc, r.Pattern)
		}
		want, err := ref.Count(ctx, req)
		if err != nil {
			t.Fatalf("%s reference count: %v", kind, err)
		}
		reqs, wants = append(reqs, req), append(wants, want.Supports)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(req *shard.CountRequest, want []int) {
			defer wg.Done()
			got, err := w.Count(ctx, req)
			if err != nil {
				t.Errorf("%s count: %v", req.Kind, err)
				return
			}
			if !reflect.DeepEqual(got.Supports, want) {
				t.Errorf("%s concurrent count = %v, want %v", req.Kind, got.Supports, want)
			}
		}(reqs[g%2], wants[g%2])
	}
	wg.Wait()
}

// testCountShape: an empty request counts nothing, and supports stay
// parallel to the request slice.
func testCountShape(t *testing.T, f Factory) {
	w := f.New(t, DB())
	resp, err := w.Count(context.Background(), &shard.CountRequest{Shard: 0, Kind: core.KindTemporal})
	if err != nil {
		t.Fatalf("empty count: %v", err)
	}
	if len(resp.Supports) != 0 {
		t.Errorf("empty count returned %d supports", len(resp.Supports))
	}
}

// testStatsFold: the stats the coordinator folds must survive the
// transport — a remote worker that drops Nodes or Truncated would
// silently corrupt aggregate stats and completeness decisions.
func testStatsFold(t *testing.T, f Factory) {
	w := f.New(t, DB())
	resp, err := w.Mine(context.Background(), mineReq(core.KindTemporal))
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	if resp.Stats.Nodes == 0 {
		t.Error("Stats.Nodes is 0 after a non-trivial mine")
	}
	if resp.Stats.Emitted == 0 {
		t.Error("Stats.Emitted is 0 with results present")
	}
	if resp.Stats.Truncated {
		t.Error("Stats.Truncated set without any budget in the request")
	}
}

// testCancellation: a canceled context aborts the call with an error
// that unwraps to context.Canceled — the coordinator's first-error-
// cancels fan-out depends on workers honoring it promptly.
func testCancellation(t *testing.T, f Factory, count bool) {
	w := f.New(t, DB())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var err error
	if count {
		_, err = w.Count(ctx, &shard.CountRequest{
			Shard: 0, Kind: core.KindTemporal,
			Temporal: []pattern.Temporal{mustMine(t, f).Temporal[0].Pattern},
		})
	} else {
		_, err = w.Mine(ctx, mineReq(core.KindTemporal))
	}
	if err == nil {
		t.Fatal("call with canceled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not unwrap to context.Canceled: %v", err)
	}
}

// mustMine grabs patterns to feed cancellation counts.
func mustMine(t *testing.T, f Factory) *shard.MineShardResponse {
	t.Helper()
	w := f.New(t, DB())
	resp, err := w.Mine(context.Background(), mineReq(core.KindTemporal))
	if err != nil || len(resp.Temporal) == 0 {
		t.Fatalf("seed mine: %v (%d results)", err, len(resp.Temporal))
	}
	return resp
}
