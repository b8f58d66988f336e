package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"tpminer/internal/gen"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
	"tpminer/internal/seqdb"
)

// Micro-benchmarks of the mining hot path — projection and candidate
// counting in isolation — plus a head-to-head of the work-stealing
// scheduler against a static first-level fan-out reference. The former
// two are what the dense position index and the depth-indexed projection
// pools optimize; run them with -benchmem to see the allocation counts.

func benchDB(b *testing.B) *interval.Database {
	b.Helper()
	db, _, err := gen.Quest(gen.QuestConfig{
		NumSequences: 200,
		AvgIntervals: 8,
		NumSymbols:   40,
		Seed:         42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// benchTemporalMiner builds a ready-to-search miner plus the candidates
// of the root node.
func benchTemporalMiner(b *testing.B, opt Options) (*temporalMiner, []projEntry, []candidate) {
	b.Helper()
	db := benchDB(b)
	minCount, err := ResolveMinCount(opt, db.Len())
	if err != nil {
		b.Fatal(err)
	}
	enc, err := seqdb.EncodeEndpointDB(db)
	if err != nil {
		b.Fatal(err)
	}
	enc.FilterInfrequent(minCount)
	ctl := newRunControl(context.Background(), opt, time.Now())
	m := newTemporalMiner(enc, dfs{opt: opt, minCount: minCount, ctl: ctl}, nil)
	proj := m.root().proj
	cands := m.countCandidates(proj, true, false, true)
	if len(cands) == 0 {
		b.Fatal("no frequent root candidates")
	}
	return m, proj, cands
}

// BenchmarkProjectTemporal measures one root-level projection: a single
// dense-index lookup per projected sequence plus the P3 postfix check.
func BenchmarkProjectTemporal(b *testing.B) {
	m, proj, cands := benchTemporalMiner(b, Options{MinSupport: 0.04})
	c := cands[len(cands)/2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.project(proj, c, 0)
	}
}

// BenchmarkCountTemporal measures one root-level candidate-counting scan.
func BenchmarkCountTemporal(b *testing.B) {
	m, proj, _ := benchTemporalMiner(b, Options{MinSupport: 0.04})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.countCandidates(proj, true, false, true)
	}
}

// BenchmarkProjectCoinc measures one root-level coincidence projection
// through the posting-list occurrence index.
func BenchmarkProjectCoinc(b *testing.B) {
	db := benchDB(b)
	opt := Options{MinSupport: 0.04}
	minCount, err := ResolveMinCount(opt, db.Len())
	if err != nil {
		b.Fatal(err)
	}
	enc, err := seqdb.EncodeCoincidenceDB(db)
	if err != nil {
		b.Fatal(err)
	}
	enc.FilterInfrequent(minCount)
	ctl := newRunControl(context.Background(), opt, time.Now())
	m := newCoincMiner(enc, dfs{opt: opt, minCount: minCount, ctl: ctl}, nil)
	proj := m.root().proj
	cands := m.countCandidates(proj, true, false)
	if len(cands) == 0 {
		b.Fatal("no frequent root candidates")
	}
	c := cands[len(cands)/2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.project(proj, c, 0)
	}
}

// staticFanoutTemporal is the scheduling strategy this PR replaced, kept
// here as a benchmark reference: the root's candidates are dealt out to
// workers once, and each subtree is mined serially no matter how skewed
// the work distribution turns out to be.
func staticFanoutTemporal(db *seqdb.EndpointDB, opt Options, minCount int, ctl *runControl) []pattern.TemporalResult {
	base := dfs{opt: opt, minCount: minCount, ctl: ctl}
	root := newTemporalMiner(db, base, nil)
	proj := root.root().proj
	cands := root.countCandidates(proj, true, false, true)

	jobs := make(chan int)
	workerResults := make([][]pattern.TemporalResult, len(cands))
	var wg sync.WaitGroup
	for w := 0; w < opt.Parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := newTemporalMiner(db, base, nil)
			for idx := range jobs {
				m.results = nil
				m.extend(proj, cands[idx], 0)
				workerResults[idx] = m.results
			}
		}()
	}
	for i := range cands {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	var out []pattern.TemporalResult
	for _, rs := range workerResults {
		out = append(out, rs...)
	}
	return out
}

// BenchmarkParallelScheduling compares the work-stealing DFS against the
// static first-level fan-out on a skewed search space (explosiveDB's
// subtree sizes fall off steeply across first-level candidates, so a
// static deal leaves workers idle while one grinds the big subtree).
// Meaningful with GOMAXPROCS > 1.
func BenchmarkParallelScheduling(b *testing.B) {
	db := explosiveDB(48, 9)
	opt := Options{MinCount: db.Len(), Parallel: 4}
	minCount := db.Len()
	enc, err := seqdb.EncodeEndpointDB(db)
	if err != nil {
		b.Fatal(err)
	}
	enc.FilterInfrequent(minCount)

	cutoff := stealCutoffFor(opt, len(enc.Seqs), minCount)
	b.Run("WorkStealing", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctl := newRunControl(context.Background(), opt, time.Now())
			var stats Stats
			search(enc, dfs{opt: opt, minCount: minCount, ctl: ctl, stealCutoff: cutoff}, newTemporalMiner, &stats)
		}
	})
	b.Run("StaticFanout", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctl := newRunControl(context.Background(), opt, time.Now())
			staticFanoutTemporal(enc, opt, minCount, ctl)
		}
	})
	serial := opt
	serial.Parallel = 1
	b.Run("Serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctl := newRunControl(context.Background(), serial, time.Now())
			var stats Stats
			search(enc, dfs{opt: serial, minCount: minCount, ctl: ctl}, newTemporalMiner, &stats)
		}
	})
}
