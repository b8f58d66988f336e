package core

import (
	"context"
	"math/rand"
	"testing"
)

// searchCounters is the part of Stats that the shape of the search tree
// alone determines. Clients see these counters as a mine's stats and as
// the tpmd_miner_* metrics.
type searchCounters struct {
	Nodes, Emitted, CandidateScans int64
	ItemsRemoved                   int
	PairPruned, PostfixPruned      int64
	SizePruned                     int64
}

func countersOf(st Stats) searchCounters {
	return searchCounters{
		Nodes:          st.Nodes,
		Emitted:        st.Emitted,
		CandidateScans: st.CandidateScans,
		ItemsRemoved:   st.ItemsRemoved,
		PairPruned:     st.PairPruned,
		PostfixPruned:  st.PostfixPruned,
		SizePruned:     st.SizePruned,
	}
}

// TestSearchCountersPinned pins the search counters of a plain and a
// serial top-k mine of each kind, each on one fixed random database. The
// expected values are literals, so a change to the search that moves any
// counter fails here, by name.
func TestSearchCountersPinned(t *testing.T) {
	tdb := schedRandomDB(rand.New(rand.NewSource(21)), 20, 6, 6, 30)
	cdb := schedRandomDB(rand.New(rand.NewSource(21)), 20, 6, 10, 30)
	topt, copt := Options{MinCount: 2}, Options{MinCount: 3}
	cases := []struct {
		name string
		mine func() (Stats, error)
		want searchCounters
	}{
		{"temporal", func() (Stats, error) {
			_, st, err := MineTemporal(tdb, topt)
			return st, err
		}, searchCounters{Nodes: 86, Emitted: 26, CandidateScans: 248, ItemsRemoved: 2, PairPruned: 444, PostfixPruned: 73, SizePruned: 20}},
		{"temporal top-k", func() (Stats, error) {
			_, st, err := mineCount(context.Background(), tdb, KindTemporal, 5, topt)
			return st, err
		}, searchCounters{Nodes: 58, Emitted: 16, CandidateScans: 189, ItemsRemoved: 2, PairPruned: 367, PostfixPruned: 52, SizePruned: 16}},
		{"coincidence", func() (Stats, error) {
			_, st, err := MineCoincidence(cdb, copt)
			return st, err
		}, searchCounters{Nodes: 72, Emitted: 71, CandidateScans: 288, ItemsRemoved: 1}},
		{"coincidence top-k", func() (Stats, error) {
			_, st, err := mineCount(context.Background(), cdb, KindCoincidence, 5, copt)
			return st, err
		}, searchCounters{Nodes: 22, Emitted: 21, CandidateScans: 97, ItemsRemoved: 1, SizePruned: 8}},
	}
	for _, c := range cases {
		st, err := c.mine()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := countersOf(st); got != c.want {
			t.Errorf("%s: counters %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestForcedStealSearchCounters: a parallel mine visits exactly the
// serial search tree, so with every subtree offered to the queue it
// still reports the serial mine's search counters. Scheduler counters
// are excluded.
func TestForcedStealSearchCounters(t *testing.T) {
	db := schedRandomDB(rand.New(rand.NewSource(21)), 20, 6, 4, 30)
	serial := Options{MinCount: 2}
	par := serial
	par.Parallel = 4
	par.stealCutoff = 1
	for _, kind := range []struct {
		name string
		mine func(Options) (Stats, error)
	}{
		{"temporal", func(opt Options) (Stats, error) {
			_, st, err := MineTemporal(db, opt)
			return st, err
		}},
		{"coincidence", func(opt Options) (Stats, error) {
			_, st, err := MineCoincidence(db, opt)
			return st, err
		}},
	} {
		want, err := kind.mine(serial)
		if err != nil {
			t.Fatal(err)
		}
		got, err := kind.mine(par)
		if err != nil {
			t.Fatal(err)
		}
		if countersOf(got) != countersOf(want) {
			t.Errorf("%s: forced-steal counters %+v, serial %+v", kind.name, countersOf(got), countersOf(want))
		}
	}
}
