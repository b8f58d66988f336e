package seqdb

import (
	"math/rand"
	"testing"

	"tpminer/internal/endpoint"
	"tpminer/internal/interval"
)

func testDB(t *testing.T) *interval.Database {
	t.Helper()
	return interval.NewDatabase(
		[]interval.Interval{
			{Symbol: "A", Start: 0, End: 4},
			{Symbol: "B", Start: 2, End: 6},
		},
		[]interval.Interval{
			{Symbol: "A", Start: 1, End: 3},
			{Symbol: "C", Start: 5, End: 8},
		},
		[]interval.Interval{
			{Symbol: "A", Start: 0, End: 2},
			{Symbol: "A", Start: 1, End: 5},
		},
	)
}

func TestEncodeEndpointDB(t *testing.T) {
	enc, err := EncodeEndpointDB(testDB(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(enc.Seqs) != 3 {
		t.Fatalf("seqs = %d", len(enc.Seqs))
	}
	// Items: A+/A-/B+/B- from seq0, C+/C- from seq1, A.2+/A.2- from seq2.
	if enc.Table.Len() != 8 {
		t.Errorf("table size = %d, want 8", enc.Table.Len())
	}
	// Pair index links starts to finishes.
	for id := 0; id < enc.Table.Len(); id++ {
		pid := enc.Pair[id]
		if pid < 0 {
			t.Fatalf("item %v has no pair", enc.Table.Endpoint(Item(id)))
		}
		if enc.Pair[pid] != Item(id) {
			t.Fatalf("pair index not symmetric for %v", enc.Table.Endpoint(Item(id)))
		}
		if enc.IsFinish[id] == enc.IsFinish[pid] {
			t.Fatalf("pair kinds equal for %v", enc.Table.Endpoint(Item(id)))
		}
	}
	// Position index agrees with the slices.
	if enc.Pos.Width() != enc.Table.Len() {
		t.Fatalf("Pos width = %d, want %d", enc.Pos.Width(), enc.Table.Len())
	}
	for si, seq := range enc.Seqs {
		n := 0
		for ci, sl := range seq.Slices {
			for ii, it := range sl.Items {
				loc := enc.Pos.At(int32(si), it)
				if loc.Slice != int32(ci) || loc.Idx != int32(ii) {
					t.Fatalf("Pos.At(%d,%v) = %v; want (%d,%d)", si, it, loc, ci, ii)
				}
				n++
			}
		}
		present := 0
		for _, loc := range enc.Pos.Row(int32(si)) {
			if loc.Slice >= 0 {
				present++
			}
		}
		if n != present {
			t.Fatalf("Pos row %d has %d present entries, slices hold %d items", si, present, n)
		}
	}
}

func TestEndpointItemSupports(t *testing.T) {
	enc, err := EncodeEndpointDB(testDB(t))
	if err != nil {
		t.Fatal(err)
	}
	sup := enc.ItemSupports()
	aPlus, ok := enc.Table.Lookup(endpoint.Endpoint{Symbol: "A", Occ: 1, Kind: endpoint.Start})
	if !ok {
		t.Fatal("A+ not interned")
	}
	if sup[aPlus] != 3 {
		t.Errorf("support(A+) = %d, want 3", sup[aPlus])
	}
	a2Plus, ok := enc.Table.Lookup(endpoint.Endpoint{Symbol: "A", Occ: 2, Kind: endpoint.Start})
	if !ok {
		t.Fatal("A.2+ not interned")
	}
	if sup[a2Plus] != 1 {
		t.Errorf("support(A.2+) = %d, want 1", sup[a2Plus])
	}
}

func TestFilterInfrequent(t *testing.T) {
	enc, err := EncodeEndpointDB(testDB(t))
	if err != nil {
		t.Fatal(err)
	}
	removed := enc.FilterInfrequent(2)
	// Only A.1 (support 3) survives; B, C, A.2 all have support 1.
	if removed != 6 {
		t.Errorf("removed = %d, want 6", removed)
	}
	for si, seq := range enc.Seqs {
		for _, sl := range seq.Slices {
			if len(sl.Items) == 0 {
				t.Fatal("empty slice survived filtering")
			}
			for _, it := range sl.Items {
				e := enc.Table.Endpoint(it)
				if e.Symbol != "A" || e.Occ != 1 {
					t.Fatalf("seq %d kept infrequent item %v", si, e)
				}
			}
		}
		// Position index rebuilt consistently: every present entry points
		// at its item, and every surviving item is indexed.
		kept := 0
		for it, loc := range enc.Pos.Row(int32(si)) {
			if loc.Slice < 0 {
				continue
			}
			kept++
			if enc.Seqs[si].Slices[loc.Slice].Items[loc.Idx] != Item(it) {
				t.Fatalf("stale position index after filtering")
			}
		}
		if kept != seq.NumItems() {
			t.Fatalf("Pos row %d has %d present entries after filter, slices hold %d", si, kept, seq.NumItems())
		}
	}
	// Filtering again removes nothing.
	if again := enc.FilterInfrequent(2); again != 0 {
		t.Errorf("second filter removed %d", again)
	}
}

func TestEncodeCoincidenceDB(t *testing.T) {
	enc, err := EncodeCoincidenceDB(testDB(t))
	if err != nil {
		t.Fatal(err)
	}
	if enc.Table.Len() != 3 { // A, B, C
		t.Errorf("symbols = %d", enc.Table.Len())
	}
	sup := enc.ItemSupports()
	a, _ := enc.Table.Lookup("A")
	b, _ := enc.Table.Lookup("B")
	if sup[a] != 3 || sup[b] != 1 {
		t.Errorf("supports: A=%d B=%d", sup[a], sup[b])
	}
	checkOccIndex(t, enc)
}

// checkOccIndex verifies the posting lists against a direct scan of the
// slices: every (sequence, item) pair lists exactly the ascending slice
// indices containing the item.
func checkOccIndex(t *testing.T, enc *CoincDB) {
	t.Helper()
	if enc.Occ.Width() != enc.Table.Len() {
		t.Fatalf("Occ width = %d, want %d", enc.Occ.Width(), enc.Table.Len())
	}
	for si := range enc.Seqs {
		for it := 0; it < enc.Table.Len(); it++ {
			var want []int32
			for ci, sl := range enc.Seqs[si].Slices {
				for _, x := range sl.Items {
					if x == Item(it) {
						want = append(want, int32(ci))
					}
				}
			}
			got := enc.Occ.Slices(int32(si), Item(it))
			if len(got) != len(want) {
				t.Fatalf("Occ.Slices(%d,%d) = %v, want %v", si, it, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Occ.Slices(%d,%d) = %v, want %v", si, it, got, want)
				}
			}
		}
	}
}

func TestCoincFilterInfrequent(t *testing.T) {
	enc, err := EncodeCoincidenceDB(testDB(t))
	if err != nil {
		t.Fatal(err)
	}
	removed := enc.FilterInfrequent(2)
	if removed != 2 { // B and C dropped
		t.Errorf("removed = %d, want 2", removed)
	}
	for si := range enc.Seqs {
		for _, sl := range enc.Seqs[si].Slices {
			if len(sl.Items) == 0 {
				t.Fatal("empty slice survived")
			}
		}
	}
	checkOccIndex(t, enc)
}

func TestTables(t *testing.T) {
	et := NewEndpointTable()
	e1 := endpoint.Endpoint{Symbol: "X", Occ: 1, Kind: endpoint.Start}
	id1 := et.Intern(e1)
	if got := et.Intern(e1); got != id1 {
		t.Error("Intern not idempotent")
	}
	if got, ok := et.Lookup(e1); !ok || got != id1 {
		t.Error("Lookup failed")
	}
	if _, ok := et.Lookup(endpoint.Endpoint{Symbol: "Y", Occ: 1}); ok {
		t.Error("Lookup invented an entry")
	}
	if et.Endpoint(id1) != e1 {
		t.Error("Endpoint reverse lookup failed")
	}

	st := NewSymbolTable()
	a := st.Intern("A")
	if st.Intern("A") != a || st.Symbol(a) != "A" || st.Len() != 1 {
		t.Error("symbol table basic ops failed")
	}
	if _, ok := st.Lookup("Z"); ok {
		t.Error("symbol Lookup invented an entry")
	}
}

func TestLocBefore(t *testing.T) {
	a := Loc{Slice: 1, Idx: 2}
	b := Loc{Slice: 1, Idx: 3}
	c := Loc{Slice: 2, Idx: 0}
	if !a.Before(b) || !b.Before(c) || !a.Before(c) {
		t.Error("Before ordering wrong")
	}
	if a.Before(a) || b.Before(a) {
		t.Error("Before not strict")
	}
}

// TestUniqueItemInvariant: in endpoint databases every item occurs at
// most once per sequence — the property the fast projection relies on.
func TestUniqueItemInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		db := &interval.Database{}
		for s := 0; s < 5; s++ {
			seq := interval.Sequence{ID: "r"}
			for i := 0; i < rng.Intn(10); i++ {
				start := rng.Int63n(20)
				seq.Intervals = append(seq.Intervals, interval.Interval{
					Symbol: string(rune('A' + rng.Intn(3))),
					Start:  start,
					End:    start + rng.Int63n(10),
				})
			}
			db.Sequences = append(db.Sequences, seq)
		}
		enc, err := EncodeEndpointDB(db)
		if err != nil {
			t.Fatal(err)
		}
		for si, seq := range enc.Seqs {
			seen := make(map[Item]bool)
			for _, sl := range seq.Slices {
				for j, it := range sl.Items {
					if j > 0 && sl.Items[j-1] >= it {
						t.Fatalf("slice items not strictly ascending in seq %d", si)
					}
					if seen[it] {
						t.Fatalf("item %v occurs twice in seq %d", enc.Table.Endpoint(it), si)
					}
					seen[it] = true
				}
			}
		}
	}
}
