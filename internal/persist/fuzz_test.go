package persist

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"tpminer/internal/interval"
)

// allocatedBy reports the bytes f allocated on the heap.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeRejectsOversizedCounts: a declared count the remaining bytes
// could not encode is rejected before anything is sized from it, so the
// decoder allocates less than its input; a count exactly at the bound
// still decodes.
func TestDecodeRejectsOversizedCounts(t *testing.T) {
	uv := binary.AppendUvarint
	decodeDB := func(b []byte) error { _, err := DecodeDatabase(b); return err }
	decodeSnap := func(b []byte) error { _, _, _, err := decodeSnapshot(b); return err }
	cases := []struct {
		name   string
		header func(count uint64) []byte // everything before the zero filler
		size   int                       // the element's smallest encoding
		decode func([]byte) error
	}{
		{"sequence count", func(n uint64) []byte { return uv(nil, n) }, minSequenceBytes, decodeDB},
		{"interval count", func(n uint64) []byte { return uv(uv(uv(nil, 1), 0), n) }, minIntervalBytes, decodeDB},
		{"snapshot dataset count", func(n uint64) []byte { return uv(uv(nil, 7), n) }, minDatasetEntryBytes, decodeSnap},
	}
	for _, c := range cases {
		// Zero bytes encode the smallest element (empty strings, zero
		// counts and times), so the bound is exactly filler/size.
		const filler = 256 << 10
		input := append(c.header(filler/uint64(c.size)+1), make([]byte, filler)...)
		var err error
		if alloc := allocatedBy(func() { err = c.decode(input) }); alloc >= uint64(len(input)) {
			t.Errorf("%s past its bound: allocated %d bytes for a %d-byte input", c.name, alloc, len(input))
		}
		if err == nil {
			t.Errorf("%s past its bound: accepted", c.name)
		}
		const small = 3 << 10
		if err := c.decode(append(c.header(small/uint64(c.size)), make([]byte, small)...)); err != nil {
			t.Errorf("%s at its bound: %v", c.name, err)
		}
	}
}

// checkCaps fails when a decoded database holds a slice larger than its
// payload could encode: the mark of an allocation sized from a count
// nobody checked.
func checkCaps(t *testing.T, db *interval.Database, payloadLen int) {
	t.Helper()
	if cap(db.Sequences) > payloadLen/minSequenceBytes {
		t.Fatalf("%d-byte payload sized %d sequences", payloadLen, cap(db.Sequences))
	}
	for _, s := range db.Sequences {
		if cap(s.Intervals) > payloadLen/minIntervalBytes {
			t.Fatalf("%d-byte payload sized %d intervals", payloadLen, cap(s.Intervals))
		}
	}
}

// checkRecord parses one WAL frame and decodes its record; a record it
// accepts must have bounded slices and re-encode to a record that
// decodes back equal.
func checkRecord(t *testing.T, frame []byte) {
	t.Helper()
	payload, _, err := parseFrame(frame)
	if err != nil {
		return
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		return
	}
	if rec.db != nil {
		checkCaps(t, rec.db, len(payload))
	}
	back, err := decodeRecord(encodeRecord(rec))
	if err != nil {
		t.Fatalf("re-encoded %s record rejected: %v", rec.typeName(), err)
	}
	if !reflect.DeepEqual(back, rec) {
		t.Fatalf("%s record changed across a round trip:\n got  %+v\n want %+v", rec.typeName(), back, rec)
	}
}

// FuzzDecodeRecord: WAL frame parsing plus record decoding never
// panics, and an accepted record re-encodes and decodes back equal.
// Each input is tried as a frame and, behind a valid frame header, as a
// bare payload, so mutations reach the record decoder past the CRC.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range []record{
		{typ: recPut, version: 1, name: "alpha", db: testDB(1, 2, 3)},
		{typ: recAppend, version: 2, name: "alpha", db: testDB(2, 1, 1)},
		{typ: recDelete, version: 3, name: "alpha"},
		{typ: recPut, version: 4, name: "empty", db: &interval.Database{}},
		{typ: recJobPut, version: 5, name: "job", blob: []byte(`{"dataset":"alpha"}`)},
		{typ: recJobResult, version: 6, name: "job", blob: []byte(`{"run_seq":1}`)},
		{typ: recJobDelete, version: 7, name: "job"},
	} {
		p := encodeRecord(rec)
		f.Add(appendFrame(nil, p))
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRecord(t, data)
		checkRecord(t, appendFrame(nil, data))
	})
}

// checkSnapshot decodes one snapshot file; a snapshot it accepts must
// have bounded slices and re-encode to a file that decodes back equal.
func checkSnapshot(t *testing.T, file []byte) {
	t.Helper()
	state, jobs, ver, err := decodeSnapshotFile(file)
	if err != nil {
		return
	}
	for _, ds := range state {
		checkCaps(t, ds.DB, len(file))
	}
	state2, jobs2, ver2, err := decodeSnapshotFile(encodeSnapshotFile(state, jobs, ver))
	if err != nil {
		t.Fatalf("re-encoded snapshot rejected: %v", err)
	}
	if ver2 != ver || !reflect.DeepEqual(state2, state) || !reflect.DeepEqual(jobs2, jobs) {
		t.Fatalf("snapshot changed across a round trip: version %d → %d", ver, ver2)
	}
}

// FuzzDecodeSnapshotFile: snapshot validation and decoding never panic,
// and an accepted snapshot re-encodes and decodes back equal. Like
// FuzzDecodeRecord it tries each input as a file and, behind a valid
// header, as a bare payload.
func FuzzDecodeSnapshotFile(f *testing.F) {
	states := []struct {
		state  map[string]DatasetState
		jobs   map[string]JobState
		verSeq uint64
	}{
		{nil, nil, 0},
		{map[string]DatasetState{"a": {DB: testDB(1, 2, 3), Version: 3}}, nil, 3},
		{
			map[string]DatasetState{"a": {DB: testDB(1, 1, 2), Version: 2}, "b": {DB: &interval.Database{}, Version: 5}},
			map[string]JobState{
				"j1": {Spec: []byte(`{"dataset":"a"}`), SpecVersion: 4, Result: []byte(`{"run_seq":1}`), ResultVersion: 6},
				"j2": {Spec: []byte(`{"dataset":"b"}`), SpecVersion: 7},
			},
			7,
		},
	}
	for _, s := range states {
		f.Add(encodeSnapshotFile(s.state, s.jobs, s.verSeq))
		f.Add(encodeSnapshot(s.state, s.jobs, s.verSeq))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapshot(t, data)
		checkSnapshot(t, frameSnapshot(data))
	})
}
