package dataio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"tpminer/internal/pattern"
)

func TestJSONRoundTrip(t *testing.T) {
	db := sampleDB()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, db); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"symbol": "A"`) {
		t.Errorf("json shape: %s", buf.String())
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(db, back) {
		t.Errorf("round trip:\nwant %v\ngot  %v", db, back)
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := []string{
		`{`, // truncated
		`{"sequences":[{"id":"x","intervals":[{"symbol":"A","start":5,"end":1}]}]}`, // reversed
		`{"sequences":[{"id":"x","intervals":[{"symbol":"","start":0,"end":1}]}]}`,  // empty symbol
		`{"bogus":true}`, // unknown field
		`{"sequences":[]} {"sequences":[{"id":"x","intervals":[{"symbol":"A","start":0,"end":1}]}]}`, // a second database
	}
	for _, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("ReadJSON(%q) accepted invalid input", in)
		}
	}
}

func TestTemporalResultsJSONRoundTrip(t *testing.T) {
	p1, _ := pattern.ParseTemporal("A+ B+ A- B-")
	rs := []pattern.TemporalResult{{Pattern: p1, Support: 7}}
	var buf bytes.Buffer
	if err := WriteTemporalResultsJSON(&buf, rs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "A overlaps B") {
		t.Errorf("relations missing: %s", buf.String())
	}
	back, err := ReadTemporalResultsJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Support != 7 || !back[0].Pattern.Equal(p1) {
		t.Errorf("round trip: %v", back)
	}
}

func TestCoincResultsJSONRoundTrip(t *testing.T) {
	p1, _ := pattern.ParseCoinc("{A B} {C}")
	rs := []pattern.CoincResult{{Pattern: p1, Support: 3}}
	var buf bytes.Buffer
	if err := WriteCoincResultsJSON(&buf, rs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCoincResultsJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Support != 3 || !back[0].Pattern.Equal(p1) {
		t.Errorf("round trip: %v", back)
	}
}

func TestResultsJSONErrors(t *testing.T) {
	if _, err := ReadTemporalResultsJSON(strings.NewReader(`[{"support":1,"pattern":"A-"}]`)); err == nil {
		t.Error("invalid pattern accepted")
	}
	if _, err := ReadCoincResultsJSON(strings.NewReader(`[{"support":1,"pattern":"{}"}]`)); err == nil {
		t.Error("invalid coincidence pattern accepted")
	}
	if _, err := ReadTemporalResultsJSON(strings.NewReader(`{`)); err == nil {
		t.Error("truncated json accepted")
	}
}
