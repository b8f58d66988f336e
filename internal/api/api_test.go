package api

import (
	"errors"
	"io"
	"strings"
	"testing"

	"tpminer/internal/dataio"
)

// decodeSpec decodes a request body the way the server does: strictly,
// so an unknown field or data after the JSON value is an error, and an
// empty body is the all-default spec.
func decodeSpec(t *testing.T, body string) (MineSpec, error) {
	t.Helper()
	var spec MineSpec
	err := dataio.DecodeJSON(strings.NewReader(body), &spec)
	if errors.Is(err, io.EOF) {
		err = nil
	}
	return spec, err
}

// TestResultOptionsKeys pins the cache-key/ETag string of every option
// that shapes a result. The expected strings are literals, so a change
// that moves any cache key or ETag fails here, by name.
func TestResultOptionsKeys(t *testing.T) {
	cases := []struct{ body, want string }{
		// Mode, defaulted and explicit; min_support versus min_count.
		{`{"min_count":2}`, "mine|type=temporal|sup=0|cnt=2|ivs=0|els=0|ipe=0|span=0|gap=0|topk=0|filter=|maxpat=0|win="},
		{`{"mode":"temporal","min_support":0.25}`, "mine|type=temporal|sup=0.25|cnt=0|ivs=0|els=0|ipe=0|span=0|gap=0|topk=0|filter=|maxpat=0|win="},
		{`{"mode":"temporal","min_support":1}`, "mine|type=temporal|sup=1|cnt=0|ivs=0|els=0|ipe=0|span=0|gap=0|topk=0|filter=|maxpat=0|win="},
		{`{"mode":"coincidence","min_count":3}`, "mine|type=coincidence|sup=0|cnt=3|ivs=0|els=0|ipe=0|span=0|gap=0|topk=0|filter=|maxpat=0|win="},
		{`{"mode":"rules","min_count":2}`, "rules|sup=0|cnt=2|ivs=0|conf=0|lift=0|win="},
		{`{"mode":"rules","min_support":0.4,"max_intervals":3,"min_confidence":0.5,"min_lift":1.25}`, "rules|sup=0.4|cnt=0|ivs=3|conf=0.5|lift=1.25|win="},
		// Window kinds: "all" keys like no window at all.
		{`{"min_count":2,"window":{"kind":"all"}}`, "mine|type=temporal|sup=0|cnt=2|ivs=0|els=0|ipe=0|span=0|gap=0|topk=0|filter=|maxpat=0|win="},
		{`{"min_count":2,"window":{"kind":"sliding","count":10}}`, "mine|type=temporal|sup=0|cnt=2|ivs=0|els=0|ipe=0|span=0|gap=0|topk=0|filter=|maxpat=0|win=sliding:10"},
		{`{"min_count":2,"window":{"kind":"tumbling","count":5}}`, "mine|type=temporal|sup=0|cnt=2|ivs=0|els=0|ipe=0|span=0|gap=0|topk=0|filter=|maxpat=0|win=tumbling:5"},
		{`{"mode":"coincidence","min_count":2,"window":{"kind":"sliding","count":7}}`, "mine|type=coincidence|sup=0|cnt=2|ivs=0|els=0|ipe=0|span=0|gap=0|topk=0|filter=|maxpat=0|win=sliding:7"},
		{`{"mode":"rules","min_count":2,"min_confidence":0.5,"window":{"kind":"tumbling","count":8}}`, "rules|sup=0|cnt=2|ivs=0|conf=0.5|lift=0|win=tumbling:8"},
		// top_k, filter, and max_patterns.
		{`{"min_count":2,"top_k":10}`, "mine|type=temporal|sup=0|cnt=2|ivs=0|els=0|ipe=0|span=0|gap=0|topk=10|filter=|maxpat=0|win="},
		{`{"mode":"coincidence","min_count":1,"top_k":4}`, "mine|type=coincidence|sup=0|cnt=1|ivs=0|els=0|ipe=0|span=0|gap=0|topk=4|filter=|maxpat=0|win="},
		{`{"min_count":2,"filter":"closed"}`, "mine|type=temporal|sup=0|cnt=2|ivs=0|els=0|ipe=0|span=0|gap=0|topk=0|filter=closed|maxpat=0|win="},
		{`{"mode":"coincidence","min_count":2,"filter":"maximal"}`, "mine|type=coincidence|sup=0|cnt=2|ivs=0|els=0|ipe=0|span=0|gap=0|topk=0|filter=maximal|maxpat=0|win="},
		{`{"min_count":2,"top_k":5,"filter":"maximal"}`, "mine|type=temporal|sup=0|cnt=2|ivs=0|els=0|ipe=0|span=0|gap=0|topk=5|filter=maximal|maxpat=0|win="},
		{`{"min_count":2,"max_patterns":100}`, "mine|type=temporal|sup=0|cnt=2|ivs=0|els=0|ipe=0|span=0|gap=0|topk=0|filter=|maxpat=100|win="},
		// Shape constraints.
		{`{"min_count":2,"max_intervals":4,"max_elements":6,"max_items_per_element":2,"max_span":20,"max_gap":10}`, "mine|type=temporal|sup=0|cnt=2|ivs=4|els=6|ipe=2|span=20|gap=10|topk=0|filter=|maxpat=0|win="},
		// Execution knobs never reach the key.
		{`{"min_count":2,"timeout_ms":500,"time_budget_ms":100,"parallel":4}`, "mine|type=temporal|sup=0|cnt=2|ivs=0|els=0|ipe=0|span=0|gap=0|topk=0|filter=|maxpat=0|win="},
	}
	for _, c := range cases {
		spec, err := decodeSpec(t, c.body)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.body, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: Validate: %v", c.body, err)
		}
		if got := spec.ResultOptions(); got != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.body, got, c.want)
		}
	}
}

// TestValidateNamesField: every rejection names the offending JSON field,
// including the fields foreign to the requested mode.
func TestValidateNamesField(t *testing.T) {
	cases := []struct{ body, field string }{
		{`{"min_support":-0.1}`, "min_support"},
		{`{"min_support":1.5}`, "min_support"},
		{`{"min_count":-1}`, "min_count"},
		{`{"min_count":2,"max_intervals":-2}`, "max_intervals"},
		{`{"min_count":2,"timeout_ms":-1}`, "timeout_ms"},
		{`{"mode":"x","min_count":1}`, "mode"},
		{`{"min_count":1,"window":{"kind":"x"}}`, "window.kind"},
		{`{"min_count":1,"window":{"kind":"sliding"}}`, "window.count"},
		{`{"min_count":1,"window":{"kind":"tumbling","count":-3}}`, "window.count"},
		{`{"min_count":1,"window":{"count":3}}`, "window.count"},
		{`{"min_count":1,"filter":"x"}`, "filter"},
		{`{"min_count":2,"max_elements":-1}`, "max_elements"},
		{`{"min_count":2,"max_items_per_element":-3}`, "max_items_per_element"},
		{`{"min_count":2,"max_span":-5}`, "max_span"},
		{`{"min_count":2,"max_gap":-5}`, "max_gap"},
		{`{"min_count":2,"top_k":-1}`, "top_k"},
		{`{"min_count":2,"time_budget_ms":-1}`, "time_budget_ms"},
		{`{"min_count":2,"max_patterns":-7}`, "max_patterns"},
		{`{"min_count":2,"parallel":-4}`, "parallel"},
		{`{"mode":"rules","min_count":2,"min_confidence":-0.5}`, "min_confidence"},
		{`{"mode":"rules","min_count":2,"min_lift":-1}`, "min_lift"},
		// Rule thresholds outside rules mode.
		{`{"min_count":2,"min_confidence":0.5}`, "min_confidence"},
		{`{"mode":"coincidence","min_count":2,"min_lift":1}`, "min_lift"},
		// Pattern-mode fields in rules mode.
		{`{"mode":"rules","min_count":2,"max_elements":3}`, "max_elements"},
		{`{"mode":"rules","min_count":2,"max_items_per_element":2}`, "max_items_per_element"},
		{`{"mode":"rules","min_count":2,"max_span":10}`, "max_span"},
		{`{"mode":"rules","min_count":2,"max_gap":10}`, "max_gap"},
		{`{"mode":"rules","min_count":2,"top_k":5}`, "top_k"},
		{`{"mode":"rules","min_count":2,"filter":"closed"}`, "filter"},
		{`{"mode":"rules","min_count":2,"time_budget_ms":100}`, "time_budget_ms"},
		{`{"mode":"rules","min_count":2,"max_patterns":10}`, "max_patterns"},
		{`{"mode":"rules","min_count":2,"parallel":2}`, "parallel"},
		// Temporal-only constraints in coincidence mode.
		{`{"mode":"coincidence","min_count":2,"max_intervals":1}`, "max_intervals"},
		{`{"mode":"coincidence","min_count":2,"max_span":5}`, "max_span"},
		{`{"mode":"coincidence","min_count":2,"max_gap":3}`, "max_gap"},
	}
	for _, c := range cases {
		spec, err := decodeSpec(t, c.body)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.body, err)
		}
		var fe *FieldError
		if err := spec.Validate(); !errors.As(err, &fe) || fe.Field != c.field {
			t.Errorf("%s: Validate = %v, want a FieldError on %q", c.body, err, c.field)
		}
	}
}

// TestJobSpecValidateNamesField covers the job-only checks, and that a
// job's mine spec is validated like a batch one.
func TestJobSpecValidateNamesField(t *testing.T) {
	mine := MineSpec{MiningOptions: MiningOptions{MinCount: 1}}
	cases := []struct {
		name  string
		spec  JobSpec
		field string
	}{
		{"no dataset", JobSpec{Mine: mine}, "dataset"},
		{"bad id", JobSpec{ID: "a/b", Dataset: "d", Mine: mine}, "id"},
		{"negative debounce", JobSpec{Dataset: "d", Mine: mine, DebounceMillis: -1}, "debounce_ms"},
		{"bad mine", JobSpec{Dataset: "d", Mine: MineSpec{MiningOptions: MiningOptions{MinCount: -1}}}, "min_count"},
		{"rules job", JobSpec{Dataset: "d", Mine: MineSpec{Mode: ModeRules, MiningOptions: MiningOptions{MinCount: 1}}}, "mine.mode"},
	}
	for _, c := range cases {
		var fe *FieldError
		if err := c.spec.Validate(); !errors.As(err, &fe) || fe.Field != c.field {
			t.Errorf("%s: Validate = %v, want a FieldError on %q", c.name, err, c.field)
		}
	}
	if err := (JobSpec{ID: "job-1", Dataset: "d", Mine: mine}).Validate(); err != nil {
		t.Errorf("valid job spec rejected: %v", err)
	}
}
