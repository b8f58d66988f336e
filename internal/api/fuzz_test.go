package api

import (
	"encoding/json"
	"testing"
)

// FuzzMineSpec decodes arbitrary request bodies the way the server does
// and validates them. Neither step may panic, and an accepted spec must
// survive a marshal and a strict decode with the same cache key.
func FuzzMineSpec(f *testing.F) {
	for _, seed := range []string{
		`{"min_count":2}`,
		`{"min_support":0.25,"max_intervals":3,"max_span":10,"max_gap":2}`,
		`{"mode":"coincidence","min_count":3,"top_k":4,"filter":"maximal"}`,
		`{"mode":"coincidence","min_count":2,"max_gap":3}`,
		`{"mode":"rules","min_count":2,"min_confidence":0.5,"min_lift":1.2}`,
		`{"min_count":1,"window":{"kind":"sliding","count":7},"parallel":2}`,
		`{"min_count":2,"time_budget_ms":50,"max_patterns":10,"timeout_ms":100}`,
		`{"min_count":2,"unknown":1}`,
		`{"min_count":2} {}`,
		`null`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		spec, err := decodeSpec(t, body)
		if err != nil || spec.Validate() != nil {
			return
		}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal accepted spec %+v: %v", spec, err)
		}
		again, err := decodeSpec(t, string(data))
		if err != nil {
			t.Fatalf("strict decode of re-marshaled %s: %v", data, err)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("re-marshaled %s no longer validates: %v", data, err)
		}
		if got, want := again.ResultOptions(), spec.ResultOptions(); got != want {
			t.Fatalf("cache key changed across a round trip: %q, want %q", got, want)
		}
	})
}
