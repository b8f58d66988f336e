package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestTrailingDataRejected: every request decoder reads exactly one JSON
// value. Data after it is a 400 invalid_request, and nothing from the
// request takes effect; whitespace after it is still fine.
func TestTrailingDataRejected(t *testing.T) {
	ts := newTestServer(t)
	do(t, "PUT", ts.URL+"/v1/datasets/demo", "text/csv", csvBody)

	event := `{"seq":"s9","symbol":"A","start":0,"end":4}`
	cases := []struct {
		name         string
		method, path string
		ctype, body  string
		wantStatus   int
		wantInError  string
		gone         string // a path that must still 404 afterwards
	}{
		{"mine with a second spec", "POST", "/v1/datasets/demo/mine", "application/json",
			`{"min_support":0.5}{"min_support":0.01}`, 400, "after the JSON value", ""},
		{"job create with trailing junk", "POST", "/v1/jobs", "application/json",
			`{"id":"trail","dataset":"demo","mine":{"min_count":2}} junk`, 400, "after the JSON value", "/v1/jobs/trail"},
		{"ndjson line with two events", "POST", "/v1/datasets/fresh/events", "application/x-ndjson",
			event + "\n" + event + event + "\n", 400, "line 2", "/v1/datasets/fresh"},
		{"json upload with two databases", "PUT", "/v1/datasets/twice", "application/json",
			`{"sequences":[]}{"sequences":[{"id":"x","intervals":[{"symbol":"A","start":0,"end":1}]}]}`, 400, "after the JSON value", "/v1/datasets/twice"},
		{"mine with trailing whitespace", "POST", "/v1/datasets/demo/mine", "application/json",
			"{\"min_count\":2} \n\t", 200, "", ""},
	}
	for _, c := range cases {
		resp, body := do(t, c.method, ts.URL+c.path, c.ctype, c.body)
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s: status %d (want %d), body %q", c.name, resp.StatusCode, c.wantStatus, body)
			continue
		}
		if c.wantStatus == http.StatusBadRequest {
			var env ErrorEnvelope
			if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error.Code != "invalid_request" {
				t.Errorf("%s: error envelope %q, want code invalid_request", c.name, body)
			}
			if !strings.Contains(env.Error.Message, c.wantInError) {
				t.Errorf("%s: message %q does not mention %q", c.name, env.Error.Message, c.wantInError)
			}
		}
		if c.gone != "" {
			if resp, body := do(t, "GET", ts.URL+c.gone, "", ""); resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s: GET %s after the rejected request: %d %q, want 404", c.name, c.gone, resp.StatusCode, body)
			}
		}
	}
}

// FuzzIngestLine: the NDJSON line decoder never panics, and a line it
// accepts holds exactly one JSON value, whose event re-marshals and
// decodes back equal.
func FuzzIngestLine(f *testing.F) {
	for _, seed := range []string{
		`{"seq":"s1","symbol":"A","start":0,"end":4}`,
		`{"seq":"s1","symbol":"A","start":0,"end":4}{"seq":"s2","symbol":"B","start":1,"end":2}`,
		`{"seq":"s1","symbol":"A","start":0,"end":4} junk`,
		`{"seq":"s1","symbol":"A","start":0,"end":4}  `,
		`{"seq":"","symbol":"A","start":0,"end":4}`,
		`{"seq":"s1","symbol":"A","start":5,"end":4}`,
		`{"seq":"s1","symbol":"A","start":0,"end":4,"extra":1}`,
		`{"seq":"<&>\u2028","symbol":"\ufffd\u0001","start":-3,"end":9007199254740993}`,
		"{\"seq\":\"s\xff\",\"symbol\":\"A\",\"start\":0,\"end\":0}",
		`null`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		ev, err := decodeIngestLine(line)
		if err != nil {
			return
		}
		if !json.Valid(line) {
			t.Fatalf("accepted %q, which is not exactly one JSON value", line)
		}
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("marshal accepted event %+v: %v", ev, err)
		}
		again, err := decodeIngestLine(data)
		if err != nil {
			t.Fatalf("re-marshaled %s rejected: %v", data, err)
		}
		if again != ev {
			t.Fatalf("round trip changed the event: %+v, want %+v", again, ev)
		}
	})
}
