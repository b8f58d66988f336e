package server

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"tpminer/internal/api"
	"tpminer/internal/core"
	"tpminer/internal/dataio"
	"tpminer/internal/interval"
	"tpminer/internal/jobs"
	"tpminer/internal/rules"
)

// pinName is a dataset name holding every character encoding/json
// escapes in a string: HTML-sensitive <, > and &, a quote, a backslash,
// U+2028 and a control character.
const pinName = "pin<&>\"\\\u2028\x01"

// pinCSV uploads symbols with the same characters, plus one symbol
// holding an invalid UTF-8 byte, which only the CSV format can carry.
func pinCSV(t *testing.T) string {
	t.Helper()
	syms := []string{"<a&b>", `q"t`, `b\s`, "l\u2028s", "c\x01c", "u\xffu"}
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	for s := 0; s < 6; s++ {
		for i := 0; i < 4; i++ {
			sym := syms[(s+i*(1+s%2))%len(syms)]
			start := int64(i*3 + s%3)
			if err := cw.Write([]string{fmt.Sprintf("s%d", s), sym, fmt.Sprint(start), fmt.Sprint(start + 4)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// oracleBody is what a mine response must be, byte for byte: core's
// result for spec rendered the way the mine endpoint renders rows and
// encoded by encoding/json, with the stats copied from got (elapsed_ms
// varies between runs), the cache outcome set, and the encoder's
// trailing newline.
func oracleBody(t *testing.T, db *interval.Database, spec api.MineSpec, got []byte, outcome string) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if spec.Mode == api.ModeRules {
		rs, _, err := core.MineTemporal(db, spec.Options(0))
		if err != nil {
			t.Fatal(err)
		}
		derived, err := rules.Derive(rs, db, rules.Options{MinConfidence: spec.MinConfidence, MinLift: spec.MinLift})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]WireRule, len(derived))
		for i, ru := range derived {
			out[i] = WireRule{Antecedent: ru.Antecedent.String(), Full: ru.Full.String(),
				Relations: ru.Full.RelationSummary(), Support: ru.Support,
				Confidence: ru.Confidence, Lift: ru.Lift}
		}
		if err := enc.Encode(out); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var decoded MineResponse
	if err := json.Unmarshal(got, &decoded); err != nil {
		t.Fatalf("decode %q: %v", got, err)
	}
	want := MineResponse{Dataset: pinName, Type: spec.Mode, Patterns: oracleRows(t, db, spec),
		Stats: decoded.Stats, Cache: outcome}
	if want.Type == "" {
		want.Type = api.ModeTemporal
	}
	want.Count = len(want.Patterns)
	if err := enc.Encode(want); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oracleRows mines spec serially with core and renders each result as
// a MinedPattern; the slice stays nil for an empty result.
func oracleRows(t *testing.T, db *interval.Database, spec api.MineSpec) []MinedPattern {
	t.Helper()
	var rows []MinedPattern
	if spec.Mode == api.ModeCoincidence {
		rs, _, err := core.MineCoincidence(db, spec.Options(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			rows = append(rows, MinedPattern{Support: r.Support, Pattern: r.Pattern.String()})
		}
		return rows
	}
	rs, _, err := core.MineTemporal(db, spec.Options(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		rows = append(rows, MinedPattern{Support: r.Support, Pattern: r.Pattern.String(), Relations: r.Pattern.RelationSummary()})
	}
	return rows
}

// pinMine posts one mine request and checks the body against the
// oracle and X-Cache against the outcome.
func pinMine(t *testing.T, baseURL string, db *interval.Database, body, outcome string) {
	t.Helper()
	resp, got := do(t, "POST", baseURL+"/v1/datasets/"+url.PathEscape(pinName)+"/mine", "application/json", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d %s", body, resp.StatusCode, got)
	}
	checkPinBody(t, db, body, resp, got, outcome)
}

func checkPinBody(t *testing.T, db *interval.Database, body string, resp *http.Response, got, outcome string) {
	t.Helper()
	var spec api.MineSpec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	if want := oracleBody(t, db, spec, []byte(got), outcome); got != string(want) {
		t.Errorf("%s (cache %q):\n got  %q\n want %q", body, outcome, got, want)
	}
	if x := resp.Header.Get("X-Cache"); x != outcome {
		t.Errorf("%s: X-Cache %q, want %q", body, x, outcome)
	}
}

// TestMineBytesMatchOracle pins the mine family's bytes against an
// encoding built independently of the server: temporal, coincidence and
// rules mode, an empty and a truncated result, each as a miss and as a
// hit, with caching disabled, and as a coalesced pair; and the rows a
// job run stores.
func TestMineBytesMatchOracle(t *testing.T) {
	upload := pinCSV(t)
	db, err := dataio.ReadCSV(strings.NewReader(upload))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fmt.Sprint(db.Sequences), "\xff") {
		t.Fatal("the CSV upload lost its invalid UTF-8 byte")
	}
	dsURL := "/v1/datasets/" + url.PathEscape(pinName)
	cases := []struct {
		body      string
		cacheable bool
	}{
		{`{"min_count":2}`, true},
		{`{"mode":"coincidence","min_count":2}`, true},
		{`{"mode":"rules","min_count":2}`, true},
		{`{"min_count":7}`, true}, // more than the 6 sequences: empty
		{`{"min_count":1,"max_patterns":3}`, false},
	}
	for _, cached := range []bool{true, false} {
		t.Run(fmt.Sprintf("cached=%v", cached), func(t *testing.T) {
			cfg := Config{MaxConcurrentMines: 4}
			if !cached {
				cfg.CacheBudgetBytes = -1
			}
			ts := httptest.NewServer(NewWithConfig(nil, cfg).Handler())
			defer ts.Close()
			if resp, body := do(t, "PUT", ts.URL+dsURL, "text/csv", upload); resp.StatusCode != http.StatusCreated {
				t.Fatalf("upload: %d %s", resp.StatusCode, body)
			}
			for _, c := range cases {
				first, second := "", ""
				if cached {
					first, second = "miss", "hit"
					if !c.cacheable {
						second = "miss"
					}
				}
				pinMine(t, ts.URL, db, c.body, first)
				pinMine(t, ts.URL, db, c.body, second)
			}
		})
	}

	t.Run("coalesced", func(t *testing.T) {
		s := NewWithConfig(nil, Config{MaxConcurrentMines: 4})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		do(t, "PUT", ts.URL+dsURL, "text/csv", upload)
		release := make(chan struct{})
		s.testMineHook = func() { <-release }
		const body = `{"min_count":2}`
		type reply struct {
			resp *http.Response
			body string
		}
		replies := make(chan reply, 2)
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, got := doNoFatal(ts.URL+dsURL+"/mine", body)
				replies <- reply{resp, got}
			}()
		}
		deadline := time.Now().Add(10 * time.Second)
		for s.met.cache.Coalesced.Value() < 1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		close(release)
		wg.Wait()
		close(replies)
		seen := map[string]bool{}
		for r := range replies {
			if r.resp == nil {
				t.Fatalf("request failed: %s", r.body)
			}
			outcome := r.resp.Header.Get("X-Cache")
			seen[outcome] = true
			checkPinBody(t, db, body, r.resp, r.body, outcome)
		}
		if !seen["miss"] || !seen["coalesced"] {
			t.Errorf("outcomes %v, want one miss and one coalesced", seen)
		}
	})

	t.Run("job", func(t *testing.T) {
		ts := newTestServer(t)
		do(t, "PUT", ts.URL+dsURL, "text/csv", upload)
		spec, err := json.Marshal(api.JobSpec{ID: "pin", Dataset: pinName, Mine: api.MineSpec{MiningOptions: api.MiningOptions{MinCount: 2}}})
		if err != nil {
			t.Fatal(err)
		}
		if resp, body := do(t, "POST", ts.URL+"/v1/jobs", "application/json", string(spec)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create job: %d %s", resp.StatusCode, body)
		}
		var res jobs.Result
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, body := do(t, "GET", ts.URL+"/v1/jobs/pin/result", "", "")
			if resp.StatusCode == http.StatusOK {
				if err := json.Unmarshal([]byte(body), &res); err != nil {
					t.Fatal(err)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job never produced a result: %d %s", resp.StatusCode, body)
			}
			time.Sleep(5 * time.Millisecond)
		}
		rows := oracleRows(t, db, api.MineSpec{MiningOptions: api.MiningOptions{MinCount: 2}})
		if len(res.Patterns) != len(rows) || len(rows) == 0 {
			t.Fatalf("job result holds %d patterns, oracle %d", len(res.Patterns), len(rows))
		}
		for i, mp := range rows {
			got := res.Patterns[i]
			key := mp.Pattern
			if mp.Relations != "" {
				key += "\x1f" + mp.Relations
			}
			// The key reaches the client as a JSON string, so compare it
			// as one: the invalid byte arrives as U+FFFD.
			wireKey, err := json.Marshal(key)
			if err == nil {
				err = json.Unmarshal(wireKey, &key)
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(mp)
			if err != nil {
				t.Fatal(err)
			}
			if got.Key != key || got.Support != mp.Support || !bytes.Equal(got.Body, want) {
				t.Errorf("job row %d: key %q support %d body %s, want %q %d %s", i, got.Key, got.Support, got.Body, key, mp.Support, want)
			}
		}
	})
}

// doNoFatal posts a mine body from a goroutine other than the test's,
// where t.Fatal must not be called; a nil response carries the error.
func doNoFatal(url, body string) (*http.Response, string) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err.Error()
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err.Error()
	}
	return resp, buf.String()
}
