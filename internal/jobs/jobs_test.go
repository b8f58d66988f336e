package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"tpminer/internal/api"
	"tpminer/internal/obs"
)

// fakeRunner serves a settable pattern set + version per dataset.
type fakeRunner struct {
	mu    sync.Mutex
	state map[string]RunOutput // dataset → current output
	runs  int
}

func (r *fakeRunner) set(dataset string, version uint64, patterns ...Pattern) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == nil {
		r.state = make(map[string]RunOutput)
	}
	r.state[dataset] = RunOutput{Version: version, Patterns: patterns}
}

func (r *fakeRunner) RunJob(_ context.Context, spec api.JobSpec) (RunOutput, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out, ok := r.state[spec.Dataset]
	if !ok {
		return RunOutput{}, ErrDatasetMissing
	}
	r.runs++
	return out, nil
}

func (r *fakeRunner) runCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runs
}

// memJournal records journal calls in memory.
type memJournal struct {
	mu      sync.Mutex
	specs   map[string][]byte
	results map[string][]byte
	fail    error
}

func newMemJournal() *memJournal {
	return &memJournal{specs: make(map[string][]byte), results: make(map[string][]byte)}
}

func (jn *memJournal) JobPut(id string, spec []byte) error {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.fail != nil {
		return jn.fail
	}
	jn.specs[id] = spec
	return nil
}

func (jn *memJournal) JobDelete(id string) error {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.fail != nil {
		return jn.fail
	}
	delete(jn.specs, id)
	delete(jn.results, id)
	return nil
}

func (jn *memJournal) JobResult(id string, result []byte) error {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.fail != nil {
		return jn.fail
	}
	jn.results[id] = result
	return nil
}

func (jn *memJournal) result(id string) []byte {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	return jn.results[id]
}

func pat(key string, support int) Pattern {
	return Pattern{Key: key, Support: support, Body: json.RawMessage(fmt.Sprintf(`{"k":%q,"s":%d}`, key, support))}
}

func newTestManager(t *testing.T, r *fakeRunner, jn *memJournal, tweak func(*Config)) *Manager {
	t.Helper()
	cfg := Config{Runner: r, Journal: jn, Debounce: time.Millisecond}
	if tweak != nil {
		tweak(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// waitEvent receives one event or fails the test.
func waitEvent(t *testing.T, c <-chan Event) Event {
	t.Helper()
	select {
	case ev, ok := <-c:
		if !ok {
			t.Fatal("event channel closed while waiting for an event")
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for an event")
	}
	return Event{}
}

func TestDiff(t *testing.T) {
	prev := []Pattern{pat("a", 2), pat("b", 3), pat("c", 1)}
	next := []Pattern{pat("a", 2), pat("b", 5), pat("d", 4)}
	added, removed, changed := Diff(prev, next)
	if len(added) != 1 || added[0].Key != "d" {
		t.Errorf("added = %+v, want [d]", added)
	}
	if len(removed) != 1 || removed[0] != "c" {
		t.Errorf("removed = %v, want [c]", removed)
	}
	if len(changed) != 1 || changed[0].Key != "b" || changed[0].From != 3 || changed[0].To != 5 ||
		string(changed[0].Body) != string(pat("b", 5).Body) {
		t.Errorf("changed = %+v, want [b 3→5 with new body]", changed)
	}
	// Diff against nil announces everything.
	added, removed, changed = Diff(nil, next)
	if len(added) != 3 || len(removed) != 0 || len(changed) != 0 {
		t.Errorf("diff from nil = %d added %d removed %d changed", len(added), len(removed), len(changed))
	}
}

func TestApplyReconstructsNext(t *testing.T) {
	prev := []Pattern{pat("a", 2), pat("b", 3), pat("c", 1)}
	next := []Pattern{pat("a", 2), pat("b", 5), pat("d", 4)}
	added, removed, changed := Diff(prev, next)
	got := Apply(prev, Delta{Added: added, Removed: removed, Changed: changed})
	want := append([]Pattern(nil), next...)
	SortPatterns(want)
	// Changed entries carry the new body, so Apply reconstructs next
	// exactly — identity, support, and bytes.
	if len(got) != len(want) {
		t.Fatalf("apply produced %d patterns, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || got[i].Support != want[i].Support ||
			string(got[i].Body) != string(want[i].Body) {
			t.Errorf("pattern %d = %s/%d %s, want %s/%d %s", i,
				got[i].Key, got[i].Support, got[i].Body,
				want[i].Key, want[i].Support, want[i].Body)
		}
	}
}

func TestJobLifecycleAndDeltas(t *testing.T) {
	r := &fakeRunner{}
	jn := newMemJournal()
	m := newTestManager(t, r, jn, nil)

	r.set("d", 1, pat("a", 2), pat("b", 3))
	st, err := m.Create(api.JobSpec{Dataset: "d", Mine: api.MineSpec{MiningOptions: api.MiningOptions{MinCount: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatal("expected a generated job id")
	}
	sub, backlog, err := m.Subscribe(st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// First run announces everything as added.
	var first Event
	if len(backlog) > 0 {
		first = backlog[0]
	} else {
		first = waitEvent(t, sub.C)
	}
	var d Delta
	if first.Type == EventResult {
		// Subscribe raced after the first run: snapshot instead.
		var res Result
		if err := json.Unmarshal(first.Data, &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Patterns) != 2 || res.RunSeq != 1 {
			t.Fatalf("snapshot = %+v", res)
		}
	} else {
		if err := json.Unmarshal(first.Data, &d); err != nil {
			t.Fatal(err)
		}
		if d.RunSeq != 1 || len(d.Added) != 2 || len(d.Removed) != 0 || d.Total != 2 {
			t.Fatalf("first delta = %+v", d)
		}
	}

	// Mutate: b's support changes, c appears, a disappears.
	r.set("d", 2, pat("b", 5), pat("c", 1))
	m.Notify("d", 2)
	ev := waitEvent(t, sub.C)
	if ev.Type != EventDelta || ev.ID != 2 {
		t.Fatalf("event = %+v, want delta run 2", ev)
	}
	if err := json.Unmarshal(ev.Data, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 1 || d.Added[0].Key != "c" || len(d.Removed) != 1 || d.Removed[0] != "a" ||
		len(d.Changed) != 1 || d.Changed[0].To != 5 {
		t.Fatalf("delta = %+v", d)
	}

	// The latest result is journaled and retrievable.
	res, ok, err := m.Result(st.ID)
	if err != nil || !ok {
		t.Fatalf("Result: ok=%v err=%v", ok, err)
	}
	if res.RunSeq != 2 || res.Version != 2 || len(res.Patterns) != 2 {
		t.Fatalf("result = %+v", res)
	}
	var journaled Result
	if err := json.Unmarshal(jn.result(st.ID), &journaled); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(journaled, res) {
		t.Errorf("journaled result differs from served result")
	}

	// Redundant notification for the same version: no run, no event.
	m.Notify("d", 2)
	select {
	case ev := <-sub.C:
		t.Fatalf("unexpected event after no-op notify: %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}

	if err := m.Delete(st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(st.ID); err != ErrNotFound {
		t.Fatalf("Get after delete = %v, want ErrNotFound", err)
	}
	// Deletion closes the stream.
	select {
	case _, open := <-sub.C:
		if open {
			// drain the in-flight event, then expect close
			if _, open = <-sub.C; open {
				t.Fatal("subscriber channel still open after job deletion")
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber channel not closed after job deletion")
	}
}

func TestDebounceCoalescesBursts(t *testing.T) {
	r := &fakeRunner{}
	jn := newMemJournal()
	m := newTestManager(t, r, jn, func(c *Config) { c.Debounce = 30 * time.Millisecond })

	r.set("d", 1, pat("a", 1))
	st, err := m.Create(api.JobSpec{Dataset: "d", Mine: api.MineSpec{MiningOptions: api.MiningOptions{MinCount: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := m.Subscribe(st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitEvent(t, sub.C) // first run

	// A burst of 20 rapid-fire versions must fold into one re-mine.
	before := r.runCount()
	for v := uint64(2); v <= 21; v++ {
		r.set("d", v, pat("a", int(v)))
		m.Notify("d", v)
		time.Sleep(time.Millisecond)
	}
	ev := waitEvent(t, sub.C)
	var d Delta
	if err := json.Unmarshal(ev.Data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Version != 21 {
		t.Errorf("coalesced run mined version %d, want 21 (the newest)", d.Version)
	}
	// Allow stragglers to settle, then count runs: far fewer than 20.
	time.Sleep(100 * time.Millisecond)
	if got := r.runCount() - before; got > 3 {
		t.Errorf("burst of 20 notifications caused %d runs, want ≤ 3", got)
	}
}

// TestRunCountedBeforeDeltaPublished: a subscriber that has received
// run k's delta reads at least k ok runs on tpmd_job_runs_total, so a
// client that waits on the stream and then scrapes the counter never
// sees it behind the deltas it holds.
func TestRunCountedBeforeDeltaPublished(t *testing.T) {
	r := &fakeRunner{}
	met := NewMetrics(obs.NewRegistry())
	m := newTestManager(t, r, newMemJournal(), func(c *Config) { c.Metrics = met })

	// The dataset appears only after subscribing, so run 1 arrives as a
	// delta on the stream rather than as a backlog snapshot.
	st, err := m.Create(api.JobSpec{Dataset: "d", Mine: api.MineSpec{MiningOptions: api.MiningOptions{MinCount: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	sub, backlog, err := m.Subscribe(st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if len(backlog) != 0 {
		t.Fatalf("backlog before any run: %+v", backlog)
	}
	const runs = 60
	for k := uint64(1); k <= runs; k++ {
		r.set("d", k, pat("a", int(k)))
		m.Notify("d", k)
		ev := waitEvent(t, sub.C)
		ok := met.Runs.With("ok").Value()
		if ev.Type != EventDelta || ev.ID != k {
			t.Fatalf("event = %+v, want delta run %d", ev, k)
		}
		if ok < k {
			t.Fatalf("run %d's delta was readable while tpmd_job_runs_total{outcome=\"ok\"} = %d", k, ok)
		}
	}
}

func TestSlowConsumerDropped(t *testing.T) {
	r := &fakeRunner{}
	jn := newMemJournal()
	m := newTestManager(t, r, jn, func(c *Config) { c.QueueSize = 2 })

	r.set("d", 1, pat("a", 1))
	st, err := m.Create(api.JobSpec{Dataset: "d", Mine: api.MineSpec{MiningOptions: api.MiningOptions{MinCount: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := m.Subscribe(st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Never read from sub.C; publish until the queue overflows.
	deadline := time.After(5 * time.Second)
	for v := uint64(2); ; v++ {
		r.set("d", v, pat("a", int(v)))
		m.Notify("d", v)
		status, err := m.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if status.Dropped >= 1 {
			if status.Subscribers != 0 {
				t.Errorf("dropped subscriber still counted: %d", status.Subscribers)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("slow consumer never dropped")
		case <-time.After(2 * time.Millisecond):
		}
	}
	// The channel must be closed so the transport goroutine unblocks.
	deadline = time.After(5 * time.Second)
	for {
		select {
		case _, open := <-sub.C:
			if !open {
				return
			}
		case <-deadline:
			t.Fatal("dropped subscriber's channel never closed")
		}
	}
}

func TestLastEventIDResume(t *testing.T) {
	r := &fakeRunner{}
	jn := newMemJournal()
	m := newTestManager(t, r, jn, nil)

	r.set("d", 1, pat("a", 1))
	st, err := m.Create(api.JobSpec{Dataset: "d", Mine: api.MineSpec{MiningOptions: api.MiningOptions{MinCount: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	// Drive three runs with no subscriber attached.
	probe, _, err := m.Subscribe(st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 3; v++ {
		if v > 1 {
			r.set("d", v, pat("a", int(v)))
			m.Notify("d", v)
		}
		ev := waitEvent(t, probe.C)
		if ev.ID != v {
			t.Fatalf("run %d published id %d", v, ev.ID)
		}
	}
	probe.Close()

	// Resume from run 1: the ring replays runs 2 and 3.
	last := uint64(1)
	sub, backlog, err := m.Subscribe(st.ID, &last)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if len(backlog) != 2 || backlog[0].ID != 2 || backlog[1].ID != 3 ||
		backlog[0].Type != EventDelta || backlog[1].Type != EventDelta {
		t.Fatalf("backlog = %+v, want deltas 2,3", backlog)
	}

	// Resume from run 3: already current, nothing to replay.
	last = 3
	sub2, backlog2, err := m.Subscribe(st.ID, &last)
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	if len(backlog2) != 0 {
		t.Fatalf("current subscriber got backlog %+v", backlog2)
	}

	// A position older than the ring can reach falls back to a full
	// snapshot (the post-restart path, simulated by a tiny ring).
	m2 := newTestManager(t, r, jn, func(c *Config) { c.RingSize = 1 })
	st2, err := m2.Create(api.JobSpec{ID: "ringy", Dataset: "d", Mine: api.MineSpec{MiningOptions: api.MiningOptions{MinCount: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	probe2, _, err := m2.Subscribe(st2.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitEvent(t, probe2.C)
	r.set("d", 4, pat("a", 4))
	m2.Notify("d", 4)
	waitEvent(t, probe2.C)
	probe2.Close()
	last = 0 // run 1 fell out of the 1-slot ring; 0+1=1 < ring[0].ID=2
	_, backlog3, err := m2.Subscribe(st2.ID, &last)
	if err != nil {
		t.Fatal(err)
	}
	if len(backlog3) != 1 || backlog3[0].Type != EventResult || backlog3[0].ID != 2 {
		t.Fatalf("gap backlog = %+v, want one result snapshot at run 2", backlog3)
	}
}

func TestRestoreSeedsStateAndSkipsStaleRun(t *testing.T) {
	r := &fakeRunner{}
	jn := newMemJournal()
	r.set("d", 7, pat("a", 3), pat("b", 2))

	spec := api.JobSpec{ID: "restored", Dataset: "d", Mine: api.MineSpec{MiningOptions: api.MiningOptions{MinCount: 1}}}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	prior := Result{JobID: "restored", RunSeq: 5, Dataset: "d", Version: 7,
		Patterns: []Pattern{pat("a", 3), pat("b", 2)}}
	priorJSON, err := json.Marshal(prior)
	if err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, r, jn, nil)
	m.Restore([]StoredJob{{ID: "restored", Spec: specJSON, Result: priorJSON}})

	st, err := m.Get("restored")
	if err != nil {
		t.Fatal(err)
	}
	if st.RunSeq != 5 || st.Version != 7 {
		t.Fatalf("restored status = %+v, want run 5 at version 7", st)
	}
	// The armed catch-up run sees the same version: no new event.
	sub, backlog, err := m.Subscribe("restored", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if len(backlog) != 1 || backlog[0].Type != EventResult || backlog[0].ID != 5 {
		t.Fatalf("backlog = %+v, want the restored snapshot at run 5", backlog)
	}
	select {
	case ev := <-sub.C:
		t.Fatalf("unexpected event after same-version restore: %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}

	// The dataset moved while we were down: restore catches up and the
	// delta diffs against the pre-restart result.
	m2 := newTestManager(t, r, jn, nil)
	r.set("d", 9, pat("a", 3), pat("c", 1))
	m2.Restore([]StoredJob{{ID: "restored", Spec: specJSON, Result: priorJSON}})
	sub2, _, err := m2.Subscribe("restored", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	// Backlog holds the old snapshot; the catch-up delta follows live.
	ev := waitEvent(t, sub2.C)
	var d Delta
	if err := json.Unmarshal(ev.Data, &d); err != nil {
		t.Fatal(err)
	}
	if d.RunSeq != 6 || d.Version != 9 ||
		len(d.Added) != 1 || d.Added[0].Key != "c" ||
		len(d.Removed) != 1 || d.Removed[0] != "b" {
		t.Fatalf("catch-up delta = %+v, want run 6 diffing against the restored result", d)
	}
}

// TestRestoreSkipsSpecWithUnknownField: a spec journaled with the
// removed "type" mode alias must not come back as a job mining the
// default (temporal) mode; it is skipped like any undecodable spec,
// while its well-formed neighbours restore.
func TestRestoreSkipsSpecWithUnknownField(t *testing.T) {
	r := &fakeRunner{}
	r.set("d", 1, pat("a", 3))
	m := newTestManager(t, r, newMemJournal(), nil)
	m.Restore([]StoredJob{
		{ID: "legacy", Spec: []byte(`{"id":"legacy","dataset":"d","mine":{"type":"coincidence","min_count":1}}`)},
		{ID: "current", Spec: []byte(`{"id":"current","dataset":"d","mine":{"mode":"coincidence","min_count":1}}`)},
	})
	if _, err := m.Get("legacy"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("job restored from a spec carrying \"type\": Get = %v, want ErrNotFound", err)
	}
	if m.Count() != 1 {
		t.Fatalf("%d jobs restored, want only the well-formed one", m.Count())
	}
	st, err := m.Get("current")
	if err != nil {
		t.Fatal(err)
	}
	if st.Spec.Mine.Mode != api.ModeCoincidence {
		t.Fatalf("restored job mines %q, want coincidence", st.Spec.Mine.Mode)
	}
}

// TestRestoreSkipsSpecWithTrailingData: a journaled spec decodes as
// strictly as a create request, which rejects anything after the JSON
// value — a spec followed by a second value is undecodable and skipped.
func TestRestoreSkipsSpecWithTrailingData(t *testing.T) {
	r := &fakeRunner{}
	r.set("d", 1, pat("a", 3))
	m := newTestManager(t, r, newMemJournal(), nil)
	m.Restore([]StoredJob{
		{ID: "trailing", Spec: []byte(`{"id":"trailing","dataset":"d","mine":{"min_count":1}} {}`)},
		{ID: "current", Spec: []byte(`{"id":"current","dataset":"d","mine":{"min_count":1}}`)},
	})
	if _, err := m.Get("trailing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("job restored from a spec with trailing data: Get = %v, want ErrNotFound", err)
	}
	if m.Count() != 1 {
		t.Fatalf("%d jobs restored, want only the well-formed one", m.Count())
	}
}

func TestCreateValidatesAndJournals(t *testing.T) {
	r := &fakeRunner{}
	jn := newMemJournal()
	m := newTestManager(t, r, jn, nil)

	// Rules mode is rejected for jobs.
	_, err := m.Create(api.JobSpec{Dataset: "d", Mine: api.MineSpec{Mode: api.ModeRules, MiningOptions: api.MiningOptions{MinCount: 1}}})
	var fe *api.FieldError
	if !errors.As(err, &fe) || fe.Field != "mine.mode" {
		t.Fatalf("rules-mode job error = %v, want FieldError on mine.mode", err)
	}

	// A journal refusal means the job must not exist.
	jn.fail = fmt.Errorf("disk on fire")
	if _, err := m.Create(api.JobSpec{Dataset: "d", Mine: api.MineSpec{MiningOptions: api.MiningOptions{MinCount: 1}}}); err == nil {
		t.Fatal("expected journal failure to fail Create")
	}
	if m.Count() != 0 {
		t.Fatalf("job exists after failed journal write")
	}
	jn.fail = nil

	// Duplicate ids are rejected.
	if _, err := m.Create(api.JobSpec{ID: "dup", Dataset: "d", Mine: api.MineSpec{MiningOptions: api.MiningOptions{MinCount: 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(api.JobSpec{ID: "dup", Dataset: "d", Mine: api.MineSpec{MiningOptions: api.MiningOptions{MinCount: 1}}}); err != ErrExists {
		t.Fatalf("duplicate create = %v, want ErrExists", err)
	}
}
