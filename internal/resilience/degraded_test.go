package resilience_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tpminer/internal/persist"
	"tpminer/internal/resilience"
	"tpminer/internal/server"
)

// The breaker tests drive the failure scoring this package feeds end to
// end: a tpmd server at the default threshold (3) over a real
// persist.Store whose injector fails WAL writes on demand. The server's
// resilient journal scores each failure that gets through the store's
// retries by IsPermanent (2 for a permanent one, 1 for a transient one;
// a success clears the score), trips read-only degraded mode when the
// score reaches the threshold, and ends the episode when a recovery
// probe succeeds. The tests see only what clients and operators see:
// write statuses, /v1/readyz and the tpmd_resilience_* metrics, where
// tpmd_resilience_breaker_state reads 0 read-write, 1 degraded and
// 2 probing.

const csvBody = `sequence_id,symbol,start,end
s1,A,0,4
s1,B,2,6
s2,A,10,14
`

// stepInjector fails every WAL write with walErr while it is set, and
// counts the writes. Every snapshot write, which here only a recovery
// probe makes, announces itself on parked and then fails with the
// verdict the test sends; closing quit lets it through unfaulted.
type stepInjector struct {
	mu        sync.Mutex
	walErr    error
	walWrites int

	parked   chan struct{}
	verdicts chan error
	quit     chan struct{}
}

func (in *stepInjector) Fault(op resilience.Op) resilience.Fault {
	switch op {
	case resilience.OpWALWrite:
		in.mu.Lock()
		defer in.mu.Unlock()
		in.walWrites++
		return resilience.Fault{Err: in.walErr}
	case resilience.OpSnapshotWrite:
		select {
		case in.parked <- struct{}{}:
		case <-in.quit:
			return resilience.Fault{}
		}
		select {
		case err := <-in.verdicts:
			return resilience.Fault{Err: err}
		case <-in.quit:
		}
	}
	return resilience.Fault{}
}

var (
	eio    = fmt.Errorf("injected: %w", syscall.EIO)
	enospc = fmt.Errorf("injected: %w", syscall.ENOSPC)
)

// probeEvery is long enough that the gauge a trip or a failed probe
// leaves is read before the next probe starts.
const probeEvery = 200 * time.Millisecond

// breakerRig is one server over a stepInjector-faulted store, with the
// dataset that every write replaces already in place.
type breakerRig struct {
	t    *testing.T
	inj  *stepInjector
	base string
	step string // the running step, named in every failure
}

// breakerStep is one step of a table: run it, then check whether the
// server is degraded and the breaker-state gauge.
type breakerStep struct {
	name     string
	run      func()
	degraded bool
	gauge    float64
}

func newBreakerRig(t *testing.T) *breakerRig {
	inj := &stepInjector{parked: make(chan struct{}), verdicts: make(chan error), quit: make(chan struct{})}
	ps, err := persist.Open(t.TempDir(), persist.Options{
		Injector: inj,
		Retry:    resilience.RetryPolicy{Sleep: func(time.Duration) {}},
	})
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	s := server.NewWithConfig(nil, server.Config{Persist: ps, RecoveryProbeInterval: probeEvery})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		close(inj.quit)
		ts.Close()
		s.Close()
		if err := ps.Close(); err != nil {
			t.Errorf("persist.Close: %v", err)
		}
	})
	r := &breakerRig{t: t, inj: inj, base: ts.URL, step: "put alpha"}
	r.write(nil, http.StatusCreated)()
	return r
}

func (r *breakerRig) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("%s: %s", r.step, fmt.Sprintf(format, args...))
}

// request sends one request and returns its status and body.
func (r *breakerRig) request(method, path, body string) (int, string) {
	r.t.Helper()
	req, err := http.NewRequest(method, r.base+path, strings.NewReader(body))
	if err != nil {
		r.fatalf("%v", err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "text/csv")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		r.fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		r.fatalf("%s %s: %v", method, path, err)
	}
	return resp.StatusCode, string(data)
}

// metric reads one sample from /v1/metrics; a series not yet exposed
// reads 0.
func (r *breakerRig) metric(series string) float64 {
	r.t.Helper()
	_, page := r.request("GET", "/v1/metrics", "")
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				r.fatalf("%s: %v", series, err)
			}
			return f
		}
	}
	return 0
}

func (r *breakerRig) ready() bool {
	status, _ := r.request("GET", "/v1/readyz", "")
	return status == http.StatusOK
}

// write replaces the dataset with the WAL failing with fault (nil:
// healthy) and checks the status, and that a write refused with 503
// does no WAL I/O while any other does.
func (r *breakerRig) write(fault error, status int) func() {
	return func() {
		r.t.Helper()
		r.inj.mu.Lock()
		r.inj.walErr = fault
		before := r.inj.walWrites
		r.inj.mu.Unlock()
		if got, body := r.request("PUT", "/v1/datasets/alpha", csvBody); got != status {
			r.fatalf("put %d %q, want %d", got, body, status)
		}
		r.inj.mu.Lock()
		wrote := r.inj.walWrites > before
		r.inj.mu.Unlock()
		if refused := status == http.StatusServiceUnavailable; wrote == refused {
			r.fatalf("WAL written %v on a %d", wrote, status)
		}
	}
}

// parks waits for the episode's next recovery probe to park in the
// injector.
func (r *breakerRig) parks() {
	r.t.Helper()
	select {
	case <-r.inj.parked:
	case <-time.After(5 * time.Second):
		r.fatalf("no recovery probe ran")
	}
}

// resolve hands the parked probe its verdict and waits for the server
// to take the outcome in: a failed probe counted, or read-write again.
func (r *breakerRig) resolve(verdict error) {
	r.t.Helper()
	failed := r.metric(`tpmd_resilience_probes_total{outcome="fail"}`)
	r.inj.verdicts <- verdict
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if verdict != nil && r.metric(`tpmd_resilience_probes_total{outcome="fail"}`) > failed ||
			verdict == nil && r.ready() {
			return
		}
		if time.Now().After(deadline) {
			r.fatalf("timed out waiting for the probe's verdict %v to take effect", verdict)
		}
	}
}

// probe runs the next recovery probe to verdict.
func (r *breakerRig) probe(verdict error) func() {
	return func() {
		r.t.Helper()
		r.parks()
		r.resolve(verdict)
	}
}

func (r *breakerRig) run(steps []breakerStep) {
	r.t.Helper()
	for _, st := range steps {
		r.step = st.name
		st.run()
		if got := !r.ready(); got != st.degraded {
			r.fatalf("degraded %v, want %v", got, st.degraded)
		}
		if got := r.metric("tpmd_resilience_breaker_state"); got != st.gauge {
			r.fatalf("breaker state gauge %v, want %v", got, st.gauge)
		}
	}
}

// totals checks the episode counters once every step has run.
func (r *breakerRig) totals(trips, okProbes, failedProbes float64) {
	r.t.Helper()
	r.step = "totals"
	for series, want := range map[string]float64{
		"tpmd_resilience_breaker_trips_total":          trips,
		`tpmd_resilience_probes_total{outcome="ok"}`:   okProbes,
		`tpmd_resilience_probes_total{outcome="fail"}`: failedProbes,
	} {
		if got := r.metric(series); got != want {
			r.t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}

// TestBreakerLifecycle walks one degraded episode: the score trips only
// at the threshold and a success clears it, writes are refused without
// I/O while degraded and while a probe runs, a failed probe stays
// degraded, a successful one restores read-write, and no probe runs
// once the episode has ended.
func TestBreakerLifecycle(t *testing.T) {
	r := newBreakerRig(t)
	r.run([]breakerStep{
		{"transient failure scores 1", r.write(eio, 500), false, 0},
		{"second transient failure scores 2", r.write(eio, 500), false, 0},
		{"success clears the score", r.write(nil, 200), false, 0},
		{"transient failure scores 1 again", r.write(eio, 500), false, 0},
		{"transient failure scores 2 again", r.write(eio, 500), false, 0},
		{"third consecutive transient failure trips", r.write(eio, 500), true, 1},
		{"write while degraded is refused without I/O", r.write(nil, 503), true, 1},
		{"failed probe stays degraded", r.probe(enospc), true, 1},
		{"write after a failed probe is refused without I/O", r.write(nil, 503), true, 1},
		{"next probe runs", r.parks, true, 2},
		{"write while probing is refused without I/O", r.write(nil, 503), true, 2},
		{"successful probe restores read-write", func() {
			r.resolve(nil)
			if secs := r.metric("tpmd_resilience_degraded_seconds_total"); secs <= 0 {
				r.fatalf("degraded seconds %v, want > 0", secs)
			}
		}, false, 0},
		{"write after recovery journals", r.write(nil, 200), false, 0},
		{"no probe runs while read-write", func() {
			select {
			case <-r.inj.parked:
				r.fatalf("a recovery probe ran after the episode ended")
			case <-time.After(probeEvery + probeEvery/2):
			}
		}, false, 0},
	})
	r.totals(1, 1, 1)
}

// TestBreakerPermanentWeighsDouble: a permanent failure scores 2, so a
// permanent and a transient one reach the default threshold 3, and so
// do two permanent ones.
func TestBreakerPermanentWeighsDouble(t *testing.T) {
	r := newBreakerRig(t)
	r.run([]breakerStep{
		{"permanent failure scores 2", r.write(enospc, 500), false, 0},
		{"permanent plus transient trips at 3", r.write(eio, 500), true, 1},
		{"probe ends the first episode", r.probe(nil), false, 0},
		{"one permanent failure scores 2", r.write(enospc, 500), false, 0},
		{"two permanent failures trip the default threshold", r.write(enospc, 500), true, 1},
		{"probe ends the second episode", r.probe(nil), false, 0},
	})
	r.totals(2, 2, 0)
}
