// Command perfbench is the repository's end-to-end benchmark. It starts
// real tpmd processes on loopback, drives one named workload over HTTP
// from this single client process, checks every response against
// results it computes in process, and prints the metrics BENCHMARK.json
// names. run.sh builds tpmd and this program from the working tree
// first, so every commit measures its own binary:
//
//	bash perfbench/run.sh --workload mine_cold --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 instead replays
// the workload's operations through each layer's public functions and
// reports per-layer self times and counts. --steady N runs every
// workload N times with seeds 1..N and checks the run-to-run spread of
// each end-to-end metric against its bound in BENCHMARK.json.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records
// provenance (commit, toolchain, CPUs, inputs and the exact tpmd flags).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const (
	setupRuns   = 5   // set-ups per run; setup_s is their median
	minTimedOps = 100 // so that p90 has at least ten samples beyond it
	maxTimed    = 2 * time.Minute
	traceOps    = 30 // operations in each phase of a traced run
	hotTraceOps = 300
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env locates the checkout's binaries and the run's scratch directory.
type env struct {
	root string // checkout root: the working directory
	tpmd string
	dir  string // scratch for logs, data directories and traces
}

func main() {
	// The client shares the machine's cores with tpmd; collecting its
	// small heap less often keeps its own GC work out of the latencies.
	debug.SetGCPercent(400)
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 15, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	steady := fs.Int("steady", 0, "steadiness mode: runs per workload (seeds 1..N)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e := &env{root: root, tpmd: filepath.Join(root, ".bench_build", "bin", "tpmd")}
	if _, err := os.Stat(e.tpmd); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: tpmd binary missing; run through perfbench/run.sh:", err)
		return 1
	}
	if *steady > 0 {
		names := workloadNames
		if *name != "" {
			names = []string{*name}
		}
		return steadiness(e, names, *steady, *seconds)
	}
	e.dir = filepath.Join(root, ".bench_build", "run", *name)
	if err := os.RemoveAll(e.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, prov, err := runWorkload(e, *name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printHuman(res)
	p, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("%s\n%s\n", p, out)
	return 0
}

// runWorkload makes one timed or traced run of the named workload.
func runWorkload(e *env, name string, seed int64, seconds int, trace bool) (*result, map[string]any, error) {
	w, err := newWorkload(name, seed, e.dir)
	if err != nil {
		return nil, nil, err
	}
	prov := provenance(e, name, seed)
	var res *result
	if trace {
		res, err = tracedRun(e, w, prov)
	} else {
		res, err = timedRun(e, w, time.Duration(seconds)*time.Second, prov)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	prov["inputs"] = w.describe()
	return res, prov, nil
}

// setUp launches fresh processes and prepares them setupRuns times,
// stopping all but the last deployment, and returns that deployment with
// the set-up times in seconds. Input generation happens before, so each
// time runs from the exec of the first process until the first timed
// operation may start.
func setUp(e *env, w workload, runs int, prov map[string]any) (*deployment, []float64, error) {
	var times []float64
	var d *deployment
	for i := 0; i < runs; i++ {
		if d != nil {
			w.teardown()
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = w.launch(e.tpmd, e.dir); err != nil {
			return nil, nil, err
		}
		if err := w.prepare(d); err != nil {
			w.teardown()
			d.stop()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	procs := make([]map[string]any, 0, len(d.procs))
	for _, p := range d.procs {
		gmp, err := p.gomaxprocs()
		if err != nil {
			w.teardown()
			d.stop()
			return nil, nil, err
		}
		procs = append(procs, map[string]any{"role": p.role, "args": p.args, "gomaxprocs": gmp})
	}
	prov["processes"] = procs
	prov["setup_s_each"] = times
	return d, times, nil
}

// scrapeAll reads every process's metrics into one set of series (the
// worker role's names do not overlap the server's).
func scrapeAll(d *deployment) (series, error) {
	all := make(series)
	for _, p := range d.procs {
		path := "/v1/metrics"
		if p.role == "worker" {
			path = "/v1/worker/metrics"
		}
		s, err := scrape(d.hc, "http://"+p.addr+path)
		if err != nil {
			return nil, err
		}
		for k, v := range s {
			all[k] = v
		}
	}
	return all, nil
}

// timedRun measures the end-to-end metrics: set-up, then closed-loop
// operations for the given duration (and at least minTimedOps), measured
// in windows (see windows.go).
func timedRun(e *env, w workload, length time.Duration, prov map[string]any) (*result, error) {
	d, setups, err := setUp(e, w, setupRuns, prov)
	if err != nil {
		return nil, err
	}
	defer func() {
		w.teardown()
		d.stop()
	}()
	before, err := scrapeAll(d)
	if err != nil {
		return nil, err
	}
	p, err := runPhase(w, d, length)
	if err != nil {
		return nil, err
	}
	after, err := scrapeAll(d)
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	failed := p.failed
	correct := report(w, before, after, p.attempted, &failed)

	kept := p.kept(length)
	var lat []float64
	var cpu time.Duration
	for _, win := range kept {
		lat = append(lat, win.lat...)
		cpu += win.cpu
	}
	steal := make([]float64, len(p.windows))
	wp50 := make([]float64, len(p.windows))
	for i, win := range p.windows {
		steal[i] = win.steal
		wp50[i] = percentile(win.lat, 0.5)
	}
	prov["window_p50_ms"] = wp50
	deciles := make([]float64, 11)
	for i := range deciles {
		deciles[i] = percentile(lat, float64(i)/10)
	}
	prov["timed_ops"] = p.attempted
	prov["kept_ops"] = totalOps(kept)
	prov["windows"] = len(p.windows)
	prov["windows_kept"] = len(kept)
	prov["window_steal_share"] = steal
	prov["latency_deciles_ms"] = deciles
	return &result{
		Correct:   correct,
		Attempted: p.attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"latency_p50_ms": {percentile(lat, 0.5), "ms"},
			"latency_p90_ms": {percentile(lat, 0.9), "ms"},
			"cpu_ms_per_op":  {float64(cpu) / float64(time.Millisecond) / float64(totalOps(kept)), "ms"},
			"rss_mb":         {float64(rss) / (1 << 20), "MiB"},
			"success_ratio":  {float64(p.attempted-failed) / float64(p.attempted), "ratio"},
		},
	}, nil
}

// report runs the end-of-run output check and the workload guards,
// counting a failed check as a failed operation, and says whether the
// run is correct.
func report(w workload, before, after series, ops int, failed *int) bool {
	if err := w.verify(); err != nil {
		*failed++
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", err)
	}
	violations := w.guard(before, after, ops)
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "perfbench: workload guard:", v)
	}
	return *failed == 0 && len(violations) == 0
}

// printHuman writes the metrics to standard error, one per line.
func printHuman(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "%-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}
