package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The machine the benchmark runs on may be a virtual one whose host at
// times gives its CPUs to other guests ("steal"). A stretch of time in
// which that takes a noticeable share measures the host, not tpmd. So
// the timed phase runs in windows of about windowLen, reads the
// machine's steal share over each, and keeps going (up to lengthCap
// times the set length) until the calm windows alone cover the set
// length and minTimedOps operations. Latency and CPU figures come from
// the calm windows, or, if too few were calm by the cap, from the
// calmest windows that hold minTimedOps operations. The windows are
// chosen by the machine's steal alone, never by what an operation
// measured; failed operations count wherever they happen.
const (
	windowLen = time.Second
	calmSteal = 0.03 // steal share above which a window is disturbed
	lengthCap = 1.5
)

// window is one stretch of the timed phase.
type window struct {
	lat   []float64     // latencies of its successful operations, ms
	ops   int           // operations attempted
	cpu   time.Duration // CPU every tpmd process used
	dur   time.Duration
	steal float64 // share of the machine's CPU time taken by the host
}

// phase is the timed phase: every window, and the totals over all of
// them.
type phase struct {
	windows           []window
	attempted, failed int
}

// runPhase runs closed-loop operations window by window until enough
// calm time is measured (see above).
func runPhase(w workload, d *deployment, length time.Duration) (*phase, error) {
	p := &phase{}
	start := time.Now()
	for !p.done(time.Since(start), length) {
		win, err := p.runWindow(w, d)
		if err != nil {
			return nil, err
		}
		p.windows = append(p.windows, win)
	}
	return p, nil
}

// runWindow runs operations for windowLen and reads the CPU counters
// around them.
func (p *phase) runWindow(w workload, d *deployment) (window, error) {
	var win window
	steal0, total0 := machineCPU()
	cpu0, err := d.cpuTime()
	if err != nil {
		return win, err
	}
	begin := time.Now()
	for time.Since(begin) < windowLen {
		r, err := w.op(d)
		win.ops++
		p.attempted++
		if err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", p.attempted, err)
			continue
		}
		win.lat = append(win.lat, float64(r.latency)/float64(time.Millisecond))
	}
	win.dur = time.Since(begin)
	cpu1, err := d.cpuTime()
	if err != nil {
		return win, err
	}
	win.cpu = cpu1 - cpu0
	if steal1, total1 := machineCPU(); total1 > total0 {
		win.steal = (steal1 - steal0) / (total1 - total0)
	}
	return win, nil
}

// done says whether the phase has measured enough.
func (p *phase) done(elapsed, length time.Duration) bool {
	calm := calmWindows(p.windows)
	switch {
	case totalDur(calm) >= length && totalOps(calm) >= minTimedOps:
		return true
	case elapsed >= time.Duration(lengthCap*float64(length)) && p.attempted >= minTimedOps:
		return true
	}
	return elapsed >= maxTimed
}

// kept returns the windows the figures come from: the calm ones if they
// cover length and minTimedOps, else the calmest that hold minTimedOps
// operations and at least half of all windows.
func (p *phase) kept(length time.Duration) []window {
	calm := calmWindows(p.windows)
	if totalDur(calm) >= length && totalOps(calm) >= minTimedOps {
		return calm
	}
	byCalm := append([]window(nil), p.windows...)
	sort.SliceStable(byCalm, func(i, j int) bool { return byCalm[i].steal < byCalm[j].steal })
	n := 0
	for n < len(byCalm) && (totalOps(byCalm[:n]) < minTimedOps || 2*n < len(byCalm)) {
		n++
	}
	return byCalm[:n]
}

func calmWindows(ws []window) []window {
	var out []window
	for _, w := range ws {
		if w.steal <= calmSteal {
			out = append(out, w)
		}
	}
	return out
}

func totalDur(ws []window) time.Duration {
	var d time.Duration
	for _, w := range ws {
		d += w.dur
	}
	return d
}

func totalOps(ws []window) int {
	n := 0
	for _, w := range ws {
		n += w.ops
	}
	return n
}

// machineCPU reads the machine-wide steal and total CPU time, in clock
// ticks, from /proc/stat; both are 0 if it cannot be read.
func machineCPU() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user.
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0
		}
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}
