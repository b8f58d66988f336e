package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// proc is one running tpmd process.
type proc struct {
	role   string
	args   []string
	addr   string
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{} // closed once the process has been reaped
}

// freeAddr picks a loopback port no one is listening on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick a port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startTpmd execs the tpmd binary on a fresh loopback port with the
// given flags, logging to a file in dir.
func startTpmd(bin, dir, role string, flags ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr}, flags...)
	logf, err := os.Create(filepath.Join(dir, role+"-"+strings.ReplaceAll(addr, ":", "_")+".log"))
	if err != nil {
		return nil, fmt.Errorf("create %s log: %w", role, err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should this process die without stopping it, the kernel kills tpmd
	// too, so no server outlives the benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	p := &proc{role: role, args: args, addr: addr, cmd: cmd, log: logf, exited: make(chan struct{})}
	go func() {
		// The exit status is irrelevant: readiness and stop watch exited.
		_ = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// waitReady retries GET path until it answers 200, the process exits,
// or timeout passes. Between attempts it waits a millisecond, so the
// detection lag stays far below the set-up time it is part of.
func (p *proc) waitReady(hc *http.Client, path string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get("http://" + p.addr + path)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s on %s not ready after %v (log %s)", p.role, p.addr, timeout, p.log.Name())
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before it was ready (log %s)", p.role, p.log.Name())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited after the grace period.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
	p.log.Close()
}

// procFile reads /proc/<pid>/<name>.
func (p *proc) procFile(name string) (string, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", p.cmd.Process.Pid, name))
	if err != nil {
		return "", fmt.Errorf("%s: %w", p.role, err)
	}
	return string(b), nil
}

// cpuTime is the user+system CPU the process has used so far, over all
// its threads.
func (p *proc) cpuTime() (time.Duration, error) {
	s, err := p.procFile("stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("%s: short /proc stat line", p.role)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("%s: parse /proc stat: %w", p.role, err)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// statusField returns one "Key: value" line's value from
// /proc/<pid>/status.
func (p *proc) statusField(key string) (string, error) {
	s, err := p.procFile("status")
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(s, "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("%s: no %s in /proc status", p.role, key)
}

// peakRSS is the process's high-water resident set size in bytes.
func (p *proc) peakRSS() (int64, error) {
	v, err := p.statusField("VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseInt(strings.TrimSuffix(v, " kB"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: parse VmHWM %q: %w", p.role, v, err)
	}
	return kb << 10, nil
}

// gomaxprocs is the GOMAXPROCS the Go runtime chose for the process:
// the GOMAXPROCS variable it inherited if set, else the number of CPUs
// its affinity mask allows.
func (p *proc) gomaxprocs() (int, error) {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		return strconv.Atoi(v)
	}
	v, err := p.statusField("Cpus_allowed_list")
	if err != nil {
		return 0, err
	}
	return countCPUList(v)
}

// countCPUList counts the CPUs in a list such as "0-3,6".
func countCPUList(s string) (int, error) {
	n := 0
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return 0, fmt.Errorf("cpu list %q: %w", s, err)
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				return 0, fmt.Errorf("cpu list %q: %w", s, err)
			}
		}
		n += b - a + 1
	}
	return n, nil
}

// deployment is one workload's set of running tpmd processes and the
// client connection that drives the server.
type deployment struct {
	procs  []*proc // started in order; the server is last
	server *proc
	base   string // the server's base URL
	hc     *http.Client
	buf    bytes.Buffer // response body of the last request call
	// scratch lists directories the processes write (persistent data),
	// removed once they have stopped.
	scratch []string
}

// launch starts one process per role in order, waiting for each to be
// ready before the next starts (the server probes its workers, so they
// must answer first). flags maps each role to its tpmd flags; the last
// role is the server the client drives.
func launch(bin, dir string, roles []string, flags func(role string, started []*proc) []string) (*deployment, error) {
	d := &deployment{hc: newClient()}
	for _, role := range roles {
		p, err := startTpmd(bin, dir, role, flags(role, d.procs)...)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.procs = append(d.procs, p)
		path := "/v1/healthz"
		if role == "worker" {
			path = "/v1/worker/healthz"
		}
		if err := p.waitReady(d.hc, path, 30*time.Second); err != nil {
			d.stop()
			return nil, err
		}
	}
	d.server = d.procs[len(d.procs)-1]
	d.base = "http://" + d.server.addr
	return d, nil
}

// request issues one request to the server on the client connection.
// The body it returns aliases a buffer the next call reuses, so the
// timed loop does not allocate a fresh body per operation.
func (d *deployment) request(method, path, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := d.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	d.buf.Reset()
	if _, err := d.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	return resp.StatusCode, d.buf.Bytes(), nil
}

// stop stops every process, the server first, and waits for each.
func (d *deployment) stop() {
	for i := len(d.procs) - 1; i >= 0; i-- {
		d.procs[i].stop()
	}
	d.hc.CloseIdleConnections()
	for _, dir := range d.scratch {
		os.RemoveAll(dir)
	}
}

// cpuTime sums the CPU used so far by every process of the deployment.
func (d *deployment) cpuTime() (time.Duration, error) {
	var sum time.Duration
	for _, p := range d.procs {
		t, err := p.cpuTime()
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// peakRSS sums the processes' high-water resident set sizes in bytes.
func (d *deployment) peakRSS() (int64, error) {
	var sum int64
	for _, p := range d.procs {
		b, err := p.peakRSS()
		if err != nil {
			return 0, err
		}
		sum += b
	}
	return sum, nil
}

// newClient returns a client that holds at most one connection to each
// process, so a workload's client uses one connection for its requests.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}
