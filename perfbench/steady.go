package main

import (
	"bytes"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// provenance records what a run measured: the workload and seed, the
// toolchain and machine, and which source tree tpmd was built from.
func provenance(e *env, name string, seed int64) map[string]any {
	p := map[string]any{
		"workload": name,
		"seed":     seed,
		"num_cpu":  runtime.NumCPU(),
		"go":       runtime.Version(),
		"commit":   "unknown",
	}
	if info, err := buildinfo.ReadFile(e.tpmd); err == nil {
		p["tpmd_go"] = info.GoVersion
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["commit_modified"] = s.Value == "true"
			}
		}
	}
	if sum, err := sourceDigest(e.root); err == nil {
		p["source_sha256"] = sum
	}
	return p
}

// sourceDigest hashes every Go source and module file of the checkout
// outside hidden directories, so runs of a checkout that is not a git
// repository still name the tree they built.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		sum := sha256.Sum256(data)
		fmt.Fprintf(h, "%s\x00%x\n", rel, sum)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// benchmarkFile is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs each named workload runs times, with seeds 1..runs,
// each run in a child process exactly as a single run is invoked, and
// prints per (workload, metric) the median, quartiles and spread (the
// interquartile distance as a share of the median) next to the metric's
// bound. It fails if a run is incorrect or a spread exceeds its bound;
// setup_s is reported but, as its bound applies to medians across
// commits only, its spread is not checked.
func steadiness(e *env, names []string, runs, seconds int) int {
	raw, err := os.ReadFile(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var bench benchmarkFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: BENCHMARK.json:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	bad := 0
	fmt.Printf("%-13s %-15s %12s %12s %12s %8s %6s %s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, name := range names {
		values := make(map[string][]float64)
		for seed := 1; seed <= runs; seed++ {
			res, err := childRun(self, e.root, name, seed, seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", name, seed, err)
				bad++
				continue
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: incorrect (%d of %d failed)\n", name, seed, res.Failed, res.Attempted)
				bad++
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
			}
		}
		for _, m := range bench.EndToEnd {
			vs := values[m.Name]
			q1, q2, q3 := quartiles(vs)
			sp := spread(vs)
			verdict := "ok"
			switch {
			case m.Name == "setup_s":
				verdict = "not checked"
			case len(vs) < runs || sp > m.Bound:
				verdict = "OUTSIDE BOUND"
				bad++
			case sp >= m.Bound/3:
				verdict = "ok (above a third of the bound)"
			}
			fmt.Printf("%-13s %-15s %12.4f %12.4f %12.4f %8.4f %6.3f %s\n", name, m.Name, q2, q1, q3, sp, m.Bound, verdict)
			fmt.Fprintf(os.Stderr, "  %s %s by seed: %.4g\n", name, m.Name, vs)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// childRun runs one timed run in a child process and parses its result
// line.
func childRun(self, root, name string, seed, seconds int) (*result, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, stderr.Bytes())
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parse result line: %w", err)
	}
	return &res, nil
}
