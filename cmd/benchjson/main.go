// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON report, so CI can archive benchmark results
// (BENCH_*.json) and track the performance trajectory across commits.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkBSA . | go run ./cmd/benchjson -out BENCH_core.json
//
// The raw input is echoed to stdout, so piping through benchjson does not
// hide the benchmark log. When `-count` produces repeated lines for one
// benchmark, the fastest run wins (best-of-N: the minimum is the standard
// low-noise estimator for benchmark latencies, and the regression gate in
// cmd/benchcmp depends on stable numbers). For every benchmark pair named
// <base>/oracle/... and <base>/incremental/..., a speedup entry (oracle
// ns/op divided by incremental ns/op) is added under "speedups".
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark line.
type Benchmark struct {
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the emitted JSON document.
type Report struct {
	Goos       string             `json:"goos,omitempty"`
	Goarch     string             `json:"goarch,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	Package    string             `json:"pkg,omitempty"`
	Benchmarks []Benchmark        `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups,omitempty"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

func main() {
	out := flag.String("out", "", "path of the JSON report to write (stdout JSON is suppressed when set)")
	verify := flag.String("verify", "", "verify that an existing report file is present and non-empty, then exit")
	flag.Parse()

	if *verify != "" {
		if err := verifyReport(*verify); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	rep := Report{}
	byName := make(map[string]int) // benchmark name -> index in rep.Benchmarks
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // keep the raw log visible
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Package = strings.TrimPrefix(line, "pkg: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		runs, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		b := Benchmark{Name: trimGOMAXPROCS(m[1]), Runs: runs, NsPerOp: ns}
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[fields[i+1]] = v
			}
		}
		if i, ok := byName[b.Name]; ok {
			if b.NsPerOp < rep.Benchmarks[i].NsPerOp {
				rep.Benchmarks[i] = b
			}
			continue
		}
		byName[b.Name] = len(rep.Benchmarks)
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		// A report without benchmarks means the bench run broke upstream;
		// fail loudly instead of archiving an empty trajectory point.
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found in input")
		os.Exit(1)
	}
	rep.Speedups = speedups(rep.Benchmarks)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
}

// verifyReport fails unless path holds a parseable report with at least
// one benchmark and one speedup entry — the guard CI runs before
// publishing the bench artifact, so a broken bench run can never archive
// a blank (or stale, deleted-up-front) trajectory point as if it were
// fresh.
func verifyReport(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("verify: report missing (bench run failed upstream?): %w", err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("verify %s: unparseable report: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("verify %s: report has no benchmarks", path)
	}
	if len(rep.Speedups) == 0 {
		return fmt.Errorf("verify %s: report has no oracle/incremental speedups", path)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %s ok (%d benchmarks, %d speedups)\n",
		path, len(rep.Benchmarks), len(rep.Speedups))
	return nil
}

// trimGOMAXPROCS drops the -N suffix go test appends to benchmark names.
func trimGOMAXPROCS(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// speedups pairs benchmarks whose name contains an exact "incremental"
// path segment with their "/oracle/" counterpart and reports
// oracle/incremental time ratios, keyed by the incremental benchmark's
// full name.
func speedups(benches []Benchmark) map[string]float64 {
	byName := make(map[string]float64, len(benches))
	for _, b := range benches {
		byName[b.Name] = b.NsPerOp
	}
	out := make(map[string]float64)
	for name, inc := range byName {
		if inc <= 0 {
			continue
		}
		segs := strings.Split(name, "/")
		paired := false
		for i, seg := range segs {
			if seg == "incremental" {
				segs[i] = "oracle"
				paired = true
				break
			}
		}
		if !paired {
			continue
		}
		if oracle, ok := byName[strings.Join(segs, "/")]; ok {
			out[name] = oracle / inc
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
