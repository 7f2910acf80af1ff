// Command benchjson converts `go test -bench` text output on stdin into a
// JSON array on stdout, so CI can persist benchmark results as an artifact
// (BENCH_serving.json and its siblings) and the perf trajectory is diffable
// across PRs.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./internal/store/ | benchjson > BENCH_store.json
//
// Standard fields (ns/op, B/op, allocs/op) are lifted to named JSON fields;
// any custom b.ReportMetric units (e.g. "hitrate", "expansions/op") are
// collected under "metrics". Context lines (goos/goarch/cpu/pkg) are
// attached to every result so numbers stay comparable across machines.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark line in JSON form.
type Result struct {
	Name        string             `json:"name"`
	Package     string             `json:"package,omitempty"`
	Goos        string             `json:"goos,omitempty"`
	Goarch      string             `json:"goarch,omitempty"`
	CPU         string             `json:"cpu,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	Timestamp   string             `json:"timestamp,omitempty"`
}

func main() {
	var (
		results                []Result
		pkg, goos, goarch, cpu string
	)
	now := time.Now().UTC().Format(time.RFC3339)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			cpu = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{
			Name: fields[0], Package: pkg, Goos: goos, Goarch: goarch,
			CPU: cpu, Iterations: iters, Timestamp: now,
		}
		// Remaining fields come in (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			case "MB/s":
				fallthrough
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = v
			}
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
