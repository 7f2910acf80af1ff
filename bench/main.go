// Command bench is the repository's benchmark: five closed-loop workloads
// over the public functions of every layer, each run checked for correct
// results. One run prints the end-to-end metrics of a workload; -trace 1
// re-runs it with a span around every layer call and prints the per-layer
// metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: how long the timed rounds of
// one end-to-end run last.
const runSeconds = 12

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", defaultSeed, "seed of every generated input")
	seconds := flag.Float64("seconds", runSeconds, "how long the timed rounds of an end-to-end run last")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics")
	traceOut := flag.String("trace-out", "", "with -trace 1: write every span to this file as JSON lines")
	list := flag.Bool("list", false, "print workload and metric names and exit")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as this program defines it and exit")
	selftest := flag.Bool("selftest", false, "A/A self-test: two alternating sets of -runs runs of every workload on this binary")
	runs := flag.Int("runs", 5, "with -selftest: runs per set")
	flag.Parse()
	if flag.NArg() != 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}

	switch {
	case *list:
		printList()
		return
	case *manifest:
		printManifest()
		return
	case *selftest:
		if err := selfTest(selected(*workload), *runs, *seconds); err != nil {
			fatalf("selftest: %v", err)
		}
		return
	}

	if err := warmProcess(newInputs(*seed, fullSizes()), time.Second); err != nil {
		fatalf("%v", err)
	}
	ok := true
	for _, wl := range selected(*workload) {
		in := newInputs(*seed, fullSizes())
		var rep *report
		var err error
		if *trace == 1 {
			rep, err = runTraced(wl, in, *traceOut)
		} else {
			rep, err = runEndToEnd(wl, in, *seconds)
		}
		if err != nil {
			fatalf("%s: %v", wl.name, err)
		}
		printReport(rep, *trace == 1)
		ok = ok && rep.correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func selected(name string) []*workloadDef {
	if name == "all" {
		return workloads
	}
	wl := findWorkload(name)
	if wl == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fatalf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	return []*workloadDef{wl}
}

func printList() {
	fmt.Println("workloads:")
	for _, wl := range workloads {
		fmt.Printf("  %-16s %s\n", wl.name, wl.why)
	}
	fmt.Println("end-to-end metrics (-trace 0):")
	for _, d := range append(append([]metricDef(nil), endToEnd...), failedOpsRatio) {
		fmt.Printf("  %-44s %-6s better %s\n", d.name, d.unit, d.better)
	}
	fmt.Println("per-layer metrics (-trace 1):")
	for _, d := range perLayer {
		fmt.Printf("  %-44s %-6s better %s\n", d.name, d.unit, d.better)
	}
}

// printManifest prints BENCHMARK.json: the catalog above is the one place
// workloads, metrics, units, directions and bounds are written down, and
// TestCatalogMatchesManifest keeps the committed file equal to it.
func printManifest() {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundedJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []boundedJSON  `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, wl := range workloads {
		m.Workloads = append(m.Workloads, workloadJSON{wl.name, wl.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, boundedJSON{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerJSON{d.name, d.unit, d.better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printReport prints every metric by name with its unit, then the result
// line: every end-to-end metric of BENCHMARK.json for an untraced run, every
// per-layer metric for a traced one (0 for layers the workload does not
// exercise).
func printReport(rep *report, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := resultLine{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{Value: rep.metrics[d.name], Unit: d.unit}
	}
	table := defs
	if !traced {
		table = append(append([]metricDef(nil), defs...), failedOpsRatio)
	}
	for _, d := range table {
		if v, ok := rep.metrics[d.name]; ok {
			fmt.Printf("%-16s %-44s %16.6g %s\n", rep.workload, d.name, v, d.unit)
		}
	}
	for _, n := range rep.notes {
		fmt.Printf("%-16s # %s\n", rep.workload, n)
	}
	out, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
}
