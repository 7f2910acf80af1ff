package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Every workload and metric name is valid and used once, and BENCHMARK.json
// lists exactly what the program prints.
func TestCatalogMatchesManifest(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not a valid name", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, wl := range workloads {
		check("workload", wl.name)
		if wl.setupK < 1 || wl.minRounds < 1 || wl.opsPerSample < 1 || wl.tailPct <= 50 || wl.setup == nil {
			t.Errorf("workload %s is not fully defined: %+v", wl.name, *wl)
		}
		if len(wl.why) == 0 || len(wl.why) > 200 {
			t.Errorf("workload %s: why has %d characters", wl.name, len(wl.why))
		}
	}
	for _, d := range append(append(append([]metricDef(nil), endToEnd...), failedOpsRatio), perLayer...) {
		check("metric", d.name)
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q is not a valid unit", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better is %q", d.name, d.better)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the manifest allows 128", len(perLayer))
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("manifest workload %d is %q (%q), the program's is %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest has %d end-to-end metrics, the program %d", len(f.EndToEnd), len(endToEnd))
	}
	largest := 0.0
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("manifest end-to-end metric %d is %+v, the program's is %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].bound != largest {
		t.Errorf("setup_s must come first and carry the largest bound (%g)", largest)
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d per-layer metrics, the program %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("manifest per-layer metric %d is %+v, the program's is %+v", i, m, d)
		}
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("manifest paths are %v", f.Paths)
	}
}
