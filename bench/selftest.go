package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// selfTest is the A/A test the bounds in BENCHMARK.json are taken from: two
// sets of runs of the same binary, alternating A, B, A, B so both see the
// same machine weather, each run a fresh process with its own seed as the
// driver's runs are. For every end-to-end metric it prints both medians,
// their disagreement, each set's quartile spread and the committed bound. A
// timing bound should be max(5 %, 2 × the largest disagreement seen); a
// spread above a third of the bound means the workload needs longer or more
// rounds, not a wider bound.
func selfTest(wls []*workloadDef, runs int, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("A/A self-test: 2 sets of %d runs, %g s each, seeds 1..%d\n", runs, seconds, runs)
	fmt.Printf("%-16s %-22s %14s %14s %8s %8s %8s %7s\n", "workload", "metric", "median A", "median B", "|A-B|/A", "iqr A", "iqr B", "bound")
	for _, wl := range wls {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
		}
		for r := 0; r < runs; r++ {
			for s := range sets {
				line, err := runChild(exe, wl.name, int64(r+1), seconds)
				if err != nil {
					return fmt.Errorf("%s run %d of set %c: %w", wl.name, r+1, 'A'+s, err)
				}
				if !line.Correct {
					return fmt.Errorf("%s run %d of set %c: incorrect result", wl.name, r+1, 'A'+s)
				}
				for name, v := range line.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := median(sets[0][d.name]), median(sets[1][d.name])
			fmt.Printf("%-16s %-22s %14.6g %14.6g %7.2f%% %7.2f%% %7.2f%% %6.1f%%\n", wl.name, d.name, a, b,
				100*math.Abs(a-b)/math.Abs(a), 100*quartileSpread(sets[0][d.name]), 100*quartileSpread(sets[1][d.name]), 100*d.bound)
		}
	}
	return nil
}

func runChild(exe, workload string, seed int64, seconds float64) (*resultLine, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var line resultLine
	if err := json.Unmarshal(last, &line); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &line, nil
}
