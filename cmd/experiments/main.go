// Command experiments regenerates the paper's evaluation figures
// (Figs. 9-22 of §7) as text tables.
//
// Usage:
//
//	experiments [-quick] [-seed N] all
//	experiments [-quick] [-seed N] fig9 [fig10 ...]
//
// Full mode follows the paper's workload scales and can take tens of
// minutes (exact optima at 30 queries dominate); -quick shrinks everything
// to run in a few minutes. EXPERIMENTS.md records full-mode output.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"wisedb/internal/experiments"
)

func main() { os.Exit(run()) }

// run carries the real main so that profile-flushing defers execute before
// the process exits.
func run() int {
	quick := flag.Bool("quick", false, "reduced workload and training scale")
	seed := flag.Int64("seed", 1, "random seed for all samplers")
	parallelism := flag.Int("parallelism", 0, "training worker goroutines (0 = all cores); models are identical for every value")
	expansionCap := flag.Int("expansion-cap", experiments.DefaultExpansionCap,
		"max expansions per exact-optimum comparator search; capped trials fall back to the best known bound and are reported in the tables")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit (records lock hold-ups, e.g. ω-map stripe contention)")
	flag.Usage = usage
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *mutexprofile != "" {
		// Sample every mutex hold-up; the experiments are minutes long, so
		// full sampling costs little and keeps rare-but-long stalls visible.
		runtime.SetMutexProfileFraction(1)
		defer func() {
			f, err := os.Create(*mutexprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mutexprofile: %v\n", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "mutexprofile: %v\n", err)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	cfg := experiments.DefaultConfig(os.Stdout)
	if *quick {
		cfg = experiments.QuickConfig(os.Stdout)
	}
	cfg.Seed = *seed
	cfg.Parallelism = *parallelism
	cfg.ExpansionCap = *expansionCap

	figs := experimentsFor(cfg)
	args := flag.Args()
	if len(args) == 0 {
		usage()
		return 2
	}
	if len(args) == 1 && args[0] == "all" {
		args = allOrder(figs)
	}
	for _, name := range args {
		fig, ok := figs[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			usage()
			return 2
		}
		start := time.Now()
		if err := fig(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			return 1
		}
		fmt.Printf("(%s took %s)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// experimentsFor returns every experiment the command runs, by name.
func experimentsFor(cfg *experiments.Config) map[string]func() error {
	return map[string]func() error{
		"fig9":  wrap(cfg.Fig9),
		"fig10": wrap(cfg.Fig10),
		"fig11": wrap(cfg.Fig11),
		"fig12": wrap(cfg.Fig12),
		"fig13": wrap(cfg.Fig13),
		"fig14": wrap(cfg.Fig14),
		"fig15": wrap(cfg.Fig15),
		"fig16": wrap(cfg.Fig16),
		"fig17": wrap(cfg.Fig17),
		"fig18": wrap(cfg.Fig18),
		"fig19": wrap(cfg.Fig19),
		"fig20": wrap(cfg.Fig20),
		"fig21": wrap(cfg.Fig21),
		"fig22": wrap(cfg.Fig22),
		// Serving-at-scale experiments (beyond the paper; EXPERIMENTS.md
		// "Serving at scale").
		"serve":     wrap(cfg.ServeThroughput),
		"recovery":  wrap(cfg.ServeRecovery),
		"scaleout":  wrap(cfg.ServeScaleOut),
		"chaos":     wrap(cfg.Chaos),
		"scenarios": wrap(cfg.Scenarios),
	}
}

// allOrder returns the experiment names in the order `all` runs them: the
// paper's figures by number, then the rest by name. The order is fixed, so
// two `all` outputs diff table by table.
func allOrder(figs map[string]func() error) []string {
	return slices.SortedFunc(maps.Keys(figs), func(a, b string) int {
		return cmp.Or(cmp.Compare(figNum(a), figNum(b)), cmp.Compare(a, b))
	})
}

func wrap(f func() (*experiments.Table, error)) func() error {
	return func() error {
		_, err := f()
		return err
	}
}

func figNum(name string) int {
	var n int
	if _, err := fmt.Sscanf(name, "fig%d", &n); err != nil {
		return 100 // non-figure experiments (serve, recovery) run last
	}
	return n
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: experiments [-quick] [-seed N] [-parallelism P] [-expansion-cap N] [-cpuprofile F] [-memprofile F] [-mutexprofile F] all | figN [figM ...]

Regenerates the evaluation figures of the WiSeDB paper (VLDB 2016, §7):
  fig9   optimality across performance metrics      fig16  adaptive re-training time
  fig10  optimality vs workload size                fig17  batch scheduling overhead
  fig11  optimality vs goal strictness              fig18  online scheduling vs optimal
  fig12  one vs two VM types                        fig19  online scheduling overhead
  fig13  WiSeDB vs FFD/FFI/Pack9                    fig20  skewed workloads
  fig14  training time vs #templates                fig21  skew vs cost range
  fig15  training time vs #VM types                 fig22  latency prediction error

Serving-at-scale experiments (beyond the paper):
  serve     multi-tenant serving throughput (K streams, p50/p99, SLA violations)
  recovery  injected mix shift: drift detection via EMD + model hot-swap recovery
  scaleout  batch replay: 1 -> 10k tenant streams, parallelism=GOMAXPROCS vs 1 arrivals/sec
  chaos     fault injection: VM failures, breaker-tripping retrains, degraded fallback
  scenarios trace-driven scenario catalog: Poisson/Pareto/diurnal/flash-crowd arrivals,
            gold-bronze priority tiers, spot-style time-varying VM prices
`)
}
