// Command perfbench is the streamed-decode benchmark: it drives complete
// monitoring sessions through csecg.RunStream, times every slot on the
// wall clock, checks the decoded output and prints one JSON result line.
//
//	perfbench --workload stream_cr50 --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
// runs the workload untraced and then again through the public
// constructors with a span around every layer call, and reports the
// per-layer metrics. run.sh builds the binary inside the checkout and
// runs it; see README.md for the workloads and the metric mapping.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// Process settings held fixed for every run, so that runs under other
// defaults stay comparable: both change the slot time.
const (
	benchProcs = 2
	benchGOGC  = 100
)

// metric is one reported figure with the sample count behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// iterations is the mean FISTA iteration count per decoded window
	// and worstPRD the highest session mean PRDN, printed beside the
	// metrics.
	iterations, worstPRD float64
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name (stream_cr50, sweep48_cr50, monitored_lossy)")
		seed    = flag.Uint64("seed", 1, "workload seed: sensing matrices, link faults, record rotation")
		seconds = flag.Float64("seconds", 20, "nominal measured seconds; sets the amount of work in the run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	)
	flag.Parse()
	err := fmt.Errorf("--trace must be 0 or 1")
	if *trace == 0 || *trace == 1 {
		err = run(*name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	runtime.GOMAXPROCS(benchProcs)
	debug.SetGCPercent(benchGOGC)

	env := captureEnv()
	var res *result
	if traced {
		res, err = runTraced(w, seed, seconds)
	} else {
		res, err = runEndToEnd(w, seed, seconds)
	}
	if err != nil {
		return err
	}
	env.finish()

	fmt.Printf("workload %s seed %d seconds %g trace %v\n", w.name, seed, seconds, traced)
	envLine, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", envLine)
	fmt.Printf("  %-40s %14.6g\n", "(iterations per decoded window)", res.iterations)
	fmt.Printf("  %-40s %14.6g\n", "(highest session mean PRDN, %)", res.worstPRD)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics { //csecg:orderok the names are sorted below
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-40s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, m.samples)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
