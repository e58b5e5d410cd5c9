// Command benchmark is the repository's standing benchmark: it follows a
// sample's trip up a live in-process monitoring tree on loopback TCP and
// reports, per workload, the end-to-end numbers a site operator sees
// and, from a separate traced run, one number per layer the trip
// crosses. BENCHMARK.json at the repository root names the workloads,
// metrics and bounds; README.md in this directory explains them.
//
//	go run . -workload tree_nlevel            # one timed run
//	go run . -workload tree_nlevel -trace 1   # per-layer metrics and spans
//	go run . -repeat 5 -out a.json            # all workloads, five seeds
//	go run . -compare a.json b.json           # ok / worse / unresolved
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// defaultRunSeconds is BENCHMARK.json's run_seconds.
const defaultRunSeconds = 28

// runLimit ends a run that hangs, inside the harness's 180-second cap.
const runLimit = 150 * time.Second

// report is the full output document: provenance plus every run.
type report struct {
	Env        environment        `json:"env"`
	RunSeconds int                `json:"run_seconds"`
	Phases     map[string]float64 `json:"phases_s"`
	Sizes      map[string]sizes   `json:"sizes"`
	Runs       []*runResult       `json:"runs"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all four)")
		seed     = flag.Int64("seed", 1, "seed of the emulators' value streams and the viewer's page sequence")
		seconds  = flag.Int("seconds", defaultRunSeconds, "length of one run's measured phases")
		trace    = flag.Int("trace", 0, "1 runs the traced run: per-layer metrics, spans written to benchmark/out")
		smoke    = flag.Bool("smoke", false, "tiny clusters and short archives, for tests")
		repeat   = flag.Int("repeat", 1, "runs per workload, on consecutive seeds; prints median and quartiles")
		out      = flag.String("out", "", "write the full result document (provenance and every run) to this file")
		compare  = flag.Bool("compare", false, "compare two result documents: -compare a.json b.json")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as the definitions in this program imply it")
	)
	flag.Parse()

	switch {
	case *manifest:
		data, err := manifestJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result documents"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("-seconds and -repeat must be at least 1, -trace 0 or 1"))
	}

	specs := workloads()
	if *smoke {
		specs = smokeWorkloads()
	}
	if *workload != "" {
		var one []*workloadSpec
		for _, w := range specs {
			if w.Name == *workload {
				one = append(one, w)
			}
		}
		if one == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		specs = one
	}

	ph := phasesFor(time.Duration(*seconds) * time.Second)
	doc := &report{
		Env: currentEnvironment(), RunSeconds: *seconds, Sizes: map[string]sizes{},
		Phases: map[string]float64{
			"A": ph.A.Seconds(), "B1": ph.B1.Seconds(), "B2": ph.B2.Seconds(),
			"trace_reference": ph.TraceRef.Seconds(), "trace_A": ph.TraceA.Seconds(),
		},
	}
	env, _ := json.Marshal(doc.Env)
	fmt.Printf("environment %s\n", env)

	failed := false
	for _, w := range specs {
		doc.Sizes[w.Name] = w.sizes()
		sz, _ := json.Marshal(doc.Sizes[w.Name])
		fmt.Printf("\n== %s: %s\n   sizes %s\n   phases A %v, B1 %v, B2 %v\n", w.Name, w.Why, sz, ph.A, ph.B1, ph.B2)
		var results []*runResult
		for i := 0; i < *repeat; i++ {
			cfg := runConfig{
				spec: w, seed: *seed + int64(i), phases: ph, trace: *trace == 1,
				setups: timedSetups, replayBudget: replayBudget, outDir: outDir(),
			}
			if *smoke {
				cfg.replayBudget /= 10
			}
			run := timedRun
			if cfg.trace {
				run = tracedRun
			}
			stop := watchdog(runLimit)
			res, err := run(cfg)
			stop()
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.Name, err))
			}
			results = append(results, res)
			doc.Runs = append(doc.Runs, res)
			printRun(res, cfg.trace)
			failed = failed || res.Failed > 0
		}
		if *repeat > 1 {
			printRepeat(w.Name, results, defsFor(*trace == 1))
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

const (
	// timedSetups is how many times a timed run sets the tree up: one
	// warm-up, then five whose median is setup_s.
	timedSetups = 6
	// replayBudget is how long each isolated-layer measurement of the
	// replay stage runs.
	replayBudget = 60 * time.Millisecond
)

// outDir is where span files and scratch archives go: benchmark/out
// from the repository root (how run.sh starts the program), out from
// inside the benchmark directory (go run .).
func outDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printRun prints every metric of one run by name, with its unit and
// sample count, then the one-line result the harness reads.
func printRun(res *runResult, trace bool) {
	fmt.Printf("-- %s seed %d (%s run): attempted %d, failed %d, fail_ratio %g\n",
		res.Workload, res.Seed, map[bool]string{false: "timed", true: "traced"}[trace], res.Attempted, res.Failed, res.FailRatio)
	for _, msg := range res.Failures {
		fmt.Printf("   FAILED: %s\n", msg)
	}
	for _, d := range defsFor(trace) {
		v, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		note := ""
		if v.Beyond != nil {
			note = fmt.Sprintf(", %d beyond", *v.Beyond)
			if *v.Beyond < minTailSamples {
				note += fmt.Sprintf(" (under %d: highest supported percentile is p%g)", minTailSamples, highestSupported(v.Samples))
			}
		}
		fmt.Printf("   %-42s %14.4f %-6s (n=%d%s)\n", d.Name, v.Value, v.Unit, v.Samples, note)
	}
	if res.TraceFile != "" {
		fmt.Printf("   spans written to %s\n", res.TraceFile)
	}
	type contractMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{res.Failed == 0, max(res.Attempted, 1), res.Failed, map[string]contractMetric{}}
	for name, v := range res.Metrics {
		line.Metrics[name] = contractMetric{v.Value, v.Unit}
	}
	data, _ := json.Marshal(line)
	fmt.Printf("%s\n", data)
}

// printRepeat prints median and quartiles per metric over several runs.
func printRepeat(workload string, results []*runResult, defs []metricDef) {
	fmt.Printf("-- %s over %d runs: median [q1, q3] spread (bound)\n", workload, len(results))
	for _, d := range defs {
		var xs []float64
		for _, r := range results {
			if v, ok := r.Metrics[d.Name]; ok {
				xs = append(xs, v.Value)
			}
		}
		if len(xs) == 0 {
			continue
		}
		q1, q3 := quartiles(xs)
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf(" (bound %.0f%%)", 100*d.Bound)
		}
		fmt.Printf("   %-42s %14.4f [%.4f, %.4f] %5.1f%%%s %s\n", d.Name, median(xs), q1, q3, 100*spreadShare(xs), bound, d.Unit)
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
