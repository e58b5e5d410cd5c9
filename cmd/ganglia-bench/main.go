// Command ganglia-bench regenerates the paper's evaluation: figure 5
// (wide-area scalability), figure 6 (cluster-size sweep), table 1
// (web-frontend query timings), the §2.1 gmond bandwidth claim, and the
// fidelity check that a pseudo-gmond emulator costs gmetad what a real
// gmond cluster does.
//
// Usage:
//
//	ganglia-bench -experiment all            # everything, paper-scale
//	ganglia-bench -experiment fig5 -hosts 100 -rounds 8
//	ganglia-bench -experiment fig6 -sizes 10,50,100,150,200,300,400,500
//	ganglia-bench -experiment table1 -samples 5
//	ganglia-bench -experiment bandwidth
//	ganglia-bench -experiment fidelity -hosts 100
//
// Each experiment prints the regenerated table or figure series, then
// re-checks the paper's qualitative claims and reports any violations.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"ganglia/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig5, fig6, table1, bandwidth, fidelity or all")
		hosts      = flag.Int("hosts", 100, "hosts per cluster (fig5, table1, fidelity)")
		rounds     = flag.Int("rounds", 8, "measured polling rounds (fig5, fig6)")
		samples    = flag.Int("samples", 5, "samples per view (table1)")
		sizes      = flag.String("sizes", "", "comma-separated cluster sizes (fig6; default: paper sweep)")
		csvDir     = flag.String("csv", "", "directory to write fig5.csv/fig6.csv/table1.csv into (optional)")
		detail     = flag.Bool("detail", false, "also print the fig5 per-phase work breakdown")
	)
	flag.Parse()

	writeCSV := func(name string, emit func(w io.Writer) error) {
		if *csvDir == "" {
			return
		}
		path := *csvDir + "/" + name
		f, err := os.Create(path)
		if err != nil {
			log.Fatalf("csv: %v", err)
		}
		if err := emit(f); err != nil {
			_ = f.Close()
			log.Fatalf("csv %s: %v", path, err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("csv %s: %v", path, err)
		}
		fmt.Printf("  wrote %s\n\n", path)
	}

	failed := false
	check := func(name string, errs []string) {
		if len(errs) == 0 {
			fmt.Printf("  shape check: OK — the paper's qualitative claims hold\n\n")
			return
		}
		failed = true
		fmt.Printf("  shape check: %d violation(s)\n", len(errs))
		for _, e := range errs {
			fmt.Printf("    - %s\n", e)
		}
		fmt.Println()
		_ = name
	}

	run := map[string]func(){
		"fig5": func() {
			res, err := bench.RunFig5(bench.Fig5Config{ClusterSize: *hosts, Rounds: *rounds})
			if err != nil {
				log.Fatalf("fig5: %v", err)
			}
			fmt.Println(res.Table())
			if *detail {
				fmt.Println(res.DetailTable())
			}
			check("fig5", res.ShapeErrors())
			writeCSV("fig5.csv", res.WriteCSV)
		},
		"fig6": func() {
			cfg := bench.Fig6Config{Rounds: *rounds}
			if *sizes != "" {
				for _, s := range strings.Split(*sizes, ",") {
					n, err := strconv.Atoi(strings.TrimSpace(s))
					if err != nil {
						log.Fatalf("fig6: bad size %q", s)
					}
					cfg.Sizes = append(cfg.Sizes, n)
				}
			}
			res, err := bench.RunFig6(cfg)
			if err != nil {
				log.Fatalf("fig6: %v", err)
			}
			fmt.Println(res.Table())
			check("fig6", res.ShapeErrors())
			writeCSV("fig6.csv", res.WriteCSV)
		},
		"table1": func() {
			res, err := bench.RunTable1(bench.Table1Config{ClusterSize: *hosts, Samples: *samples})
			if err != nil {
				log.Fatalf("table1: %v", err)
			}
			fmt.Println(res.Table())
			check("table1", res.ShapeErrors())
			writeCSV("table1.csv", res.WriteCSV)
		},
		"bandwidth": func() {
			res, err := bench.RunBandwidth(bench.BandwidthConfig{})
			if err != nil {
				log.Fatalf("bandwidth: %v", err)
			}
			fmt.Println(res.Table())
			check("bandwidth", res.ShapeErrors())
		},
		"fidelity": func() {
			res, err := bench.RunFidelity(bench.FidelityConfig{Hosts: *hosts})
			if err != nil {
				log.Fatalf("fidelity: %v", err)
			}
			fmt.Println(res.Table())
			check("fidelity", res.ShapeErrors())
		},
	}

	switch *experiment {
	case "all":
		for _, name := range []string{"fig5", "fig6", "table1", "bandwidth", "fidelity"} {
			run[name]()
		}
	default:
		f, ok := run[*experiment]
		if !ok {
			log.Fatalf("unknown experiment %q (want fig5, fig6, table1, bandwidth, fidelity or all)", *experiment)
		}
		f()
	}
	if failed {
		os.Exit(1)
	}
}
