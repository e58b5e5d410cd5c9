package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// manifestJSON renders BENCHMARK.json from this program's own
// definitions, so the file and the code cannot drift apart unnoticed
// (a test compares them).
func manifestJSON() ([]byte, error) {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundedEntry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerEntry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []boundedEntry  `json:"end_to_end"`
		PerLayer   []layerEntry    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultRunSeconds,
	}
	for _, w := range workloads() {
		doc.Workloads = append(doc.Workloads, workloadEntry{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, boundedEntry{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerEntry{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// verdict is the comparator's word on one metric of one workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge compares a change's runs (b) with the parent's (a) for one
// metric: worse when b's median is beyond the bound on the wrong side
// of a's, unresolved when either side's run-to-run spread is wider than
// the bound (so a regression of that size could hide in it), ok
// otherwise. A zero bound tolerates nothing.
func judge(d metricDef, a, b []float64) verdict {
	ma, mb := median(a), median(b)
	change := (mb - ma) / ma
	if ma == 0 {
		change = mb - ma
	}
	if d.Better == "higher" {
		change = -change
	}
	if change > d.Bound {
		return verdictWorse
	}
	if spreadShare(a) > d.Bound || spreadShare(b) > d.Bound {
		return verdictUnresolved
	}
	return verdictOK
}

// failRatio is the thirteenth end-to-end number. It is zero on a sound
// system, so it travels as the result line's failed/attempted counts
// and not as a bounded metric; the comparator holds it to a bound of
// zero.
var failRatio = metricDef{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc report
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// timedValues groups the timed runs' values by workload and metric.
func timedValues(doc *report) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range doc.Runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
		out[r.Workload][failRatio.Name] = append(out[r.Workload][failRatio.Name], r.FailRatio)
	}
	return out
}

// compareFiles prints one line per workload and end-to-end metric and
// reports whether anything came out worse.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	docA, err := loadReport(pathA)
	if err != nil {
		return false, err
	}
	docB, err := loadReport(pathB)
	if err != nil {
		return false, err
	}
	a, b := timedValues(docA), timedValues(docB)
	counts := map[verdict]int{}
	for _, workload := range sortedKeys(a) {
		if b[workload] == nil {
			continue
		}
		fmt.Fprintf(w, "== %s\n", workload)
		for _, d := range append(append([]metricDef(nil), endToEnd...), failRatio) {
			va, vb := a[workload][d.Name], b[workload][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(d, va, vb)
			counts[v]++
			fmt.Fprintf(w, "   %-10s %-22s %12.4f -> %12.4f %-5s (spread %.1f%% / %.1f%%, bound %.0f%%, n=%d/%d)\n",
				v, d.Name, median(va), median(vb), d.Unit, 100*spreadShare(va), 100*spreadShare(vb), 100*d.Bound, len(va), len(vb))
		}
	}
	fmt.Fprintf(w, "%d ok, %d worse, %d unresolved\n", counts[verdictOK], counts[verdictWorse], counts[verdictUnresolved])
	return counts[verdictWorse] > 0, nil
}
