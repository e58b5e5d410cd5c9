package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// environment is the provenance block printed with every result.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	// Substitution says what stands in for the paper's six machines.
	Substitution string `json:"measurement_substitution"`
}

func currentEnvironment() environment {
	return environment{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Commit:       gitCommit("."),
		Substitution: "loopback TCP, in-process daemons, virtual clock (15 s per round)",
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from dir/.git without running
// git; a checkout that is not a repository reports "unknown".
func gitCommit(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return strings.TrimSpace(string(head)) // detached HEAD holds the hash itself
	}
	if hash, err := os.ReadFile(filepath.Join(dir, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(hash))
	}
	packed, err := os.ReadFile(filepath.Join(dir, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// sizes records a workload's final sizes for the provenance block.
type sizes struct {
	Gmetads         int     `json:"gmetads"`
	Clusters        int     `json:"clusters"`
	HostsPerCluster int     `json:"hosts_per_cluster"`
	Hosts           int     `json:"hosts"`
	Mode            string  `json:"mode"`
	Churn           float64 `json:"churn"`
	Subscribe       bool    `json:"root_links_subscribed"`
	Archives        string  `json:"archives"`
	RoundsPerSec    float64 `json:"rounds_per_s"`
	ViewsPerSec     float64 `json:"views_per_s"`
	HistoryRounds   int     `json:"history_rounds"`
	ViewMix         string  `json:"view_mix"`
}

func (w *workloadSpec) sizes() sizes {
	topo := w.topology()
	archives := "rrd.DefaultSpec"
	if w.ArchiveRows > 0 {
		archives = "one archive (smoke)"
	}
	var mix []string
	for _, m := range w.Mix {
		mix = append(mix, fmt.Sprintf("%s %d%%", m.Kind, m.Percent))
	}
	return sizes{
		Gmetads: len(topo.Nodes), Clusters: topo.ClusterCount(), HostsPerCluster: w.HostsPerCluster,
		Hosts: topo.HostCount(), Mode: w.Mode.String(), Churn: w.Churn, Subscribe: w.Subscribe,
		Archives: archives, RoundsPerSec: w.RoundsPerSec, ViewsPerSec: w.ViewsPerSec,
		HistoryRounds: w.HistoryRounds, ViewMix: strings.Join(mix, ", "),
	}
}
